"""Command-line front end.

Subcommands compute a spectrum or one of the gap statistics for a graph
described by a JSON file and emit flat tables as CSV (default) or JSON.
CSV uses a comma separator, period decimals, a header row, LF endings,
and 15-significant-digit floats, so identical configurations reproduce
byte-identical output.  Exit status is 0 only when the run saw no bound
violations and no solver audits tripped; inapplicable bound entries are
written as NA.
"""
from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import os
import sys
from dataclasses import dataclass

import numpy as np

from .bounds import bound_report, check_all, sensitivity_bound, shortest_edge_bound
from .eigenfunctions import sensitivity
from .errors import GraphSpectraError
from .graphs import RobinSpec, boundary_star_decomposition, load_graph_file
from .solver import compute_spectra, compute_spectrum
from .stats import (
    accumulation_clusters,
    arctan_prediction,
    empirical_cdf,
    rng_sequence,
    running_average,
    sensitivity_prediction,
    theoretical_mean,
    weyl_moments,
)

HISTOGRAM_BINS = 50


@dataclass
class Table:
    columns: list
    rows: list
    companions: dict
    violations: int = 0


def _fmt_float(value) -> str:
    """A float with 15 significant digits; NaN and None are NA."""
    return "NA" if value is None or value != value else "{:.15g}".format(value)


def _fmt(value) -> str:
    if value is None:
        return "NA"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return _fmt_float(float(value))
    return str(value)


# a cell csv would quote, or the lone empty field it writes as ""
_QUOTED = frozenset(',"\r\n')


def _column_format(values) -> str | None:
    """The % conversion that writes the values of a column as _fmt does
    (a float column's NaN and None cells excepted), or None for a column of
    mixed kinds or with a string csv would quote."""
    kinds = set(map(type, values))
    if kinds <= {float, np.float64, type(None)}:
        return "%.15g"
    if kinds <= {int, np.int64}:
        return "%d"
    if kinds <= {str} and all(value and _QUOTED.isdisjoint(value) for value in values):
        return "%s"
    return None


def _csv_text(columns, rows) -> str:
    """The table as CSV: each row by one % format, the conversions chosen
    once per column (_column_format).  A row with NaN or None in a float
    column is formatted cell by cell, as is every row of a table with a
    column that has no conversion."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(columns)
    table = list(zip(*rows))
    formats = [_column_format(column) for column in table]
    if None in formats:
        writer.writerows([_fmt(value) for value in row] for row in rows)
        return buf.getvalue()
    line = ",".join(formats) + "\n"
    floats = [column for column, f in zip(table, formats) if f == "%.15g"]
    na = np.isnan(np.array(floats, dtype=float)).any(axis=0) if floats else np.zeros(len(rows))
    buf.writelines(
        ",".join(map(_fmt, row)) + "\n" if missing else line % row
        for row, missing in zip(rows, na.tolist())
    )
    return buf.getvalue()


def _json_ready(value):
    if value is None:
        return None
    if isinstance(value, (int, np.integer)):
        return int(value)
    if isinstance(value, (float, np.floating)):
        return None if np.isnan(value) else float(value)
    return value


def _target_n(args: argparse.Namespace) -> int:
    """--nmax, or its default of 2500."""
    return args.nmax if args.nmax is not None else 2500


def _emit(table: Table, args: argparse.Namespace) -> None:
    if args.format == "json":
        payload = {
            "columns": table.columns,
            "rows": [[_json_ready(x) for x in row] for row in table.rows],
        }
        for name, (cols, rows) in table.companions.items():
            payload[name] = {
                "columns": cols,
                "rows": [[_json_ready(x) for x in row] for row in rows],
            }
        texts = {args.out: json.dumps(payload, indent=2) + "\n"}
    else:
        texts = {args.out: _csv_text(table.columns, table.rows)}
        # companion tables only materialize with --out; stdout stays one table
        if args.out:
            base, ext = os.path.splitext(args.out)
            for name, (cols, rows) in table.companions.items():
                texts[f"{base}.{name}{ext}"] = _csv_text(cols, rows)
    for path, text in texts.items():
        if path:
            with open(path, "w", encoding="utf-8", newline="") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)


def _load(args: argparse.Namespace):
    graph, robin = load_graph_file(args.graph)
    if args.sigma is not None:
        robin = RobinSpec(robin.vertices, float(args.sigma))
    return graph, robin


def _target(args: argparse.Namespace) -> dict:
    """The run's spectrum target."""
    return {"n_max": _target_n(args) if args.kmax is None else None, "k_max": args.kmax}


def _spectrum(graph, robin, args: argparse.Namespace):
    """The spectrum of a single-coupling command."""
    return compute_spectrum(graph, robin, **_target(args))


def _gap_series(graph, robin, args: argparse.Namespace):
    """Index-paired gaps between the Neumann and the coupled spectrum, both
    from one solver pass."""
    neumann, coupled = compute_spectra(graph, (RobinSpec.neumann(), robin), **_target(args))
    return rng_sequence(neumann, coupled, _target_n(args))


def _require_coupling(robin: RobinSpec) -> None:
    if not robin.vertices or robin.sigma <= 0.0:
        raise GraphSpectraError(
            "this command needs coupled vertices and a positive sigma"
        )


def _require_index_target(args: argparse.Namespace) -> None:
    if args.kmax is not None:
        raise GraphSpectraError("statistics pair spectra by index; use --nmax")


def cmd_spectrum(args: argparse.Namespace) -> Table:
    graph, robin = _load(args)
    spectrum = _spectrum(graph, robin, args)
    ks = spectrum.wavenumbers()
    # a spectrum ends at k_cap, at or past its target; clip the table to it
    limit = _target_n(args) if args.kmax is None else (
        np.searchsorted(ks, args.kmax, side="right")
    )
    mults = np.repeat(spectrum.multiplicity, spectrum.multiplicity)[:limit].tolist()
    ks = ks[:limit].tolist()
    rows = [(n, k, k**2, m) for n, (k, m) in enumerate(zip(ks, mults), start=1)]
    return Table(["n", "k_n", "lambda_n", "multiplicity"], rows, {})


def cmd_rng(args: argparse.Namespace) -> Table:
    graph, robin = _load(args)
    _require_coupling(robin)
    _require_index_target(args)
    n = _target_n(args)
    series = _gap_series(graph, robin, args)
    mean = theoretical_mean(graph, robin)
    averaged = running_average(series.gaps, args.window)
    predicted = arctan_prediction(graph, robin, series.k_neumann)
    decomp = boundary_star_decomposition(graph, robin)
    reports = check_all(series, decomp)
    violations = sum(len(r.violations) for r in reports)

    # Python floats format faster than numpy scalars; a NaN bound prints NA
    flat, refined = np.full(n, reports[0].bound[0]), reports[2].bound
    columns = (series.gaps, series.gaps / mean, averaged, predicted, flat, refined)
    rows = list(zip(range(1, n + 1), *(column.tolist() for column in columns)))
    clusters = accumulation_clusters(series)
    companions = {
        "clusters": (
            ["value", "count"],
            [(value, count) for value, count in clusters],
        )
    }
    return Table(
        ["n", "d_n", "d_n_normalized", "running_avg", "arctan_pred",
         "gap_bound", "improved_bound"],
        rows,
        companions,
        violations=violations,
    )


def cmd_weyl(args: argparse.Namespace) -> Table:
    graph, robin = _load(args)
    _require_index_target(args)
    n = _target_n(args)
    spectrum = _spectrum(graph, robin, args)
    report = weyl_moments(spectrum, n)
    total = graph.total_length
    slot_scale = 1.0 / (2.0 * total)

    rows = [
        ("n_used", float(report.n_used), None, None),
        ("skipped", float(report.skipped), None, None),
    ]
    predictions = 2.0 / (graph.degrees * total)
    for v, (measured, predicted) in enumerate(zip(report.vertex_means, predictions)):
        rows.append(
            (f"vertex_sq_{v}", measured, predicted,
             abs(measured - predicted) / predicted)
        )
    for j in range(graph.num_slots):
        measured = report.slot_means[j]
        rows.append(
            (f"slot_sq_{j}", measured, slot_scale,
             abs(measured - slot_scale) / slot_scale)
        )
    for i in range(graph.num_slots):
        for j in range(i + 1, graph.num_slots):
            measured = abs(report.cross_matrix[i, j])
            # relative to the diagonal scale; the prediction itself is 0
            rows.append((f"cross_{i}_{j}", measured, 0.0, measured / slot_scale))
    return Table(["quantity", "measured", "predicted", "rel_error"], rows, {})


def cmd_cdf(args: argparse.Namespace) -> Table:
    graph, robin = _load(args)
    _require_coupling(robin)
    _require_index_target(args)
    series = _gap_series(graph, robin, args)
    cdf = empirical_cdf(series)
    # the distinct values, from the sorted ones without np.unique, which
    # imports numpy.ma
    xs = cdf.values[np.diff(cdf.values, prepend=-np.inf) > 0.0]
    rows = [("cdf", x, x, value) for x, value in zip(xs.tolist(), cdf(xs).tolist())]
    density, edges = np.histogram(series.gaps, bins=HISTOGRAM_BINS, density=True)
    rows.extend(
        ("hist", float(edges[i]), float(edges[i + 1]), float(density[i]))
        for i in range(density.size)
    )
    ceiling = shortest_edge_bound(graph, robin)
    top = float(np.max(series.gaps))
    rows.append(("support", top, ceiling, top / ceiling))
    # one verdict on the support: some gap exceeds the ceiling by its error
    support = bound_report("shortest-edge-bound", ceiling, series.gaps, series.error)
    violations = int(not support.ok)
    return Table(["kind", "x_lo", "x_hi", "value"], rows, {}, violations=violations)


def cmd_sensitivity(args: argparse.Namespace) -> Table:
    graph, robin = _load(args)
    if not robin.vertices:
        raise GraphSpectraError("this command needs coupled vertices")
    _require_index_target(args)
    n = _target_n(args)
    spectrum = _spectrum(graph, robin, args)
    decomp = boundary_star_decomposition(graph, robin)
    lams = spectrum.eigenvalues(n)
    values = sensitivity(spectrum, np.arange(1, n + 1))
    positive = lams > 0.0
    predictions = np.full(n, np.nan)
    bounds = np.full(n, np.nan)
    predictions[positive] = sensitivity_prediction(graph, robin, lams[positive])
    bounds[positive] = sensitivity_bound(decomp, robin, lams[positive])
    # a basis average over a multiple eigenvalue is not held to the bound
    checked = np.where(values.degenerate, np.nan, bounds)
    violations = len(bound_report("sensitivity-bound", checked, values.value).violations)
    columns = (lams, values.value, predictions, bounds, values.degenerate.astype(int))
    rows = list(zip(range(1, n + 1), *(column.tolist() for column in columns)))
    return Table(
        ["n", "lambda_n", "sensitivity", "prediction", "bound", "degenerate"],
        rows,
        {},
        violations=violations,
    )


_COMMANDS = {
    "spectrum": cmd_spectrum,
    "rng": cmd_rng,
    "weyl": cmd_weyl,
    "cdf": cmd_cdf,
    "sensitivity": cmd_sensitivity,
}


@functools.lru_cache(maxsize=1)  # parsing leaves it as it was, and costs far less
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="graphspectra",
        description="Spectra and coupling-gap statistics of metric graphs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("spectrum", "eigenvalue table for one coupling value"),
        ("rng", "index-paired gap sequence with bounds and predictions"),
        ("weyl", "eigenfunction moment averages against their limits"),
        ("cdf", "empirical gap distribution and histogram"),
        ("sensitivity", "coupling derivatives against prediction and bound"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--graph", required=True, help="graph JSON file")
        p.add_argument("--sigma", type=float, default=None,
                       help="override the file's coupling strength")
        target = p.add_mutually_exclusive_group()
        target.add_argument("--nmax", type=int, default=None,
                            help="number of eigenvalues (default 2500)")
        target.add_argument("--kmax", type=float, default=None,
                            help="wave-number ceiling instead of a count")
        p.add_argument("--out", default=None, help="output path (default stdout)")
        p.add_argument("--format", choices=("csv", "json"), default="csv")
        if name == "rng":
            p.add_argument("--window", type=int, default=21,
                           help="odd running-average window (default 21)")
        else:
            p.set_defaults(window=None)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        table = _COMMANDS[args.command](args)
        _emit(table, args)
    except (GraphSpectraError, ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if table.violations:
        print(f"error: {table.violations} bound violation(s)", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
