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
from .solver import compute_spectrum
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


@dataclass(frozen=True)
class RunConfig:
    command: str
    graph_path: str
    sigma: float | None
    n_max: int | None
    k_max: float | None
    window: int | None
    out: str | None
    format: str
    tol: float | None

    @property
    def target_n(self) -> int:
        return self.n_max if self.n_max is not None else 2500


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


def _format_column(values) -> list:
    """_fmt of each value of one column; the type is tested once for a
    column of floats or of ints."""
    kinds = set(map(type, values))
    if kinds <= {float, np.float64, type(None)}:
        return list(map(_fmt_float, values))
    if kinds <= {int, np.int64}:
        return list(map(str, values))
    return list(map(_fmt, values))


def _csv_text(columns, rows) -> str:
    """The table as CSV, formatted column by column."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(columns)
    writer.writerows(zip(*(_format_column(column) for column in zip(*rows))))
    return buf.getvalue()


def _json_ready(value):
    if value is None:
        return None
    if isinstance(value, (int, np.integer)):
        return int(value)
    if isinstance(value, (float, np.floating)):
        return None if np.isnan(value) else float(value)
    return value


def _emit(table: Table, config: RunConfig) -> None:
    if config.format == "json":
        payload = {
            "columns": table.columns,
            "rows": [[_json_ready(x) for x in row] for row in table.rows],
        }
        for name, (cols, rows) in table.companions.items():
            payload[name] = {
                "columns": cols,
                "rows": [[_json_ready(x) for x in row] for row in rows],
            }
        text = json.dumps(payload, indent=2) + "\n"
        if config.out:
            with open(config.out, "w", encoding="utf-8", newline="") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)
        return

    text = _csv_text(table.columns, table.rows)
    if config.out:
        with open(config.out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        base, ext = os.path.splitext(config.out)
        for name, (cols, rows) in table.companions.items():
            side = f"{base}.{name}{ext}"
            with open(side, "w", encoding="utf-8", newline="") as fh:
                fh.write(_csv_text(cols, rows))
    else:
        sys.stdout.write(text)
        # companion tables only materialize with --out; stdout stays one table


def _load(config: RunConfig):
    graph, robin = load_graph_file(config.graph_path)
    if config.sigma is not None:
        robin = RobinSpec(robin.vertices, float(config.sigma))
    return graph, robin


def _spectrum(graph, robin, config: RunConfig):
    """The one spectrum call of every command: the run's target and solver settings."""
    return compute_spectrum(
        graph,
        robin,
        n_max=config.target_n if config.k_max is None else None,
        k_max=config.k_max,
        tol=config.tol,
    )


def _gap_series(graph, robin, config: RunConfig):
    """Index-paired gaps between the Neumann and the coupled spectrum."""
    return rng_sequence(
        _spectrum(graph, RobinSpec.neumann(), config),
        _spectrum(graph, robin, config),
        config.target_n,
    )


def _require_coupling(robin: RobinSpec) -> None:
    if not robin.vertices or robin.sigma <= 0.0:
        raise GraphSpectraError(
            "this command needs coupled vertices and a positive sigma"
        )


def _require_index_target(config: RunConfig) -> None:
    if config.k_max is not None:
        raise GraphSpectraError("statistics pair spectra by index; use --nmax")


def cmd_spectrum(config: RunConfig) -> Table:
    graph, robin = _load(config)
    spectrum = _spectrum(graph, robin, config)
    # an n_max spectrum ends at a scan point counting n_max or more; clip
    # the table
    limit = None if config.k_max is not None else config.target_n
    ks = spectrum.wavenumbers(limit).tolist()
    mults = np.repeat(spectrum.multiplicity, spectrum.multiplicity).tolist()
    rows = [(n, k, k**2, m) for n, (k, m) in enumerate(zip(ks, mults), start=1)]
    return Table(["n", "k_n", "lambda_n", "multiplicity"], rows, {})


def cmd_rng(config: RunConfig) -> Table:
    graph, robin = _load(config)
    _require_coupling(robin)
    _require_index_target(config)
    n = config.target_n
    series = _gap_series(graph, robin, config)
    mean = theoretical_mean(graph, robin)
    averaged = running_average(series.gaps, config.window)
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


def cmd_weyl(config: RunConfig) -> Table:
    graph, robin = _load(config)
    _require_index_target(config)
    n = config.target_n
    spectrum = _spectrum(graph, robin, config)
    report = weyl_moments(spectrum, n)
    total = graph.total_length
    slot_scale = 1.0 / (2.0 * total)

    rows = [
        ("n_used", float(report.n_used), None, None),
        ("skipped", float(report.skipped), None, None),
    ]
    for v in range(graph.num_vertices):
        predicted = 2.0 / (graph.degree(v) * total)
        measured = report.vertex_means[v]
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


def cmd_cdf(config: RunConfig) -> Table:
    graph, robin = _load(config)
    _require_coupling(robin)
    _require_index_target(config)
    series = _gap_series(graph, robin, config)
    cdf = empirical_cdf(series)
    xs = np.unique(cdf.values)
    rows = [("cdf", float(x), float(x), float(cdf(x))) for x in xs]
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


def cmd_sensitivity(config: RunConfig) -> Table:
    graph, robin = _load(config)
    if not robin.vertices:
        raise GraphSpectraError("this command needs coupled vertices")
    _require_index_target(config)
    n = config.target_n
    spectrum = _spectrum(graph, robin, config)
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
        p.add_argument("--tol", type=float, default=None,
                       help="root refinement tolerance")
        if name == "rng":
            p.add_argument("--window", type=int, default=21,
                           help="odd running-average window (default 21)")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    config = RunConfig(
        command=args.command,
        graph_path=args.graph,
        sigma=args.sigma,
        n_max=args.nmax,
        k_max=args.kmax,
        window=getattr(args, "window", None),
        out=args.out,
        format=args.format,
        tol=args.tol,
    )
    try:
        table = _COMMANDS[config.command](config)
        _emit(table, config)
    except (GraphSpectraError, ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if table.violations:
        print(f"error: {table.violations} bound violation(s)", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
