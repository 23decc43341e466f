"""Tolerance-based checks of one job's CLI output.

Every job gets the invariant checks: consecutive indices, multiplicity
blocks that agree with their multiplicity column, increasing wave
numbers, and the counting-function drift N(k) - Theta(k)/2pi confined
to a window of width 2E.  That window is exact: the drift equals a
constant minus the sum of the 2E eigenphases of U(k), each in
[0, 2pi), over 2pi.  Anchoring the window at k -> 0+ catches a missed
or doubled root anywhere below the top of the table.  Paired commands
also get the Robin-above-Neumann interlacing (d_n >= 0) and the flat
gap bound, both computed here from the graph file.

``eigfun-degenerate`` jobs on the equilateral star are compared with
the closed-form spectrum, multiplicities and coupling derivatives
included.  The default seed is compared with a stored reference.
Tolerances follow the solver's default stop width, 4 eps (1 + k) in k,
plus the rounding of values printed with 15 significant digits.
"""
from __future__ import annotations

import csv
import io
import math

import numpy as np

from workloads import total_length

EPS = float(np.finfo(float).eps)
CLI_WINDOW = 21  # the CLI's default --window, which the jobs keep


class CheckFailure(Exception):
    """A job's output breaks an invariant, a closed form or the reference."""


def _require(cond, message: str) -> None:
    if not cond:
        raise CheckFailure(message)


def stop_width(k):
    """Default bisection stop width of the solver at wave number k."""
    return 4.0 * EPS * (1.0 + np.abs(k))


def print_noise(x):
    """Rounding of a value printed with 15 significant digits, twice over."""
    return 1e-14 * np.abs(x)


# --------------------------------------------------------------- graph data


def degrees(graph: dict) -> np.ndarray:
    deg = np.zeros(graph["vertices"], dtype=int)
    for e in graph["edges"]:
        deg[e["u"]] += 1
        deg[e["v"]] += 1
    return deg


def num_slots(graph: dict) -> int:
    return 2 * len(graph["edges"])


def _robin(graph: dict):
    block = graph.get("robin") or {}
    return sorted(block.get("vertices", ())), float(block.get("sigma", 0.0))


def has_zero_mode(graph: dict) -> bool:
    verts, sigma = _robin(graph)
    return sigma == 0.0 or not verts


def theta(graph: dict, k):
    """Closed-form total phase 2k|G| - 2 sum_v arctan(sigma / (deg v k))."""
    k = np.asarray(k, dtype=float)
    verts, sigma = _robin(graph)
    deg = degrees(graph)
    out = 2.0 * total_length(graph) * k
    for v in verts:
        out = out - 2.0 * np.arctan(sigma / (deg[v] * k))
    return out


def _theta_at_zero(graph: dict) -> float:
    verts, sigma = _robin(graph)
    return -math.pi * len(verts) if sigma > 0.0 else 0.0


def k_scale(graph: dict, n: int) -> float:
    """Upper estimate of k_n from Weyl's law plus the solver's scan slack."""
    return math.pi * (n + num_slots(graph) + 8) / total_length(graph)


def flat_gap_bound(graph: dict) -> float:
    """2 sigma / min |S_v| over the coupled vertices, boundary-star split."""
    verts, sigma = _robin(graph)
    robin = set(verts)
    star = np.zeros(graph["vertices"])
    for e in graph["edges"]:
        u, v, length = e["u"], e["v"], e["len"]
        if (u in robin) != (v in robin):
            star[u if u in robin else v] += length
        else:
            star[u] += 0.5 * length
            star[v] += 0.5 * length
    return 2.0 * sigma / float(min(star[v] for v in verts))


def theoretical_mean(graph: dict) -> float:
    verts, sigma = _robin(graph)
    deg = degrees(graph)
    return 2.0 * sigma / total_length(graph) * sum(1.0 / deg[v] for v in verts)


# ------------------------------------------------------------------ parsing


def parse_table(text: str):
    """(header, rows) of a CSV table; NA becomes nan in numeric columns."""
    reader = csv.reader(io.StringIO(text))
    try:
        header = next(reader)
    except StopIteration:
        raise CheckFailure("empty output") from None
    return header, [row for row in reader]


def _floats(rows, col: int) -> np.ndarray:
    try:
        return np.array([math.nan if r[col] == "NA" else float(r[col]) for r in rows])
    except (ValueError, IndexError) as exc:
        raise CheckFailure(f"bad numeric cell: {exc}") from None


def _expect_header(header, columns) -> None:
    _require(header == list(columns), f"header {header} != {list(columns)}")


def _consecutive(index: np.ndarray, count: int | None) -> None:
    _require(index.size > 0, "no rows")
    _require(
        np.array_equal(index, np.arange(1, index.size + 1)),
        "indices are not 1, 2, 3, ...",
    )
    if count is not None:
        _require(index.size == count, f"{index.size} rows, expected {count}")


def _blocks(values: np.ndarray):
    """(start, length) of runs of equal values; start is 0-based."""
    breaks = np.flatnonzero(np.diff(values) != 0.0) + 1
    starts = np.concatenate([[0], breaks])
    ends = np.concatenate([breaks, [values.size]])
    return starts, ends - starts


def _check_drift(graph: dict, ks, counts, label: str) -> None:
    """Counting-function drift window: max - min <= 2E, anchored at 0+."""
    ks = np.asarray(ks, dtype=float)
    counts = np.asarray(counts, dtype=float)
    anchor = (1.0 if has_zero_mode(graph) else 0.0) - _theta_at_zero(graph) / (2 * np.pi)
    drift = np.concatenate([[anchor], counts - theta(graph, ks) / (2 * np.pi)])
    width = float(drift.max() - drift.min())
    _require(
        width <= num_slots(graph) + 1e-6,
        f"{label}: counting drift spans {width:.6f} > 2E = {num_slots(graph)}",
    )


def _check_records(graph, k, record_mults, cut_last: bool, label: str, top=None) -> None:
    """Records (runs of equal k) against their multiplicities, the zero
    mode and the drift window.

    record_mults(starts, lengths) gives each record's multiplicity.  With
    cut_last the table may end inside the last record, whose count above
    its k is then not used.  top = (k, count) adds the table's ceiling.
    """
    _require(np.all(np.isfinite(k)), f"{label}: non-finite wave number")
    _require(np.all(np.diff(k) >= 0.0), f"{label}: wave numbers decrease")
    starts, lengths = _blocks(k)
    mults = record_mults(starts, lengths)
    for j, (s, length, m) in enumerate(zip(starts, lengths, mults)):
        cut = cut_last and j == starts.size - 1
        _require(
            length == m or (cut and length < m),
            f"{label}: record at row {s + 1} has {length} rows, multiplicity {m}",
        )
    if has_zero_mode(graph):
        _require(k[0] == 0.0 and lengths[0] == 1, f"{label}: missing zero mode")
    else:
        _require(k[0] > 0.0, f"{label}: zero mode without one")
    pos = k[starts] > 0.0
    rec_k, before, after = k[starts][pos], starts[pos], (starts + mults)[pos]
    if cut_last:
        after = after[:-1]
    ks = np.concatenate([rec_k, rec_k[: after.size]])
    counts = np.concatenate([before, after])
    if top is not None:
        ks, counts = np.append(ks, top[0]), np.append(counts, top[1])
    _check_drift(graph, ks, counts, label)


# ----------------------------------------------------------------- commands


def check_spectrum(job, text: str) -> int:
    header, rows = parse_table(text)
    _expect_header(header, ["n", "k_n", "lambda_n", "multiplicity"])
    index = _floats(rows, 0)
    k = _floats(rows, 1)
    lam = _floats(rows, 2)
    mult = _floats(rows, 3)
    _consecutive(index, job.n_max)
    _require(
        np.allclose(lam, k * k, rtol=1e-13, atol=0.0), "lambda_n != k_n^2"
    )
    _require(np.all(mult >= 1) and np.all(mult == np.round(mult)), "bad multiplicity")

    def record_mults(starts, lengths):
        for s, length in zip(starts, lengths):
            _require(np.all(mult[s:s + length] == mult[s]), "multiplicity varies in a record")
        return mult[starts].astype(int)

    top = None
    if job.k_max is not None:
        _require(k[-1] <= job.k_max, "row beyond k_max")
        top = (job.k_max, k.size)
    _check_records(job.graph, k, record_mults, job.n_max is not None, "spectrum", top)
    return int(k.size)


def check_sensitivity(job, text: str) -> int:
    header, rows = parse_table(text)
    _expect_header(
        header, ["n", "lambda_n", "sensitivity", "prediction", "bound", "degenerate"]
    )
    index = _floats(rows, 0)
    lam = _floats(rows, 1)
    value = _floats(rows, 2)
    prediction = _floats(rows, 3)
    bound = _floats(rows, 4)
    degenerate = _floats(rows, 5)
    _consecutive(index, job.n_max)
    _require(np.all(lam >= 0.0), "negative eigenvalue")
    _require(np.all(np.isin(degenerate, (0.0, 1.0))), "degenerate flag not 0/1")
    _require(np.all(value >= -1e-12), "negative sensitivity")
    positive = lam > 0.0
    _require(
        np.all(np.isnan(bound) == ~positive) and np.all(np.isnan(prediction) == ~positive),
        "bound/prediction must be NA exactly at lambda = 0",
    )
    simple = positive & (degenerate == 0.0)
    _require(
        np.all(value[simple] < bound[simple] + 1e-10 * (1.0 + bound[simple])),
        "sensitivity above its bound",
    )
    k = np.sqrt(lam)

    def record_mults(starts, lengths):
        for s, length in zip(starts, lengths):
            _require(np.all(degenerate[s:s + length] == degenerate[s]), "flag varies in a record")
        flags = degenerate[starts]
        _require(
            np.all((lengths > 1) == (flags == 1.0))
            or (lengths[-1] == 1 and np.all((lengths[:-1] > 1) == (flags[:-1] == 1.0))),
            "degenerate flags disagree with repeated eigenvalues",
        )
        return lengths

    _check_records(job.graph, k, record_mults, True, "sensitivity")
    if job.family == "equilateral-star":
        _check_equilateral_star(job.graph, k, value, degenerate)
    return int(k.size)


def check_rng(job, text: str) -> int:
    header, rows = parse_table(text)
    _expect_header(
        header,
        ["n", "d_n", "d_n_normalized", "running_avg", "arctan_pred",
         "gap_bound", "improved_bound"],
    )
    index = _floats(rows, 0)
    d = _floats(rows, 1)
    normalized = _floats(rows, 2)
    running = _floats(rows, 3)
    arctan = _floats(rows, 4)
    flat_col = _floats(rows, 5)
    _consecutive(index, job.n_max)
    _require(np.all(np.isfinite(d)), "non-finite gap")
    noise = _gap_noise(job.graph, index)
    _require(np.all(d >= -noise), "Robin eigenvalue below its Neumann partner")
    flat = flat_gap_bound(job.graph)
    _require(np.all(d <= flat * (1.0 + 1e-10) + noise), "gap above the flat bound")
    _require(np.allclose(flat_col, flat, rtol=1e-12, atol=0.0), "gap_bound column")
    mean = theoretical_mean(job.graph)
    _require(np.allclose(normalized, d / mean, rtol=1e-12, atol=0.0), "d_n_normalized")
    _require(np.all((arctan >= 0.0) & (arctan <= mean * (1.0 + 1e-12))), "arctan_pred range")
    _require(
        np.allclose(running, _running_average(d, CLI_WINDOW), rtol=1e-9, atol=1e-12 * flat),
        "running_avg",
    )
    return 2 * int(d.size)


def check_cdf(job, text: str) -> int:
    header, rows = parse_table(text)
    _expect_header(header, ["kind", "x_lo", "x_hi", "value"])
    kinds = [r[0] for r in rows]
    n_cdf = kinds.count("cdf")
    _require(
        kinds == ["cdf"] * n_cdf + ["hist"] * 50 + ["support"],
        "sections are not cdf rows, 50 hist rows, one support row",
    )
    lo = _floats(rows, 1)
    hi = _floats(rows, 2)
    val = _floats(rows, 3)
    n = job.n_max
    x, cdf = lo[:n_cdf], val[:n_cdf]
    _require(1 <= n_cdf <= n and np.array_equal(x, hi[:n_cdf]), "cdf rows")
    _require(np.all(np.diff(x) > 0.0) and np.all(np.diff(cdf) > 0.0), "cdf not increasing")
    _require(np.allclose(cdf * n, np.round(cdf * n), rtol=0.0, atol=1e-9), "cdf steps not k/n")
    _require(abs(cdf[-1] - 1.0) <= 1e-12, "cdf does not reach 1")
    noise = _gap_noise(job.graph, np.array([n]))[0]
    _require(x[0] >= -noise, "Robin eigenvalue below its Neumann partner")
    h_lo, h_hi, density = lo[n_cdf:-1], hi[n_cdf:-1], val[n_cdf:-1]
    _require(np.array_equal(h_hi[:-1], h_lo[1:]), "histogram edges not contiguous")
    _require(h_lo[0] == x[0] and h_hi[-1] == x[-1], "histogram range != gap range")
    _require(np.all(density >= 0.0), "negative density")
    width = h_hi - h_lo
    area_slack = 1e-9 + print_noise(2.0 * np.max(np.abs(h_hi))) / np.min(width)
    _require(abs(np.sum(density * width) - 1.0) <= area_slack, "histogram area != 1")
    ceiling = 4.0 * _robin(job.graph)[1] / min(e["len"] for e in job.graph["edges"])
    top, cap, ratio = lo[-1], hi[-1], val[-1]
    _require(top == x[-1], "support row disagrees with the largest gap")
    _require(math.isclose(cap, ceiling, rel_tol=1e-12), "shortest-edge ceiling")
    _require(top < cap and math.isclose(ratio, top / cap, rel_tol=1e-12), "support ratio")
    return 2 * n


def check_weyl(job, text: str) -> int:
    header, rows = parse_table(text)
    _expect_header(header, ["quantity", "measured", "predicted", "rel_error"])
    g = job.graph
    slots = num_slots(g)
    names = ["n_used", "skipped"]
    names += [f"vertex_sq_{v}" for v in range(g["vertices"])]
    names += [f"slot_sq_{j}" for j in range(slots)]
    names += [f"cross_{i}_{j}" for i in range(slots) for j in range(i + 1, slots)]
    _require([r[0] for r in rows] == names, "weyl row names")
    measured = _floats(rows, 1)
    predicted = _floats(rows, 2)
    rel = _floats(rows, 3)
    used, skipped = measured[0], measured[1]
    _require(used >= 1 and used + skipped == job.n_max, "n_used + skipped != n")
    nv = g["vertices"]
    total = total_length(g)
    vert = slice(2, 2 + nv)
    slot = slice(2 + nv, 2 + nv + slots)
    cross = slice(2 + nv + slots, None)
    _require(
        np.allclose(predicted[vert], 2.0 / (degrees(g) * total), rtol=1e-12, atol=0.0),
        "vertex predictions",
    )
    _require(np.allclose(predicted[slot], 0.5 / total, rtol=1e-12, atol=0.0), "slot predictions")
    _require(np.all(predicted[cross] == 0.0), "cross predictions")
    body = slice(2, None)
    _require(np.all(np.isfinite(measured[body])) and np.all(measured[body] >= 0.0), "measured")
    scale = np.where(predicted[body] > 0.0, predicted[body], 0.5 / total)
    recomputed = np.abs(measured[body] - predicted[body]) / scale
    # the printed operands carry rounding that the difference magnifies
    slack = print_noise(np.abs(measured[body]) + np.abs(predicted[body])) / scale
    _require(
        np.all(np.abs(rel[body] - recomputed) <= 1e-9 * recomputed + slack + 1e-15),
        "rel_error",
    )
    # each amplitude is normalized so that sum_j l_j |a_j|^2 = 1
    slot_len = np.repeat([e["len"] for e in g["edges"]], 2)
    _require(
        math.isclose(float(np.dot(slot_len, measured[slot])), 1.0, rel_tol=1e-9),
        "length-weighted slot means do not sum to 1",
    )
    return int(job.n_max)


CHECKS = {
    "spectrum": check_spectrum,
    "sensitivity": check_sensitivity,
    "rng": check_rng,
    "cdf": check_cdf,
    "weyl": check_weyl,
}


def check_job(job, text: str) -> int:
    """Check one job's stdout; return its certified eigenvalue count.

    Paired commands count both spectra.  Raises CheckFailure.
    """
    return CHECKS[job.command](job, text)


def _gap_noise(graph: dict, index: np.ndarray) -> np.ndarray:
    """Rounding allowance of d_n = (k1 - k0)(k1 + k0) from two stop widths."""
    k = np.array([k_scale(graph, int(n)) for n in index])
    return 4.0 * k * stop_width(k)


def _running_average(values: np.ndarray, window: int) -> np.ndarray:
    half = window // 2
    out = np.empty(values.size)
    for i in range(values.size):
        out[i] = values[max(0, i - half): i + half + 1].mean()
    return out


# -------------------------------------------------------------- closed form


def equilateral_star_records(d: int, length: float, sigma: float, count: int):
    """(k, multiplicity, sensitivity) of the first `count` indices.

    Star of d edges of one length, Robin centre, Neumann leaves.  Simple
    roots solve d k tan(k L) = sigma in (m pi/L, (m + 1/2) pi/L); the
    (d-1)-fold roots sit at (m + 1/2) pi/L where the centre value
    vanishes.  A simple mode has f(0)^2/|f|^2 =
    cos^2(kL) / (d (L/2 + sin(2kL)/(4k))); a multiple one has f(0) = 0.
    """
    periods = count // d + 2
    m = np.arange(periods, dtype=float)
    lo = m * math.pi / length
    hi = (m + 0.5) * math.pi / length
    a, b = lo.copy(), hi.copy()
    for _ in range(200):  # the secular function increases on each bracket
        mid = 0.5 * (a + b)
        neg = d * mid * np.tan(mid * length) < sigma
        a = np.where(neg, mid, a)
        b = np.where(neg, b, mid)
    simple = 0.5 * (a + b)
    sens = np.cos(simple * length) ** 2 / (
        d * (0.5 * length + np.sin(2.0 * simple * length) / (4.0 * simple))
    )
    out = []
    for j in range(periods):
        out.append((simple[j], 1, sens[j]))
        out.extend([(hi[j], d - 1, 0.0)] * (d - 1))
    return out[:count]


def _check_equilateral_star(graph, k, value, degenerate) -> None:
    verts, sigma = _robin(graph)
    d = len(graph["edges"])
    length = graph["edges"][0]["len"]
    _require(verts == [0], "equilateral star must couple its centre only")
    expected = equilateral_star_records(d, length, sigma, k.size)
    k_exp = np.array([r[0] for r in expected])
    m_exp = np.array([r[1] for r in expected])
    s_exp = np.array([r[2] for r in expected])
    bad = np.abs(k - k_exp) > 2.0 * stop_width(k_exp) + print_noise(k_exp)
    _require(
        not np.any(bad),
        f"closed-form eigenvalue mismatch at n={int(np.argmax(bad)) + 1}",
    )
    _require(np.array_equal(degenerate, (m_exp > 1).astype(float)), "closed-form multiplicities")
    _require(np.allclose(value, s_exp, rtol=1e-8, atol=1e-10), "closed-form sensitivities")


# ---------------------------------------------------------------- reference

# Columns compared with the stored reference, and how.  "k" columns use
# two stop widths, "lambda" its image under k -> k^2, "gap" the d_n
# allowance, "value" eigenvector-derived figures, "exact" integers.
REFERENCE_COLUMNS = {
    "spectrum": (("k_n", "k"), ("multiplicity", "exact")),
    "sensitivity": (("lambda_n", "lambda"), ("sensitivity", "value"), ("degenerate", "exact")),
    "rng": (("d_n", "gap"),),
    "cdf": (("x_lo", "gap"), ("value", "value")),
    "weyl": (("measured", "value"),),
}
REFERENCE_SAMPLES = 16


def _picks(rows: int) -> list:
    step = max(1, rows // REFERENCE_SAMPLES)
    return sorted(set(range(0, rows, step)) | {rows - 1})


def digest(job, text: str) -> dict:
    """Row count and sampled reference columns of one job's output."""
    header, rows = parse_table(text)
    picks = _picks(len(rows))
    out = {"rows": len(rows)}
    for name, _ in REFERENCE_COLUMNS[job.command]:
        col = _floats(rows, header.index(name))
        out[name] = [float(col[i]) for i in picks]
    return out


def _tolerance(kind: str, ref: np.ndarray, job) -> np.ndarray:
    if kind == "k":
        return 2.0 * stop_width(ref) + print_noise(ref)
    if kind == "lambda":
        k = np.sqrt(ref)
        return 4.0 * k * stop_width(k) + 4.0 * stop_width(k) ** 2 + print_noise(ref)
    if kind == "gap":
        return _gap_noise(job.graph, np.array([job.n_max]))[0] + print_noise(ref)
    if kind == "value":
        return 1e-8 * (1.0 + np.abs(ref))
    return np.zeros(ref.size)


def compare_reference(job, text: str, ref: dict) -> None:
    """Raise CheckFailure unless the output matches the stored digest."""
    got = digest(job, text)
    _require(got["rows"] == ref["rows"], f"{got['rows']} rows, reference {ref['rows']}")
    for name, kind in REFERENCE_COLUMNS[job.command]:
        a = np.array(got[name])
        b = np.array(ref[name])
        bad = np.abs(a - b) > _tolerance(kind, b, job)
        bad |= np.isnan(a) != np.isnan(b)
        bad &= ~(np.isnan(a) & np.isnan(b))
        _require(not np.any(bad), f"column {name} differs from the reference")
