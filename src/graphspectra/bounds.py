"""Explicit upper bounds on the gap sequence and its coupling derivative.

All bounds are driven by a star decomposition: each edge is split
between its endpoints, and for a coupled vertex v the assigned total
length |S_v| and the harmonic split quantity s_v control how far the
spectrum can move.  The flat bound is 2 sigma / min |S_v|; a midpoint
split specializes it to 4 sigma / l_min.  The refined bound integrates
the sensitivity estimate from an uncoupled eigenvalue lambda0 upward
and is only defined above the threshold lambda0 > 1/(4 s_check S_check).

A measured value violates a bound only when it exceeds the bound by more
than its certified error plus a relative slack of 1e-10, so that strict
mathematical inequalities are not failed on root-refinement noise: the
gaps carry the error bars the spectra's radii give them, the
sensitivities none.  Where no roots merged, both radii are the floor
1e-12 (1 + k), so a gap near wave number k may exceed its bound by about
4e-12 k^2 before it is flagged (3.5e-6 at k = 940), where the slack
alone allowed 1e-10 (1 + bound).  The radii of records certified by the
kernel rule rather than an inertia enclosure rest on their refinement
brackets ("Certification" in the solver docstring).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateDecomposition, DegenerateParameters
from .graphs import MetricGraph, RobinSpec, StarDecomposition
from .stats import RngSeries

__all__ = [
    "BoundReport",
    "gap_bound",
    "shortest_edge_bound",
    "sensitivity_bound",
    "improved_bound",
    "decomposition_bound_parameters",
    "check_all",
    "bound_report",
]

VIOLATION_SLACK = 1e-10


@dataclass(frozen=True)
class BoundReport:
    """Per-index comparison of measured values against one bound family.

    bound entries may be NaN where the bound does not apply
    (refined bound below its threshold); those indices are never
    counted as violations.  violations holds 1-based indices.
    """

    name: str
    bound: np.ndarray
    actual: np.ndarray
    violations: tuple

    @property
    def ok(self) -> bool:
        return not self.violations


def bound_report(name, bound, actual, error=0.0) -> BoundReport:
    """The one violation rule: an entry violates the bound when actual -
    error, the least value its error bar allows, reaches the bound beyond
    the relative slack VIOLATION_SLACK; never where the bound is NaN."""
    bound = np.broadcast_to(np.asarray(bound, dtype=float), np.shape(actual)).copy()
    actual = np.asarray(actual, dtype=float)
    with np.errstate(invalid="ignore"):
        bad = actual - error >= bound + VIOLATION_SLACK * (1.0 + bound)
    return BoundReport(
        name=name,
        bound=bound,
        actual=actual,
        violations=tuple(int(i) + 1 for i in np.flatnonzero(bad)),
    )


def _coupled_star_lengths(decomp: StarDecomposition, robin: RobinSpec) -> np.ndarray:
    verts = robin.coupled_vertices(decomp.graph)
    if not verts:
        raise ValueError("no coupled vertices to bound")
    return np.array([decomp.star_length(v) for v in verts])


def gap_bound(decomp: StarDecomposition, robin: RobinSpec) -> float:
    """Flat bound 2 sigma / min |S_v| over the coupled vertices."""
    if robin.sigma == 0.0:
        return 0.0
    smallest = float(np.min(_coupled_star_lengths(decomp, robin)))
    if smallest == 0.0:
        raise DegenerateDecomposition(
            "a coupled vertex received a star of zero length"
        )
    return 2.0 * robin.sigma / smallest


def shortest_edge_bound(graph: MetricGraph, robin: RobinSpec) -> float:
    """Midpoint-split specialization: 4 sigma / l_min."""
    robin.coupled_vertices(graph)  # validates the vertex set
    return 4.0 * robin.sigma / graph.min_edge_length


def sensitivity_bound(decomp: StarDecomposition, robin: RobinSpec, lam) -> np.ndarray:
    """Upper bound on the coupling derivative at energy lam.

    2 ... max over coupled v of 1/(|S_v| + (sigma^2 s_v + sigma)/lam);
    decays from 2 sigma-corrected values to 2/min|S_v| as lam grows.
    """
    lam = np.asarray(lam, dtype=float)
    if np.any(lam <= 0.0):
        raise ValueError("energy must be positive")
    sigma = robin.sigma
    verts = robin.coupled_vertices(decomp.graph)
    if not verts:
        raise ValueError("no coupled vertices to bound")
    denoms = []
    for v in verts:
        big_s = decomp.star_length(v)
        small_s = decomp.harmonic_split(v)
        if big_s == 0.0 and sigma == 0.0:
            raise DegenerateDecomposition(
                "a coupled vertex received a star of zero length"
            )
        denoms.append(big_s + (sigma**2 * small_s + sigma) / lam)
    return 2.0 / np.min(denoms, axis=0)


def improved_bound(lambda0, sigma: float, s_check: float, S_check: float) -> np.ndarray:
    """Refined bound grown from each uncoupled eigenvalue in lambda0.

    Only defined above the threshold lambda0 > 1/(4 s_check S_check);
    NaN at and below it.  Raises DegenerateParameters unless s_check and
    S_check are finite and positive.
    """
    if not (0.0 < s_check < np.inf and 0.0 < S_check < np.inf):
        raise DegenerateParameters("split parameters must be finite and positive")
    lambda0 = np.asarray(lambda0, dtype=float)
    threshold = 1.0 / (4.0 * s_check * S_check)
    out = np.full(lambda0.shape, np.nan)
    live = lambda0 > threshold
    lam = lambda0[live]
    alpha = 2.0 / np.sqrt(4.0 * lam * s_check * S_check - 1.0)
    growth = 2.0 * alpha * (
        np.arctan(0.5 * alpha * (1.0 + 2.0 * s_check * sigma))
        - np.arctan(0.5 * alpha)
    )
    out[live] = (np.exp(growth) - 1.0) * lam
    return out


def decomposition_bound_parameters(decomp: StarDecomposition, robin: RobinSpec) -> tuple:
    """(s_check, S_check) = (min s_v, min |S_v|) over the coupled vertices."""
    verts = robin.coupled_vertices(decomp.graph)
    if not verts:
        raise ValueError("no coupled vertices")
    s_check = min(decomp.harmonic_split(v) for v in verts)
    S_check = min(decomp.star_length(v) for v in verts)
    if s_check <= 0.0 or S_check <= 0.0:
        raise DegenerateParameters(
            "decomposition gives a coupled vertex a zero split"
        )
    return s_check, S_check


def check_all(series: RngSeries, decomp: StarDecomposition) -> tuple:
    """Audit all gap bounds against a computed series.

    Returns three BoundReports: the flat star-decomposition bound, the
    shortest-edge bound, and the refined bound (NaN below threshold),
    each gap checked at its error.  Raises ValueError when decomp splits
    another graph than the series'.
    """
    if decomp.graph != series.graph:
        raise ValueError("the decomposition belongs to another graph than the series")
    robin, gaps, error = series.robin, series.gaps, series.error
    flat = bound_report("gap-bound", gap_bound(decomp, robin), gaps, error)
    ceiling = shortest_edge_bound(series.graph, robin)
    edge = bound_report("shortest-edge-bound", ceiling, gaps, error)
    s_check, S_check = decomposition_bound_parameters(decomp, robin)
    refined_values = improved_bound(series.k_neumann**2, robin.sigma, s_check, S_check)
    refined = bound_report("improved-bound", refined_values, gaps, error)
    return flat, edge, refined
