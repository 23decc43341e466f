"""Gap sequences between coupled and uncoupled spectra, and their statistics.

The central object is the index-paired difference sequence

    d_n = lambda_n(sigma) - lambda_n(0),

computed as (k_n(sigma) - k_n(0)) (k_n(sigma) + k_n(0)) so that the
wave-number difference consistency holds exactly and no precision is
lost to cancellation at large k.  On top of it: the closed-form limit
of its mean, (2 sigma / |G|) sum 1/deg(v), windowed running averages
against the k-local prediction (2k/|G|) sum arctan(sigma/(deg(v) k)),
eigenfunction moment averages against their ergodic limits, empirical
distribution functions and value clustering.  The closed forms take the
graph and its RobinSpec; the rest take spectra, or series built from
them, which carry both.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .eigenfunctions import eigenbasis
from .errors import InsufficientSpectrum
from .graphs import MetricGraph, RobinSpec, _integer
from .solver import Spectrum, _stop_width

__all__ = [
    "RngSeries",
    "CdfEstimate",
    "MomentReport",
    "rng_sequence",
    "theoretical_mean",
    "running_average",
    "arctan_prediction",
    "sensitivity_prediction",
    "weyl_moments",
    "empirical_cdf",
    "accumulation_clusters",
]


@dataclass(frozen=True)
class RngSeries:
    """Index-paired eigenvalue gaps between coupled and uncoupled spectra.

    error bounds each gap's distance from the true gap, from the radii of
    the records (0 for gaps given as exact).
    """

    graph: MetricGraph
    robin: RobinSpec
    gaps: np.ndarray
    k_neumann: np.ndarray
    k_robin: np.ndarray
    error: np.ndarray | float = 0.0

    def __len__(self) -> int:
        return int(self.gaps.size)


@dataclass(frozen=True)
class CdfEstimate:
    """Right-continuous empirical distribution of the gap values."""

    values: np.ndarray  # sorted ascending

    def __call__(self, x) -> np.ndarray:
        frac = np.searchsorted(self.values, np.asarray(x, dtype=float), side="right")
        return frac / self.values.size


@dataclass(frozen=True)
class MomentReport:
    """Finite-N eigenfunction moment averages over simple eigenvalues.

    vertex_means[v] averages |f(v)|^2 of L2-normalized eigenfunctions.
    slot_means[j] and cross_matrix[i, j] average a_i conj(a_j) divided
    by the length-weighted amplitude norm sum_e l_e (|a_e|^2+|a_rev|^2);
    slot_means is the diagonal of cross_matrix.
    """

    vertex_means: np.ndarray
    slot_means: np.ndarray
    cross_matrix: np.ndarray
    n_used: int
    skipped: int


def rng_sequence(neumann: Spectrum, coupled: Spectrum, n: int) -> RngSeries:
    """First n gaps between the uncoupled and the coupled spectrum of one
    graph, paired strictly by sorted index with multiplicity.

    Each reported wave number lies within half a stop width of its root,
    so a pair closer than the mean of their stop widths cannot be told
    from one root shared by both spectra.  Such a pair reports the
    Neumann wave number on both sides, and its gap is exactly 0.
    With r = rho_0 + rho_1 the sum of the two records' radii, the true
    gap lies within r (k_0 + k_1 + |k_1 - k_0|) + r^2 of the gap from the
    reported k_1, which the error adds to a pair reported as 0.
    Raises ValueError when n is not an integer (a boolean included), the
    spectra belong to different graphs or the first one is coupled.
    """
    n = _integer(n, "gap count")
    if n < 1:
        raise ValueError("need at least one gap")
    if neumann.graph != coupled.graph:
        raise ValueError("the two spectra belong to different graphs")
    if neumann.robin.sigma > 0.0 and neumann.robin.vertices:
        raise ValueError("the first spectrum is coupled; pass the uncoupled one first")
    if neumann.size < n or coupled.size < n:
        raise InsufficientSpectrum(
            f"need {n} eigenvalues, have {neumann.size} uncoupled "
            f"and {coupled.size} coupled"
        )
    k0 = neumann.wavenumbers(n)
    k1 = coupled.wavenumbers(n)
    r = (
        np.repeat(neumann.radius, neumann.multiplicity)[:n]
        + np.repeat(coupled.radius, coupled.multiplicity)[:n]
    )
    error = r * (k0 + k1 + np.abs(k1 - k0)) + r * r
    reach = 0.5 * (_stop_width(k0) + _stop_width(k1))
    shared = np.abs(k1 - k0) <= reach
    error += np.where(shared, np.abs(k1 - k0) * (k1 + k0), 0.0)
    k1 = np.where(shared, k0, k1)
    return RngSeries(
        graph=coupled.graph,
        robin=coupled.robin,
        gaps=(k1 - k0) * (k1 + k0),
        k_neumann=k0,
        k_robin=k1,
        error=error,
    )


def theoretical_mean(graph: MetricGraph, robin: RobinSpec) -> float:
    """Limiting mean gap: (2 sigma / |G|) sum over coupled v of 1/deg(v)."""
    inv_deg = sum(1.0 / graph.degree(v) for v in robin.coupled_vertices(graph))
    return 2.0 * robin.sigma / graph.total_length * inv_deg


def running_average(values, window: int) -> np.ndarray:
    """Centered moving mean with windows truncated at both ends.  window
    must be a positive odd integer, not a boolean, or ValueError is raised."""
    values = np.asarray(values, dtype=float)
    window = _integer(window, "window")
    if window < 1 or window % 2 == 0:
        raise ValueError("window must be a positive odd integer")
    if window > values.size:
        raise ValueError("window exceeds the series length")
    half = window // 2
    padded = np.concatenate([[0.0], np.cumsum(values)])
    idx = np.arange(values.size)
    lo = np.maximum(idx - half, 0)
    hi = np.minimum(idx + half + 1, values.size)
    return (padded[hi] - padded[lo]) / (hi - lo)


def arctan_prediction(graph: MetricGraph, robin: RobinSpec, k) -> np.ndarray:
    """k-local mean gap (2k/|G|) sum arctan(sigma/(deg(v) k)).

    Continuously extended by 0 at k = 0 (the arctan sum stays bounded).
    """
    k = np.asarray(k, dtype=float)
    acc = np.zeros_like(k)
    with np.errstate(divide="ignore", invalid="ignore"):
        for v in robin.coupled_vertices(graph):
            acc = acc + np.arctan(robin.sigma / (graph.degree(v) * k))
        scaled = 2.0 * k / graph.total_length * acc
    return np.where(k > 0.0, scaled, 0.0)


def sensitivity_prediction(graph: MetricGraph, robin: RobinSpec, lam) -> np.ndarray:
    """Spectral-average prediction of the coupling derivative at energy lam."""
    lam = np.asarray(lam, dtype=float)
    acc = np.zeros_like(lam)
    # 0/0 at (lam, sigma) = (0, 0); the limit along lam is 1/d per vertex,
    # but the value there is direction-dependent, so nan is passed through
    with np.errstate(invalid="ignore"):
        for v in robin.coupled_vertices(graph):
            d = graph.degree(v)
            acc = acc + lam * d / (robin.sigma**2 + lam * d * d)
    return 2.0 / graph.total_length * acc


def weyl_moments(spectrum: Spectrum, n: int) -> MomentReport:
    """Moment averages over the simple eigenvalues among the first n, the
    only records whose eigenfunctions are solved.

    Multiple eigenvalues (and the zero mode, which has no scattering
    amplitude vector) are skipped; their count lands in skipped.  Raises
    InsufficientSpectrum where that leaves none, and ValueError where n is not
    an integer (a boolean included).
    """
    n = _integer(n, "eigenvalue count")
    if spectrum.size < n:
        raise InsufficientSpectrum(f"need {n} eigenvalues, have {spectrum.size}")
    simple = (spectrum.index <= n) & (spectrum.multiplicity == 1) & (spectrum.k > 0.0)
    if not np.any(simple):
        raise InsufficientSpectrum(f"no simple positive eigenvalue among the first {n}")
    basis = eigenbasis(spectrum, np.flatnonzero(simple))
    amp_sq = np.abs(basis.a) ** 2
    lengths = spectrum.graph.slot_length[None, 0::2]
    length_norm = np.sum(lengths * (amp_sq[:, 0::2] + amp_sq[:, 1::2]), axis=1)
    scaled = basis.a / np.sqrt(length_norm)[:, None]
    cross = (scaled[:, :, None] * np.conj(scaled[:, None, :])).mean(axis=0)
    return MomentReport(
        vertex_means=np.mean(basis.vertex_values**2, axis=0),
        slot_means=np.real(np.diag(cross)).copy(),
        cross_matrix=cross,
        n_used=len(basis.k),
        skipped=n - len(basis.k),
    )


def empirical_cdf(series: RngSeries) -> CdfEstimate:
    """Empirical distribution function of the gaps."""
    if len(series) == 0:
        raise ValueError("empty gap sequence")
    return CdfEstimate(values=np.sort(series.gaps))


def accumulation_clusters(series: RngSeries, tol: float | None = None) -> list:
    """Single-linkage clusters of a finite sample: list of (mean value, count).

    Sorted gaps closer than tol are chained into one cluster.  A sequence
    converging to a limit leaves a trail of singleton clusters: its early
    terms are spaced wider than tol, and tol sets how long that trail is.
    Accumulation points show up as the clusters whose share of the gaps
    stays positive as n grows, not as the total number of clusters.

    Default resolution scales with the gap ceiling:
    tol = 1e-6 * (1 + 4 sigma / l_min).  A given tol must be finite and
    at least 0, or ValueError is raised.
    """
    if tol is None:
        tol = 1e-6 * (1.0 + 4.0 * series.robin.sigma / series.graph.min_edge_length)
    elif not (np.isfinite(tol) and tol >= 0.0):
        raise ValueError(f"cluster tol must be finite and at least 0, got {tol!r}")
    values = np.sort(series.gaps)
    if values.size == 0:
        return []
    breaks = np.flatnonzero(np.diff(values) > tol)
    starts = np.concatenate([[0], breaks + 1])
    ends = np.concatenate([breaks + 1, [values.size]])
    # a singleton is its own mean, bitwise: most clusters are one gap
    return [
        (float(values[a] if b - a == 1 else np.mean(values[a:b])), int(b - a))
        for a, b in zip(starts, ends)
    ]

