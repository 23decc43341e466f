"""Gap sequences between coupled and uncoupled spectra, and their statistics.

The central object is the index-paired difference sequence

    d_n = lambda_n(sigma) - lambda_n(0),

computed as (k_n(sigma) - k_n(0)) (k_n(sigma) + k_n(0)) so that the
wave-number difference consistency holds exactly and no precision is
lost to cancellation at large k.  On top of it: Cesaro means against
the closed-form limit (2 sigma / |G|) sum 1/deg(v), windowed running
averages against the k-local prediction
(2k/|G|) sum arctan(sigma/(deg(v) k)), eigenfunction moment averages
against their ergodic limits, empirical distribution functions, value
clustering, and difference-quotient audits of the Lipschitz property.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .eigenfunctions import eigenbasis
from .errors import InsufficientSpectrum
from .graphs import MetricGraph, RobinSpec
from .solver import Spectrum, _stop_width, compute_spectrum

__all__ = [
    "RngSeries",
    "CdfEstimate",
    "MomentReport",
    "rng_sequence",
    "cesaro_mean",
    "theoretical_mean",
    "running_average",
    "arctan_prediction",
    "sensitivity_prediction",
    "weyl_moments",
    "empirical_cdf",
    "accumulation_clusters",
    "lipschitz_audit",
]


@dataclass(frozen=True)
class RngSeries:
    """Index-paired eigenvalue gaps between coupled and uncoupled spectra."""

    graph: MetricGraph
    vertices: frozenset
    sigma: float
    gaps: np.ndarray
    k_neumann: np.ndarray
    k_robin: np.ndarray

    @property
    def k_gaps(self) -> np.ndarray:
        """Wave-number differences; gaps == k_gaps * (k_robin + k_neumann)."""
        return self.k_robin - self.k_neumann

    def __len__(self) -> int:
        return int(self.gaps.size)


@dataclass(frozen=True)
class CdfEstimate:
    """Right-continuous empirical distribution of the gap values."""

    values: np.ndarray  # sorted ascending

    def __call__(self, x) -> np.ndarray:
        frac = np.searchsorted(self.values, np.asarray(x, dtype=float), side="right")
        return frac / self.values.size

    @property
    def support(self) -> tuple:
        return float(self.values[0]), float(self.values[-1])


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


def rng_sequence(
    graph: MetricGraph,
    vertices,
    sigma: float,
    n: int,
    *,
    neumann: Spectrum | None = None,
    robin_spectrum: Spectrum | None = None,
) -> RngSeries:
    """First n gaps, paired strictly by sorted index with multiplicity.

    Each reported wave number lies within half a stop width of its root,
    so a pair closer than the mean of their stop widths cannot be told
    from one root shared by both spectra.  Such a pair reports the
    Neumann wave number on both sides, and its gap is exactly 0.
    """
    if n < 1:
        raise ValueError("need at least one gap")
    vertices = frozenset(vertices)
    if neumann is None:
        neumann = compute_spectrum(graph, RobinSpec.neumann(), n_max=n)
    if robin_spectrum is None:
        robin_spectrum = compute_spectrum(graph, RobinSpec(vertices, sigma), n_max=n)
    if neumann.size < n or robin_spectrum.size < n:
        raise InsufficientSpectrum(
            f"need {n} eigenvalues, have {neumann.size} uncoupled "
            f"and {robin_spectrum.size} coupled"
        )
    k0 = neumann.wavenumbers(n)
    k1 = robin_spectrum.wavenumbers(n)
    reach = 0.5 * (_stop_width(k0, neumann.tol) + _stop_width(k1, robin_spectrum.tol))
    k1 = np.where(np.abs(k1 - k0) <= reach, k0, k1)
    return RngSeries(
        graph=graph,
        vertices=vertices,
        sigma=float(sigma),
        gaps=(k1 - k0) * (k1 + k0),
        k_neumann=k0,
        k_robin=k1,
    )


def cesaro_mean(series: RngSeries) -> float:
    """Arithmetic mean of the gap sequence."""
    if len(series) == 0:
        raise ValueError("empty gap sequence")
    return float(np.mean(series.gaps))


def theoretical_mean(graph: MetricGraph, vertices, sigma: float) -> float:
    """Limiting mean gap: (2 sigma / |G|) sum over coupled v of 1/deg(v)."""
    inv_deg = sum(1.0 / graph.degree(v) for v in frozenset(vertices))
    return 2.0 * sigma / graph.total_length * inv_deg


def running_average(values, window: int) -> np.ndarray:
    """Centered moving mean with windows truncated at both ends."""
    values = np.asarray(values, dtype=float)
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


def arctan_prediction(graph: MetricGraph, vertices, sigma: float, k) -> np.ndarray:
    """k-local mean gap (2k/|G|) sum arctan(sigma/(deg(v) k)).

    Continuously extended by 0 at k = 0 (the arctan sum stays bounded).
    """
    k = np.asarray(k, dtype=float)
    acc = np.zeros_like(k)
    with np.errstate(divide="ignore", invalid="ignore"):
        for v in sorted(frozenset(vertices)):
            acc = acc + np.arctan(sigma / (graph.degree(v) * k))
        scaled = 2.0 * k / graph.total_length * acc
    return np.where(k > 0.0, scaled, 0.0)


def sensitivity_prediction(graph: MetricGraph, vertices, sigma: float, lam) -> np.ndarray:
    """Spectral-average prediction of the coupling derivative at energy lam."""
    lam = np.asarray(lam, dtype=float)
    acc = np.zeros_like(lam)
    # 0/0 at (lam, sigma) = (0, 0); the limit along lam is 1/d per vertex,
    # but the value there is direction-dependent, so nan is passed through
    with np.errstate(invalid="ignore"):
        for v in sorted(frozenset(vertices)):
            d = graph.degree(v)
            acc = acc + lam * d / (sigma**2 + lam * d * d)
    return 2.0 / graph.total_length * acc


def weyl_moments(
    graph: MetricGraph,
    robin: RobinSpec | None = None,
    n: int = 2000,
    *,
    spectrum: Spectrum | None = None,
) -> MomentReport:
    """Moment averages over the simple eigenvalues among the first n.

    Multiple eigenvalues (and the zero mode, which has no scattering
    amplitude vector) are skipped; their count lands in skipped.
    """
    if robin is None:
        robin = RobinSpec.neumann()
    if spectrum is None:
        spectrum = compute_spectrum(graph, robin, n_max=n)
    if spectrum.size < n:
        raise InsufficientSpectrum(f"need {n} eigenvalues, have {spectrum.size}")

    ks = []
    skipped = 0
    for rec in spectrum.records:
        if rec.index > n:
            break
        if rec.multiplicity == 1 and rec.k > 0.0:
            ks.append(rec.k)
        else:
            skipped += min(rec.multiplicity, n - rec.index + 1)
    basis = eigenbasis(graph, robin, ks, np.ones(len(ks), dtype=int), spectrum.tol)
    amps = basis.a
    vertex_means = np.mean(basis.vertex_values**2, axis=0)

    amp_sq = np.abs(amps) ** 2
    length_norm = np.sum(
        graph.slot_length[None, 0::2] * (amp_sq[:, 0::2] + amp_sq[:, 1::2]), axis=1
    )
    scaled = amps / np.sqrt(length_norm)[:, None]
    cross = (scaled[:, :, None] * np.conj(scaled[:, None, :])).mean(axis=0)
    return MomentReport(
        vertex_means=vertex_means,
        slot_means=np.real(np.diag(cross)).copy(),
        cross_matrix=cross,
        n_used=len(ks),
        skipped=int(skipped),
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
    tol = 1e-6 * (1 + 4 sigma / l_min).
    """
    if tol is None:
        tol = 1e-6 * (1.0 + 4.0 * series.sigma / series.graph.min_edge_length)
    values = np.sort(series.gaps)
    if values.size == 0:
        return []
    breaks = np.flatnonzero(np.diff(values) > tol)
    starts = np.concatenate([[0], breaks + 1])
    ends = np.concatenate([breaks + 1, [values.size]])
    return [
        (float(np.mean(values[a:b])), int(b - a)) for a, b in zip(starts, ends)
    ]


def lipschitz_audit(
    graph: MetricGraph,
    vertices,
    sigma_grid,
    n: int,
    *,
    spectra: dict | None = None,
) -> float:
    """Largest difference quotient |d_n(s1) - d_n(s2)| / |s1 - s2|.

    Runs over all grid pairs and all indices up to n.  spectra may carry
    precomputed Spectrum objects keyed by coupling value.
    """
    grid = sorted(set(float(s) for s in sigma_grid))
    if len(grid) < 2:
        raise ValueError("need at least two distinct grid couplings")
    vertices = frozenset(vertices)
    lams = []
    for s in grid:
        spec = (spectra or {}).get(s)
        if spec is None:
            spec = compute_spectrum(graph, RobinSpec(vertices, s), n_max=n)
        if spec.size < n:
            raise InsufficientSpectrum(
                f"need {n} eigenvalues at coupling {s}, have {spec.size}"
            )
        lams.append(spec.eigenvalues(n))
    worst = 0.0
    for i in range(len(grid)):
        for j in range(i + 1, len(grid)):
            quot = np.max(np.abs(lams[j] - lams[i])) / (grid[j] - grid[i])
            worst = max(worst, float(quot))
    return worst
