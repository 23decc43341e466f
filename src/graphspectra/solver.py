"""Eigenvalue solver: eigenphase winding counts certify, the real
secular function polishes.

Write the eigenvalues of U(k) as exp(i theta_m(k)) with each branch
theta_m continuous and strictly increasing in k (velocity at least
l_min).  k is an eigenvalue wave number of the graph operator exactly
when some branch crosses a multiple of 2 pi.  Summing over branches,

    sum_m theta_m(k) = Theta(k) + c_0,

with Theta the closed-form total phase, because det U(k) equals the
k-independent unimodular constant exp(i c_0) times exp(i Theta(k)).
Splitting each branch into 2 pi * floor + fractional part phi_m(k) in
[0, 2 pi) gives, for the number of crossings in a half-open window
(a, b],

    count(a, b] = [Theta(b) - Theta(a) - (Phi(b) - Phi(a))] / (2 pi),

where Phi(k) = sum_m phi_m(k).  The constant cancels and the right
side is an integer up to rounding noise, so windows can be counted
without any branch matching or path continuity.  The solver scans a
grid fine enough to keep per-cell counts small and refines every cell
with a positive count in two stages.

Bisection.  The count of each half is measured at the midpoint and
halves whose count stays positive are kept, so a cluster of m
coincident roots is simply a bracket whose count never drops below m.
Brackets with count 2 or more stay in this stage to the end.

Polish.  A bracket with count 1 that is wider than POLISH_HANDOFF stop
widths leaves the bisection as soon as it appears, from the scan or
from a split.  It holds exactly one simple root, which is a sign change
of the real secular function

    zeta(k) = Re[det(I - U(k)) exp(-i Theta(k) / 2) conj(c)].

zeta is real: U(k) is unitary with N = 2E eigenvalues exp(i theta_m), so

    det(I - U) = prod_m (1 - exp(i theta_m))
               = (-2i)^N exp(i sum_m theta_m / 2) prod_m sin(theta_m / 2)
               = c exp(i Theta / 2) 2^N prod_m sin(theta_m / 2),

with c = (-i)^N exp(i c_0 / 2), read off det U once per graph and
coupling.  All count-1 brackets then run one vectorized false-position
iteration on zeta (one batched determinant per step, a few steps per
root, where bisection needs about 45 batched eigendecompositions).
Two safeguards keep it honest.  A bracket whose endpoint values of zeta
do not have opposite signs clearly above the determinant's rounding
level stays in the bisection: that is a root on or within rounding of
an end, the usual case after a split next to a multiple root.  An
endpoint value whose imaginary part exceeds REALNESS_TOL |zeta| (plus
that rounding level) means zeta is not the real secular function, and
raises ToleranceNotMet.

Both stages stop once a bracket is narrower than the stop width
max(4 eps (1 + k), tol (1 + k)) and report its midpoint, so every
reported root lies within half a stop width of the true root.  The two
stages reach different points inside that window, so results are not
bitwise those of pure bisection.

Certification stays with the counts.  A window count further than
COUNT_ROUNDING_TOL from an integer raises, as does a half-bracket count
outside [0, count].  Roots closer than 1e-9 (1 + k) merge into one
record.  Each record's crossing count is cross-checked against
dim ker(I - U(k)), measured by singular values below 1e-8 sqrt(2E)
(widened for a loose tol by _kernel_threshold, which the eigenfunction
module counts with too), in both directions, and the counting function
is audited against Theta over the whole scan grid.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import (
    IndexCrossingAmbiguity,
    OutOfScannedRange,
    StepPolicyViolation,
    ToleranceNotMet,
)
from .graphs import MetricGraph, RobinSpec
from .scattering import total_phase_derivative, total_phase_values, unitary_stack

__all__ = [
    "SpectralPoint",
    "Spectrum",
    "EigenvalueCurve",
    "compute_spectrum",
    "counting_function",
    "spectral_shift",
    "robin_homotopy",
    "secular_dets",
]

TWO_PI = 2.0 * np.pi
EPS = float(np.finfo(float).eps)
MAX_BISECTION_LEVELS = 200
MAX_POLISH_STEPS = 200
MERGE_SCALE = 1e-9
KERNEL_SV_SCALE = 1e-8
LAPACK_CHUNK = 1024
COUNT_ROUNDING_TOL = 1e-6
POLISH_HANDOFF = 64.0
REALNESS_TOL = 1e-6


@dataclass(frozen=True)
class SpectralPoint:
    """One spectral record: first index, wave number, multiplicity."""

    index: int
    k: float
    multiplicity: int


@dataclass(frozen=True)
class Spectrum:
    """Ordered spectrum of one graph operator at fixed coupling.

    records carry multiplicity, so a record with multiplicity m owns the
    m consecutive indices starting at its index field.  k_cap is the
    largest wave number the scan certified; every eigenvalue at or below
    k_cap appears.  tol is the refinement tolerance the records were
    computed with (None for the default stop width); kernel dimensions
    at these wave numbers are counted against the threshold it sets.
    """

    sigma: float
    records: tuple
    k_cap: float
    tol: float | None = field(default=None, compare=False)

    def wavenumbers(self, count: int | None = None) -> np.ndarray:
        """Expanded wave numbers, one entry per index."""
        ks = np.repeat(
            [r.k for r in self.records],
            [r.multiplicity for r in self.records],
        )
        return ks if count is None else ks[:count]

    def eigenvalues(self, count: int | None = None) -> np.ndarray:
        return self.wavenumbers(count) ** 2

    @property
    def size(self) -> int:
        return sum(r.multiplicity for r in self.records)


@dataclass(frozen=True)
class EigenvalueCurve:
    """k_n as a function of the coupling on a uniform grid over [0, sigma]."""

    index: int
    couplings: tuple
    wavenumbers: tuple
    degenerate_at: tuple

    @property
    def samples(self) -> list:
        return list(zip(self.couplings, self.wavenumbers))


def _stack_map(graph: MetricGraph, robin: RobinSpec, ks, fn):
    """fn(batch, U(batch)) over slices of at most LAPACK_CHUNK wave numbers.

    The results are joined along the first axis, element by element when
    fn returns a tuple.  Every batched decomposition over wave numbers in
    the package goes through here, which bounds the U stacks it builds.
    """
    ks = np.asarray(ks, dtype=float)
    parts = [
        fn(batch, unitary_stack(graph, robin, batch))
        for batch in (
            ks[start : start + LAPACK_CHUNK]
            for start in range(0, max(ks.size, 1), LAPACK_CHUNK)
        )
    ]
    if isinstance(parts[0], tuple):
        return tuple(np.concatenate(column) for column in zip(*parts))
    return np.concatenate(parts)


def _phase_sums(graph: MetricGraph, robin: RobinSpec, ks: np.ndarray) -> np.ndarray:
    """Phi(k) = sum of eigenvalue arguments of U(k) reduced to [0, 2 pi)."""
    return _stack_map(
        graph,
        robin,
        ks,
        lambda _, u: np.mod(np.angle(np.linalg.eigvals(u)), TWO_PI).sum(axis=1),
    )


def secular_dets(graph: MetricGraph, robin: RobinSpec, ks) -> np.ndarray:
    """det(I - U(k)) for a batch of positive wave numbers."""
    eye = np.eye(graph.num_slots)
    return _stack_map(graph, robin, ks, lambda _, u: np.linalg.det(eye - u))


def _window_counts(dtheta: np.ndarray, dphi: np.ndarray) -> np.ndarray:
    """Crossings per window; raises unless each sits on an integer."""
    x = (dtheta - dphi) / TWO_PI
    counts = np.rint(x)
    off = np.abs(x - counts)
    if off.size and off.max() > COUNT_ROUNDING_TOL:
        j = int(np.argmax(off))
        raise ToleranceNotMet(
            f"eigenphase winding count {x[j]!r} is {off[j]:.3g} away from an integer"
        )
    return counts.astype(int)


def _stop_width(ks: np.ndarray, tol: float | None) -> np.ndarray:
    floor = 4.0 * EPS * (1.0 + ks)
    if tol is None:
        return floor
    return np.maximum(floor, tol * (1.0 + ks))


def _secular_rotation(graph: MetricGraph, robin: RobinSpec, k: float) -> complex:
    """conj(c), which turns det(I - U) exp(-i Theta / 2) onto the real axis.

    c = (-i)^N exp(i c_0 / 2), where exp(i c_0) = det U(k) exp(-i Theta(k))
    takes the same value at every k.  Either square root serves: the
    other one only flips the sign of zeta everywhere.
    """
    ks = np.asarray([k], dtype=float)
    (det_u,) = np.linalg.det(unitary_stack(graph, robin, ks))
    c0 = det_u * np.exp(-1j * total_phase_values(graph, robin, ks)[0])
    return complex(np.conj((-1j) ** graph.num_slots * np.sqrt(c0 / abs(c0))))


def _secular_values(graph, robin, ks, rotation: complex) -> np.ndarray:
    """zeta(k) before its real part is taken; see the module docstring."""
    phase = np.exp(-0.5j * total_phase_values(graph, robin, ks))
    return secular_dets(graph, robin, ks) * phase * rotation


def _polish_ready(graph, robin, los, his, rotation):
    """Endpoint values of zeta, and which brackets it can polish.

    A bracket qualifies when zeta has opposite signs at its ends, both
    clear of the determinant's rounding level.  An imaginary part above
    that level and REALNESS_TOL |zeta| means zeta is not the real secular
    function, so it raises.
    """
    ks = np.concatenate([los, his])
    z = _secular_values(graph, robin, ks, rotation)
    # rounding level of det(I - U): N eps times 2^N, the largest product
    # of the N singular values of I - U (each at most 2)
    noise = graph.num_slots * EPS * 2.0**graph.num_slots
    complex_at = np.abs(z.imag) > REALNESS_TOL * np.abs(z) + noise
    if np.any(complex_at):
        j = int(np.flatnonzero(complex_at)[0])
        raise ToleranceNotMet(
            f"secular function not real at k={ks[j]!r}: "
            f"|Im| / |zeta| = {abs(z[j].imag) / abs(z[j]):.3g}"
        )
    f_lo, f_hi = np.split(z.real, 2)
    clear = (np.abs(f_lo) > noise) & (np.abs(f_hi) > noise)
    return f_lo, f_hi, clear & (np.sign(f_lo) != np.sign(f_hi))


def _polish(graph, robin, rotation, los, his, f_lo, f_hi, tol) -> np.ndarray:
    """Safeguarded false position on zeta over sign-changing brackets.

    Each step evaluates zeta at one point per open bracket, in one
    batched determinant: the false-position point kept at least half a
    stop width inside the bracket, or the midpoint when the bracket did
    not halve over the three previous steps.  An end that survives twice
    in a row has its value scaled down (the Anderson-Bjorck form of the
    Illinois rule), so both ends converge.  Returns the midpoints once
    brackets are within the stop width.
    """
    out = np.empty(los.size)
    open_ = np.arange(los.size)
    kept_hi = np.zeros(los.size, dtype=bool)  # the step before kept hi
    kept_lo = np.zeros(los.size, dtype=bool)
    # bracket widths one, two and three steps ago
    widths = np.full((3, los.size), np.inf)
    for _ in range(MAX_POLISH_STEPS):
        width = his - los
        stop = _stop_width(his, tol)
        done = width <= stop
        out[open_[done]] = 0.5 * (los[done] + his[done])
        live = ~done
        open_, los, his, f_lo, f_hi = (
            a[live] for a in (open_, los, his, f_lo, f_hi)
        )
        kept_hi, kept_lo = kept_hi[live], kept_lo[live]
        width, stop, widths = width[live], stop[live], widths[:, live]
        if open_.size == 0:
            return out
        x = np.where(
            width > 0.5 * widths[2],
            0.5 * (los + his),
            his - f_hi * (width / (f_hi - f_lo)),
        )
        x = np.clip(x, los + 0.5 * stop, his - 0.5 * stop)
        f_x = _secular_values(graph, robin, x, rotation).real
        to_lo = np.sign(f_x) == np.sign(f_lo)
        to_hi = ~to_lo
        # scale m = 1 - f_x / f(replaced end), or 1/2 where that is not positive
        m_hi = 1.0 - f_x / f_lo
        m_lo = 1.0 - f_x / f_hi
        f_hi = np.where(to_lo & kept_hi, np.where(m_hi > 0.0, m_hi, 0.5) * f_hi, f_hi)
        f_lo = np.where(to_hi & kept_lo, np.where(m_lo > 0.0, m_lo, 0.5) * f_lo, f_lo)
        # an exact zero closes the bracket onto x
        los = np.where(to_lo | (f_x == 0.0), x, los)
        his = np.where(to_hi, x, his)
        f_lo = np.where(to_lo, f_x, f_lo)
        f_hi = np.where(to_hi, f_x, f_hi)
        kept_hi, kept_lo = to_lo, to_hi
        widths = np.stack([width, widths[0], widths[1]])
    raise ToleranceNotMet(
        f"{open_.size} brackets still open after {MAX_POLISH_STEPS} polish steps"
    )


def _refine_brackets(
    graph, robin, rotation, los, his, th_lo, th_hi, ph_lo, ph_hi, counts, tol
):
    """Roots with multiplicities of every bracket, down to the stop width.

    Count-guided bisection, except that each count-1 bracket wider than
    POLISH_HANDOFF stop widths leaves it as soon as it appears for the
    polish on zeta, unless its endpoint values do not qualify; then it
    stays in the bisection to the end.
    """
    roots: list[float] = []
    mults: list[int] = []
    polish: list[tuple] = []
    bisect_only = np.zeros(los.size, dtype=bool)
    for _ in range(MAX_BISECTION_LEVELS):
        width = his - los
        stop = _stop_width(his, tol)
        done = width <= stop
        roots.extend(0.5 * (los[done] + his[done]))
        mults.extend(counts[done])
        keep = ~done
        handoff = np.flatnonzero(
            keep & (counts == 1) & ~bisect_only & (width > POLISH_HANDOFF * stop)
        )
        if handoff.size:
            f_lo, f_hi, ready = _polish_ready(
                graph, robin, los[handoff], his[handoff], rotation
            )
            leaving = handoff[ready]
            polish.append((los[leaving], his[leaving], f_lo[ready], f_hi[ready]))
            keep[leaving] = False
            bisect_only[handoff[~ready]] = True
        los, his, counts = los[keep], his[keep], counts[keep]
        bisect_only = bisect_only[keep]
        th_lo, th_hi = th_lo[keep], th_hi[keep]
        ph_lo, ph_hi = ph_lo[keep], ph_hi[keep]
        if los.size == 0:
            break
        mids = 0.5 * (los + his)
        th_mid = total_phase_values(graph, robin, mids)
        ph_mid = _phase_sums(graph, robin, mids)
        c_lo = _window_counts(th_mid - th_lo, ph_mid - ph_lo)
        # c_hi is the remainder, so totals are conserved exactly; a half
        # outside [0, count] means the midpoint and end counts disagree.
        outside = (c_lo < 0) | (c_lo > counts)
        if np.any(outside):
            j = int(np.flatnonzero(outside)[0])
            raise ToleranceNotMet(
                f"half-bracket count {c_lo[j]} outside [0, {counts[j]}] "
                f"at k={mids[j]!r}"
            )
        c_hi = counts - c_lo
        left = c_lo > 0
        right = c_hi > 0
        los = np.concatenate([los[left], mids[right]])
        his = np.concatenate([mids[left], his[right]])
        th_lo = np.concatenate([th_lo[left], th_mid[right]])
        th_hi = np.concatenate([th_mid[left], th_hi[right]])
        ph_lo = np.concatenate([ph_lo[left], ph_mid[right]])
        ph_hi = np.concatenate([ph_mid[left], ph_hi[right]])
        counts = np.concatenate([c_lo[left], c_hi[right]])
        bisect_only = np.concatenate([bisect_only[left], bisect_only[right]])
    if los.size:
        raise ToleranceNotMet(
            f"{los.size} brackets still open after {MAX_BISECTION_LEVELS} bisection levels"
        )
    if polish:
        lo, hi, f_lo, f_hi = (np.concatenate(column) for column in zip(*polish))
        roots.extend(_polish(graph, robin, rotation, lo, hi, f_lo, f_hi, tol))
        mults.extend([1] * lo.size)
    return np.asarray(roots), np.asarray(mults, dtype=int)


def _merge_roots(roots: np.ndarray, mults: np.ndarray):
    """Sum multiplicities of roots closer than the merge radius."""
    if roots.size == 0:
        return roots, mults
    order = np.argsort(roots)
    roots, mults = roots[order], mults[order]
    out_k: list[float] = []
    out_m: list[int] = []
    for k, m in zip(roots, mults):
        if out_k and k - out_k[-1] <= MERGE_SCALE * (1.0 + k):
            total = out_m[-1] + m
            out_k[-1] = (out_m[-1] * out_k[-1] + m * k) / total
            out_m[-1] = total
        else:
            out_k.append(float(k))
            out_m.append(int(m))
    return np.asarray(out_k), np.asarray(out_m, dtype=int)


def _kernel_threshold(graph, robin, ks: np.ndarray, tol) -> np.ndarray:
    """Singular values of I - U(k) below this count toward dim ker.

    A reported root sits up to half a stop width from the true root,
    which lifts the kernel singular values by roughly that distance
    times the branch phase velocity; the threshold widens accordingly
    so loose user tolerances do not trip the dimension checks.
    """
    return np.maximum(
        KERNEL_SV_SCALE * np.sqrt(graph.num_slots),
        2.0 * _stop_width(ks, tol) * total_phase_derivative(graph, robin, ks),
    )


def _kernel_audit(graph, robin, roots: np.ndarray, mults: np.ndarray, tol) -> None:
    """Raise unless dim ker(I - U(k)) matches each record's crossing count.

    I - U is normal, so its singular values are the distances
    |1 - exp(i theta_m)| of the eigenvalues from 1.  A record is short
    when fewer than m of them fall below the threshold.  It has excess
    when more fall below it than the solver placed roots within reach:
    every branch moves at least l_min per unit k, so a root farther than
    reach = 2 threshold / l_min stays above it.  Windows that reach
    k = 0, where U(0) has a larger kernel of its own, are not compared.
    """
    sv_tol = _kernel_threshold(graph, robin, roots, tol)
    eye = np.eye(graph.num_slots)
    sv = _stack_map(
        graph, robin, roots, lambda _, u: np.linalg.svd(eye - u, compute_uv=False)
    )
    dims = np.sum(sv < sv_tol[:, None], axis=1)
    short = dims < mults
    if np.any(short):
        j = int(np.flatnonzero(short)[0])
        raise ToleranceNotMet(
            f"kernel dimension {dims[j]} below crossing count {mults[j]} "
            f"at k={roots[j]!r}"
        )
    reach = 2.0 * sv_tol / graph.min_edge_length
    crossings = np.repeat(roots, mults)
    nearby = np.searchsorted(crossings, roots + reach, side="right") - np.searchsorted(
        crossings, roots - reach, side="left"
    )
    excess = (dims > nearby) & (roots > reach)
    if np.any(excess):
        j = int(np.flatnonzero(excess)[0])
        raise ToleranceNotMet(
            f"kernel dimension {dims[j]} above the {nearby[j]} crossings found "
            f"within {reach[j]:.3g} of k={roots[j]!r}"
        )


def _anchor(graph: MetricGraph, robin: RobinSpec) -> float:
    """Scan floor: below every positive eigenvalue.

    For sigma = 0 the first positive wave number is at least pi / |G|
    (path graphs saturate it), so half that is safe.  For sigma > 0 the
    lowest eigenvalue behaves like sigma |V_R| / |G| to first order in
    sigma; the extra sqrt(sigma / |G|) / 100 floor keeps the anchor far
    below it even for very weak coupling.
    """
    floor = min(1e-6, 0.5 * np.pi / graph.total_length)
    if robin.sigma > 0.0 and robin.vertices:
        # two square roots: sigma / |G| underflows for subnormal sigma
        floor = min(floor, 0.01 * np.sqrt(robin.sigma) / np.sqrt(graph.total_length))
    return floor


def compute_spectrum(
    graph: MetricGraph,
    robin: RobinSpec | None = None,
    n_max: int | None = None,
    k_max: float | None = None,
    *,
    step_scale: float = 1.0,
    tol: float | None = None,
    check_kernel: bool = True,
) -> Spectrum:
    """All eigenvalue wave numbers up to an index or wave-number target.

    Exactly one of n_max (count including multiplicity) and k_max must
    be given.  step_scale multiplies the scan step pi / (8 l_max); tol
    loosens the default bisection stop width to tol * (1 + k).
    """
    if robin is None:
        robin = RobinSpec.neumann()
    if (n_max is None) == (k_max is None):
        raise ValueError("give exactly one of n_max and k_max")
    if n_max is not None and n_max < 1:
        raise ValueError("n_max must be at least 1")
    if k_max is not None and k_max <= 0.0:
        raise ValueError("k_max must be positive")
    if step_scale <= 0.0:
        raise ValueError("step_scale must be positive")

    delta = np.pi / (8.0 * graph.max_edge_length) * step_scale
    k_start = _anchor(graph, robin)
    has_zero_mode = robin.sigma == 0.0 or not robin.vertices
    zero_count = 1 if has_zero_mode else 0

    if k_max is not None:
        k_goal = k_max
    else:
        # Weyl count k|G|/pi plus slack covers the boundary correction.
        k_goal = np.pi * (n_max + graph.num_slots + 8) / graph.total_length
    n_cells = max(int(np.ceil((k_goal - k_start) / delta)), 1)

    grid = np.concatenate([[k_start], k_start + delta * np.arange(1, n_cells + 1)])
    theta = total_phase_values(graph, robin, grid)
    phi = _phase_sums(graph, robin, grid)
    rotation = _secular_rotation(graph, robin, grid[1])

    roots = np.empty(0)
    mults = np.empty(0, dtype=int)
    lo_edge = 0
    while True:
        cells = np.arange(lo_edge, grid.size - 1)
        counts = _window_counts(
            theta[cells + 1] - theta[cells], phi[cells + 1] - phi[cells]
        )
        hot = cells[counts > 0]
        if hot.size:
            new_roots, new_mults = _refine_brackets(
                graph,
                robin,
                rotation,
                grid[hot],
                grid[hot + 1],
                theta[hot],
                theta[hot + 1],
                phi[hot],
                phi[hot + 1],
                counts[counts > 0],
                tol,
            )
            roots = np.concatenate([roots, new_roots])
            mults = np.concatenate([mults, new_mults])
        if k_max is not None or zero_count + int(mults.sum()) >= n_max:
            break
        # Undershot the requested count: extend the scan by a quarter.
        lo_edge = grid.size - 1
        extra = max(int(np.ceil(0.25 * n_cells)), 64)
        ext = grid[-1] + delta * np.arange(1, extra + 1)
        grid = np.concatenate([grid, ext])
        theta = np.concatenate([theta, total_phase_values(graph, robin, ext)])
        phi = np.concatenate([phi, _phase_sums(graph, robin, ext)])
        n_cells += extra

    roots, mults = _merge_roots(roots, mults)
    if k_max is not None:
        inside = roots <= k_max
        roots, mults = roots[inside], mults[inside]
        k_cap = float(k_max)
    else:
        k_cap = float(grid[-1])

    if check_kernel and roots.size:
        _kernel_audit(graph, robin, roots, mults, tol)

    # Post-hoc audit: the counting function may not drift from the total
    # phase by more than the number of eigenphase branches.
    n_at_grid = zero_count + np.searchsorted(
        np.repeat(roots, mults), grid, side="right"
    )
    drift = np.abs(n_at_grid - theta / TWO_PI)
    if np.any(drift > graph.num_slots):
        raise StepPolicyViolation(
            f"counting function drifts {drift.max():.3f} branch widths from the "
            "total phase; rerun with a smaller step_scale"
        )

    records = []
    index = 1
    if has_zero_mode:
        records.append(SpectralPoint(index=1, k=0.0, multiplicity=1))
        index = 2
    for k, m in zip(roots, mults):
        records.append(SpectralPoint(index=index, k=float(k), multiplicity=int(m)))
        index += int(m)
    return Spectrum(sigma=robin.sigma, records=tuple(records), k_cap=k_cap, tol=tol)


def counting_function(spectrum: Spectrum, k: float) -> int:
    """N(k): eigenvalue count with multiplicity at or below k."""
    if k > spectrum.k_cap:
        raise OutOfScannedRange(
            f"k={k!r} exceeds the scanned range k_cap={spectrum.k_cap!r}"
        )
    return int(np.searchsorted(spectrum.wavenumbers(), k, side="right"))


def spectral_shift(spec0: Spectrum, spec1: Spectrum, k: float) -> int:
    """N(k, 0) - N(k, sigma); in {0, 1} for a single coupled vertex."""
    return counting_function(spec0, k) - counting_function(spec1, k)


def robin_homotopy(
    graph: MetricGraph,
    vertices,
    sigma: float,
    n: int,
    t_steps: int,
    *,
    strict: bool = False,
    step_scale: float = 1.0,
) -> EigenvalueCurve:
    """Track k_n over couplings t = 0, sigma/t_steps, ..., sigma.

    Index pairing is by sorted order at each coupling.  Couplings where
    the n-th eigenvalue is multiple are reported in degenerate_at (the
    sorted-order pairing stays well defined, but the perturbation
    direction inside the eigenspace is not); strict=True raises
    IndexCrossingAmbiguity instead.
    """
    if t_steps < 1:
        raise ValueError("t_steps must be at least 1")
    if sigma < 0.0:
        raise ValueError("sigma must be nonnegative")
    couplings = [sigma * j / t_steps for j in range(t_steps + 1)]
    ks: list[float] = []
    degenerate: list[float] = []
    for t in couplings:
        spec = compute_spectrum(
            graph,
            RobinSpec(frozenset(vertices), t),
            n_max=n,
            step_scale=step_scale,
        )
        ks.append(float(spec.wavenumbers()[n - 1]))
        for rec in spec.records:
            if rec.index <= n < rec.index + rec.multiplicity:
                if rec.multiplicity > 1:
                    degenerate.append(t)
                break
    if strict and degenerate:
        raise IndexCrossingAmbiguity(
            f"eigenvalue {n} is multiple at couplings {degenerate}"
        )
    return EigenvalueCurve(
        index=n,
        couplings=tuple(couplings),
        wavenumbers=tuple(ks),
        degenerate_at=tuple(degenerate),
    )
