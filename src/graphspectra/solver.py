"""Eigenvalue solver: inertia counts certify the scan, eigenphase winding
counts the multiple roots, a real amplitude determinant polishes the
simple ones.

Counting.  Take k off every Dirichlet pole, so that k l_e / pi is not an
integer for any edge.  Then the number of eigenvalues with wave number
at most k, zero mode included, is the Morse index

    N(k) = sum_e floor(k l_e / pi) + n_+(M(k))

(Friedlander, Ann. Inst. Fourier 55 (2005); Berkolaiko & Kuchment,
Introduction to Quantum Graphs, ch. 3), where n_+ counts positive
eigenvalues and M(k) is the real symmetric V x V vertex
Dirichlet-to-Neumann matrix minus the couplings: M_vv = -sum k cot(k l_e)
- sigma_v over the edges at v, M_uv = sum k / sin(k l_e) over the edges
u-v, and a loop at v adds 2 k (1 - cos k l) / sin k l to M_vv.  This is
the sign convention sum f'_out(v) = sigma f(v).  Every scan-grid point
is counted this way, by one batched eigvalsh, and a count is used only
with margin: every |mu_j(M)| above INERTIA_MARGIN V eps ||M||_2 (Weyl's
bound on the eigenvalues of the rounded matrix) and every |sin k l_e|
above POLE_MARGIN, where a graph eigenvalue sitting on a pole can fool
the first test.  Grid points are free, so a point without margin moves
up by delta / 16 at a time, at most GRID_MOVES times, and raises
ToleranceNotMet if it finds none.  No count is rounded without margin.

The anchor.  Near k = 0 the row sums of M are differences of entries of
size 1 / (k l), so eigvalsh cannot resolve the lowest eigenvalue of M.
The congruent C = T^T M T with T = [1, e_2, ..., e_V] has the same
inertia and computes those sums directly, without cancellation:

    C_11 = sum_e 2 k tan(k l_e / 2) - sigma |V_R|,
    C_1j = sum_{e at j} k tan(k l_e / 2) - sigma_j,

while the rest C' is M without vertex 0.  By Haynsworth,
n_+(M) = n_+(C') + [C_11 - b^T C'^-1 b > 0], b the rest of C's first
row.  Below pi / (2 |G|) no floor term is positive and C' is negative
definite (clamping one vertex leaves no eigenvalue there), which the
margins check rather than assume.  The scan starts at k_start below
every positive eigenvalue, and this count certifies N(k_start).  When
sigma is so small that the ground state lies far below the usual anchor
(k_R = sqrt(sigma |V_R| / |G|) at most half of it), no eigenphase or
determinant resolves it; since 0 < lambda_1 <= sigma |V_R| / |G|
(Rayleigh with f = 1) and the ground state is simple, it is bisected on
this count instead, and the scan starts above it.

Winding counts.  Write the eigenvalues of U(k) as exp(i theta_m(k))
with each branch theta_m continuous and strictly increasing in k
(velocity at least l_min).  k is an eigenvalue wave number of the graph
operator exactly when some branch crosses a multiple of 2 pi.  Summing
over branches,

    sum_m theta_m(k) = Theta(k) + c_0,

with Theta the closed-form total phase, because det U(k) equals the
k-independent unimodular constant exp(i c_0) times exp(i Theta(k)).
Splitting each branch into 2 pi * floor + fractional part phi_m(k) in
[0, 2 pi) gives, for the number of crossings in a half-open window
(a, b],

    count(a, b] = [Theta(b) - Theta(a) - (Phi(b) - Phi(a))] / (2 pi),

where Phi(k) = sum_m phi_m(k).  The constant cancels and the right
side is an integer up to rounding noise, so windows can be counted
without any branch matching or path continuity.  Every scan cell with a
positive inertia count is refined in two stages, and eigvals of U(k)
runs only at the ends of the cells that reach the counted splits and
at their split points: there the winding count is the only
certificate, and it must equal the cell's inertia count.

Counted splits.  Each step measures every bracket at one point and
counts each half; halves whose count stays positive are kept, so a
cluster of m coincident roots is simply a bracket whose count never
drops below m.  The point comes from the eigenphases the counts already
use.  For a bracket (lo, hi] holding c crossings, let

    psi(lo) = (sum of the c largest phi_m(lo)) - 2 pi c  <= 0,
    psi(hi) =  sum of the c smallest phi_m(hi)           >= 0.

When the crossing branches are those nearest 2 pi at lo and nearest 0
at hi, psi is their summed phase unwrapped across the crossing, nearly
linear in k and zero at a multiple root, so the false-position point of
psi lands on the cluster.  It is safeguarded like the polish below: an
end kept twice in a row has its psi halved (the Illinois rule), the
point stays half a stop width inside the bracket, and the midpoint is
taken when the psi ends have the wrong signs or the bracket did not
halve over three steps.  The point only chooses where to measure; the
counts at it certify as before.  Brackets with count 2 or more stay in
this stage to the end, a few steps each where bisection took about 45.

Polish.  A bracket with count 1 that is wider than POLISH_HANDOFF stop
widths leaves the counted splits as soon as it appears, from the scan
or from a split.  It holds exactly one simple root, which is a sign
change of det A(k), A(k) the real 2E x 2E matrix of the amplitudes
f_e(x) = A_e cos kx + B_e sin kx on each edge (x from its first vertex).
Its rows are the d_v - 1 continuity conditions of each vertex and one
delta-Kirchhoff row (sum f'_out / k - (sigma_v / k) f(v)) / |d_v + i
sigma_v / k|, so det A(k) = 0 exactly at the eigenvalue wave numbers,
Dirichlet poles included.  The normalisation makes it the real secular
function of U(k) up to one constant sign per graph:

    2^E det A(k) = +-zeta(k),  zeta = Re[det(I - U) exp(-i Theta / 2) conj(c)],

where |c| = 1 and zeta is real, |zeta(k)| = |det(I - U(k))| = 2^(2E)
prod_m |sin(theta_m / 2)| over the eigenvalues exp(i theta_m) of U(k).
A root of multiplicity m flips the sign m times, so

    sign det A(k) = s_0 (-1)^N(k),

with N(k) the inertia count and s_0 one constant per spectrum, taken at
the first handoff from the end with the largest |det A|.  The handoff
certifies the end signs by this parity: a scan cell carries N(lo) from
the grid, and a split's left half keeps N(lo) while its right half adds
the left half's count.  A bracket whose end values do not both have the
predicted signs stays in the counted splits; that is a root on or
within rounding of an end, the usual case after a split next to a
multiple root.  No rounding level is needed: an end value with the
predicted sign is the true sign.  All count-1 brackets then run one
vectorized false-position iteration on det A (one batched real
determinant per step, a few steps per root, where a counted split needs
a batched complex eigendecomposition).  The kernel audit below checks
every polished root.

Both stages stop once a bracket is narrower than the stop width
max(4 eps (1 + k), tol (1 + k)) and report its midpoint, so every
reported root lies within half a stop width of the true root.  Where
inside that window a root lands depends on the eigenphases and
determinants met on the way, so a root shared by two couplings need not
be reported bitwise equal at both.

Scan range.  Each of the N = 2E branches loses at most one crossing
against Theta / (2 pi), because Phi stays in [0, 2 pi N), and Theta
rises by at least 2 |G| per unit k.  Counting from the anchor k_start,
below every positive eigenvalue,

    N(k) > zero_count + |G| (k - k_start) / pi - 2E,

so a single scan to k = pi (n_max + 2E + 8) / |G| certifies n_max
eigenvalues; a scan that certifies fewer raises.  The inertia counts
would give the range pointwise, but the scan keeps this bound, so the
records and k_cap do not depend on which counter certified them.

Records.  Roots merge by single linkage on the merge radius, 1e-9
(1 + k) capped at the kernel threshold over the largest branch
velocity: a chain of roots, each within the radius of the root below
it, is one record at its multiplicity-weighted mean, provided every root
of the chain lies within the radius of that mean, so that the record's
kernel holds them all.  A chain whose mean misses one of its roots
splits at its widest gap, and each part is judged again, down to single
roots, so a double root in a longer chain stays one record.

Certification stays with the counts.  A window count further than
COUNT_ROUNDING_TOL from an integer raises, as does a half-bracket count
outside [0, count], an inertia count that falls from one scan point to
the next, and a cell whose winding count differs from its inertia
count.  Each record's crossing count m is checked against
dim ker(I - U(k)) by the one kernel-dimension rule, _kernel_mismatch,
which the eigenfunction module applies too: singular values below
1e-8 sqrt(2E) (widened for a loose tol by _kernel_threshold) count, a
record is short when fewer than m count, and it has excess when more
count than the records place crossings within reach of it.  Then the
records must count exactly the inertia count N(k) at every scan-grid
point.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import OutOfRange, OutOfScannedRange, ToleranceNotMet
from .graphs import MetricGraph, RobinSpec
from .scattering import total_phase_derivative, total_phase_values, unitary_stack

__all__ = [
    "Spectrum",
    "compute_spectrum",
    "counting_function",
    "spectral_shift",
]

TWO_PI = 2.0 * np.pi
EPS = float(np.finfo(float).eps)
MAX_REFINE_STEPS = 200
MAX_POLISH_STEPS = 200
MERGE_SCALE = 1e-9
KERNEL_SV_SCALE = 1e-8
LAPACK_CHUNK = 1024
COUNT_ROUNDING_TOL = 1e-6
POLISH_HANDOFF = 64.0
# scan step times l_max: no edge phase k l_e advances more than pi / 8 per cell
SCAN_PHASE_STEP = np.pi / 8.0
# an inertia count needs every |mu_j(M)| above INERTIA_MARGIN V eps ||M||_2
# and every |sin k l_e| above POLE_MARGIN
INERTIA_MARGIN = 64.0
POLE_MARGIN = 1e-8
# moves of delta / 16 a scan point without margin may take
GRID_MOVES = 8


@dataclass(frozen=True, eq=False)
class Spectrum:
    """Ordered spectrum of the operator of one graph and one coupling.

    One record per distinct wave number, as three read-only arrays: a
    record with multiplicity[i] = m at k[i] owns the m consecutive
    eigenvalue indices starting at index[i].  k_cap is the largest wave
    number the scan certified; every eigenvalue at or below k_cap
    appears.  tol is the refinement tolerance the records were computed
    with (None for the default stop width); stop_width and
    kernel_threshold give the accuracy model it sets.
    """

    graph: MetricGraph
    robin: RobinSpec
    index: np.ndarray
    k: np.ndarray
    multiplicity: np.ndarray
    k_cap: float
    tol: float | None = None

    def __post_init__(self):
        for column in (self.index, self.k, self.multiplicity):
            column.flags.writeable = False

    def wavenumbers(self, count: int | None = None) -> np.ndarray:
        """Expanded wave numbers, one entry per index."""
        ks = np.repeat(self.k, self.multiplicity)
        return ks if count is None else ks[:count]

    def eigenvalues(self, count: int | None = None) -> np.ndarray:
        return self.wavenumbers(count) ** 2

    @property
    def size(self) -> int:
        return int(self.multiplicity.sum())

    def positions(self, n) -> np.ndarray:
        """Positions of the records holding eigenvalue indices n."""
        n = np.asarray(n)
        if np.any(n < 1):
            raise ValueError("eigenvalue index starts at 1")
        if np.any(n > self.size):
            raise OutOfRange(f"index {int(n.max())} beyond the computed spectrum")
        return np.searchsorted(self.index, n, side="right") - 1

    def stop_width(self, ks: np.ndarray) -> np.ndarray:
        """Final bracket width at ks; a reported k lies within half of it."""
        return _stop_width(ks, self.tol)

    def kernel_threshold(self, ks: np.ndarray) -> np.ndarray:
        """Singular values of I - U(k) below this count toward dim ker."""
        return _kernel_threshold(self.graph, self.robin, ks, self.tol)


def _stack_map(graph: MetricGraph, robin: RobinSpec, ks, fn, build=None):
    """fn(build(batch)) over slices of at most LAPACK_CHUNK wave numbers.

    build is _vertex_matrices (M), _amplitude_matrices (A) or, by default,
    unitary_stack (U), looked up at each call so that a wrapper on the
    module attribute sees it.  The results are joined along the first
    axis, element by element when fn returns a tuple.  Every batched
    decomposition over wave numbers in the package goes through here,
    which bounds the stacks it builds.
    """
    ks = np.asarray(ks, dtype=float)
    build = unitary_stack if build is None else build
    parts = [
        fn(build(graph, robin, batch))
        for batch in (
            ks[start : start + LAPACK_CHUNK]
            for start in range(0, max(ks.size, 1), LAPACK_CHUNK)
        )
    ]
    if isinstance(parts[0], tuple):
        return tuple(np.concatenate(column) for column in zip(*parts))
    return np.concatenate(parts)


def _eigenphases(graph: MetricGraph, robin: RobinSpec, ks) -> np.ndarray:
    """Eigenvalue arguments of U(k) reduced to [0, 2 pi), sorted along rows.

    Phi(k) is the row sum.  This is the one eigenphase evaluation: the
    scan keeps the rows of its grid and the refinement those of its
    bracket ends, so no wave number is decomposed twice.
    """
    return _stack_map(
        graph,
        robin,
        ks,
        lambda u: np.sort(np.mod(np.angle(np.linalg.eigvals(u)), TWO_PI), axis=1),
    )


def _vertex_matrices(graph: MetricGraph, robin: RobinSpec, ks) -> np.ndarray:
    """M(k) for a batch of wave numbers off the poles, shape (len(ks), V, V).

    Each edge u-v adds -k cot(k l) to M_uu and M_vv and k / sin(k l) to
    M_uv and M_vu, so a loop at u adds 2 k (1 - cos k l) / sin k l to
    M_uu; then sigma_v leaves M_vv.
    """
    ks = np.asarray(ks, dtype=float)
    n = graph.num_vertices
    x = ks[:, None] * graph.slot_length[None, 0::2]
    sin = np.sin(x)
    diag, off = -ks[:, None] * np.cos(x) / sin, ks[:, None] / sin
    m = np.zeros((ks.size, n, n))
    for e, (u, v, _) in enumerate(graph.edges):
        m[:, u, u] += diag[:, e]
        m[:, v, v] += diag[:, e]
        m[:, u, v] += off[:, e]
        m[:, v, u] += off[:, e]
    m[:, np.arange(n), np.arange(n)] -= robin.vertex_sigmas(graph)
    return m


def _inertia_counts(graph: MetricGraph, robin: RobinSpec, ks):
    """N(k) by the Morse index of M(k), and whether each count has margin.

    See "Counting" in the module docstring.  floor(k l_e / pi) is exact
    where |sin k l_e| exceeds 2 eps k l_e, which the pole margin includes.
    """
    ks = np.asarray(ks, dtype=float)
    x = ks[:, None] * graph.slot_length[None, 0::2]
    mu = _stack_map(graph, robin, ks, np.linalg.eigvalsh, build=_vertex_matrices)
    size = np.abs(mu)
    ok = size.min(axis=1) > INERTIA_MARGIN * graph.num_vertices * EPS * size.max(axis=1)
    ok &= np.all(np.abs(np.sin(x)) > POLE_MARGIN + 2.0 * EPS * x, axis=1)
    counts = np.floor(x / np.pi).sum(axis=1).astype(int) + np.count_nonzero(mu > 0.0, axis=1)
    return counts, ok


def _scan_counts(graph: MetricGraph, robin: RobinSpec, ks: np.ndarray, delta: float):
    """Inertia counts at scan points, moving each point that lacks margin.

    A point moves up by delta / 16 at a time, at most GRID_MOVES times,
    so it stays below the next point and the order holds.  Returns the
    points where the counts were taken and the counts; raises
    ToleranceNotMet for a point that found no margin.
    """
    ks = np.array(ks, dtype=float)
    counts, ok = _inertia_counts(graph, robin, ks)
    for _ in range(GRID_MOVES):
        bad = np.flatnonzero(~ok)
        if bad.size == 0:
            break
        ks[bad] += delta / 16.0
        counts[bad], ok[bad] = _inertia_counts(graph, robin, ks[bad])
    if not np.all(ok):
        j = int(np.flatnonzero(~ok)[0])
        raise ToleranceNotMet(
            f"no inertia count with margin at k={float(ks[j])!r} after {GRID_MOVES} "
            "moves of a sixteenth of a scan cell"
        )
    return ks, counts


def _small_k_count(graph: MetricGraph, robin: RobinSpec, k: float) -> int:
    """N(k) for 0 < k <= pi / (4 |G|) from the congruent form of M(k).

    See "The anchor" in the module docstring; raises ToleranceNotMet
    unless C' and the Schur complement both have margin.
    """
    n = graph.num_vertices
    sigmas = robin.vertex_sigmas(graph)
    t = k * np.tan(0.5 * k * graph.slot_length)
    b = np.bincount(graph.slot_origin, weights=t, minlength=n)[1:] - sigmas[1:]
    positive, coupling = float(t.sum()), float(sigmas.sum())
    rest = _vertex_matrices(graph, robin, [k])[0, 1:, 1:]
    mu = np.linalg.eigvalsh(rest)
    size_max, size_min = np.abs(mu).max(initial=0.0), np.abs(mu).min(initial=np.inf)
    y = np.linalg.solve(rest, b) if b.size else b
    schur = positive - coupling - float(b @ y)
    # to first order, b^T C'^-1 b moves by 2 y^T db + y^T dC' y, with
    # |db| <= eps (positive + coupling) and ||dC'|| <= V eps ||C'||
    y_norm = float(np.linalg.norm(y))
    noise = INERTIA_MARGIN * n * EPS * (
        (1.0 + 2.0 * y_norm) * (positive + coupling) + y_norm**2 * size_max
    )
    if size_min <= INERTIA_MARGIN * n * EPS * size_max or abs(schur) <= noise:
        raise ToleranceNotMet(f"no inertia count with margin at k={float(k)!r}")
    return int(np.count_nonzero(mu > 0.0)) + int(schur > 0.0)


# f and f' / k of a slot at its origin as (column, basis, factor) terms, by
# (backward slot, derivative): a forward slot of edge t has f = A_t and
# f' / k = B_t, a backward one f = A_t cos + B_t sin, f' / k = A_t sin - B_t cos
_SLOT_TERMS = {
    (0, False): ((0, "1", 1.0),),
    (0, True): ((1, "1", 1.0),),
    (1, False): ((0, "cos", 1.0), (1, "sin", 1.0)),
    (1, True): ((0, "sin", 1.0), (1, "cos", -1.0)),
}


@lru_cache(maxsize=1)
def _amplitude_layout(graph: MetricGraph):
    """Entry, basis index, weight index and sign of each term of A(k).

    Row r of A belongs to the r-th slot in order of origin.  The first slot
    of each vertex carries the vertex's delta-Kirchhoff row, every other
    slot q the continuity row f_q(v) - f_p(v), p the slot before it.  The
    basis is [1, cos k l_t, sin k l_t] and the weights are
    [1, 1 / n_v, (sigma_v / k) / n_v] (see _amplitude_matrices).  A has the
    same layout at every coupling, so the last graph's is kept.
    """
    n, num_edges, num_vertices = graph.num_slots, graph.num_edges, graph.num_vertices
    slots = np.argsort(graph.slot_origin, kind="stable")
    vertex = graph.slot_origin[slots]
    lead = np.concatenate([[True], vertex[1:] != vertex[:-1]])
    heads, cont = np.flatnonzero(lead), np.flatnonzero(~lead)
    # (row, slot, derivative, weight, sign): f' / k of every slot and the
    # coupling term in its vertex's Kirchhoff row, then f_q - f_p
    row = np.concatenate([heads[vertex], heads, cont, cont])
    slot = np.concatenate([slots, slots[lead], slots[cont], slots[cont - 1]])
    derivative = np.arange(row.size) < n
    weight = np.concatenate(
        [1 + vertex, 1 + num_vertices + vertex[lead], np.zeros(2 * cont.size, dtype=int)]
    )
    sign = np.concatenate(
        [np.ones(n), -np.ones(num_vertices), np.ones(cont.size), -np.ones(cont.size)]
    )
    offset = {"1": 0, "cos": 1, "sin": 1 + num_edges}
    terms = []
    for (backward, is_derivative), slot_terms in _SLOT_TERMS.items():
        at = np.flatnonzero((slot % 2 == backward) & (derivative == is_derivative))
        edge = slot[at] // 2
        for column, basis, factor in slot_terms:
            src = offset[basis] + edge * (basis != "1")
            flat = row[at] * n + 2 * edge + column
            terms.append((flat, src, weight[at], factor * sign[at]))
    layout = tuple(np.concatenate(column) for column in zip(*terms))
    for column in layout:
        column.flags.writeable = False  # shared by every caller of the cache
    return layout


def _amplitude_matrices(graph: MetricGraph, robin: RobinSpec, ks) -> np.ndarray:
    """The real amplitude matrix A(k), shape (len(ks), 2E, 2E).

    Its columns are the amplitudes of f_e(x) = A_e cos kx + B_e sin kx, x
    running from the edge's first vertex, and its rows the d_v - 1
    continuity conditions and the delta-Kirchhoff condition
    (sum f'_out / k - (sigma_v / k) f(v)) / n_v, n_v = |d_v + i sigma_v / k|,
    of each vertex: one gather of [1, cos k l_e, sin k l_e] times the
    weights and one scatter, laid out by _amplitude_layout.
    """
    ks = np.asarray(ks, dtype=float)
    flat, src, weight, sign = _amplitude_layout(graph)
    x = ks[:, None] * graph.slot_length[None, 0::2]
    ones = np.ones((ks.size, 1))
    basis = np.concatenate([ones, np.cos(x), np.sin(x)], axis=1)
    coupling = robin.vertex_sigmas(graph)[None, :] / ks[:, None]
    inverse = 1.0 / np.hypot(graph.degrees[None, :], coupling)
    weights = np.concatenate([ones, inverse, coupling * inverse], axis=1)
    values = sign * basis[:, src] * weights[:, weight]
    n = graph.num_slots
    at = np.arange(ks.size)[:, None] * (n * n) + flat
    out = np.bincount(at.ravel(), weights=values.ravel(), minlength=ks.size * n * n)
    return out.reshape(-1, n, n)


def _amplitude_dets(graph: MetricGraph, robin: RobinSpec, ks) -> np.ndarray:
    """det A(k) for a batch of positive wave numbers."""
    return _stack_map(graph, robin, ks, np.linalg.det, build=_amplitude_matrices)


def _window_counts(dtheta: np.ndarray, dphi: np.ndarray) -> np.ndarray:
    """Crossings per window; raises unless each sits on an integer."""
    x = (dtheta - dphi) / TWO_PI
    counts = np.rint(x)
    off = np.abs(x - counts)
    if off.size and off.max() > COUNT_ROUNDING_TOL:
        j = int(np.argmax(off))
        raise ToleranceNotMet(
            f"eigenphase winding count {float(x[j])!r} is {off[j]:.3g} away from an integer"
        )
    return counts.astype(int)


def _stop_width(ks: np.ndarray, tol: float | None) -> np.ndarray:
    floor = 4.0 * EPS * (1.0 + ks)
    if tol is None:
        return floor
    return np.maximum(floor, tol * (1.0 + ks))


def _polish_ready(graph, robin, los, his, n_lo, sign=None):
    """End values of det A, which one-root brackets the polish can take,
    and s_0.

    sign det A(k) = s_0 (-1)^N(k), so a bracket holding one root, with
    N(lo) = n_lo, qualifies when its end values have the signs
    s_0 (-1)^n_lo and -s_0 (-1)^n_lo.  s_0, when not given, comes from the
    end with the largest |det A|.  An end shared by two brackets is
    decomposed once.
    """
    ks, inverse = np.unique(np.concatenate([los, his]), return_inverse=True)
    f = _amplitude_dets(graph, robin, ks)[inverse]
    parity = 1.0 - 2.0 * (np.asarray(n_lo) % 2)
    parity = np.concatenate([parity, -parity])
    if sign is None:
        j = int(np.argmax(np.abs(f)))
        sign = np.sign(f[j]) * parity[j]
    agree_lo, agree_hi = np.split(np.sign(f) == sign * parity, 2)
    f_lo, f_hi = np.split(f, 2)
    return f_lo, f_hi, agree_lo & agree_hi, sign


def _split_points(los, his, f_lo, f_hi, stalled, stop) -> np.ndarray:
    """Where to measure next in each bracket, half a stop width inside it.

    The false-position point of the end values, or the midpoint where
    they have the same sign or the bracket has stalled.  A zero end value
    puts the point next to that end.
    """
    width = his - los
    secant = (np.sign(f_lo) * np.sign(f_hi) <= 0.0) & (f_lo != f_hi) & ~stalled
    slope = np.where(secant, f_hi - f_lo, 1.0)
    x = np.where(secant, his - f_hi * (width / slope), 0.5 * (los + his))
    return np.clip(x, los + 0.5 * stop, his - 0.5 * stop)


def _polish(graph, robin, los, his, f_lo, f_hi, tol) -> np.ndarray:
    """Safeguarded false position on det A over sign-changing brackets.

    Each step evaluates det A at one point per open bracket, in one
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
        x = _split_points(los, his, f_lo, f_hi, width > 0.5 * widths[2], stop)
        f_x = _amplitude_dets(graph, robin, x)
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


def _cluster_phases(ph_lo, ph_hi, counts):
    """psi at both ends of brackets holding count crossings each.

    psi(lo) is the sum of the count largest reduced phases at lo less
    2 pi each, psi(hi) the sum of the count smallest at hi (rows sorted
    ascending, so psi(lo) <= 0 <= psi(hi)).  When the crossing branches
    are the ones nearest 2 pi at lo and nearest 0 at hi, psi is their
    summed unwrapped phase, which rises through 0 at the cluster, so its
    false-position point is a good place to split the bracket.
    """
    # a count above N = 2E (only across a wide cell) takes all N phases
    c = np.minimum(counts, ph_lo.shape[1])[:, None] - 1
    psi_lo = np.take_along_axis(np.cumsum(ph_lo[:, ::-1] - TWO_PI, axis=1), c, axis=1)
    psi_hi = np.take_along_axis(np.cumsum(ph_hi, axis=1), c, axis=1)
    return psi_lo[:, 0], psi_hi[:, 0]


def _end_rows(graph, robin, los, his, counts):
    """Theta and eigenphase rows at the bracket ends, checked against counts.

    An end shared by two brackets is decomposed once.  Each bracket's
    winding count must equal the inertia count it came with; raises
    ToleranceNotMet otherwise.
    """
    ks, inverse = np.unique(np.concatenate([los, his]), return_inverse=True)
    th_lo, th_hi = np.split(total_phase_values(graph, robin, ks)[inverse], 2)
    ph_lo, ph_hi = np.split(_eigenphases(graph, robin, ks)[inverse], 2)
    winding = _window_counts(th_hi - th_lo, ph_hi.sum(axis=1) - ph_lo.sum(axis=1))
    wrong = winding != counts
    if np.any(wrong):
        j = int(np.flatnonzero(wrong)[0])
        raise ToleranceNotMet(
            f"winding count {winding[j]} of ({float(los[j])!r}, {float(his[j])!r}] differs "
            f"from its inertia count {counts[j]}"
        )
    return th_lo, th_hi, ph_lo, ph_hi


def _refine_brackets(graph, robin, los, his, counts, n_lo, tol):
    """Roots with multiplicities of every bracket, down to the stop width.

    n_lo is the inertia count N(lo) of each bracket; a split's left half
    keeps it and its right half adds the left half's count.  Each count-1
    bracket wider than POLISH_HANDOFF stop widths leaves as soon as it
    appears for the polish on det A, unless its end values do not have
    the signs N predicts (_polish_ready); then it stays here to the end.
    The brackets left after the first handoff get their eigenphase rows
    (_end_rows).  Each step then measures every bracket at one point,
    chosen by _split_points on the cluster phases psi (an end kept twice
    in a row has its psi halved, the Illinois rule), and keeps the halves
    whose winding count stays positive.
    """
    roots: list[float] = []
    mults: list[int] = []
    polish: list[tuple] = []
    n = los.size
    sign = None  # s_0 of _polish_ready, fixed at the first handoff
    unready = np.zeros(n, dtype=bool)
    kept_lo = np.zeros(n, dtype=bool)  # the step before kept lo
    kept_hi = np.zeros(n, dtype=bool)
    w_lo, w_hi = np.ones(n), np.ones(n)
    # bracket widths one, two and three steps ago
    widths = np.full((3, n), np.inf)
    rows = None  # th_lo, th_hi, ph_lo, ph_hi, from the first split on
    for _ in range(MAX_REFINE_STEPS):
        width = his - los
        stop = _stop_width(his, tol)
        done = width <= stop
        roots.extend(0.5 * (los[done] + his[done]))
        mults.extend(counts[done])
        keep = ~done
        handoff = np.flatnonzero(
            keep & (counts == 1) & ~unready & (width > POLISH_HANDOFF * stop)
        )
        if handoff.size:
            f_lo, f_hi, ready, sign = _polish_ready(
                graph, robin, los[handoff], his[handoff], n_lo[handoff], sign
            )
            leaving = handoff[ready]
            polish.append((los[leaving], his[leaving], f_lo[ready], f_hi[ready]))
            keep[leaving] = False
            unready[handoff[~ready]] = True
        los, his, counts, n_lo, unready, kept_lo, kept_hi, w_lo, w_hi = (
            a[keep]
            for a in (los, his, counts, n_lo, unready, kept_lo, kept_hi, w_lo, w_hi)
        )
        width, stop, widths = width[keep], stop[keep], widths[:, keep]
        if los.size == 0:
            break
        if rows is None:
            th_lo, th_hi, ph_lo, ph_hi = _end_rows(graph, robin, los, his, counts)
        else:
            th_lo, th_hi, ph_lo, ph_hi = (a[keep] for a in rows)
        psi_lo, psi_hi = _cluster_phases(ph_lo, ph_hi, counts)
        x = _split_points(
            los, his, w_lo * psi_lo, w_hi * psi_hi, width > 0.5 * widths[2], stop
        )
        th_x = total_phase_values(graph, robin, x)
        ph_x = _eigenphases(graph, robin, x)
        c_lo = _window_counts(th_x - th_lo, ph_x.sum(axis=1) - ph_lo.sum(axis=1))
        # c_hi is the remainder, so totals are conserved exactly; a half
        # outside [0, count] means the split-point and end counts disagree.
        outside = (c_lo < 0) | (c_lo > counts)
        if np.any(outside):
            j = int(np.flatnonzero(outside)[0])
            raise ToleranceNotMet(
                f"half-bracket count {c_lo[j]} outside [0, {counts[j]}] "
                f"at k={float(x[j])!r}"
            )
        c_hi = counts - c_lo
        left = np.flatnonzero(c_lo > 0)
        right = np.flatnonzero(c_hi > 0)
        # a step that keeps one half keeps one end, and an end kept twice in
        # a row has its weight halved; both halves of a split start afresh
        one_side = (c_lo == 0) | (c_hi == 0)
        w_lo = np.where(one_side, np.where(kept_lo, 0.5, 1.0) * w_lo, 1.0)
        w_hi = np.where(one_side, np.where(kept_hi, 0.5, 1.0) * w_hi, 1.0)
        both = np.concatenate([left, right])
        lefts = np.arange(both.size) < left.size
        kept_lo = lefts & one_side[both]
        kept_hi = ~lefts & one_side[both]
        w_lo = np.where(lefts, w_lo[both], 1.0)
        w_hi = np.where(lefts, 1.0, w_hi[both])
        los = np.concatenate([los[left], x[right]])
        his = np.concatenate([x[left], his[right]])
        rows = (
            np.concatenate([th_lo[left], th_x[right]]),
            np.concatenate([th_x[left], th_hi[right]]),
            np.concatenate([ph_lo[left], ph_x[right]]),
            np.concatenate([ph_x[left], ph_hi[right]]),
        )
        counts = np.concatenate([c_lo[left], c_hi[right]])
        n_lo = np.concatenate([n_lo[left], n_lo[right] + c_lo[right]])
        unready = unready[both]
        widths = np.stack([width, widths[0], widths[1]])[:, both]
    if los.size:
        raise ToleranceNotMet(
            f"{los.size} brackets still open after {MAX_REFINE_STEPS} refinement steps"
        )
    if polish:
        lo, hi, f_lo, f_hi = (np.concatenate(column) for column in zip(*polish))
        roots.extend(_polish(graph, robin, lo, hi, f_lo, f_hi, tol))
        mults.extend([1] * lo.size)
    return np.asarray(roots), np.asarray(mults, dtype=int)


def _merge_roots(roots: np.ndarray, mults: np.ndarray, radii: np.ndarray):
    """Records from roots by single linkage on their merge radii, a chain
    whose mean misses one of its roots split at its widest gap until every
    part's mean holds its roots; see "Records" in the module docstring."""
    if roots.size == 0:
        return roots, mults
    order = np.argsort(roots)
    roots, mults, radii = roots[order], mults[order], radii[order]
    gap = np.diff(roots, prepend=-np.inf)
    new_chain = gap > radii
    while True:
        starts = np.flatnonzero(new_chain)
        chain = np.cumsum(new_chain) - 1
        total = np.add.reduceat(mults, starts)
        # offsets from the chain's lowest root, so a lone root keeps its value
        mean = roots[starts] + np.add.reduceat(
            mults * (roots - roots[starts][chain]), starts
        ) / total
        tight = np.logical_and.reduceat(np.abs(roots - mean[chain]) <= radii, starts)
        if tight.all():
            return mean, total
        ends = np.append(starts, roots.size)
        for c in np.flatnonzero(~tight):
            # a loose chain has two roots or more; a lone root is tight
            first = starts[c] + 1
            new_chain[first + np.argmax(gap[first : ends[c + 1]])] = True


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


def _merge_radius(graph, robin, ks: np.ndarray, tol) -> np.ndarray:
    """MERGE_SCALE (1 + k), capped at the kernel threshold over the largest
    branch velocity, so that a merged record's mean stays inside the kernel
    the audit measures.

    A branch of U(k) moves at most l_max plus the phase velocity of the
    coupled vertex factor, 2 sigma d / (d^2 k^2 + sigma^2), per unit k.
    """
    ks = np.asarray(ks, dtype=float)
    velocity = np.full_like(ks, graph.max_edge_length)
    if robin.vertices:
        d = graph.degrees[robin.coupled_vertices(graph)][:, None]
        s = robin.sigma
        velocity += np.max(2.0 * s * d / (d * d * ks * ks + s * s), axis=0, initial=0.0)
    return np.minimum(
        MERGE_SCALE * (1.0 + ks), _kernel_threshold(graph, robin, ks, tol) / velocity
    )


def _kernel_mismatch(graph, ks, mults, sv, threshold) -> str | None:
    """The kernel-dimension rule: why the first record (k, m) breaks it, or None.

    sv holds the singular values of I - U(k) per record; I - U is normal,
    so they are the distances |1 - exp(i theta_m)| of its eigenvalues
    from 1.  Every branch moves at least l_min per unit k, so a crossing
    farther than reach = 2 threshold / l_min stays above the threshold.
    Windows that reach k = 0, where U(0) has a larger kernel of its own,
    are not compared.
    """
    dims = np.sum(sv < threshold[:, None], axis=1)
    short = np.flatnonzero(dims < mults)
    if short.size:
        j = short[0]
        return (
            f"kernel dimension {dims[j]} below crossing count {mults[j]} "
            f"at k={float(ks[j])!r}"
        )
    reach = 2.0 * threshold / graph.min_edge_length
    crossings = np.sort(np.repeat(ks, mults))
    nearby = np.searchsorted(crossings, ks + reach, side="right") - np.searchsorted(
        crossings, ks - reach, side="left"
    )
    excess = np.flatnonzero((dims > nearby) & (ks > reach))
    if excess.size:
        j = excess[0]
        return (
            f"kernel dimension {dims[j]} above the {nearby[j]} crossings found "
            f"within {reach[j]:.3g} of k={float(ks[j])!r}"
        )
    return None


def _anchor(graph: MetricGraph, robin: RobinSpec, tol) -> tuple[float, list]:
    """Scan floor k_start below every positive eigenvalue not listed, and
    the list: the ground state when it lies far below the usual floor.

    For sigma = 0 the first positive wave number is at least pi / |G|
    (path graphs saturate it), so a quarter of that is safe.  For
    sigma > 0 the lowest eigenvalue behaves like sigma |V_R| / |G| to
    first order in sigma; the extra sqrt(sigma / |G|) / 100 floor keeps
    the anchor far below it even for weak coupling.  Where
    k_R = sqrt(sigma |V_R| / |G|) is at most half the usual floor, the
    ground state is bisected on _small_k_count in (0, floor] instead
    ("The anchor" in the module docstring).  _small_k_count certifies
    N(k_start); a count other than the zero mode and the listed roots
    raises ToleranceNotMet.
    """
    floor = min(1e-6, 0.25 * np.pi / graph.total_length)
    k_start, expected, tiny = floor, 1, False
    if robin.sigma > 0.0 and robin.vertices:
        # two square roots: sigma / |G| underflows for subnormal sigma
        scale = np.sqrt(robin.sigma) / np.sqrt(graph.total_length)
        tiny = scale * np.sqrt(len(robin.vertices)) <= 0.5 * floor
        if not tiny:
            k_start, expected = min(floor, 0.01 * scale), 0
    count = _small_k_count(graph, robin, k_start)
    if count != expected:
        raise ToleranceNotMet(
            f"inertia count {count} at the scan floor k={float(k_start)!r}, "
            f"expected {expected}"
        )
    if not tiny:
        return k_start, []
    # (0, floor] holds exactly the simple ground state
    lo, hi = 0.0, floor
    while hi - lo > _stop_width(np.asarray(hi), tol):
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if _small_k_count(graph, robin, mid) == 0 else (lo, mid)
    return k_start, [0.5 * (lo + hi)]


def compute_spectrum(
    graph: MetricGraph,
    robin: RobinSpec | None = None,
    n_max: int | None = None,
    k_max: float | None = None,
    *,
    tol: float | None = None,
) -> Spectrum:
    """All eigenvalue wave numbers up to an index or wave-number target.

    Exactly one of n_max (count including multiplicity) and k_max must
    be given; k_max must be finite and positive.  tol, finite and
    positive, loosens the default refinement stop width to tol * (1 + k).
    """
    if robin is None:
        robin = RobinSpec.neumann()
    if (n_max is None) == (k_max is None):
        raise ValueError("give exactly one of n_max and k_max")
    if n_max is not None and n_max < 1:
        raise ValueError("n_max must be at least 1")
    if k_max is not None and not (np.isfinite(k_max) and k_max > 0.0):
        raise ValueError(f"k_max must be finite and positive, got {k_max!r}")
    if tol is not None and not (np.isfinite(tol) and tol > 0.0):
        raise ValueError(f"tol must be finite and positive, got {tol!r}")

    delta = SCAN_PHASE_STEP / graph.max_edge_length
    k_start, below = _anchor(graph, robin, tol)
    has_zero_mode = robin.sigma == 0.0 or not robin.vertices
    zero_count = 1 if has_zero_mode else 0

    if k_max is not None:
        k_goal = k_max
    else:
        # One scan suffices ("Scan range" in the module docstring):
        # N(k) > zero_count + |G| (k - k_start) / pi - 2E and k_start is at
        # most pi / (2 |G|), so this k_goal certifies at least n_max + 8.
        k_goal = np.pi * (n_max + graph.num_slots + 8) / graph.total_length
    n_cells = max(int(np.ceil((k_goal - k_start) / delta)), 1)

    points, n_points = _scan_counts(
        graph, robin, k_start + delta * np.arange(1, n_cells + 1), delta
    )
    grid = np.concatenate([[k_start], points])
    n_grid = np.concatenate([[zero_count + len(below)], n_points])
    counts = np.diff(n_grid)
    if np.any(counts < 0):
        j = int(np.flatnonzero(counts < 0)[0])
        raise ToleranceNotMet(
            f"inertia count falls from {n_grid[j]} to {n_grid[j + 1]} "
            f"at k={float(grid[j + 1])!r}"
        )
    hot = np.flatnonzero(counts > 0)
    roots, mults = _refine_brackets(
        graph, robin, grid[hot], grid[hot + 1], counts[hot], n_grid[hot], tol
    )
    roots = np.concatenate([below, roots])
    mults = np.concatenate([np.ones(len(below), dtype=int), mults])
    roots, mults = _merge_roots(roots, mults, _merge_radius(graph, robin, roots, tol))
    crossings = np.repeat(roots, mults)
    if k_max is not None:
        inside = roots <= k_max
        roots, mults = roots[inside], mults[inside]
        k_cap = float(k_max)
    else:
        certified = zero_count + int(mults.sum())
        if certified < n_max:
            raise ToleranceNotMet(
                f"scan to k={float(grid[-1])!r} certified {certified} of {n_max} "
                "eigenvalues, below the winding bound "
                "N(k) > zero_count + |G| (k - k_start) / pi - 2E"
            )
        k_cap = float(grid[-1])

    eye = np.eye(graph.num_slots)
    sv = _stack_map(
        graph, robin, roots, lambda u: np.linalg.svd(eye - u, compute_uv=False)
    )
    mismatch = _kernel_mismatch(
        graph, roots, mults, sv, _kernel_threshold(graph, robin, roots, tol)
    )
    if mismatch:
        raise ToleranceNotMet(mismatch)

    # Exact audit: the records count what the inertia counted at every
    # scan point.
    n_records = zero_count + np.searchsorted(crossings, grid, side="right")
    wrong = n_records != n_grid
    if np.any(wrong):
        j = int(np.flatnonzero(wrong)[0])
        raise ToleranceNotMet(
            f"records count {n_records[j]} eigenvalues up to k={float(grid[j])!r}, "
            f"the inertia count {n_grid[j]}"
        )

    if has_zero_mode:
        roots, mults = np.append(0.0, roots), np.append(1, mults)
    return Spectrum(graph, robin, 1 + np.cumsum(mults) - mults, roots, mults, k_cap, tol)


def counting_function(spectrum: Spectrum, k: float) -> int:
    """N(k): eigenvalue count with multiplicity at or below k."""
    if k > spectrum.k_cap:
        raise OutOfScannedRange(
            f"k={float(k)!r} exceeds the scanned range k_cap={spectrum.k_cap!r}"
        )
    return int(np.searchsorted(spectrum.wavenumbers(), k, side="right"))


def spectral_shift(spec0: Spectrum, spec1: Spectrum, k: float) -> int:
    """N(k, 0) - N(k, sigma); in {0, 1} for a single coupled vertex."""
    return counting_function(spec0, k) - counting_function(spec1, k)
