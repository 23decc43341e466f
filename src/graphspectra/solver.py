"""Eigenvalue solver: inertia counts certify the scan and split the
multiple roots off the Dirichlet poles, eigenphase winding splits those on
them, a real amplitude determinant polishes the simple roots.

Counting.  Take k off every Dirichlet pole, so that k l_e / pi is not an
integer for any edge.  Then the number of eigenvalues with wave number
at most k, zero mode included, is the Morse index

    N(k) = sum_e floor(k l_e / pi) + n_+(M(k))

(Friedlander, Ann. Inst. Fourier 55 (2005); Berkolaiko & Kuchment,
Introduction to Quantum Graphs, ch. 3), where n_+ counts positive
eigenvalues and M(k) is the real symmetric V x V vertex
Dirichlet-to-Neumann matrix minus the couplings: M_vv = -sum k cot(k l_e)
- sigma_v over the edges at v, M_uv = sum k / sin(k l_e) over the edges
u-v, and a loop at v adds 2 k tan(k l / 2) to M_vv.  This is
the sign convention sum f'_out(v) = sigma f(v).  Each graph counts by one
rule, with no other to fall back on: a star by the closed-form scalar of
Stars below, every other graph by the eigenvalues of its full M(k), one
batched eigvalsh over the points.  A count is used only with margin:
on the full M(k), every |mu_j(M)| above INERTIA_MARGIN V eps ||T||_F, T
the entrywise sums of the |terms| of M, sigma_v included (Weyl's bound on
the eigenvalues of the rounded matrix, whose entries are rounded on the
scale of their terms: on a multi-edge with a short edge, terms of size
1 / l cancel to entries, and to a ||M||_2, far below that rounding); on
either rule, every |sin k l_e| above POLE_MARGIN, where a graph eigenvalue
sitting on a pole can fool the first test.  Grid points are free, so a
scan or quarter point (below) without margin is dropped, and the two cells
it parted join; a scan that keeps too few points to reach its target
raises ToleranceNotMet (Scan range).  An enclosure end without margin
leaves its records to the kernel rule (Certification).  No count is
rounded without margin.

Stars.  A star has every edge pendant at one centre c, the interval
included, whose centre is its lower id.  Its leaves hold a diagonal
block of M: d_p = -(k cos kl + sigma_p sin kl) / sin kl at leaf p, l the
length of p's edge.  By Haynsworth's inertia additivity
(E. V. Haynsworth, Linear Algebra Appl. 1 (1968) 73-81),
n_+(M) = #{p : d_p > 0} + [mu > 0], mu the Schur complement of the
leaves: the centre's entry with each edge's -k cot kl replaced by the
stub term k (k sin kl - sigma_p cos kl) / (k cos kl + sigma_p sin kl),
k tan kl at a Neumann leaf, so mu = sum_t stub_t - sigma_c.  This closed
form avoids the cancellation of two terms of size 1 / l at small kl and
takes no eigvalsh.  The count has margin where, besides the pole margin,
every |k cos kl + sigma_p sin kl| exceeds 64 eps (1 + kl)(k + sigma_p),
a first-order bound on its rounding and on that of
k sin kl - sigma_p cos kl, and |mu| exceeds
INERTIA_MARGIN V eps (sum_t |stub_t| + sigma_c) plus the stub terms'
first-order errors: the rule of Counting on a 1 x 1 matrix, written
out.  A star's count without margin is not taken again on M(k); it goes
the way of every count without margin.

The same edges give a star's det A(k) in closed form (see Polish).  Lay
each edge t from the centre v toward its leaf p (reversing an edge
listed from its leaf maps its amplitudes (A, B) to (A cos kl + B sin kl,
A sin kl - B cos kl), which multiplies det A by -1).  Then column B_t of
A holds b_t = 1 / n_v in the delta-Kirchhoff row of v and
d_t = -(cos kl + (sigma_p / k) sin kl) / n_p in the row of p, which holds
d_t and c_t = (sin kl - (sigma_p / k) cos kl) / n_p in column f(v),
where the row of v holds a = -(sigma_v / k) / n_v.
Eliminating the B_t on the pivots d_t one edge at a time, with the
division cleared, leaves one entry, a prod d_t - sum_t b_t c_t
prod_{s != t} d_s: a polynomial identity that keeps det A up to one
constant sign, d_t = 0 (a stub pole) included.  Other graphs take a
LAPACK determinant of A itself.

The anchor.  Near k = 0 the row sums of M are differences of entries of
size 1 / (k l), so eigvalsh cannot resolve the lowest eigenvalue of M.
The congruent C = T^T M T, T the all-ones column followed by e_j for
every vertex j but one vertex c, has the same inertia and computes those
sums directly, without cancellation:

    C_11 = sum_e 2 k tan(k l_e / 2) - sigma |V_R|,
    C_1j = sum_{e at j} k tan(k l_e / 2) - sigma_j,

while the rest C' is M without vertex c.  By Haynsworth,
n_+(M) = n_+(C') + [C_11 - b^T C'^-1 b > 0], b the rest of C's first
row.  Below pi / (2 |G|) no floor term is positive and C' is negative
definite (clamping one vertex leaves no eigenvalue there), which the
margins check rather than assume.  c is vertex 0, where C' takes an
eigvalsh and a solve, or on a star its centre: there C' is the diagonal
of the leaves, -k cot(k l_t) - sigma_t, so its inertia, its margins and
C'^-1 b are elementwise.  The scan starts at k_start below
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
without any branch matching or path continuity.  Every grid cell with a
positive inertia count, after quartering, is refined in two stages, and
eigvals of U(k) runs only for the cells that reach the counted splits
with a Dirichlet pole in them, at their ends and split points: there
the winding count is the only certificate, and it must equal the cell's
inertia count.

Quartering.  On incommensurate graphs most scan cells that count two or
more roots hold simple roots a fraction of a cell apart, which the
inertia count parts as cheaply as it counts the grid.  So before any
eigenphase, each cell with count 2 or more is cut once into QUARTERS
parts, and the QUARTERS - 1 interior points of all such cells are
counted in one batched eigvalsh.  A part that still counts 2 or more, a
genuine cluster or roots closer than a quarter of the cell, goes to the
counted splits as it is.  The quarter points join the scan grid: the
count-fall check and the final audit below cover them like every scan
point.

Counted splits.  Each step measures every bracket at one point and
counts each half; halves whose count stays positive are kept, so a
cluster of m coincident roots is simply a bracket whose count never
drops below m.  On reaching this stage a bracket takes one of two
routes, which its halves keep: its own poles, and how finely M(k)
resolves its roots, choose it.

The vertex route takes a bracket (lo, hi] with no Dirichlet pole in
[lo, hi]: the same floor(k l_e / pi) at both ends for every edge, and
the pole margin at both.  There M'(k) is positive semidefinite: the
block [[a, b], [b, a]] that an edge adds has a - |b| = (1 +- cos kl)
(kl -+ sin kl) / sin^2 kl >= 0, a loop's 2 k tan(kl / 2) increases, and
sigma is constant.  So every eigenvalue of M(k) rises with k, and the
count of a half is n_+(M(x)) - n_+(M(lo)), one real V x V eigvalsh at x,
with n_+(M(lo)) = N(lo) less the floor sum.  The c eigenvalues that
cross zero in a bracket holding c roots sit at ascending positions
[V - n_+(M(lo)) - c, V - n_+(M(lo))), and their sum S(k) is <= 0 at lo,
> 0 at hi and non-decreasing between, near linear across a cluster
whose eigenvalues cross together.  The eigenvalues of the full M at both
ends must count with margin, and such counts must give N less the floor
sum or raise.  They must also resolve a root to the stop width:
V eps ||T||_F (the rounding of M, see Counting) over the mean slope of
the crossing eigenvalues, (S(hi) - S(lo)) / (c (hi - lo)), is at most
that.  A large coupling, whose sigma enters T but not the slope, can
fail it.  The bracket then takes the winding route, whose unitary
U(k) has no such scale.

Every other bracket takes the winding route, on the eigenphases its
counts use.  For a bracket (lo, hi] holding c crossings, let

    psi(lo) = (sum of the c largest phi_m(lo)) - 2 pi c  <= 0,
    psi(hi) =  sum of the c smallest phi_m(hi)           >= 0.

When the crossing branches are those nearest 2 pi at lo and nearest 0 at
hi, psi is their summed phase unwrapped across the crossing, nearly
linear in k and zero at a multiple root.

On either route the point comes from the Chandrupatla step of the
polish (see Polish) on S or psi, on a fresh bracket the false-position
point, which lands on the cluster.  A bracket tracks its newest end and
the point it dropped last: a step that keeps one half replaces one end,
and that half keeps the bracket's count and so its S or psi.  The two
halves of a split have counts of their own, so they start fresh.  The
point only chooses where to measure; the counts at it certify as before.
Brackets with count 2 or more stay in this stage to the end, a few steps
each where bisection took about 45.  Both routes run in one step loop.

Polish.  A bracket with count 1 is offered to the polish as soon as it
appears, from the grid or from a split, and at every step of the counted
splits until it leaves them.  It holds exactly one simple
root, which is a sign change of det A(k), A(k) the condensed real
amplitude matrix.  The full one is 2E x 2E, over the amplitudes
f_e(x) = A_e cos kx + B_e sin kx on each edge (x from its first vertex),
with the d_v - 1 continuity conditions of each vertex and one
delta-Kirchhoff row (sum f'_out / k - (sigma_v / k) f(v)) /
|d_v + i sigma_v / k| (Berkolaiko & Kuchment, ch. 3).  Take each
vertex's slots forward first.  Adding the A_e columns of the edges that
leave a vertex v into one column f(v) is a column operation, after which
the continuity rows A_q - A_p between two forward slots are unit rows on
the other A_e columns alone; a Laplace expansion along them drops those
rows and columns.  So A(k) is (V_s + E)-square, V_s the vertices that
start an edge, and its determinant is that of the full matrix up to one
sign, as a polynomial identity.  det A(k) = 0 exactly at the eigenvalue
wave numbers, Dirichlet poles included, and the normalisation makes it
the real secular function of U(k) up to one constant sign per graph:

    2^E det A(k) = +-zeta(k),  zeta = Re[det(I - U) exp(-i Theta / 2) conj(c)],

where |c| = 1 and zeta is real, |zeta(k)| = |det(I - U(k))| = 2^(2E)
prod_m |sin(theta_m / 2)| over the eigenvalues exp(i theta_m) of U(k).
A root of multiplicity m flips the sign m times, so

    sign det A(k) = s_0 (-1)^N(k),

with N(k) the inertia count and s_0 one constant per graph, the same
for every coupling: at a fixed k, det A(k) changes sign exactly where an
eigenvalue crosses k^2 as the couplings move, as (-1)^N(k) does, and the
row weights of A are positive.  A pass takes s_0 at its first handoff,
from the end with the largest |det A| over the ends of every coupling.
The handoff certifies the end signs by this parity: a grid cell carries
N(lo) from the grid, and a split's left half keeps N(lo) while its right
half adds the left half's count.  A bracket whose end values do not both
have the predicted signs takes a step of the counted splits and is
offered again at every step, as its count-1 halves are; that is a root
on or within rounding of an end, the usual case after a split next to a
multiple root.  No rounding level is applied, so within rounding of a
multiple root an end value can have the predicted sign by chance (a
simple root one ulp of edge length from a triple one, say) and the
bracket is polished on noise; the root it yields still meets the
certification and the exact count audit below, which pass it or raise.
All count-1 brackets then run one vectorized Chandrupatla iteration on
det A (T. R. Chandrupatla, A new hybrid quadratic/bisection algorithm
for finding the zero of a nonlinear function without using derivatives,
Adv. Eng. Softw. 28 (1997) 145-149): the false-position point on a
fresh bracket; after it, inverse quadratic interpolation through the two
bracket ends and the point dropped last, wherever Chandrupatla's
(xi, Phi) test says the interpolant is monotone across the bracket, and
the midpoint elsewhere or where the end values do not change sign.  Each
point stays half a stop width inside its bracket, and one MAX_STEPS caps
this loop and that of the counted splits.  A step costs one batched
determinant: on a star its closed form (see Stars), O(E)
products and no LAPACK call, on other graphs a LAPACK one of A, where a
counted split needs a batched eigendecomposition; and a bracket end
beside a multiple root, where det A is flat, no longer stalls the
iteration.  The certification below checks every polished root.  The
kernel rule and the eigenbasis take A(k) itself.

Both stages stop once a bracket is narrower than the stop width
4 eps (1 + k) and report its midpoint, so every reported root lies
within half a stop width of the true root.  Where inside that window a
root lands depends on the eigenphases and determinants met on the way,
so a root shared by two couplings need not be reported bitwise equal at
both.

Scan range.  Each of the N = 2E branches loses at most one crossing
against Theta / (2 pi), because Phi stays in [0, 2 pi N), and Theta
rises by at least 2 |G| per unit k.  Counting from the anchor k_start,
below every positive eigenvalue,

    N(k) > zero_count + |G| (k - k_start) / pi - 2E,

so a single scan to k = pi (n_max + 2E + 8) / |G| certifies n_max
eigenvalues.  A k_max target scans CAP_CELLS cells past k_max.  A scan
whose kept points fall short of its target raises, naming the lowest
point dropped above the last one kept, or else the winding bound.  The
count-fall check alone covers the whole scan; only the cells up to k_cap
are quartered, refined, audited and recorded.  For both targets k_cap is
the first scan point kept at or past the target (counting n_max, or at
or above k_max) with no eigenvalue within the kernel reach
(Certification) above it, so no record's kernel rule meets an unrefined
root.  The scan grid is the same for every target, so k_cap does not
depend on the bound.

Records.  A root within RADIUS_FLOOR (1 + k) of the root below it, the
floor of every enclosure, joins that root's record, unless a grid point
lies between them, where the audit below counts the records.  A record
sits at the multiplicity-weighted mean of its roots.

Certification.  A window count further than COUNT_ROUNDING_TOL from an
integer raises, as does a half-bracket count outside [0, count], an
inertia count that falls from one grid point to the next, a cell whose
winding count differs from its inertia count, and vertex-route ends
whose counts of M differ from N less the floor sum.  A split point's
count needs no margin on either route: without it, it only decides
which half takes a root within rounding of the point, as a winding count
does at a crossing, and the vertex route's resolution rule keeps that
rounding within the stop width.  Each record (k, m)
then has a radius

    rho = max(stop width + spread, RADIUS_FLOOR (1 + k)),

spread the largest distance from k to a root merged into it, so its m
roots lie within rho of k.  Enclosures [k - rho, k + rho] that overlap
are joined, and the inertia counts at the two ends of each join, all in
one batched eigvalsh, must differ by the sum of the join's
multiplicities: an exact integer certificate that m eigenvalues lie
within rho of k.  A count off by one either way raises, as "below" or
"above" the multiplicity.  An end without margin decides nothing, and
next to a Dirichlet pole no count has margin.  So the records of a join
with such an end (every record of the Neumann interval, half of those of
the Neumann equilateral star) fall back to the kernel rule, as do the
records of a join of several, whose count certifies only their sum.
The rule, _kernel_rule, which the eigenfunction module
applies too: singular values of A(k) over ||A(k)||_2 below half of
max(1e-8 sqrt(2E), 2 (w + 2 s) ||A'(k)|| / ||A(k)||_2) count, twice what
a root w / 2 + s off lifts the smallest one, w the stop width and s the
spread (rho - w where rho is above its floor, else 0); _kernel_thresholds
gives this threshold and its floor, which a star's closed-form eigenbasis
gates on too.  A record is short when fewer than m count, and it has
excess when more count than all the records place crossings within reach
of it.  A gives no speed at which its singular values leave zero,
so the reach is the eigenphases': every branch of U(k) moves at least
l_min per unit k, and reach = 2 kernel_threshold / l_min.  The enclosure
is the stronger certificate: it places exactly m eigenvalues within rho
of k, and rho, 1e-12 (1 + k) unless the roots of a record spread wider,
lies far inside the reach.  A record that falls back keeps its radius on
the certificate of its refinement bracket: on the winding route the
winding and inertia counts at the ends of a counted split; on the vertex
route the counts of M at its ends, with margin at the grid points it
started from and within the route's resolution at its split points; or
for a polished root the signs of det A that the inertia parity predicts.
The one exception is a bracket polished on rounding noise beside a
multiple root (see Polish), whose root only the rule and the audit below
check.  Then the records must count exactly the inertia count N(k) at
every grid point, scan and quarter points.

Couplings.  compute_spectra solves several couplings of one graph to one
target in one pass, and compute_spectrum is that pass for one coupling.
Its table holds the vertex couplings of each coupling in a row, and a
couplings row is the row of a wave number's coupling: every function of
wave numbers takes sigmas = table[which], shape (len(ks), V), one
couplings row per wave number (the functions that form M(k), A(k) and
U(k) broadcast, so one (V,) row also serves a batch of one coupling).
Every private helper takes couplings rows, never a RobinSpec: only
compute_spectra and the eigenfunction module's eigenbasis build a row
from a coupling, and the anchor and the zero count read theirs
(sigmas.any(), sigmas.max(), np.count_nonzero(sigmas)).  A pass
does the same arithmetic on a row whatever rows share its batch, so each
spectrum is bitwise the one its coupling gives alone.  These stages run
once over the rows of all couplings: the scan counts, the quartering, the
refinement with its end rows, handoffs and polish, and the enclosure
counts of the certification.  Each row keeps
the index of its coupling: quarter points join their own coupling's
grid, the count-fall check runs on each grid, and each bracket end is
its own row, so an end that two brackets share gets the same values
twice, and the same k under two couplings the values of each.  These
steps stay per coupling, as they belong to one spectrum: the anchor,
k_cap, the merging of roots, the kernel rule and the exact count audit;
s_0 of the handoff parity is one for the graph (Polish).  A pass pays
the fixed cost of each step once, however many couplings its rows
carry, which is most of the cost of a spectrum.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache, partial

import numpy as np

from .errors import OutOfRange, ToleranceNotMet
from .graphs import MetricGraph, RobinSpec, _has_boolean, _integer
from .scattering import total_phase_derivative, total_phase_values, unitary_stack

__all__ = ["Spectrum", "compute_spectra", "compute_spectrum"]

TWO_PI = 2.0 * np.pi
EPS = float(np.finfo(float).eps)
# steps of the counted splits, and of the polish, before a bracket still
# open raises
MAX_STEPS = 200
KERNEL_SV_SCALE = 1e-8
COUNT_ROUNDING_TOL = 1e-6
# scan step times l_max: no edge phase k l_e advances more than pi / 8 per
# scan step (a cell spans several steps where scan points were dropped)
SCAN_PHASE_STEP = np.pi / 8.0
# an inertia count needs every |mu_j(M)| above INERTIA_MARGIN V eps ||T||_F,
# T the entrywise sums of |terms| of M, and every |sin k l_e| above POLE_MARGIN
INERTIA_MARGIN = 64.0
POLE_MARGIN = 1e-8
# parts a multi-count cell is cut into before any eigenphase
QUARTERS = 4
# scan cells a k_max target runs past k_max
CAP_CELLS = 8
# roots within RADIUS_FLOOR (1 + k) of the root below are one record, whose
# enclosure radius is at least that
RADIUS_FLOOR = 1e-12
# pi / 2 as three doubles, hi to lo, the reduction of _wide_cos_sin
HALF_PI_PARTS = (1.5707963267948966, 6.123233995736766e-17, -1.4973849048591698e-33)
# the Taylor series of _wide_cos_sin stop below this
TAYLOR_TAIL = 2.0**-110
# 2^27 + 1: Dekker's split of a double into two halves of 26 bits
SPLIT = 134217729.0


@dataclass(frozen=True, eq=False)
class Spectrum:
    """Ordered spectrum of the operator of one graph and one coupling.

    One record per distinct wave number, as read-only arrays: a record with multiplicity[i] = m at k[i] owns the m consecutive
    eigenvalue indices starting at index[i].  k_cap is the first scan
    point at or past the target, counting n_max or at or above k_max,
    with no eigenvalue within the kernel reach above it; every eigenvalue
    at or below k_cap appears, so a spectrum can hold a few more than
    n_max, or some above k_max.
    radius[i] bounds the distance from k[i] to its roots: the stop width
    plus the spread of the roots merged into the record, at least
    RADIUS_FLOOR (1 + k).  Where the inertia counts at its ends have
    margin, they certify that exactly multiplicity[i] eigenvalues lie
    within it ("Certification" in the solver docstring); where they lack
    it, the refinement bracket certifies the radius and the kernel rule
    the multiplicity.  The zero mode is exact, with radius 0.
    """

    graph: MetricGraph
    robin: RobinSpec
    index: np.ndarray
    k: np.ndarray
    multiplicity: np.ndarray
    radius: np.ndarray
    k_cap: float

    def __post_init__(self):
        for column in (self.index, self.k, self.multiplicity, self.radius):
            column.flags.writeable = False

    def wavenumbers(self, count: int | None = None) -> np.ndarray:
        """Expanded wave numbers, one entry per index, or the first count of
        them; a count that is not a non-negative integer raises ValueError,
        one beyond the spectrum OutOfRange."""
        ks = np.repeat(self.k, self.multiplicity)
        if count is None:
            return ks
        if _integer(count, "count") < 0:
            raise ValueError(f"count must be non-negative, got {count!r}")
        if count > ks.size:
            raise OutOfRange(f"count {count} beyond the computed spectrum of {ks.size}")
        return ks[:count]

    def eigenvalues(self, count: int | None = None) -> np.ndarray:
        return self.wavenumbers(count) ** 2

    @property
    def size(self) -> int:
        return int(self.multiplicity.sum())

    def positions(self, n) -> np.ndarray:
        """Positions of the records holding eigenvalue indices n.

        Raises ValueError for an index that is not a whole number (a
        boolean included) or is below 1, and OutOfRange for one beyond the
        spectrum.
        """
        boolean = _has_boolean(n)
        n = np.asarray(n)
        if boolean or n.dtype.kind not in "iuf" or np.any(n != np.floor(n)):
            raise ValueError("eigenvalue index must be a whole number")
        if np.any(n < 1):
            raise ValueError("eigenvalue index starts at 1")
        if np.any(n > self.size):
            raise OutOfRange(f"index {int(n.max())} beyond the computed spectrum")
        return np.searchsorted(self.index, n, side="right") - 1


def _eigenphases(graph: MetricGraph, sigmas, ks) -> np.ndarray:
    """Eigenvalue arguments of U(k) reduced to [0, 2 pi), sorted along rows.

    Phi(k) is the row sum.  Only the winding route of the refinement
    evaluates it: once at each end of its brackets, an end two brackets
    share twice, and once at each split point, whose rows the halves keep.
    """
    u = unitary_stack(graph, sigmas, ks)
    return np.sort(np.mod(np.angle(np.linalg.eigvals(u)), TWO_PI), axis=1)


@lru_cache(maxsize=1)
def _star_layout(graph: MetricGraph):
    """A star's edge lengths, leaves and centre, or None off a star ("Stars"
    in the module docstring).

    A star has every edge pendant at one centre, the interval included,
    whose centre is its lower id; every edge is laid out from the centre
    toward its leaf, in edge order.  Read-only, as every caller of the
    cache shares it.
    """
    u, v, degree = graph.slot_origin[0::2], graph.slot_origin[1::2], graph.degrees
    at_v = (degree[v] == 1) & ((degree[u] > 1) | (v > u))
    at_u = (degree[u] == 1) & ~at_v
    centre = np.where(at_v, u, v)
    if not np.all(at_u | at_v) or np.any(centre != centre[0]):
        return None
    lengths, leaves = graph.slot_length[0::2], np.where(at_v, v, u)
    lengths.flags.writeable = leaves.flags.writeable = False
    return lengths, leaves, int(centre[0])


@lru_cache(maxsize=1)
def _vertex_layout(graph: MetricGraph):
    """Edge lengths and half loop lengths of M(k), and how its entries sum
    the values of _vertex_matrices: each term's value index sorted by
    entry, where each entry's terms start, the entries, and which entry is
    each vertex's diagonal (every vertex has an edge or a loop)."""
    u, v = graph.slot_origin[0::2], graph.slot_origin[1::2]
    links, loops, n = np.flatnonzero(u != v), np.flatnonzero(u == v), graph.num_vertices
    u, v, w = u[links], v[links], u[loops]
    j, m = np.arange(links.size), links.size
    # a loop's term enters twice, once from each of its slots
    value = np.concatenate([j, j, m + j, m + j, 2 * m + np.arange(w.size).repeat(2)])
    entry = np.concatenate(
        [u * (n + 1), v * (n + 1), u * n + v, v * n + u, w.repeat(2) * (n + 1)]
    )
    order = np.argsort(entry, kind="stable")
    entries, starts = np.unique(entry[order], return_index=True)
    lengths = graph.slot_length[0::2]
    diagonal = np.searchsorted(entries, np.arange(n) * (n + 1))
    out = (lengths[links], 0.5 * lengths[loops], value[order], starts, entries, diagonal)
    for column in out:
        column.flags.writeable = False
    return out


def _vertex_matrices(graph: MetricGraph, sigmas, ks):
    """M(k) for a batch of wave numbers off the poles, shape (len(ks), V, V),
    and the Frobenius norm of each matrix of the per-entry sums of |terms|,
    sigma_v included, which bounds the rounding of its entries.

    Each edge u-v adds -k cot(k l) to M_uu and M_vv and k / sin(k l) to
    M_uv and M_vu, and a loop at u their sum 2 k tan(k l / 2) to M_uu, in
    that form: the four terms cancel two of size 2 / l, whose rounding
    outgrows the inertia margin on a short loop.  sigma_v leaves M_vv, each
    row at its own couplings row.
    """
    ks = np.asarray(ks, dtype=float)
    links, half_loops, value, starts, entries, diagonal = _vertex_layout(graph)
    n, k = graph.num_vertices, ks[:, None]
    x = k * links
    sin = np.sin(x)
    values = np.concatenate(
        [-k * np.cos(x) / sin, k / sin, k * np.tan(k * half_loops)], axis=1
    )
    terms = values[:, value]
    m = np.zeros((ks.size, n * n))
    m[:, entries] = np.add.reduceat(terms, starts, axis=1)
    m = m.reshape(-1, n, n)
    coupling = np.asarray(sigmas)
    m[:, np.arange(n), np.arange(n)] -= coupling
    sizes = np.add.reduceat(np.abs(terms), starts, axis=1)
    sizes[:, diagonal] += coupling
    return m, np.sqrt(np.sum(sizes * sizes, axis=1))


def _vertex_spectra(graph: MetricGraph, sigmas, ks):
    """Ascending eigenvalues of M(k), and the margin INERTIA_MARGIN V eps
    ||T||_F of each row, T the per-entry sums of the |terms| of M (see
    _vertex_matrices).

    Weyl's bound on the rounded matrix needs the size of its terms, not of
    their sum: on a multi-edge with a short edge the terms of size 1 / l
    cancel to entries far smaller than their rounding.
    """
    m, scale = _vertex_matrices(graph, sigmas, ks)
    return np.linalg.eigvalsh(m), INERTIA_MARGIN * graph.num_vertices * EPS * scale


def _morse_index(graph: MetricGraph, sigmas, ks):
    """n_+ of M(k), and whether each has margin: every |mu_j| above the
    margin of _vertex_spectra."""
    mu, bound = _vertex_spectra(graph, sigmas, ks)
    return np.count_nonzero(mu > 0.0, axis=1), np.abs(mu).min(axis=1) > bound


def _vertex_rows(graph: MetricGraph, sigmas, ks):
    """Ascending eigenvalues of the full M(k) and their margins, for the
    vertex route of the counted splits."""
    return _vertex_spectra(graph, sigmas, ks)


def _off_poles(x: np.ndarray) -> np.ndarray:
    """|sin x| above the pole margin, x = k l_e: M(k) is far enough from the
    pole for a count, and floor(x / pi) is exact (|sin x| > 2 eps x)."""
    return np.abs(np.sin(x)) > POLE_MARGIN + 2.0 * EPS * x


def _pendant_index(graph: MetricGraph, sigmas, ks: np.ndarray):
    """n_+(M(k)) of a star as #{leaves v : d_v > 0} + [mu > 0], mu the
    centre's Schur complement, and whether it has margin ("Stars" in the
    module docstring)."""
    lengths, leaves, centre = _star_layout(graph)
    k = ks[:, None]
    x = k * lengths
    c, s, sigma = np.cos(x), np.sin(x), np.asarray(sigmas)[..., leaves]
    g = k * c + sigma * s  # -d_v sin kl
    # rounding of g and of k sin - sigma cos: eps times their terms, and
    # eps kl times their slopes in kl, each the other one
    noise = INERTIA_MARGIN * EPS * (1.0 + x) * (k + sigma)
    resolved = np.abs(g) > noise
    positive = np.count_nonzero(g * s < 0.0, axis=1)
    g = np.where(resolved, g, np.inf)
    stubs = k * (k * s - sigma * c) / g
    # (k + |t|) noise / |g| bounds the error of a stub term t, and
    # (V - 1) |t| noise / |g| >= (V - 1) 64 eps |t| that of the sum it enters
    error = noise * (k + graph.num_vertices * np.abs(stubs)) / np.abs(g)
    coupling = np.asarray(sigmas)[..., centre]
    mu = stubs.sum(axis=1) - coupling
    scale = INERTIA_MARGIN * graph.num_vertices * EPS * (np.abs(stubs).sum(axis=1) + coupling)
    ok = np.abs(mu) > scale + error.sum(axis=1)
    return positive + (mu > 0.0), ok & resolved.all(axis=1)


def _inertia_counts(graph: MetricGraph, sigmas, ks):
    """N(k) by the Morse index of M(k), and whether each count has margin;
    each wave number at its own couplings row.

    One rule per graph ("Counting" and "Stars" in the module docstring): a
    star counts its centre's scalar by _pendant_index, every other graph
    the eigenvalues of its full M(k).  floor(k l_e / pi) is exact where
    |sin k l_e| exceeds 2 eps k l_e, which the pole margin includes.
    """
    ks = np.asarray(ks, dtype=float)
    x = ks[:, None] * graph.slot_length[None, 0::2]
    index = _morse_index if _star_layout(graph) is None else _pendant_index
    positive, ok = index(graph, sigmas, ks)
    floors = np.floor(x / np.pi).sum(axis=1).astype(int)
    return floors + positive, ok & np.all(_off_poles(x), axis=1)


def _quarter_cells(graph: MetricGraph, table: np.ndarray, grids: list, n_grids: list):
    """Each coupling's grid and its counts with every multi-count cell
    quartered; table[c] holds the vertex couplings of grids[c].

    See "Quartering" in the module docstring.  Each cell with count 2 or
    more is cut once, at its QUARTERS - 1 interior points, those of every
    coupling counted in one batch; a point whose count has no margin is
    dropped.  The new points join their own coupling's grid.
    """
    cuts = [np.flatnonzero(np.diff(n_grid) >= 2) for n_grid in n_grids]
    if not any(cut.size for cut in cuts):
        return grids, n_grids
    parts = [(grid[cut + 1] - grid[cut]) / QUARTERS for grid, cut in zip(grids, cuts)]
    ks = np.concatenate(
        [
            (grid[cut, None] + part[:, None] * np.arange(1, QUARTERS)).ravel()
            for grid, cut, part in zip(grids, cuts, parts)
        ]
    )
    which = np.repeat(np.arange(len(grids)), [(QUARTERS - 1) * cut.size for cut in cuts])
    n_ks, ok = _inertia_counts(graph, table[which], ks)
    out = []
    for c, (grid, n_grid) in enumerate(zip(grids, n_grids)):
        mine = ok & (which == c)
        at = np.searchsorted(grid, ks[mine])
        out.append((np.insert(grid, at, ks[mine]), np.insert(n_grid, at, n_ks[mine])))
    return [grid for grid, _ in out], [n_grid for _, n_grid in out]


def _require_rising(grid: np.ndarray, n_grid: np.ndarray) -> None:
    """Raise ToleranceNotMet where the inertia count falls along the grid."""
    fall = np.flatnonzero(np.diff(n_grid) < 0)
    if fall.size:
        j = int(fall[0])
        raise ToleranceNotMet(
            f"inertia count falls from {n_grid[j]} to {n_grid[j + 1]} "
            f"at k={float(grid[j + 1])!r}"
        )


def _leaf_pivots(graph: MetricGraph, sigmas: np.ndarray, k: float) -> np.ndarray:
    """A star's M(k) on its leaves, a diagonal: -k cot(k l_t) - sigma_t for
    each edge t in the order of _star_layout."""
    lengths, leaves, _ = _star_layout(graph)
    x = k * lengths
    return -k * np.cos(x) / np.sin(x) - sigmas[leaves]


def _small_k_count(graph: MetricGraph, sigmas: np.ndarray, k: float) -> int:
    """N(k) for 0 < k <= pi / (4 |G|) from the congruent form of M(k) at
    the couplings row sigmas.

    See "The anchor" in the module docstring; raises ToleranceNotMet
    unless C' and the Schur complement both have margin.
    """
    n = graph.num_vertices
    t = k * np.tan(0.5 * k * graph.slot_length)
    b = np.bincount(graph.slot_origin, weights=t, minlength=n) - sigmas
    positive, coupling = float(t.sum()), float(sigmas.sum())
    star = _star_layout(graph)
    if star is not None:
        # the congruence about the centre: C' is the leaves' diagonal
        mu, b = _leaf_pivots(graph, sigmas, k), b[star[1]]
        solve = partial(np.divide, b, mu)
    else:
        rest, b = _vertex_matrices(graph, sigmas, [k])[0][0, 1:, 1:], b[1:]
        mu, solve = np.linalg.eigvalsh(rest), partial(np.linalg.solve, rest, b)
    size_max, size_min = np.abs(mu).max(initial=0.0), np.abs(mu).min(initial=np.inf)
    # C' is solved only where its count has margin: a singular one raises
    if size_min > INERTIA_MARGIN * n * EPS * size_max:
        y = solve() if b.size else b
        schur = positive - coupling - float(b @ y)
        # to first order, b^T C'^-1 b moves by 2 y^T db + y^T dC' y, with
        # |db| <= eps (positive + coupling) and ||dC'|| <= V eps ||C'||
        y_norm = float(np.linalg.norm(y))
        noise = INERTIA_MARGIN * n * EPS * (
            (1.0 + 2.0 * y_norm) * (positive + coupling) + y_norm**2 * size_max
        )
        if abs(schur) > noise:
            return int(np.count_nonzero(mu > 0.0)) + int(schur > 0.0)
    raise ToleranceNotMet(f"no inertia count with margin at k={float(k)!r}")


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
    """Size, and entry, basis index, weight index and sign of each term of
    the condensed A(k); and the column of each edge amplitude, A_0, B_0,
    A_1, B_1, ....

    The slots of each vertex are taken forward slots first.  Column c below
    V_s is f(v) of the c-th vertex that starts an edge, the merged A_t of
    the edges leaving it; column V_s + t is B_t.  Row r belongs to the r-th
    kept slot: the first slot of each vertex carries the vertex's
    delta-Kirchhoff row, every backward slot q the continuity row
    f_q(v) - f_p(v), p the slot before it.  A forward slot after another has
    no row ("Polish" in the module docstring).  The basis is
    [1, cos k l_t, sin k l_t] and the weights are
    [1, 1 / n_v, (sigma_v / k) / n_v] (see _amplitude_matrices).  A has the
    same layout at every coupling, so the last graph's is kept.
    """
    n, num_edges, num_vertices = graph.num_slots, graph.num_edges, graph.num_vertices
    first = graph.slot_origin[0::2]
    slots = np.lexsort((np.arange(n) % 2, graph.slot_origin))
    vertex, backward = graph.slot_origin[slots], slots % 2 == 1
    lead = np.concatenate([[True], vertex[1:] != vertex[:-1]])
    row_of = np.cumsum(lead | backward) - 1
    heads, cont = np.flatnonzero(lead), np.flatnonzero(~lead & backward)
    starts, f_column = np.unique(first, return_inverse=True)
    size = starts.size + num_edges
    # (row, slot, derivative, weight, sign): f' / k of every slot and the
    # coupling term in its vertex's Kirchhoff row, then f_q - f_p
    row = row_of[np.concatenate([heads[vertex], heads, cont, cont])]
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
    for (slot_backward, is_derivative), slot_terms in _SLOT_TERMS.items():
        at = np.flatnonzero((slot % 2 == slot_backward) & (derivative == is_derivative))
        edge = slot[at] // 2
        for column, basis, factor in slot_terms:
            src = offset[basis] + edge * (basis != "1")
            col = f_column[edge] if column == 0 else starts.size + edge
            terms.append((row[at] * size + col, src, weight[at], factor * sign[at]))
    # A_t is f(v) of the first vertex of edge t, B_t the column V_s + t
    columns = np.ravel(
        [np.searchsorted(starts, first), starts.size + np.arange(first.size)], "F"
    )
    out = (*(np.concatenate(column) for column in zip(*terms)), columns)
    for column in out:
        column.flags.writeable = False  # shared by every caller of the cache
    return (size, *out)


def _amplitude_matrices(graph: MetricGraph, sigmas, ks) -> np.ndarray:
    """The condensed real amplitude matrix A(k), shape (len(ks), n, n) with
    n = V_s + E, each at its own couplings row.

    Its columns are f(v) at each vertex that starts an edge and the B_e of
    f_e(x) = A_e cos kx + B_e sin kx, x running from the edge's first
    vertex, where A_e = f(v); its rows are the continuity conditions of the
    backward slots and the delta-Kirchhoff condition
    (sum f'_out / k - (sigma_v / k) f(v)) / n_v, n_v = |d_v + i sigma_v / k|,
    of each vertex: one gather of [1, cos k l_e, sin k l_e] times the
    weights and one scatter, laid out by _amplitude_layout.
    """
    ks = np.asarray(ks, dtype=float)
    n, flat = _amplitude_layout(graph)[:2]
    values = _amplitude_values(graph, sigmas, ks)
    at = flat[:, None] + np.arange(ks.size) * (n * n)
    out = np.bincount(at.ravel(), weights=values.ravel(), minlength=ks.size * n * n)
    return out.reshape(-1, n, n)


def _amplitude_values(graph: MetricGraph, sigmas, ks: np.ndarray) -> np.ndarray:
    """The terms of A(k) in the order of _amplitude_layout, shape
    (terms, len(ks)), in the floating type of ks: [1, cos k l_e, sin k l_e]
    gathered and times the weights [1, 1 / n_v, (sigma_v / k) / n_v], at the
    couplings rows sigmas.  _wide_product repeats them in double-double."""
    src, weight, sign = _amplitude_layout(graph)[2:5]
    x = graph.slot_length[0::2, None] * ks
    ones = np.ones((1, ks.size), dtype=ks.dtype)
    basis = np.concatenate([ones, np.cos(x), np.sin(x)])
    coupling = np.atleast_2d(sigmas).T / ks
    inverse = 1.0 / np.hypot(graph.degrees[:, None], coupling)
    weights = np.concatenate([ones, inverse, coupling * inverse])
    return sign[:, None] * basis[src] * weights[weight]


def _two_sum(a, b):
    """s + e = a + b exactly, s the rounded sum (Knuth's TwoSum)."""
    s = a + b
    v = s - a
    return s, (a - (s - v)) + (b - v)


def _fast_two_sum(a, b):
    """s + e = a + b exactly where |a| >= |b| or a = 0 (Dekker)."""
    s = a + b
    return s, b - (s - a)


def _two_prod(a, b):
    """p + e = a b exactly, p the rounded product, by Dekker's split of
    each factor into two 26-bit halves."""
    p = a * b
    ca, cb = SPLIT * a, SPLIT * b
    ah, bh = ca - (ca - a), cb - (cb - b)
    al, bl = a - ah, b - bh
    return p, ((ah * bh - p) + ah * bl + al * bh) + al * bl


def _dd_add(a, b):
    """a + b for double-doubles, pairs (hi, lo) of arrays: within about
    2^-104 of the sum however much it cancels (the accurate addition of
    Hida, Li and Bailey's QD library)."""
    s, e = _two_sum(a[0], b[0])
    t, f = _two_sum(a[1], b[1])
    s, e = _fast_two_sum(s, e + t)
    return _fast_two_sum(s, e + f)


def _dd_mul(a, b):
    """a b for double-doubles; a float b enters as (b, 0.0)."""
    p, e = _two_prod(a[0], b[0])
    return _fast_two_sum(p, e + (a[0] * b[1] + a[1] * b[0]))


def _dd_div(a, b):
    """a / b for double-doubles: the float quotient and the remainder
    a - q b, exact in double-double, over b's high part."""
    q = a[0] / b[0]
    r = _dd_add(a, _dd_mul(b, (-q, 0.0)))
    return _fast_two_sum(q, r[0] / b[0])


def _dd_sqrt(a):
    """The square root of a positive double-double: the float root s and
    one Newton correction (a - s^2) / (2 s), s^2 taken exactly."""
    s = np.sqrt(a[0])
    p, e = _two_prod(s, s)
    return _fast_two_sum(s, ((a[0] - p) - e + a[1]) / (2.0 * s))


def _taylor_coefficient(n: int):
    """(-1)^(n // 2) / n! as a double-double, from exact integer ratios."""
    factorial, sign = math.factorial(n), (-1.0) ** (n // 2)
    num, den = (1.0 / factorial).as_integer_ratio()
    return sign * num / den, sign * (den - num * factorial) / (den * factorial)


# the coefficients of the Taylor series of _wide_cos_sin, past its longest
TAYLOR = [_taylor_coefficient(n) for n in range(40)]


def _wide_cos_sin(t):
    """cos t and sin t of a double-double t, in double-double.

    Past pi / 4, t = q pi / 2 + r with |r| <= pi / 4, r reduced by the
    three doubles of HALF_PI_PARTS, each product q part exact (Cody and
    Waite), and the values at r turned by q quarters.  The parts leave out
    5.6e-50 of pi / 2, so the reduction loses under 4e-50 |t|.  Within
    pi / 4, the Taylor series of cos t and sin t / t in t^2, cut where the
    largest |t|^n / n! falls below TAYLOR_TAIL: 29 terms at pi / 4, 3 for
    the shift of a Newton step.  Both values are within about
    1e-32 (1 + |t|).
    """
    q = np.rint(t[0] / HALF_PI_PARTS[0])
    if np.any(q):
        r = t
        for part in HALF_PI_PARTS:
            r = _dd_add(r, _two_prod(-q, part))
        cos, sin = _wide_cos_sin(r)
        # cos of r + j pi / 2 for j = 0..3; sin t is cos(t - pi / 2)
        turns = (cos, (-sin[0], -sin[1]), (-cos[0], -cos[1]), sin)
        quarter = np.mod(q, 4.0).astype(int)
        return tuple(
            tuple(np.choose((quarter + j) % 4, [turn[part] for turn in turns]) for part in (0, 1))
            for j in (0, 3)
        )
    z = _dd_mul(t, t)
    largest, terms, tail = float(np.max(np.abs(t[0]), initial=0.0)), 0, 1.0
    while tail > TAYLOR_TAIL:
        terms += 1
        tail *= largest / terms
    cos = sin = (np.zeros_like(z[0]), np.zeros_like(z[0]))
    for n in range(terms - 1, -1, -1):
        if n % 2:
            sin = _dd_add(_dd_mul(sin, z), TAYLOR[n])
        else:
            cos = _dd_add(_dd_mul(cos, z), TAYLOR[n])
    return cos, _dd_mul(sin, t)


def _wide_waves(graph: MetricGraph, ks: np.ndarray):
    """cos k l and sin k l at each float k and distinct edge length l, in
    double-double, for _wide_product: the edge of each length, the
    lengths, and the pair, each value shape (len(ks), lengths)."""
    lengths, edge = np.unique(graph.slot_length[0::2], return_inverse=True)
    return edge, lengths, _wide_cos_sin(_two_prod(ks[:, None], lengths))


def _wide_product(graph: MetricGraph, sigmas, ks: np.ndarray, shift, waves, x: np.ndarray):
    """A(k) x at k = ks + shift for one couplings row sigmas, shift a
    double-double of shape (len(ks), 1), waves from _wide_waves at ks, and
    x a float array of shape (len(ks), n): the terms of _amplitude_values,
    whose basis and weights it must track, in double-double, as a pair
    (hi, lo) of arrays shaped like x.

    The waves are turned by shift with the series of cos and sin of
    shift l, and the weights [1, 1 / n_v, (sigma_v / k) / n_v] are taken
    at k in double-double, so every term is a double-double times an
    entry of x.  Each row is then summed without error, its rounding
    errors carried in a second sum (Sum2 of Ogita, Rump and Oishi, SIAM
    J. Sci. Comput. 26 (2005)): the result is within about
    1e-32 (1 + k l) |x| of A(k) x.
    """
    size, flat, src, weight, sign = _amplitude_layout(graph)[:5]
    edge, lengths, (cos, sin) = waves
    turn_cos, turn_sin = _wide_cos_sin(_dd_mul(shift, (lengths, 0.0)))
    cos, sin = (
        _dd_add(_dd_mul(cos, turn_cos), _dd_mul(sin, (-turn_sin[0], -turn_sin[1]))),
        _dd_add(_dd_mul(sin, turn_cos), _dd_mul(cos, turn_sin)),
    )
    k = _dd_add((ks[:, None], 0.0), shift)
    coupling = _dd_div((np.atleast_2d(sigmas), 0.0), k)
    norm = _dd_sqrt(_dd_add(_dd_mul(coupling, coupling), (graph.degrees**2.0, 0.0)))
    ones, zeros = np.ones((ks.size, 1)), np.zeros((ks.size, 1))
    inverse = _dd_div((ones, 0.0), norm)
    basis = [
        np.concatenate([one, c[:, edge], s[:, edge]], axis=1)
        for one, c, s in zip((ones, zeros), cos, sin)
    ]
    weights = [
        np.concatenate(v, axis=1) for v in zip((ones, zeros), inverse, _dd_mul(coupling, inverse))
    ]
    terms = _dd_mul(
        _dd_mul(tuple(b[:, src] for b in basis), tuple(w[:, weight] for w in weights)),
        (sign * x[:, flat % size], 0.0),
    )
    # the terms of each row down one column of a table, padded by a zero term
    row = flat // size
    counts = np.bincount(row, minlength=size)
    order = np.argsort(row, kind="stable")
    table = np.full((counts.max(), size), row.size)
    place = np.arange(row.size) - np.repeat(np.cumsum(counts) - counts, counts)
    table[place, row[order]] = order
    hi, lo = (np.append(v, zeros, axis=1) for v in terms)
    total, error = np.zeros_like(x), np.zeros_like(x)
    for column in table:
        total, e = _two_sum(total, hi[:, column])
        error += e + lo[:, column]
    return _fast_two_sum(total, error)


def _amplitude_slope(graph: MetricGraph, sigmas: np.ndarray, ks: np.ndarray) -> np.ndarray:
    """A bound on ||A'(k)||_2 at the couplings row sigmas: the Frobenius
    norm of A', each entry bounded by its terms, l_t through cos or sin
    k l_t and |w'| through a vertex weight w, s^2 / r or s d^2 k / r with
    r = (d^2 k^2 + s^2)^(3/2) at coupling s."""
    size, flat, src, weight = _amplitude_layout(graph)[:4]
    lengths = np.append(0.0, np.tile(graph.slot_length[0::2], 2))
    d, s, k = graph.degrees, sigmas, ks[:, None]
    r = (d * d * k * k + s * s) ** 1.5
    moving = np.concatenate([np.zeros_like(k), s * s / r, s * d * d * k / r], axis=1)
    terms = np.zeros((size * size, moving.shape[1]))
    np.add.at(terms, (flat, weight), 1.0)
    fixed = np.bincount(flat, weights=lengths[src], minlength=size * size)
    return np.linalg.norm(fixed + moving @ terms.T, axis=1)


def _star_entries(graph: MetricGraph, sigmas, ks: np.ndarray):
    """The entries of a star's A(k) that _star_dets reads, with every edge t
    laid out from the centre toward its leaf: a at (0, 0) and, shape
    (E, len(ks)), b_t, c_t and d_t at (0, t + 1), (t + 1, 0) and
    (t + 1, t + 1)."""
    lengths, leaves, centre = _star_layout(graph)
    x = lengths[:, None] * ks
    cos, sin = np.cos(x), np.sin(x)
    coupling = np.atleast_2d(sigmas).T / ks
    inverse = 1.0 / np.hypot(graph.degrees[:, None], coupling)
    weighted, inverse_p = coupling[leaves] * inverse[leaves], inverse[leaves]
    a = -(coupling[centre] * inverse[centre])
    b = np.broadcast_to(inverse[centre], x.shape)
    c = -cos * weighted + sin * inverse_p
    d = -sin * weighted - cos * inverse_p
    return a, b, c, d


def _star_dets(graph: MetricGraph, sigmas, ks: np.ndarray) -> np.ndarray:
    """det A(k) of a star up to one constant sign: its pendant condensation
    a prod d_t - sum_t b_t c_t prod_{s != t} d_s ("Stars" in the module
    docstring), one edge at a time in the order of _star_layout."""
    a, b, c, d = _star_entries(graph, sigmas, ks)
    bc = c * b
    shift, scale = bc[0], d[0]
    for d_t, bc_t in zip(d[1:], bc[1:]):
        shift = shift * d_t + bc_t * scale
        scale = scale * d_t
    return a * scale - shift


def _amplitude_dets(graph: MetricGraph, sigmas, ks) -> np.ndarray:
    """det A(k) up to one constant sign for a batch of positive wave
    numbers, each at its own couplings row: on a star its closed form, on
    any other graph a LAPACK determinant of A(k)."""
    ks = np.asarray(ks, dtype=float)
    if _star_layout(graph) is not None:
        return _star_dets(graph, sigmas, ks)
    return np.linalg.det(_amplitude_matrices(graph, sigmas, ks))


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


def _stop_width(ks: np.ndarray) -> np.ndarray:
    """Final bracket width at ks; a reported k lies within half of it."""
    return 4.0 * EPS * (1.0 + ks)


def _polish_ready(graph, table, which, los, his, n_lo, sign):
    """End values of det A, which one-root brackets the polish can take,
    and s_0.

    Bracket j is under the couplings table[which[j]], and sign is s_0, one
    constant for every coupling of the graph, NaN until known.
    sign det A(k) = s_0 (-1)^N(k), so a bracket holding one root, with
    N(lo) = n_lo, qualifies when its end values have the signs
    s_0 (-1)^n_lo and -s_0 (-1)^n_lo.  An unknown s_0 comes from the end
    with the largest |det A|.
    """
    f = _amplitude_dets(graph, table[np.concatenate([which, which])], np.concatenate([los, his]))
    parity = 1.0 - 2.0 * (np.asarray(n_lo) % 2)
    parity = np.concatenate([parity, -parity])
    if np.isnan(sign):
        j = np.argmax(np.abs(f))
        sign = np.sign(f[j]) * parity[j]
    agree_lo, agree_hi = np.split(np.sign(f) == sign * parity, 2)
    f_lo, f_hi = np.split(f, 2)
    return f_lo, f_hi, agree_lo & agree_hi, sign


def _step_points(x1, x2, x3, f1, f2, f3, stop) -> np.ndarray:
    """Where to measure next in brackets with ends x1, the newest, and x2,
    by Chandrupatla's rule on the values f1, f2 there and f3 at x3, the
    point dropped last (NaN on a fresh bracket).

    The false-position point on a fresh bracket; inverse quadratic
    interpolation through the three points where the (xi, Phi) test says
    the interpolant is monotone across the bracket; the midpoint otherwise,
    or where the end values do not change sign.  Every point stays half a
    stop width inside its bracket.
    """
    dx, df, d3 = x2 - x1, f1 - f2, f3 - f2
    with np.errstate(divide="ignore", invalid="ignore"):
        secant = f1 / df
        xi, phi = dx / (x2 - x3), df / d3
        iqi = (1.0 - np.sqrt(1.0 - xi) < phi) & (phi < np.sqrt(xi))
        quadratic = secant * f3 / d3 + (x3 - x1) / dx * f1 / (f3 - f1) * f2 / d3
    # the secant lies in [0, 1] exactly where the end values change sign
    false_position = np.isnan(x3) & (secant >= 0.0) & (secant <= 1.0)
    t = np.where(iqi, quadratic, np.where(false_position, secant, 0.5))
    margin = 0.5 * stop / np.abs(dx)
    # np.clip by two calls that cost a fraction of it
    return x1 + np.minimum(np.maximum(t, margin), 1.0 - margin) * dx


def _polish(graph, table, which, los, his, f_lo, f_hi) -> np.ndarray:
    """Chandrupatla's method on det A over sign-changing brackets, bracket j
    under the couplings table[which[j]].

    Each step evaluates det A at one point per open bracket (_step_points),
    in one batched determinant.  Returns the midpoints once brackets are
    within the stop width.
    """
    out = np.empty(los.size)
    open_ = np.arange(los.size)
    sigmas = table[which]
    # x1 the newest point, x2 the bracket end of the other sign, x3 the
    # point dropped last
    x1, x2, f1, f2 = los, his, f_lo, f_hi
    x3 = f3 = np.full(los.size, np.nan)
    for _ in range(MAX_STEPS):
        stop = _stop_width(np.maximum(x1, x2))
        # the midpoint a bracket leaves last is that of the step it closes at
        out[open_] = 0.5 * (x1 + x2)
        live = np.abs(x2 - x1) > stop
        open_, x1, x2, x3, f1, f2, f3, stop = (
            a[live] for a in (open_, x1, x2, x3, f1, f2, f3, stop)
        )
        sigmas = sigmas[live]
        if open_.size == 0:
            return out
        x = _step_points(x1, x2, x3, f1, f2, f3, stop)
        f = _amplitude_dets(graph, sigmas, x)
        same = np.sign(f) == np.sign(f1)
        x3, f3 = np.where(same, x1, x2), np.where(same, f1, f2)
        # an exact zero closes the bracket onto x
        x2 = np.where(f == 0.0, x, np.where(same, x2, x1))
        f2 = np.where(same, f2, f1)
        x1, f1 = x, f
    raise ToleranceNotMet(f"{open_.size} brackets still open after {MAX_STEPS} polish steps")


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


def _crossing_sums(mu_lo, mu_hi, base, counts):
    """S at both ends of brackets holding count crossings each, base the
    count n_+(M(lo)).

    The eigenvalues of M(k) that cross zero in (lo, hi] sit at ascending
    positions [V - base - count, V - base), and S is their sum: <= 0 at lo,
    > 0 at hi, and non-decreasing between, since M'(k) is positive
    semidefinite off the poles ("Counted splits" in the module docstring).
    """
    top = mu_lo.shape[1] - base[:, None]
    j = np.arange(mu_lo.shape[1])
    crossing = (j >= top - counts[:, None]) & (j < top)
    return np.sum(mu_lo * crossing, axis=1), np.sum(mu_hi * crossing, axis=1)


def _at_ends(table, which, los, his, fn):
    """fn(sigmas, ks) at the ends of brackets, bracket j under the couplings
    table[which[j]], as a (lo, hi) pair per array fn returns: each end its
    own row."""
    ends = table[np.concatenate([which, which])]
    return [np.split(a, 2) for a in fn(ends, np.concatenate([los, his]))]


def _end_rows(graph, table, which, los, his, counts, n_lo):
    """Route, floor sum and rows at the ends of brackets, checked against
    their counts, bracket j under the couplings table[which[j]].

    A bracket with no Dirichlet pole in [lo, hi], the same floor(k l_e / pi)
    at both ends for every edge and the pole margin at both, takes the
    vertex route when the eigenvalues of M(k) at both ends count with
    margin and resolve its roots to the stop width ("Counted splits" in
    the module docstring); counts with margin must equal N less the floor
    sum.  Every other bracket takes the winding route, with Theta and
    eigenphase rows whose winding count must equal the inertia count it
    came with.  Raises ToleranceNotMet where a count differs.  Returns the
    vertex mask, the floor sums at lo and the rows (th_lo, ph_lo, mu_lo,
    th_hi, ph_hi, mu_hi), zero off their route.
    """
    n = los.size
    lengths = graph.slot_length[None, 0::2]
    x_lo, x_hi = los[:, None] * lengths, his[:, None] * lengths
    floor_lo = np.floor(x_lo / np.pi)
    floors = floor_lo.sum(axis=1).astype(int)
    vertex = np.all(
        (floor_lo == np.floor(x_hi / np.pi)) & _off_poles(x_lo) & _off_poles(x_hi), axis=1
    )
    th_lo, th_hi = np.zeros(n), np.zeros(n)
    ph_lo, ph_hi = np.zeros((2, n, graph.num_slots))
    mu_lo, mu_hi = np.zeros((2, n, graph.num_vertices))
    on = np.flatnonzero(vertex)
    if on.size:
        (mu_lo[on], mu_hi[on]), (b_lo, b_hi) = _at_ends(
            table, which[on], los[on], his[on], lambda s, k: _vertex_rows(graph, s, k)
        )
        base, c = n_lo[on] - floors[on], counts[on]
        found_lo = np.count_nonzero(mu_lo[on] > 0.0, axis=1)
        found_hi = np.count_nonzero(mu_hi[on] > 0.0, axis=1)
        margin = (np.abs(mu_lo[on]).min(axis=1) > b_lo) & (np.abs(mu_hi[on]).min(axis=1) > b_hi)
        wrong = np.flatnonzero(margin & ((found_lo != base) | (found_hi != base + c)))
        if wrong.size:
            j = wrong[0]
            raise ToleranceNotMet(
                f"vertex counts {found_lo[j]}, {found_hi[j]} at the ends of "
                f"({float(los[on[j]])!r}, {float(his[on[j]])!r}] differ from N less the "
                f"floor sum, {base[j]} and {base[j] + c[j]}"
            )
        # the rounding of M over the mean slope of the crossing eigenvalues
        s_lo, s_hi = _crossing_sums(mu_lo[on], mu_hi[on], base, c)
        rounding = np.maximum(b_lo, b_hi) / (INERTIA_MARGIN * graph.num_vertices)
        fine = rounding * c * (his[on] - los[on]) < _stop_width(his[on]) * (s_hi - s_lo)
        vertex[on[~(margin & fine)]] = False
    off = np.flatnonzero(~vertex)
    if off.size:
        (th_lo[off], th_hi[off]), (ph_lo[off], ph_hi[off]) = _at_ends(
            table,
            which[off],
            los[off],
            his[off],
            lambda s, k: (total_phase_values(graph, s, k), _eigenphases(graph, s, k)),
        )
        winding = _window_counts(
            th_hi[off] - th_lo[off], ph_hi[off].sum(axis=1) - ph_lo[off].sum(axis=1)
        )
        wrong = np.flatnonzero(winding != counts[off])
        if wrong.size:
            j = off[wrong[0]]
            raise ToleranceNotMet(
                f"winding count {winding[wrong[0]]} of ({float(los[j])!r}, {float(his[j])!r}] "
                f"differs from its inertia count {counts[j]}"
            )
    return vertex, floors, (th_lo, ph_lo, mu_lo, th_hi, ph_hi, mu_hi)


def _refine_brackets(graph, table, which, los, his, counts, n_lo):
    """Roots with multiplicities of every bracket, down to the stop width,
    and the coupling of each: bracket j is under the couplings
    table[which[j]], and its halves and roots keep which[j].

    n_lo is the inertia count N(lo) of each bracket; a split's left half
    keeps it and its right half adds the left half's count.  Each count-1
    bracket is offered to the polish on det A at every step, from the one
    it appears at, and leaves once its end values have the signs N
    predicts (_polish_ready).  The brackets left after the first handoff
    get their route and end rows (_end_rows), which their halves keep.
    Each step then measures every bracket at one point, chosen by
    _step_points on S of the eigenvalues of M(k) (vertex route) or on the
    cluster phases psi (winding route), and keeps the halves whose count
    stays positive.
    """
    roots: list[float] = []
    mults: list[int] = []
    owners: list[int] = []
    polish: list[tuple] = []
    n = los.size
    # s_0 of _polish_ready, fixed at the first handoff
    sign = np.nan
    # route and floor sum of _end_rows
    vertex, floors = np.zeros(n, dtype=bool), np.zeros(n, dtype=int)
    # whether lo is the newest end, and the point the last step dropped and
    # its value, NaN on a fresh bracket
    newest_lo = np.ones(n, dtype=bool)
    x3 = f3 = np.full(n, np.nan)
    rows = None  # rows of _end_rows at lo and hi, from the first split on
    for _ in range(MAX_STEPS):
        stop = _stop_width(his)
        done = his - los <= stop
        roots.extend(0.5 * (los[done] + his[done]))
        mults.extend(counts[done])
        owners.extend(which[done])
        keep = ~done
        handoff = np.flatnonzero(keep & (counts == 1))
        if handoff.size:
            f_lo, f_hi, ready, sign = _polish_ready(
                graph, table, which[handoff], los[handoff], his[handoff], n_lo[handoff], sign
            )
            leaving = handoff[ready]
            polish.append(
                (which[leaving], los[leaving], his[leaving], f_lo[ready], f_hi[ready])
            )
            keep[leaving] = False
        brackets = (which, los, his, counts, n_lo, vertex, floors, newest_lo, x3, f3, stop)
        which, los, his, counts, n_lo, vertex, floors, newest_lo, x3, f3, stop = (
            a[keep] for a in brackets
        )
        if los.size == 0:
            break
        if rows is None:
            vertex, floors, rows = _end_rows(graph, table, which, los, his, counts, n_lo)
        else:
            rows = tuple(a[keep] for a in rows)
        th_lo, ph_lo, mu_lo, _, ph_hi, mu_hi = rows
        base = n_lo - floors  # n_+(M(lo)) on the vertex route
        psi_lo, psi_hi = _cluster_phases(ph_lo, ph_hi, counts)
        s_lo, s_hi = _crossing_sums(mu_lo, mu_hi, base, counts)
        f_lo, f_hi = np.where(vertex, s_lo, psi_lo), np.where(vertex, s_hi, psi_hi)
        x = _step_points(
            np.where(newest_lo, los, his),
            np.where(newest_lo, his, los),
            x3,
            np.where(newest_lo, f_lo, f_hi),
            np.where(newest_lo, f_hi, f_lo),
            f3,
            stop,
        )
        sigmas = table[which]
        th_x, ph_x, mu_x = np.zeros_like(th_lo), np.zeros_like(ph_lo), np.zeros_like(mu_lo)
        c_lo = np.empty(los.size, dtype=int)
        on, off = np.flatnonzero(vertex), np.flatnonzero(~vertex)
        if on.size:
            mu_x[on] = _vertex_rows(graph, sigmas[on], x[on])[0]
            c_lo[on] = np.count_nonzero(mu_x[on] > 0.0, axis=1) - base[on]
        if off.size:
            th_x[off] = total_phase_values(graph, sigmas[off], x[off])
            ph_x[off] = _eigenphases(graph, sigmas[off], x[off])
            c_lo[off] = _window_counts(
                th_x[off] - th_lo[off], ph_x[off].sum(axis=1) - ph_lo[off].sum(axis=1)
            )
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
        # a step that keeps one half drops the end that x replaces, with the
        # same count and so the same function; both halves of a split start
        # fresh
        split = (c_lo > 0) & (c_hi > 0)
        x3 = np.where(split, np.nan, np.where(c_hi > 0, los, his))
        f3 = np.where(split, np.nan, np.where(c_hi > 0, f_lo, f_hi))
        both = np.concatenate([left, right])
        newest_lo = np.arange(both.size) >= left.size
        which, vertex, floors, x3, f3 = (a[both] for a in (which, vertex, floors, x3, f3))
        los = np.concatenate([los[left], x[right]])
        his = np.concatenate([x[left], his[right]])
        at_x = (th_x, ph_x, mu_x)
        rows = (
            *(np.concatenate([a[left], b[right]]) for a, b in zip(rows[:3], at_x)),
            *(np.concatenate([b[left], a[right]]) for a, b in zip(rows[3:], at_x)),
        )
        counts = np.concatenate([c_lo[left], c_hi[right]])
        n_lo = np.concatenate([n_lo[left], n_lo[right] + c_lo[right]])
    if los.size:
        raise ToleranceNotMet(
            f"{los.size} brackets still open after {MAX_STEPS} refinement steps"
        )
    if polish:
        at, lo, hi, f_lo, f_hi = (np.concatenate(column) for column in zip(*polish))
        roots.extend(_polish(graph, table, at, lo, hi, f_lo, f_hi))
        mults.extend([1] * lo.size)
        owners.extend(at)
    return np.asarray(roots), np.asarray(mults, dtype=int), np.asarray(owners, dtype=int)


def _merge_roots(roots: np.ndarray, mults: np.ndarray, grid):
    """Records from roots by single linkage: a root within RADIUS_FLOOR
    (1 + k) of the root below it, with no point of grid between them, joins
    its record; see "Records".

    Returns the records' wave numbers and multiplicities, and their
    spreads: the largest distance from a record to a root merged into it.
    """
    if roots.size == 0:
        return roots, mults, roots
    order = np.argsort(roots)
    roots, mults = roots[order], mults[order]
    far = np.diff(roots, prepend=-np.inf) > RADIUS_FLOOR * (1.0 + roots)
    # a root in another grid cell than the root below it starts a chain
    new_chain = far | (np.diff(np.searchsorted(grid, roots), prepend=-1) != 0)
    starts = np.flatnonzero(new_chain)
    chain = np.cumsum(new_chain) - 1
    total = np.add.reduceat(mults, starts)
    # offsets from the chain's lowest root, so a lone root keeps its value
    mean = roots[starts] + np.add.reduceat(
        mults * (roots - roots[starts][chain]), starts
    ) / total
    return mean, total, np.maximum.reduceat(np.abs(roots - mean[chain]), starts)


def _kernel_threshold(graph, sigmas, ks: np.ndarray) -> np.ndarray:
    """Eigenphase scale of the kernel rule's reach and the continuity
    tolerance of eigenfunctions: max(1e-8 sqrt(2E), 2 w Theta'(k)), w the
    stop width.  A root reported w / 2 off moves its eigenphase by up
    to that times the branch velocity.
    """
    return np.maximum(
        KERNEL_SV_SCALE * np.sqrt(graph.num_slots),
        2.0 * _stop_width(ks) * total_phase_derivative(graph, sigmas, ks),
    )


def _kernel_reach(graph, sigmas, ks: np.ndarray) -> np.ndarray:
    """How far from k the kernel rule looks for crossings ("Certification")."""
    return 2.0 * _kernel_threshold(graph, sigmas, ks) / graph.min_edge_length


def _kernel_thresholds(graph, sigmas, ks, norm, radius):
    """The kernel rule's floor and threshold on the singular values of A(k)
    over norm = ||A(k)||_2 per record ("Certification" in the module
    docstring): a value below the threshold counts.  Where a record's radius
    is above its floor, radius - width is the spread of the roots merged
    into it.  Also w ||A'|| / (2 norm), the most that a root half a stop
    width w off lifts a singular value of A over norm."""
    width = _stop_width(ks)
    spread = np.where(radius > RADIUS_FLOOR * (1.0 + ks), radius - width, 0.0)
    floor = 0.5 * KERNEL_SV_SCALE * np.sqrt(graph.num_slots)
    slope = _amplitude_slope(graph, sigmas, ks)
    threshold = np.maximum(floor, (width + 2.0 * spread) * slope / norm)
    return floor, threshold, 0.5 * width * slope / norm


def _kernel_rule(graph, sigmas, ks, mults, sv, radius, crossings) -> str | None:
    """The kernel rule on the singular values sv of A(k) per record, largest
    first ("Certification" in the module docstring): why the first record
    (k, m) breaks it, or None.  Fewer than m small singular values is short;
    more than the crossings (sorted wave numbers, one per index) within
    reach of k is excess, unless the reach spans k = 0, where the secular
    system has a larger kernel of its own."""
    norm = sv[:, :1]
    threshold = _kernel_thresholds(graph, sigmas, ks, norm[:, 0], radius)[1]
    dims = np.sum(sv / norm < threshold[:, None], axis=1)
    short = np.flatnonzero(dims < mults)
    if short.size:
        j = short[0]
        return (
            f"kernel dimension {dims[j]} below crossing count {mults[j]} "
            f"at k={float(ks[j])!r}"
        )
    reach = _kernel_reach(graph, sigmas, ks)
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


def _certify_records(graph, table, records) -> None:
    """Raise ToleranceNotMet unless every record (k, m) of each coupling is
    certified; records[c] holds the ascending wave numbers, multiplicities
    and radii of the coupling whose couplings row is table[c].  See
    "Certification" in the module docstring.

    The enclosures [k - rho, k + rho] of one coupling join where they
    overlap, and a join whose ends both count with margin must count the
    sum of its multiplicities between them; the ends of every coupling
    are counted in one batched _inertia_counts.  The records of a join
    without margin, or of one with several records, meet the kernel rule
    on the singular values of A(k), against every record's crossings of
    their coupling.
    """
    joins = []
    for ks, _, radius in records:
        if ks.size == 0:
            joins.append((None, None, ks))
            continue
        # a join starts where every enclosure below ends before every one above
        top = np.maximum.accumulate(ks + radius)
        bottom = np.minimum.accumulate((ks - radius)[::-1])[::-1]
        first = np.concatenate([[True], top[:-1] < bottom[1:]])
        starts = np.flatnonzero(first)
        ends = np.concatenate([bottom[starts], top[np.append(starts[1:], ks.size) - 1]])
        joins.append((first, starts, ends))
    ends = np.concatenate([join[2] for join in joins])
    which = np.repeat(np.arange(len(records)), [join[2].size for join in joins])
    counts, ok = np.zeros(ends.size, dtype=int), ends > 0.0
    counts[ok], ok[ok] = _inertia_counts(graph, table[which[ok]], ends[ok])
    for c, ((ks, mults, radius), (first, starts, ends)) in enumerate(zip(records, joins)):
        if ks.size == 0:
            continue
        mine = which == c
        n_lo, n_hi = np.split(counts[mine], 2)
        margin = np.logical_and(*np.split(ok[mine], 2))
        found, total = n_hi - n_lo, np.add.reduceat(mults, starts)
        wrong = np.flatnonzero(margin & (found != total))
        if wrong.size:
            j = wrong[0]
            side = "below" if found[j] < total[j] else "above"
            raise ToleranceNotMet(
                f"{found[j]} eigenvalues in the enclosure ({float(ends[j])!r}, "
                f"{float(ends[starts.size + j])!r}], {side} its multiplicity {total[j]}"
            )
        # a join of several records certifies only the sum of their counts
        alone = np.diff(np.append(starts, ks.size)) == 1
        at = np.flatnonzero(~(margin & alone)[np.cumsum(first) - 1])
        if at.size == 0:
            continue
        sv = np.linalg.svd(_amplitude_matrices(graph, table[c], ks[at]), compute_uv=False)
        crossings = np.repeat(ks, mults)
        mismatch = _kernel_rule(graph, table[c], ks[at], mults[at], sv, radius[at], crossings)
        if mismatch:
            raise ToleranceNotMet(mismatch)


def _anchor(graph: MetricGraph, sigmas: np.ndarray) -> tuple[float, list]:
    """Scan floor k_start below every positive eigenvalue not listed, and
    the list, at the couplings row sigmas: the ground state when it lies
    far below the usual floor.

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
    if sigmas.any():
        # two square roots: sigma / |G| underflows for subnormal sigma
        scale = np.sqrt(sigmas.max()) / np.sqrt(graph.total_length)
        tiny = scale * np.sqrt(np.count_nonzero(sigmas)) <= 0.5 * floor
        if not tiny:
            k_start, expected = min(floor, 0.01 * scale), 0
    count = _small_k_count(graph, sigmas, k_start)
    if count != expected:
        raise ToleranceNotMet(
            f"inertia count {count} at the scan floor k={float(k_start)!r}, "
            f"expected {expected}"
        )
    if not tiny:
        return k_start, []
    # (0, floor] holds exactly the simple ground state
    lo, hi = 0.0, floor
    while hi - lo > _stop_width(np.asarray(hi)):
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if _small_k_count(graph, sigmas, mid) == 0 else (lo, mid)
    return k_start, [0.5 * (lo + hi)]


def _cap_index(graph, sigmas, grid, n_grid, start: int) -> int:
    """Index of k_cap in the scan grid ("Scan range"): the first from start
    on with no eigenvalue within the kernel reach above it, by the count at
    the next scan point past the reach, or else by one inertia count at
    k_cap + reach."""
    for j in range(start, grid.size):
        top = float(grid[j] + _kernel_reach(graph, sigmas, grid[j : j + 1])[0])
        above = int(np.searchsorted(grid, top))
        if above < grid.size and n_grid[above] == n_grid[j]:
            return j
        count, ok = _inertia_counts(graph, sigmas, [top])
        if ok[0] and count[0] == n_grid[j]:
            return j
    raise ToleranceNotMet(
        f"every scan point from k={float(grid[start])!r} on has an eigenvalue "
        "or no inertia count with margin within the kernel reach above it"
    )


def compute_spectrum(
    graph: MetricGraph,
    robin: RobinSpec | None = None,
    n_max: int | None = None,
    k_max: float | None = None,
) -> Spectrum:
    """All eigenvalue wave numbers up to an index or wave-number target, at
    one coupling (Neumann when robin is None): compute_spectra of it alone."""
    robin = RobinSpec.neumann() if robin is None else robin
    return compute_spectra(graph, (robin,), n_max, k_max)[0]


def compute_spectra(
    graph: MetricGraph,
    robins,
    n_max: int | None = None,
    k_max: float | None = None,
) -> tuple[Spectrum, ...]:
    """The spectrum of graph at each coupling of robins, up to one index or
    wave-number target, in one solver pass ("Couplings" in the module
    docstring): each equals the spectrum of its coupling alone.

    Exactly one of n_max (count including multiplicity) and k_max must
    be given; n_max must be an integer of at least 1, k_max finite and
    positive.  Every root is refined to the stop width 4 eps (1 + k).
    """
    robins = tuple(robins)
    if not robins:
        raise ValueError("give at least one coupling")
    if (n_max is None) == (k_max is None):
        raise ValueError("give exactly one of n_max and k_max")
    n_max = None if n_max is None else _integer(n_max, "n_max")
    if n_max is not None and n_max < 1:
        raise ValueError("n_max must be at least 1")
    if k_max is not None and not (np.isfinite(k_max) and k_max > 0.0):
        raise ValueError(f"k_max must be finite and positive, got {k_max!r}")

    table = np.array([robin.vertex_sigmas(graph) for robin in robins])
    delta = SCAN_PHASE_STEP / graph.max_edge_length
    anchors = [_anchor(graph, sigmas) for sigmas in table]
    zero_counts = [int(not sigmas.any()) for sigmas in table]

    if k_max is not None:
        # a few cells on, so that the cap rule can move past a root just
        # above k_max
        k_goal = k_max + CAP_CELLS * delta
    else:
        # One scan suffices ("Scan range" in the module docstring):
        # N(k) > zero_count + |G| (k - k_start) / pi - 2E and k_start is at
        # most pi / (2 |G|), so this k_goal certifies at least n_max + 8.
        k_goal = np.pi * (n_max + graph.num_slots + 8) / graph.total_length
    scans = [
        k_start + delta * np.arange(1, max(int(np.ceil((k_goal - k_start) / delta)), 1) + 1)
        for k_start, _ in anchors
    ]
    which = np.repeat(np.arange(len(robins)), [scan.size for scan in scans])
    points = np.concatenate(scans)
    n_points, ok = _inertia_counts(graph, table[which], points)

    grids, n_grids = [], []
    for c, (k_start, below) in enumerate(anchors):
        # a scan point without margin is dropped: its cell joins the next
        mine = (which == c) & ok
        grid = np.concatenate([[k_start], points[mine]])
        n_grid = np.concatenate([[zero_counts[c] + len(below)], n_points[mine]])
        _require_rising(grid, n_grid)
        if k_max is not None:
            start = int(np.searchsorted(grid, k_max))
        else:
            start = int(np.searchsorted(n_grid, n_max))
        if start == grid.size:
            # every scan point above the last one kept was dropped
            lost = points[(which == c) & (points > grid[-1])]
            cause = (
                f"no inertia count with margin at k={float(lost[0])!r} or above"
                if lost.size
                else "below the winding bound N(k) > zero_count + |G| (k - k_start) / pi - 2E"
            )
            raise ToleranceNotMet(
                f"scan to k={float(grid[-1])!r} certified {n_grid[-1]} eigenvalues, "
                f"short of its target: {cause}"
            )
        cap = _cap_index(graph, table[c], grid, n_grid, start)
        grids.append(grid[: cap + 1])
        n_grids.append(n_grid[: cap + 1])
    grids, n_grids = _quarter_cells(graph, table, grids, n_grids)
    brackets = []
    for grid, n_grid in zip(grids, n_grids):
        _require_rising(grid, n_grid)
        counts = np.diff(n_grid)
        hot = np.flatnonzero(counts > 0)
        brackets.append((grid[hot], grid[hot + 1], counts[hot], n_grid[hot]))
    which = np.repeat(np.arange(len(robins)), [bracket[0].size for bracket in brackets])
    los, his, counts, n_lo = (np.concatenate(column) for column in zip(*brackets))
    roots, mults, owners = _refine_brackets(graph, table, which, los, his, counts, n_lo)

    records = []
    for c, (_, below) in enumerate(anchors):
        mine = owners == c
        ks = np.concatenate([below, roots[mine]])
        ms = np.concatenate([np.ones(len(below), dtype=int), mults[mine]])
        ks, ms, spread = _merge_roots(ks, ms, grids[c])
        radius = np.maximum(_stop_width(ks) + spread, RADIUS_FLOOR * (1.0 + ks))
        records.append((ks, ms, radius))
    _certify_records(graph, table, records)

    spectra = []
    for robin, (ks, ms, radius), grid, n_grid, zero_count in zip(
        robins, records, grids, n_grids, zero_counts
    ):
        # Exact audit: the records count what the inertia counted at every
        # scan point.
        n_records = zero_count + np.searchsorted(np.repeat(ks, ms), grid, side="right")
        wrong = n_records != n_grid
        if np.any(wrong):
            j = int(np.flatnonzero(wrong)[0])
            raise ToleranceNotMet(
                f"records count {n_records[j]} eigenvalues up to k={float(grid[j])!r}, "
                f"the inertia count {n_grid[j]}"
            )
        if zero_count:
            ks, ms, radius = np.append(0.0, ks), np.append(1, ms), np.append(0.0, radius)
        spectra.append(
            Spectrum(graph, robin, 1 + np.cumsum(ms) - ms, ks, ms, radius, float(grid[-1]))
        )
    return tuple(spectra)
