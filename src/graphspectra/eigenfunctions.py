"""Real eigenfunctions from the kernel of the condensed amplitude matrix.

On edge t, x running from its first vertex u, an eigenfunction with wave
number k is f_t(x) = f(u) cos kx + B_t sin kx, and (f(v) per vertex that
starts an edge, B_t per edge) is a null vector of the real (V_s + E)-square
A(k) of the solver's polish ("Polish" in its docstring): for multiplicity
m, a right singular vector of the m smallest singular values.  A vertex
that starts no edge reads the end of an edge into it, f(u) cos k l_t +
B_t sin k l_t, and every edge end must agree with its vertex's value, or
ContinuityViolation is raised.  With a = f(u), b = B_t and l = l_t, the
squared L2 norm is exactly

    sum_t a^2 (l/2 + sin 2kl / (4k)) + b^2 (l/2 - sin 2kl / (4k))
          + a b (1 - cos 2kl) / (2k),

an inner product taking half the cross term from each of a_1 b_2 and a_2 b_1.
The m vectors are orthonormalised in that Gram matrix: a trace over them,
as in the basis average of sensitivity, is then basis free.

Close roots.  At a float k the kernel vector of a simple record leans
toward the singular vector of a neighbouring small singular value s by
about (eps + ulp(k) ||A'||) / s, near 1e-9 for roots 1e-7 apart and more
for two records 1e-12 (1 + k) apart.  Where s is below NEIGHBOUR_SV
||A(k)||, EXACT_STEPS Newton steps with k free move it onto the root's
kernel (_root_kernel), the residual A(k) x in double-double arithmetic,
about 32 digits, one batched pass over every such record per step.

Stars.  On a star whose edges all leave its centre, A(k) with its rows
taken centre first, then each leaf's in edge order (A's own rows follow
the vertex ids, which need not follow the edges), is the arrow
[[a, b^T], [c, diag(d)]] of the solver's closed-form determinant ("Stars"
in its docstring): a at (0, 0), b_t in the centre row, c_t and the leaf
pivot d_t in leaf row t.  A's E x E leaf block must have no nonzero entry
off its diagonal, checked exactly on A itself, and every leaf pivot the
closed form divides by or leaves in place must be at least
max(NEIGHBOUR_SV, the kernel rule's threshold) ||A||_2; a record that
fails a test takes one SVD.  ||A||_2 comes from one stacked eigvalsh per
eigenbasis call, of A^T A for a simple record and of A0^T A0 (below) for a
multiple one.

A simple record's kernel vector is x = (1, -c_1 / d_1, ..., -c_E / d_E),
and A x is zero but for its first entry, the Schur entry
a - sum_t b_t c_t / d_t.  Deleting row and column 0 leaves diag(d), so
interlacing for the singular values of submatrices (R. C. Thompson,
Linear Algebra Appl. 5 (1972) 1-12) gives sigma_{n-1}(A) >= min_t |d_t|
and sigma_n(A) <= |det A| / prod_t |d_t| = |a - sum_t b_t c_t / d_t|.  It
takes this closed form where the Schur entry S is below the rule's floor
0.5e-8 sqrt(2E) ||A||_2: the rule then sees exactly the one small singular
value an SVD would show, and no close-root step is due.  x leans from the
kernel by up to |S| / min_t |d_t| (on the equilateral 4-star coupled at
two vertices, 1.7e-11 of the largest sensitivity near k = 228), so one
step of inverse iteration on A^T A follows: A^T z = x, then A y = z,
each by elimination on S, both carried times S so that S = 0 stays
finite.  The step cuts the lean by (sigma_n / sigma_{n-1})^2, and
|A y| / |y|, in exact arithmetic at most |S| / |x|, is the last singular
value, and over ||A||_2 the residual.

A record of multiplicity m >= 2 sits where m + 1 leaves share a stub pole.
Let P be the m + 1 leaves with the smallest |d_t|, Q the others,
delta = max_P |d_t|, and A0 = A with d_P set to 0.  Where c_P != 0 and
d_Q != 0, ker A0 is exactly {x : x_0 = 0, x_Q = 0, b_P . x_P = 0}: a row
of P reads c_t x_0, a row of Q c_t x_0 + d_t x_t, and the centre row is
then b_P . x_P.  The reflection H = I - 2 h h^T / |h|^2 with
h = b_P + sign(b_p) |b_P| e_p, p the first leaf of P, maps b_P onto the
e_p axis, so H's other columns on P are an orthonormal basis of ker A0,
with no LAPACK call.  A0 on the complement of its kernel, its P columns
merged into b_P's direction, is A~ = A0 [e_0, b_P / |b_P|, e_Q], two
columns when Q is empty, and sigma_min(A~) is the (m + 1)-th smallest
singular value of A0: its square is the (m + 1)-th smallest eigenvalue
of A0^T A0, whose largest gives ||A0||_2 for ||A||_2, within delta of
it.  Since ||A - A0||_2 = delta, Courant-Fischer on the m-dimensional
ker A0 puts the m smallest singular values of A at or below delta, and
Weyl's inequality the next one at or above sigma_min(A~) - delta.  The
record takes this closed form where the Q pivots and
sigma_min(A~) - delta pass the pivot test above and
delta <= w ||A'(k)|| / 2, w the stop width: at most what a pole at a
root half a stop width off leaves, as at a multiple root, whose copies
all lie within w / 2 of it, and at most half the rule's threshold, so
the m bounds count.  A record whose merged roots spread further, though
within RADIUS_FLOOR (1 + k) of each other, leaves larger pivots and takes
the SVD.  The rule then sees
exactly the m small singular values an SVD would show; the residual is
the bound delta / ||A0||_2.  For unit x in ker A0, |A x| <= delta, so the
SVD's kernel at the float k leans from ker A0 by at most
delta / sigma_{n-m}(A).  As b_t = 1 / n_c on every edge, ker A0 does not
move with k: it is the eigenspace itself, and the lean is the SVD's.  It
is at most 2 eps (1 + k) ||A'|| / sigma_{n-m}(A), below 1e-11 wherever sigma_{n-m}(A) >= 4.5e-5 (1 + k) ||A'||.  On the
benchmark's equilateral and 1:3:5 stars, delta < 1e-13 ||A||_2 and
sigma_{n-m}(A) >= 0.077 ||A||_2, a lean below 1.3e-12.

Kernel rule.  A short or an excess kernel raises KernelDimensionMismatch,
by the solver's rule on the singular values of A(k) (_kernel_rule;
"Certification" in its docstring), the one that certifies the records
whose enclosures have no inertia margin.  An eigenbasis solves exactly
the positive records asked for, and the rule reads every crossing of the
spectrum, so a record within reach of one left unsolved still counts.

Strong coupling.  At a vertex coupled with sigma > k the value f(v) is a
remainder of order k / sigma of the amplitudes: read off an edge end, or
off a kernel vector entry, it carries their absolute rounding, about 1e-16,
as a relative error of 1e-16 sigma / k, near 1e-10 at sigma = 1e6.  There
vertex_values takes it from the Robin condition instead, as the sum of the
outward derivatives f_t'(0) = k B_t at an edge's start and -f_t'(l)
= k (A_t sin kl - B_t cos kl) at its end, over sigma: those are of the
amplitudes' own order, and their rounding comes in divided by sigma.

Each row also carries the unit-norm slot amplitudes of the plane-wave form
f_t(x) = a_2t exp(ikx) + a_2t+1 exp(ik(l_t - x)) that evaluate and
weyl_moments read: a_2t = (A_t - i B_t) / 2 and a_2t+1
= exp(-ik l_t) (A_t + i B_t) / 2, A_t = f(u).  They lie in the kernel of
I - U(k) and meet a_j = conj(a_rev(j)) exp(-ik l_j) exactly.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import solver
from .errors import ContinuityViolation, KernelDimensionMismatch, OutOfRange
from .graphs import MetricGraph, _has_boolean, _integer, _real
from .solver import Spectrum, _kernel_rule

__all__ = [
    "EigenBasis",
    "SensitivityValue",
    "eigenbasis",
    "evaluate",
    "sensitivity",
]

CONTINUITY_TOL = 1e-6
# a simple record whose next singular value of A(k) is below this, relative
# to ||A(k)||_2, has its kernel vector polished by _root_kernel; a star's
# closed form needs every leaf pivot it keeps, and a multiple record's bound
# on its next singular value, at or above it ("Stars")
NEIGHBOUR_SV = 1e-3
# central difference step of A'(k) x, relative to k
SLOPE_STEP = 1e-7
# Newton steps of _root_kernel, each on the residual A(k) x in double-double
EXACT_STEPS = 3


@dataclass(frozen=True)
class EigenBasis:
    """Real eigenfunctions of the positive records of spectrum asked for,
    and of no other.

    Rows come grouped by record in spectrum order, m L2-orthonormal rows
    for a record of multiplicity m at position record[i] of the spectrum's
    arrays, wave number k[i].  a holds the unit-norm slot amplitudes of the
    module docstring, residual |A(k) x| / (|x| ||A(k)||_2) for the row's
    kernel vector x (a bound on it for a star's multiple record), l2norm_sq
    the exact squared L2 norm of the function a describes, and
    vertex_values the L2-normalized f(v).
    """

    spectrum: Spectrum
    record: np.ndarray
    k: np.ndarray
    a: np.ndarray
    residual: np.ndarray
    l2norm_sq: np.ndarray
    vertex_values: np.ndarray


@dataclass(frozen=True)
class SensitivityValue:
    """Coupling derivatives of the eigenvalues n asked for, shaped like n;
    degenerate marks a value that is a basis average over the eigenspace
    of a multiple eigenvalue rather than a single state."""

    value: np.ndarray
    degenerate: np.ndarray


def _l2_norm_sq(graph: MetricGraph, p: np.ndarray, k, q=None) -> np.ndarray:
    """Exact squared L2 norms of real eigenfunctions with edge amplitudes p,
    (A_0, B_0, ...) on the last axis, at wave numbers k; or inner products with q."""
    q = p if q is None else q
    lengths = graph.slot_length[0::2]
    k = np.asarray(k)[..., None]
    wave = np.sin(2.0 * k * lengths) / (4.0 * k)
    cross = np.sin(k * lengths) ** 2 / (2.0 * k)  # half of (1 - cos 2kl) / (2k)
    pa, pb, qa, qb = p[..., 0::2], p[..., 1::2], q[..., 0::2], q[..., 1::2]
    terms = (0.5 * lengths + wave) * pa * qa + (0.5 * lengths - wave) * pb * qb
    return np.sum(terms + cross * (pa * qb + pb * qa), axis=-1)


def _bordered_systems(graph: MetricGraph, sigmas, amp, ks, x):
    """[[A, A' x], [x^T, 0]] at each row of ks and x, A the rows amp of
    A(k) already built, in double: the Newton system of _root_kernel, A' x
    a central difference."""
    size, h = x.shape[1], SLOPE_STEP * ks
    ahead, behind = ks + h, ks - h
    slopes = solver._amplitude_matrices(graph, sigmas, np.concatenate([ahead, behind]))
    out = np.zeros((ks.size, size + 1, size + 1))
    out[:, :size, :size] = amp
    slope = np.einsum("rij,rj->ri", slopes[: ks.size] - slopes[ks.size :], x)
    out[:, :size, size] = slope / (ahead - behind)[:, None]
    out[:, size, :size] = x
    return out


def _root_kernel(graph: MetricGraph, sigmas, amp, ks: np.ndarray, x: np.ndarray):
    """Unit kernel vectors x of A(k) at simple roots next to the float wave
    numbers ks, A(ks) the stack amp at the couplings row sigmas, after
    EXACT_STEPS Newton steps on A(k) x = 0 with k free.

    At a float k the SVD's kernel vector leans toward the singular vector
    of a neighbouring small singular value s by about (eps + ulp(k) ||A'||)
    / s, from the rounding of A(k) and of k itself: near 1e-9 for roots
    1e-7 apart, and more for two records as close as 1e-12 (1 + k).  Each
    step solves [[A, A' x], [x^T, 0]] (dx, dk) = (-A x, 0), the system in
    double at the float k, A x in double-double at k plus the steps so far,
    one batched pass over the records (solver._wide_product, about 32
    digits; cos k l and sin k l taken once at the float k and turned by
    each step's shift).  The system's rounding over s leaves a factor near
    eps / s of the lean at each step, so that only the residual's rounding
    bounds it.
    """
    system = _bordered_systems(graph, sigmas, amp, ks, x)
    waves = solver._wide_waves(graph, ks)
    out, rhs = x.copy(), np.zeros((ks.size, x.shape[1] + 1, 1))
    shift = (np.zeros((ks.size, 1)), np.zeros((ks.size, 1)))
    for _ in range(EXACT_STEPS):
        rhs[:, :-1, 0] = solver._wide_product(graph, sigmas, ks, shift, waves, out)[0]
        step = np.linalg.solve(system, -rhs)[..., 0]
        out += step[:, :-1]
        shift = solver._dd_add(shift, (step[:, -1:], 0.0))
    return out / np.linalg.norm(out, axis=1)[:, None]


@lru_cache(maxsize=1)
def _arrow_rows(graph: MetricGraph) -> np.ndarray | slice:
    """The rows of A(k) in arrow order ("Stars" in the module docstring): on
    a star whose edges all leave one vertex, that vertex's row, then each
    leaf's in edge order; A's own order on any other graph.  Read-only, as
    every caller of the cache shares it."""
    star = solver._star_layout(graph)
    if star is None or solver._amplitude_layout(graph)[0] != graph.num_edges + 1:
        return slice(None)
    # one row per vertex, in the order of the vertex ids
    rows = np.argsort(np.argsort(np.append(star[2], star[1])))
    rows.flags.writeable = False
    return slice(None) if np.array_equal(rows, np.arange(rows.size)) else rows


def _arrow_kernels(graph: MetricGraph, sigmas, amp, ks, mults, radius):
    """Singular values, largest first, and right singular vectors of the
    stack amp of A(k) at the couplings row sigmas as the kernel rule and
    eigenbasis read them, for the records whose A(k) is an arrow that
    passes the gate ("Stars" in the module docstring): ||A||_2, a lower
    bound in place of every middle value, and for a simple record |A x| for
    the unit kernel vector x, the last row of vt; for a record of
    multiplicity m the bound max_P |d_t| in each of the m last places, and
    an orthonormal basis of ker A0 in the last m rows of vt.  The other
    records' rows of sv are NaN."""
    sv, vt = np.full(amp.shape[:2], np.nan), np.zeros(amp.shape)
    n = amp.shape[1]
    arrow = amp[:, _arrow_rows(graph)]
    leaves = arrow[:, 1:, 1:][:, ~np.eye(n - 1, dtype=bool)]
    # a multiple record takes m + 1 of the n - 1 leaves
    at = np.flatnonzero(((mults == 1) | (mults < n - 1)) & ~np.any(leaves, axis=1))
    if at.size == 0:  # no arrow record: spare the bound on ||A'||, built per graph
        return sv, vt
    arrow, m = arrow[at], mults[at]
    pivot = np.abs(np.diagonal(arrow, axis1=1, axis2=2)[:, 1:])
    # P: the m + 1 smallest pivots of a multiple record, none of a simple
    # one; A0 is A with d_P set to 0
    pole, reduced = np.zeros(pivot.shape, dtype=bool), arrow
    multiple = np.flatnonzero(m > 1)
    if multiple.size:
        ranks = np.argsort(np.argsort(pivot[multiple], axis=1), axis=1)
        pole[multiple] = ranks <= m[multiple, None]
        record, leaf = np.nonzero(pole)
        reduced = arrow.copy()
        reduced[record, leaf + 1, leaf + 1] = 0.0
    gram = np.linalg.eigvalsh(np.swapaxes(reduced, 1, 2) @ reduced)
    norm = np.sqrt(gram[:, -1])
    floor, threshold, lift = solver._kernel_thresholds(graph, sigmas, ks[at], norm, radius[at])
    gate = np.maximum(NEIGHBOUR_SV, threshold) * norm
    # the smallest Q pivot, every pivot of a simple record
    rest = np.min(pivot, axis=1, where=~pole, initial=np.inf)
    kept = rest >= gate

    simple = np.flatnonzero(kept & (m == 1))
    x = np.ones((simple.size, n))
    a, b, c = arrow[simple, 0, 0], arrow[simple, 0, 1:], arrow[simple, 1:, 0]
    d = np.diagonal(arrow[simple], axis1=1, axis2=2)[:, 1:]
    x[:, 1:] = -c / d
    schur = a + np.sum(b * x[:, 1:], axis=1)
    small = np.abs(schur) / norm[simple] < floor
    simple, x, b, c, d, schur = (v[small] for v in (simple, x, b, c, d, schur))
    # one step of inverse iteration on A^T A: A^T z = x, then A y = z, each
    # by elimination on the Schur entry, both carried times it (z_0 is |x|^2)
    z0 = np.sum(x * x, axis=1)
    z = (schur[:, None] * x[:, 1:] - b * z0[:, None]) / d
    y = np.empty_like(x)
    y[:, 0] = z0 - np.sum(b * z / d, axis=1)
    y[:, 1:] = (schur[:, None] * z - c * y[:, :1]) / d
    length = np.linalg.norm(y, axis=1)
    product = np.einsum("rij,rj->ri", arrow[simple], y)
    sv[at[simple]] = rest[simple, None]
    sv[at[simple], -1] = np.linalg.norm(product, axis=1) / length
    vt[at[simple], -1] = y / length[:, None]
    sv[at[simple], 0] = norm[simple]

    if multiple.size:
        # sigma_min(A~) - delta bounds the middle values, delta the m last
        delta = np.max(pivot[multiple], axis=1, where=pole[multiple], initial=0.0)
        above = np.sqrt(np.maximum(gram[multiple, m[multiple]], 0.0)) - delta
        taken = (delta <= lift[multiple] * norm[multiple]) & (above >= gate[multiple])
        taken &= kept[multiple]
        multiple, delta, above = multiple[taken], delta[taken], above[taken]
        # the reflection of b_P onto its first leaf: its other columns on P
        # are an orthonormal basis of ker A0, taken last
        h = np.where(pole[multiple], arrow[multiple, 0, 1:], 0.0)  # b_P
        rows, first = np.arange(multiple.size), np.argmax(pole[multiple], axis=1)
        h[rows, first] += np.copysign(np.linalg.norm(h, axis=1), h[rows, first])
        h /= np.linalg.norm(h, axis=1)[:, None]
        reflect = np.eye(n - 1) - 2.0 * h[:, :, None] * h[:, None, :]
        basis = pole[multiple]
        basis[rows, first] = False
        order = np.argsort(basis, axis=1, kind="stable")
        last = np.arange(n) >= n - m[multiple, None]
        sv[at[multiple]] = np.where(last, delta[:, None], above[:, None])
        sv[at[multiple], 0] = norm[multiple]
        reflected = np.take_along_axis(reflect, order[:, None], axis=2)
        vt[at[multiple], 1:, 1:] = np.swapaxes(reflected, 1, 2)
    return sv, vt


def eigenbasis(spectrum: Spectrum, records) -> EigenBasis:
    """Real eigenfunctions of the positive records at positions records of
    the spectrum, and of no other: one SVD of A(k) per record, or on a
    star the arrow's closed form ("Stars" in the module docstring), the
    rest vectorized.  The zero mode is left out.  The kernel rule counts
    every crossing of the spectrum within reach of a record.  Raises
    ValueError for a position that is not an integer (a boolean included,
    inside a list too), OutOfRange for one outside
    the records, KernelDimensionMismatch where a record breaks the kernel
    rule, and ContinuityViolation where an eigenfunction takes two values
    at a vertex.
    """
    graph, robin = spectrum.graph, spectrum.robin
    given, records = records, np.asarray(records)
    if _has_boolean(given) or (records.size and records.dtype.kind not in "iu"):
        raise ValueError(f"record positions must be integers, got {given!r}")
    if np.any((records < 0) | (records >= spectrum.k.size)):
        raise OutOfRange(f"record positions outside 0..{spectrum.k.size - 1}")
    positive = np.flatnonzero(spectrum.k > 0.0)
    handed = positive[np.isin(positive, records)]
    ks, mults = spectrum.k[handed], spectrum.multiplicity[handed]
    sigmas = robin.vertex_sigmas(graph)
    radius, threshold = spectrum.radius[handed], solver._kernel_threshold(graph, sigmas, ks)
    # A(k)'s size and the columns of (A_0, B_0, A_1, B_1, ...)
    layout = solver._amplitude_layout(graph)
    n, edge_columns = layout[0], layout[5]
    amp = solver._amplitude_matrices(graph, sigmas, ks)
    sv, vt = _arrow_kernels(graph, sigmas, amp, ks, mults, radius)
    # one LAPACK call per matrix, not per stack: the benchmark's layer
    # trace (bench/tests) pins eigenfunctions.svd_calls to svd_matrices
    for i in np.flatnonzero(np.isnan(sv[:, 0])):
        _, sv[i], vt[i] = np.linalg.svd(amp[i])
    crossings = spectrum.wavenumbers()
    mismatch = _kernel_rule(graph, sigmas, ks, mults, sv, radius, crossings)
    if mismatch:
        raise KernelDimensionMismatch(mismatch)
    sv = sv / sv[:, :1]  # relative to ||A(k)||_2
    near = np.flatnonzero((mults == 1) & (sv[:, -2] < NEIGHBOUR_SV))
    if near.size:
        vt[near, -1] = _root_kernel(graph, sigmas, amp[near], ks[near], vt[near, -1])

    local = np.repeat(np.arange(ks.size), mults)
    first_row = np.cumsum(mults) - mults
    ab = np.empty((local.size, graph.num_slots))
    residual = np.empty(local.size)
    # the distinct multiplicities, without np.unique, which imports numpy.ma
    for m in np.flatnonzero(np.bincount(mults)):
        # the right singular vectors of the m smallest singular values,
        # orthonormalised in their L2 Gram matrix
        at = np.flatnonzero(mults == m)
        tail = vt[at, n - m :][:, :, edge_columns]
        gram = _l2_norm_sq(graph, tail[:, :, None], ks[at, None, None], tail[:, None])
        lam, w = np.linalg.eigh(gram)
        rows = first_row[at, None] + np.arange(m)
        ab[rows] = np.einsum("rij,rin->rjn", w / np.sqrt(lam)[:, None, :], tail)
        # |A x| for the unit x = sum_i w_ij v_i: sigma_i w_ij over i
        residual[rows] = np.linalg.norm(sv[at, n - m :, None] * w, axis=1)
    k = ks[local]

    ab /= np.sqrt(0.5 * np.sum(ab**2, axis=1))[:, None]  # unit slot amplitudes
    l2norm_sq = _l2_norm_sq(graph, ab, k)
    phase = k[:, None] * graph.slot_length[0::2]
    at_end = ab[:, 0::2] * np.cos(phase) + ab[:, 1::2] * np.sin(phase)
    ends = graph.slot_origin[1::2]
    values = np.empty((k.size, graph.num_vertices))
    values[:, ends] = at_end
    values[:, graph.slot_origin[0::2]] = ab[:, 0::2]
    # each edge end against its vertex's value: they differ by a sum of
    # continuity rows of A x, which the kernel threshold bounds
    jump = np.abs(at_end - values[:, ends])
    broken = jump > np.maximum(CONTINUITY_TOL, 2.0 * threshold[local])[:, None]
    if np.any(broken):
        row, edge = np.unravel_index(np.argmax(broken), jump.shape)
        raise ContinuityViolation(
            f"eigenfunction at k={float(k[row])!r} takes inconsistent values "
            f"at vertex {ends[edge]}"
        )
    # a vertex coupled with sigma > k reads its value from its Robin
    # condition, the sum of outward f'(v) over sigma ("Strong coupling")
    coupled = robin.coupled_vertices(graph)
    strong = np.flatnonzero(k < robin.sigma)
    if coupled and strong.size:
        outward = np.zeros((strong.size, graph.num_vertices))
        kk, ph, sb = k[strong, None], phase[strong], ab[strong]
        np.add.at(outward.T, graph.slot_origin[0::2], (kk * sb[:, 1::2]).T)
        np.add.at(
            outward.T, ends, (kk * (sb[:, 0::2] * np.sin(ph) - sb[:, 1::2] * np.cos(ph))).T
        )
        values[np.ix_(strong, coupled)] = outward[:, coupled] / robin.sigma
    a = np.repeat(0.5 * (ab[:, 0::2] - 1j * ab[:, 1::2]), 2, axis=1)
    a[:, 1::2] = np.exp(-1j * phase) * np.conj(a[:, 1::2])
    vertex_values = values / np.sqrt(l2norm_sq)[:, None]
    return EigenBasis(spectrum, handed[local], k, a, residual, l2norm_sq, vertex_values)


def evaluate(basis: EigenBasis, row: int, edge: int, x: float) -> float:
    """Normalized value of eigenfunction row at position x along an edge.
    A row or edge that is not an integer, or an x that is not a number,
    raises ValueError."""
    graph = basis.spectrum.graph
    row, edge, x = _integer(row, "row"), _integer(edge, "edge"), _real(x, "x")
    if not 0 <= row < len(basis.k):
        raise OutOfRange(f"row {row} outside 0..{len(basis.k) - 1}")
    if not 0 <= edge < graph.num_edges:
        raise OutOfRange(f"edge {edge} outside 0..{graph.num_edges - 1}")
    length = graph.edges[edge][2]
    if not 0.0 <= x <= length:
        raise OutOfRange(f"x={x!r} outside [0, {length!r}] on edge {edge}")
    a, k = basis.a[row], basis.k[row]
    raw = a[2 * edge] * np.exp(1j * k * x) + a[2 * edge + 1] * np.exp(1j * k * (length - x))
    return float(np.real(raw)) / float(np.sqrt(basis.l2norm_sq[row]))


def sensitivity(spectrum: Spectrum, n) -> SensitivityValue:
    """Coupling derivative of eigenvalue n: sum over coupled vertices of
    the squared normalized vertex values.

    n is an index or an array of indices, and both fields come back
    shaped like it; each record they touch is solved once, all in one
    eigenbasis call.  For a multiple eigenvalue the basis average is
    returned (the trace over the eigenspace divided by its dimension,
    which is basis independent) with degenerate=True.
    """
    which = spectrum.positions(n)
    mults = spectrum.multiplicity
    coupled = spectrum.robin.coupled_vertices(spectrum.graph)
    # constant eigenfunction at k = 0: f(v)^2 = 1/|G| at every vertex
    values = np.full(mults.size, len(coupled) / spectrum.graph.total_length)
    basis = eigenbasis(spectrum, which)
    per_row = np.sum(basis.vertex_values[:, coupled] ** 2, axis=1)
    solved = np.flatnonzero(np.bincount(basis.record))
    values[solved] = np.bincount(basis.record, weights=per_row)[solved] / mults[solved]
    return SensitivityValue(value=values[which], degenerate=mults[which] > 1)
