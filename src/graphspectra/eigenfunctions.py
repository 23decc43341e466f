"""Real eigenfunctions from the kernel of the condensed amplitude matrix.

On edge t, x running from its first vertex u, an eigenfunction with wave
number k is f_t(x) = f(u) cos kx + B_t sin kx, and (f(v) per vertex that
starts an edge, B_t per edge) is a null vector of the real (V_s + E)-square
A(k) of the solver's polish ("Polish" in its docstring): for multiplicity
m, one of the m vectors of its kernel ("Kernel vectors").  A vertex
that starts no edge reads the end of an edge into it, f(u) cos k l_t +
B_t sin k l_t, and every edge end must agree with its vertex's value, or
ContinuityViolation is raised.  With a = f(u), b = B_t and l = l_t, the
squared L2 norm is exactly

    sum_t a^2 (l/2 + sin 2kl / (4k)) + b^2 (l/2 - sin 2kl / (4k))
          + a b (1 - cos 2kl) / (2k),

an inner product taking half the cross term from each of a_1 b_2 and a_2 b_1.
The m vectors are orthonormalised in that Gram matrix: a trace over them,
as in the basis average of sensitivity, is then basis free.

Kernel vectors.  A record off the arrow's gate ("Stars") takes its m
vectors one way, batched over every such record.  With W the
first m columns of a fixed orthogonal matrix (_borders), the bordered
matrix C = [[A, W], [W^T, 0]] is invertible wherever ker A(k) has
dimension m and W meets it and A's range generically, and
C [X; Y] = [0; I] gives m vectors X with W^T X = I and A X = -W Y.  At a
float k they lean from the root's kernel toward the singular vector of the
next singular value s of A(k) by about (eps + ulp(k) ||A'||) / s, near
1e-9 for roots 1e-7 apart and more for two records 1e-12 (1 + k) apart.
EXACT_STEPS Newton steps with k free follow, the record's m vectors
sharing one shift dk: C's inverse, taken once, applied to (-A x_i, 0) and
to (-A' x_i, 0), A' x_i a forward difference taken once, gives
(dx_i, y_i), linear in dk, with A dx_i + W y_i = -(A x_i + dk A' x_i) and
W^T dx_i = 0, and dk minimizes sum_i |y_i|^2, the part of the m equations
that no dx_i meets.  For m = 1 that is the Newton step on
[[A, A' x], [W^T, 0]]; for m > 1 one shift is what a root of multiplicity
m gives, where a shift held fixed leaves the lean toward a simple root
close by.  Where s is below NEIGHBOUR_SV ||A(k)||_2 the residual A(k) x is
taken at k + shift in double-double (solver._wide_product, within
1e-32 (1 + k l) |x|), one batched pass per step over the columns of every
such record: what no shift moves, cos k l and sin k l at the float k
and the row table of A's terms, is taken once per call, and each step
turns the waves by its shift and takes the entries of A(k + shift) once
per record, then the products with x and the row sums; and C's
left border is the orthonormalised span of its inverse's last rows, the
left kernel: where no shift meets every equation, as for roots merged
closer than the rounding of k, the residual that stays then lies in A's
left kernel, as an SVD's does, where W would leave it leaning x by
|y| / s.  Elsewhere the residual is taken in double, as
A(k) x + shift A' x, and one step leaves the lean at rounding: a call
with no near record takes only that one.  C's rounding over s
leaves a factor near eps / s of the lean at each step, so that only the
residual's rounding bounds it.  The rows are then orthonormalised in the
L2 Gram matrix (above), and a row's residual is
|A(k) x| / (|x| ||A(k)||_2) of its vector x at the float k.

Stars.  On a star whose edges all leave its centre, A(k) with its rows
taken centre first, then each leaf's in edge order (A's own rows follow
the vertex ids, which need not follow the edges), is the arrow
[[a, b^T], [c, diag(d)]] of the solver's closed-form determinant ("Stars"
in its docstring): a at (0, 0), b_t in the centre row, c_t and the leaf
pivot d_t in leaf row t.  Its singular values, as the kernel rule reads
them, and its kernel vectors come in closed form.  A's E x E leaf block
must have no nonzero entry off its diagonal, checked exactly on A itself,
and every leaf pivot the closed form divides by or leaves in place must
be at least max(NEIGHBOUR_SV, the kernel rule's threshold) ||A||_2; a
record that fails a test takes the singular values the certification
took (Spectrum.singular_values), or else one value-only SVD, and the
bordered solve ("Kernel vectors").  ||A||_2 comes from one stacked eigvalsh
per eigenbasis call, of A^T A for a simple record and of A0^T A0 (below)
for a multiple one.

A record that passes these tests also takes its vectors in closed form,
with no LAPACK call.  A simple record's kernel vector is
x = (1, -c_1 / d_1, ..., -c_E / d_E), and A x is zero but for its first
entry, the Schur entry S = a - sum_t b_t c_t / d_t.  Deleting row and
column 0 leaves diag(d), so interlacing for the singular values of
submatrices (R. C. Thompson, Linear Algebra Appl. 5 (1972) 1-12) gives
sigma_{n-1}(A) >= min_t |d_t| and sigma_n(A) <= |S|.  It takes this closed
form where |S| is below the rule's floor 0.5e-8 sqrt(2E) ||A||_2: the rule
then sees exactly the one small singular value an SVD would show.  x
leans from the kernel by up to |S| / min_t |d_t|, so one step of inverse
iteration on A^T A follows: A^T z = x, then A y = z, each by elimination
on S, both carried times S so that S = 0 stays finite.  The step cuts the
lean by (sigma_n / sigma_{n-1})^2, and |A y| / |y|, in exact arithmetic at
most |S| / |x|, is the last singular value.

A record of multiplicity m >= 2 sits where m + 1 leaves share a stub pole.
Let P be the m + 1 leaves with the smallest |d_t|, Q the others,
delta = max_P |d_t|, and A0 = A with d_P set to 0.  Where c_P != 0 and
d_Q != 0, ker A0 is exactly {x : x_0 = 0, x_Q = 0, b_P . x_P = 0}: a row
of P reads c_t x_0, a row of Q c_t x_0 + d_t x_t, and the centre row is
then b_P . x_P.  The reflection H = I - 2 h h^T / |h|^2 with
h = b_P + sign(b_p) |b_P| e_p, p the first leaf of P, maps b_P onto the
e_p axis, so H's other columns on P are an orthonormal basis of ker A0.
A0 on the complement of its kernel, its P columns merged into b_P's
direction, is A~ = A0 [e_0, b_P / |b_P|, e_Q], two columns when Q is
empty, and sigma_min(A~) is the (m + 1)-th smallest singular value of A0:
its square is the (m + 1)-th smallest eigenvalue of A0^T A0, whose
largest gives ||A0||_2 for ||A||_2, within delta of it.  Since
||A - A0||_2 = delta, Courant-Fischer on the m-dimensional ker A0 puts the
m smallest singular values of A at or below delta, and Weyl's inequality
the next one at or above sigma_min(A~) - delta.  The record takes this
closed form where the Q pivots and sigma_min(A~) - delta pass the pivot
test above and delta <= w ||A'(k)|| / 2, w the stop width: at most what a
pole at a root half a stop width off leaves, as at a multiple root, whose
copies all lie within w / 2 of it, and at most half the rule's threshold,
so the m bounds count.  A record whose merged roots spread further,
though within RADIUS_FLOOR (1 + k) of each other, leaves larger pivots and
takes the SVD.  The rule then sees exactly the m small singular values an
SVD would show.  For unit x in ker A0, |A x| <= delta, so the kernel at
the float k leans from ker A0 by at most delta / sigma_{n-m}(A).  As
b_t = 1 / n_c on every edge, ker A0 does not move with k: it is the
eigenspace itself, and its lean is at most
2 eps (1 + k) ||A'|| / sigma_{n-m}(A), below 1e-11 wherever
sigma_{n-m}(A) >= 4.5e-5 (1 + k) ||A'||.  Every record these tests take
has its next singular value at or above NEIGHBOUR_SV ||A||_2, so no record
with a root close by takes a closed form.

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
# a record whose next singular value of A(k) is below this, relative to
# ||A(k)||_2, takes its Newton residual in double-double ("Kernel
# vectors"); a star's closed form needs every leaf pivot it keeps, and a
# multiple record's bound on its next singular value, at or above it
# ("Stars")
NEIGHBOUR_SV = 1e-3
# forward difference step of A'(k) x, relative to k
SLOPE_STEP = 1e-7
# Newton steps with k free on every record's kernel vectors
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

    def __post_init__(self):
        for value in vars(self).values():
            if isinstance(value, np.ndarray):
                value.flags.writeable = False  # as frozen as the basis


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


@lru_cache(maxsize=None)
def _borders(n: int) -> np.ndarray:
    """An n x n orthogonal matrix whose first m columns are the border W of
    a record of multiplicity m ("Kernel vectors" in the module docstring):
    the QR of sin(j^2), j = 1..n^2, in no relation to any graph's
    structure.  Read-only, as every caller of the cache shares it."""
    border = np.linalg.qr(np.sin(np.arange(1.0, n * n + 1.0) ** 2).reshape(n, n))[0]
    border.flags.writeable = False
    return border


def _kernel_vectors(graph: MetricGraph, sigmas, amp, ks, mults, near) -> np.ndarray:
    """The m kernel vectors of each A(k) of the stack amp at the couplings
    row sigmas, m the record's multiplicity, as the first m columns of an
    array shaped (len(ks), n, max m), its other columns zero: a bordered
    solve, then Newton steps with k free, one shift per record, the residual
    in double-double where near ("Kernel vectors" in the module docstring)."""
    size, top = amp.shape[1], int(mults.max(initial=1))
    # columns past m: W's columns are 0 there and an identity block takes
    # their place, which leaves them 0
    live = np.arange(top) < mults[:, None]
    right = _borders(size)[:, :top] * live[:, None, :]
    system = np.zeros((ks.size, size + top, size + top))
    system[:, :size, :size] = amp
    system[:, :size, size:] = right
    system[:, size:, :size] = np.swapaxes(right, 1, 2)
    system[:, size:, size:] = np.eye(top) * ~live[:, None, :]
    inverse = np.linalg.inv(system)
    close = np.flatnonzero(near)
    if close.size:
        # the last rows of the inverse span the left kernel, the left
        # border that leaves the residual no shift removes in it
        left = np.linalg.qr(np.swapaxes(inverse[close, size:, :size], 1, 2))[0]
        system[close, :size, size:] = left * live[close, None, :]
        inverse[close] = np.linalg.inv(system[close])
    del system
    x, solve = inverse[:, :size, size:].copy(), inverse[:, :, :size]
    ahead = ks * (1.0 + SLOPE_STEP)
    slope = solver._amplitude_matrices(graph, sigmas, ahead) @ x - amp @ x
    slope /= (ahead - ks)[:, None, None]
    # (dx, y) per unit shift; the shift minimizes |y|^2 over the m columns
    fixed = solve @ -slope
    weight = np.sum(fixed[:, size:] ** 2, axis=(1, 2))
    # the near records' columns, one double-double pass over them per step,
    # what the shift leaves as it is taken once
    owner, column = np.nonzero(live[close])
    wide = close[owner]
    waves = solver._wide_waves(graph, ks[close]) if close.size else None
    shift = (np.zeros((ks.size, 1)), np.zeros((ks.size, 1)))
    # one step leaves a vector with no near neighbour at rounding
    for _ in range(EXACT_STEPS if close.size else 1):
        residual = amp @ x + shift[0][:, :, None] * slope
        if close.size:
            at = (shift[0][close], shift[1][close])
            product = solver._wide_product(
                graph, sigmas, ks[close], at, waves, x[wide, :, column], owner
            )
            residual[wide, :, column] = product[0]
        step = solve @ -residual
        dk = -np.sum(step[:, size:] * fixed[:, size:], axis=(1, 2)) / weight
        x += step[:, :size] + dk[:, None, None] * fixed[:, :size]
        shift = solver._dd_add(shift, (dk[:, None], 0.0))
    return x


@lru_cache(maxsize=1)
def _arrow_rows(graph: MetricGraph) -> np.ndarray:
    """The rows of A(k) in arrow order ("Stars" in the module docstring): on
    a star whose edges all leave one vertex, that vertex's row, then each
    leaf's in edge order; A's own order on any other graph.  Read-only, as
    every caller of the cache shares it."""
    star, size = solver._star_layout(graph), solver._amplitude_layout(graph)[0]
    rows = np.arange(size)
    if star is not None and size == graph.num_edges + 1:
        # one row per vertex, in the order of the vertex ids
        rows = np.argsort(np.argsort(np.append(star[2], star[1])))
    rows.flags.writeable = False
    return rows


def _arrow_kernels(graph: MetricGraph, amp, ks, mults, radius, slope):
    """Singular values, largest first, of the stack amp of A(k) as the
    kernel rule reads them, slope its bound on ||A'(k)||, and kernel vectors
    laid out as _kernel_vectors lays them out, for the records whose A(k) is
    an arrow that passes the gate ("Stars" in the module docstring):
    ||A||_2, a lower bound in place of every middle value, and for a simple
    record |A x| for the unit kernel vector x in the last place; for a
    record of multiplicity m the bound max_P |d_t| in each of the m last
    places, and an orthonormal basis of ker A0.  The other records' rows of
    the values are NaN, and of the vectors 0."""
    sv = np.full(amp.shape[:2], np.nan)
    n, rows = amp.shape[1], _arrow_rows(graph)
    vectors = np.zeros((ks.size, n, int(mults.max(initial=1))))
    leaf = np.arange(1, n)
    pivot = np.abs(amp[:, rows[1:], leaf])
    # the leaf block, its rows in any order, has no nonzero entry off its
    # diagonal; a multiple record takes m + 1 of the n - 1 leaves
    block = np.count_nonzero(amp[:, :, 1:], axis=(1, 2))
    block -= np.count_nonzero(amp[:, rows[0], 1:], axis=1)
    diagonal = block == np.count_nonzero(pivot, axis=1)
    at = np.flatnonzero(((mults == 1) | (mults < n - 1)) & diagonal)
    if at.size == 0:
        return sv, vectors
    m, pivot = mults[at], pivot[at]
    multiple = np.flatnonzero(m > 1)
    # P: the m + 1 smallest pivots of a multiple record, none of a simple
    # one; the multiple records' rows of arrow become A0, d_P set to 0, in
    # a copy of the stack, which a stack of simple records is spared
    arrow = amp if at.size == ks.size and multiple.size == 0 else amp[at]
    pole = np.zeros(pivot.shape, dtype=bool)
    if multiple.size:
        ranks = np.argsort(np.argsort(pivot[multiple], axis=1), axis=1)
        pole[multiple] = ranks <= m[multiple, None]
        record, t = np.nonzero(pole)
        arrow[record, rows[t + 1], t + 1] = 0.0
    gram = np.linalg.eigvalsh(np.swapaxes(arrow, 1, 2) @ arrow)
    norm = np.sqrt(gram[:, -1])
    floor, threshold, lift = solver._kernel_thresholds(graph, ks[at], norm, radius[at], slope[at])
    gate = np.maximum(NEIGHBOUR_SV, threshold) * norm
    # the smallest Q pivot, every pivot of a simple record
    rest = np.min(pivot, axis=1, where=~pole, initial=np.inf)
    kept = rest >= gate

    # x = (1, -c / d): A x is the Schur entry in its first place, 0 elsewhere
    simple = np.flatnonzero(kept & (m == 1))
    a, b = arrow[simple, rows[0], 0], arrow[simple, rows[0], 1:]
    c, d = arrow[simple[:, None], rows[1:], 0], arrow[simple[:, None], rows[1:], leaf]
    x = np.ones((simple.size, n))
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
    y /= np.linalg.norm(y, axis=1)[:, None]
    sv[at[simple]] = rest[simple, None]
    sv[at[simple], -1] = np.linalg.norm((arrow[simple] @ y[:, :, None])[..., 0], axis=1)
    sv[at[simple], 0] = norm[simple]
    vectors[at[simple], :, 0] = y

    if multiple.size:
        # sigma_min(A~) - delta bounds the middle values, delta the m last
        delta = np.max(pivot[multiple], axis=1, where=pole[multiple], initial=0.0)
        above = np.sqrt(np.maximum(gram[multiple, m[multiple]], 0.0)) - delta
        taken = (delta <= lift[multiple] * norm[multiple]) & (above >= gate[multiple])
        taken &= kept[multiple]
        multiple, delta, above = multiple[taken], delta[taken], above[taken]
        last = np.arange(n) >= n - m[multiple, None]
        sv[at[multiple]] = np.where(last, delta[:, None], above[:, None])
        sv[at[multiple], 0] = norm[multiple]
        # the reflection of b_P onto its first leaf: its other columns on P
        # are an orthonormal basis of ker A0, taken first
        h = np.where(pole[multiple], arrow[multiple, rows[0], 1:], 0.0)  # b_P
        each, first = np.arange(multiple.size), np.argmax(pole[multiple], axis=1)
        h[each, first] += np.copysign(np.linalg.norm(h, axis=1), h[each, first])
        h /= np.linalg.norm(h, axis=1)[:, None]
        reflect = np.eye(n - 1) - 2.0 * h[:, :, None] * h[:, None, :]
        basis = pole[multiple]
        basis[each, first] = False
        width = min(vectors.shape[2], n - 1)
        order = np.argsort(~basis, axis=1, kind="stable")[:, None, :width]
        live = np.arange(width) < m[multiple, None, None]
        vectors[at[multiple], 1:, :width] = np.take_along_axis(reflect, order, axis=2) * live
    return sv, vectors


def eigenbasis(spectrum: Spectrum, records) -> EigenBasis:
    """Real eigenfunctions of the positive records at positions records of
    the spectrum, and of no other: on a star the arrow's closed form
    ("Stars" in the module docstring), for every other record the singular
    values of A(k) the spectrum carries, or else one value-only SVD, and
    one batched bordered solve with its Newton steps ("Kernel vectors").
    The zero mode is left out.  The kernel rule counts every crossing of
    the spectrum within reach of a record.  Raises
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
    sigmas, radius = robin.vertex_sigmas(graph), spectrum.radius[handed]
    # the kernel rule's bound on ||A'(k)|| and its eigenphase threshold, which
    # is also the continuity tolerance, each taken once
    slope = solver._amplitude_slope(graph, sigmas, ks)
    threshold = solver._kernel_threshold(graph, sigmas, ks)
    # A(k)'s size and the columns of (A_0, B_0, A_1, B_1, ...)
    layout = solver._amplitude_layout(graph)
    n, edge_columns = layout[0], layout[5]
    amp = solver._amplitude_matrices(graph, sigmas, ks)
    sv, vectors = _arrow_kernels(graph, amp, ks, mults, radius, slope)
    other = np.flatnonzero(np.isnan(sv[:, 0]))
    # the singular values the certification took, and for the other records
    # one LAPACK call per matrix, not per stack: the benchmark's layer trace
    # (bench/tests) pins eigenfunctions.svd_calls to svd_matrices
    sv[other] = spectrum.singular_values[handed[other]]
    for i in other[np.isnan(sv[other, 0])]:
        sv[i] = np.linalg.svd(amp[i], compute_uv=False)
    crossings = spectrum.wavenumbers()
    mismatch = _kernel_rule(graph, ks, mults, sv, radius, crossings, slope, threshold)
    if mismatch:
        raise KernelDimensionMismatch(mismatch)
    norm = sv[:, 0]
    # the singular value next to the m smallest
    near = sv[np.arange(ks.size), n - mults - 1] < NEIGHBOUR_SV * norm
    if other.size:
        block = amp if other.size == ks.size else amp[other]
        found = _kernel_vectors(graph, sigmas, block, ks[other], mults[other], near[other])
        vectors[other, :, : found.shape[2]] = found
    products = amp @ vectors

    local = np.repeat(np.arange(ks.size), mults)
    first_row = np.cumsum(mults) - mults
    ab = np.empty((local.size, graph.num_slots))
    residual = np.empty(local.size)
    # the distinct multiplicities, without np.unique, which imports numpy.ma
    for m in np.flatnonzero(np.bincount(mults)):
        # a record's m vectors, orthonormalised in their L2 Gram matrix
        at = np.flatnonzero(mults == m)
        tail = np.swapaxes(vectors[at][:, edge_columns, :m], 1, 2)
        gram = _l2_norm_sq(graph, tail[:, :, None], ks[at, None, None], tail[:, None])
        lam, w = np.linalg.eigh(gram)
        w /= np.sqrt(lam)[:, None, :]
        rows = first_row[at, None] + np.arange(m)
        ab[rows] = np.einsum("rij,rin->rjn", w, tail)
        length = np.linalg.norm(vectors[at, :, :m] @ w, axis=1) * norm[at, None]
        residual[rows] = np.linalg.norm(products[at, :, :m] @ w, axis=1) / length
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
