"""Independent reference computations used to pin expected test values.

Everything in this module is derived from scalar closed forms or
one-dimensional bisection on transcendental equations.  Nothing imports
the package under test, so agreement between the two is meaningful;
secular_function takes U(k) and Theta(k) from its caller.
"""
from __future__ import annotations

import cmath
import math
from collections import Counter
from functools import lru_cache

import mpmath
import numpy as np
from scipy.integrate import quad


def bisect(f, lo, hi, tol=1e-15, max_iter=200):
    """Find a root of f in [lo, hi] by plain bisection.

    The bracket must be sign-changing.  Returns the midpoint of the final
    bracket, whose width is at most max(tol, a few ulps of the root).
    """
    flo = f(lo)
    fhi = f(hi)
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    if flo * fhi > 0.0:
        raise ValueError("root not bracketed")
    for _ in range(max_iter):
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            break  # bracket collapsed to adjacent floats
        fmid = f(mid)
        if fmid == 0.0:
            return mid
        if flo * fmid < 0.0:
            hi = mid
        else:
            lo, flo = mid, fmid
        if hi - lo <= tol:
            break
    return 0.5 * (lo + hi)


def interval_neumann_wavenumbers(length, count):
    """k_n = n*pi/length for n = 0..count-1 (Neumann ends, one edge)."""
    return np.arange(count) * math.pi / length


def interval_robin_wavenumbers(length, sigma, count):
    """First `count` positive roots of k*tan(k*length) = sigma.

    One root per branch n: k in (n*pi/L, (n + 1/2)*pi/L), n = 0, 1, ...
    These are the eigenvalue wave numbers of the interval with a Neumann
    condition at one end and a Robin condition (coupling sigma > 0) at the
    other.  Written in the sin/cos form so the bracket endpoints are finite.
    """
    if sigma <= 0.0:
        raise ValueError("use interval_neumann_wavenumbers for sigma = 0")
    roots = []
    for n in range(count):
        lo = n * math.pi / length
        hi = (n + 0.5) * math.pi / length
        sign = -1.0 if n % 2 else 1.0

        def f(k, s=sign):
            return s * (k * math.sin(k * length) - sigma * math.cos(k * length))

        roots.append(bisect(f, lo + 1e-13, hi - 1e-13))
    return np.array(roots)


def equilateral_star_wavenumbers(degree, length, sigma, count):
    """Sorted wave numbers (with multiplicity) of the equilateral star.

    degree edges of equal length, Neumann at the boundary vertices, Robin
    coupling sigma at the center.  The spectrum splits into
      - center-symmetric states: tan(k*length) = sigma/(degree*k),
        i.e. the interval relation with coupling sigma/degree; and
      - center-vanishing states at k = (m + 1/2)*pi/length with
        multiplicity degree - 1, independent of sigma.
    For sigma = 0 the symmetric branch degenerates to k = m*pi/length and
    k = 0 joins the spectrum (constant eigenfunction).
    """
    branches = count // 2 + 2
    if sigma == 0.0:
        symmetric = [m * math.pi / length for m in range(branches)]
    else:
        symmetric = list(interval_robin_wavenumbers(length, sigma / degree, branches))
    vanishing = []
    for m in range(branches):
        vanishing.extend([(m + 0.5) * math.pi / length] * (degree - 1))
    ks = np.sort(np.concatenate([symmetric, vanishing]))
    return ks[:count]


def equilateral_star_gaps(degree, length, sigma, count):
    """Index-paired lambda_n(sigma) - lambda_n(0) for the equilateral star."""
    k0 = equilateral_star_wavenumbers(degree, length, 0.0, count)
    k1 = equilateral_star_wavenumbers(degree, length, sigma, count)
    return k1 ** 2 - k0 ** 2


def vertex_scattering_entry(degree, sigma, k, backscatter):
    """S_{e'e}(k) = 2 / (d + i sigma / k) - [e' = reversal(e)].

    The amplitude scattered at a vertex of degree d with delta coupling
    sigma from an incoming slot e into an outgoing slot e' (Kottos and
    Smilansky 1999); backscatter means e' is the reversal of e.
    """
    c = 2.0 / (degree + 1j * sigma / k)
    return c - 1.0 if backscatter else c


def unitary_entries(edges, coupled, sigma, k, exp=cmath.exp):
    """The nonzero entries (e_out, e_in, U[e_out, e_in]) of U(k) = S(k) exp(ikL)
    over directed slots.

    edges: (u, v, length) triples; slot 2t runs u -> v along edge t and
    slot 2t + 1 runs back.  Entry [e_out, e_in] scatters e_in, which ends
    at a vertex, into e_out, which starts there, after e_in's propagation
    phase exp(ik length).  coupled vertices carry coupling sigma.  With an
    mpmath k and exp=mpmath.exp the entries carry the working precision.
    """
    slots = []
    for u, v, length in edges:
        slots.extend([(u, v, length), (v, u, length)])
    degree = Counter(start for start, _, _ in slots)
    for e_in, (_, vertex, length) in enumerate(slots):
        s = sigma if vertex in coupled else 0.0
        phase = exp(1j * k * length)
        for e_out, (start, _, _) in enumerate(slots):
            if start == vertex:
                entry = vertex_scattering_entry(degree[vertex], s, k, e_out == e_in ^ 1)
                yield e_out, e_in, entry * phase


def unitary_matrix(edges, coupled, sigma, k):
    """U(k) as a complex array, built entry by entry (see unitary_entries)."""
    size = 2 * len(edges)
    out = np.zeros((size, size), dtype=complex)
    for e_out, e_in, entry in unitary_entries(edges, coupled, sigma, k):
        out[e_out, e_in] = entry
    return out


def amplitude_matrix(edges, coupled, sigma, k, lib=math):
    """The real 2E x 2E amplitude matrix A(k), built row by row.

    f_t(x) = A_t cos kx + B_t sin kx on edge t = (u, v, length), x running
    from u; columns 2t and 2t + 1 hold A_t and B_t.  Each vertex v, over
    the slots starting there in slot order, gives the delta-Kirchhoff row
    (sum f'_out / k - (sigma_v / k) f(v)) / |d_v + i sigma_v / k| and a
    continuity row f_q(v) - f_p(v) for each slot q after the first, p the
    slot before it (Berkolaiko and Kuchment, ch. 3).  coupled vertices
    carry coupling sigma.  With an mpmath k and lib=mpmath the entries
    carry the working precision, in an object array.
    """
    size = 2 * len(edges)
    dtype = float if lib is math else object
    starts, value, slope = [], [], []  # f and f'_out / k of each slot at its start
    for t, (u, v, length) in enumerate(edges):
        c, s = lib.cos(k * length), lib.sin(k * length)
        forward = (u, {2 * t: 1.0}, {2 * t + 1: 1.0})
        backward = (v, {2 * t: c, 2 * t + 1: s}, {2 * t: s, 2 * t + 1: -c})
        for start, f, df in (forward, backward):
            starts.append(start)
            for terms, rows in ((f, value), (df, slope)):
                row = np.zeros(size, dtype=dtype)
                for column, entry in terms.items():
                    row[column] = entry
                rows.append(row)
    out = []
    for vertex in sorted(set(starts)):
        at = [j for j, start in enumerate(starts) if start == vertex]
        # zero in the type of k: an uncoupled row of an mpmath k divides by
        # d_v at full precision, not in float
        s = sigma / k if vertex in coupled else 0.0 * k
        kirchhoff = sum(slope[j] for j in at) - s * value[at[0]]
        out.append(kirchhoff / abs(len(at) + 1j * s))
        out.extend(value[q] - value[p] for p, q in zip(at, at[1:]))
    return np.array(out)


def amplitude_dets(edges, sigmas, ks):
    """det of the 2E x 2E amplitude_matrix at each wave number ks[j], no
    edge eliminated, vertex v at coupling sigmas[v] (one row of sigmas for
    every k, or a row per k, its nonzero entries equal).  The solver's
    det A(k) equals it up to one constant sign per graph."""
    rows = np.broadcast_to(sigmas, (len(ks), np.shape(sigmas)[-1]))
    out = []
    for k, row in zip(ks, rows):
        coupled = frozenset(int(v) for v in np.flatnonzero(row))
        sigma = float(row[min(coupled)]) if coupled else 0.0
        if any(row[v] != sigma for v in coupled):
            raise ValueError("amplitude_dets takes one coupling per row")
        out.append(np.linalg.det(amplitude_matrix(edges, coupled, sigma, float(k))))
    return np.array(out)


def secular_function(u, theta, num_edges, num_vertices):
    """zeta(k) = det(I - U(k)) exp(-i Theta(k) / 2) conj(c), one per U(k).

    U(k) is unitary with N = 2E eigenvalues exp(i theta_m), so

        det(I - U) = prod_m (1 - exp(i theta_m))
                   = c exp(i Theta / 2) 2^N prod_m sin(theta_m / 2)

    with c = (-i)^N exp(i c_0 / 2) and det U = exp(i c_0) exp(i Theta) =
    (-1)^(E + V) exp(i Theta).  So conj(c) is (-i)^((E + V) mod 2) up to
    the sign (-1)^E, and zeta is real up to rounding: the real secular
    function, zero exactly at the eigenvalue wave numbers.  u is a stack of
    U(k), theta the matching Theta(k).
    """
    u = np.asarray(u)
    rotation = (-1j) ** ((num_edges + num_vertices) % 2)
    eye = np.eye(u.shape[-1])
    return np.linalg.det(eye - u) * np.exp(-0.5j * np.asarray(theta)) * rotation


def complex_kernel_mismatch(u, ks, mults, threshold, reach):
    """The kernel rule on I - U(k): why the first record (k, m) breaks it,
    or None.

    u is a stack of U(k), one per record.  I - U is normal, so its singular
    values are the distances |1 - exp(i theta)| of the eigenvalues of U(k)
    from 1, and those below threshold count toward the kernel dimension.  A
    record is short when fewer than m count.  It has excess when more count
    than the records place crossings within reach of k; records within reach
    of k = 0 are not judged for excess.
    """
    ks = [float(k) for k in ks]
    u = np.asarray(u)
    sv = np.linalg.svd(np.eye(u.shape[-1]) - u, compute_uv=False)
    dims = [int(np.sum(row < t)) for row, t in zip(sv, threshold)]
    for k, m, dim in zip(ks, mults, dims):
        if dim < m:
            return f"kernel dimension {dim} below crossing count {m} at k={k!r}"
    crossings = np.repeat(ks, mults)
    for k, dim, r in zip(ks, dims, reach):
        nearby = int(np.sum(np.abs(crossings - k) <= r))
        if k > r and dim > nearby:
            return f"kernel dimension {dim} above {nearby} crossings within {r:.3g} of k={k!r}"
    return None


# a singular value of I - U(k) this small next to the kernel leaves the
# double-precision kernel vectors off by about 1e-16 / NEIGHBOUR_SV
NEIGHBOUR_SV = 1e-4
REFINE_DIGITS = 40
REFINE_STEPS = 2
# secant steps from two points a stop width apart: at order 1.6 the error
# falls from about 1e-16 of the root to REFINE_DIGITS digits in four or five
REFINE_SECANT_STEPS = 8
# a simple root's kernel is refined this far (times 1 + k) above the root,
# so it leans toward a neighbour by ROOT_SHIFT (1 + k) over their distance
ROOT_SHIFT = 1e-30
EPS = float(np.finfo(float).eps)


def refined_root(edges, coupled, sigma, k, order=0):
    """The simple root of det A(k) (amplitude_matrix), or of its order-th
    derivative, next to the float root k, by REFINE_SECANT_STEPS steps of
    the secant method at REFINE_DIGITS digits, as an mpmath number: order
    1 finds a double root of det A, a simple root of its derivative
    (mpmath.diff).  Raises ValueError when it lies further than
    1e-12 (1 + k) from k, the least radius of a certified record."""
    with mpmath.workdps(REFINE_DIGITS):

        def det(x):
            matrix = mpmath.matrix(amplitude_matrix(edges, coupled, sigma, x, mpmath).tolist())
            try:
                return mpmath.det(matrix)
            except TypeError:  # mpmath's pivot search meets a zero column: det A = 0
                return mpmath.mpf(0)

        f = det if order == 0 else (lambda x: mpmath.diff(det, x, order))
        x0 = start = mpmath.mpf(k)
        x1 = x0 + 4.0 * EPS * (1.0 + k)  # the solver's stop width
        f0 = f(x0)
        for _ in range(REFINE_SECANT_STEPS):
            f1 = f(x1)
            if f1 == f0:
                break
            x0, x1, f0 = x1, x1 - f1 * (x1 - x0) / (f1 - f0), f1
        if abs(x1 - start) > 1e-12 * (1.0 + k):
            raise ValueError(f"no simple root of det A within 1e-12 (1 + k) of k={k!r}")
        return x1


def refined_kernel(edges, coupled, sigma, k, rows):
    """Kernel rows of I - U(k) refined by inverse iteration at
    REFINE_DIGITS digits.

    The double-precision singular vectors of I - U(k) carry an error of
    about 1e-16 / s in the direction of each other singular vector with a
    small singular value s, so a root a short distance from another root
    blurs them.  Here I - U(k) is built at REFINE_DIGITS digits at k, a
    float or an mpmath number, and each of REFINE_STEPS steps solves it
    against the rows, then orthonormalizes them: every step scales the
    content along a neighbouring singular vector by the ratio of the
    kernel's singular value to the neighbour's.  At a float k that ratio
    is the rounding of k, about 1e-16, over the neighbour's, which leaves
    the rows leaning toward the neighbour by as much; ROOT_SHIFT (1 + k)
    above a root from refined_root it is that shift over theirs.  Returns
    the refined rows as a complex array.
    """
    size = len(rows[0])
    with mpmath.workdps(REFINE_DIGITS):
        a = mpmath.eye(size)
        for e_out, e_in, entry in unitary_entries(edges, coupled, sigma, mpmath.mpf(k), mpmath.exp):
            a[e_out, e_in] -= entry
        lu, pivots = mpmath.mp.LU_decomp(a)
        x = mpmath.matrix(np.asarray(rows).T.tolist())
        for _ in range(REFINE_STEPS):
            columns = [
                mpmath.mp.U_solve(lu, mpmath.mp.L_solve(lu, x.column(j), pivots))
                for j in range(x.cols)
            ]
            x, _ = mpmath.qr(
                mpmath.matrix([[c[i] for c in columns] for i in range(size)]), mode="skinny"
            )
        return np.array(x.T.tolist(), dtype=complex)


def exact_inertia_count(edges, num_vertices, coupled, sigma, k):
    """N(k) = sum_e floor(k l_e / pi) + n_+(M(k)) at the float k, with the
    vertex matrix M(k) built and decomposed at REFINE_DIGITS digits: the
    count the solver's double-precision inertia count must give wherever
    it claims margin."""
    with mpmath.workdps(REFINE_DIGITS):
        k = mpmath.mpf(k)
        m = mpmath.zeros(num_vertices, num_vertices)
        floors = 0
        for u, v, length in edges:
            x = k * mpmath.mpf(length)
            floors += int(mpmath.floor(x / mpmath.pi))
            if u == v:
                m[u, u] += 2 * k * mpmath.tan(x / 2)
                continue
            m[u, u] -= k * mpmath.cot(x)
            m[v, v] -= k * mpmath.cot(x)
            m[u, v] += k / mpmath.sin(x)
            m[v, u] += k / mpmath.sin(x)
        for v in coupled:
            m[v, v] -= mpmath.mpf(sigma)
        return floors + sum(1 for mu in mpmath.eigsy(m, eigvals_only=True) if mu > 0)


def gauged_kernel(edges, coupled, sigma, k, m):
    """Real eigenfunctions at a root k of multiplicity m as slot amplitudes,
    from the complex kernel of I - U(k): a copy of the memoized rows of
    _gauged_kernel.  The oracles of one spectrum ask for a simple root's
    rows twice (eigenspace_vertex_weight and simple_root_moments), and the
    extended-precision refinement is most of their cost."""
    return _gauged_kernel(tuple(edges), frozenset(coupled), float(sigma), float(k), int(m)).copy()


@lru_cache(maxsize=256)
def _gauged_kernel(edges, coupled, sigma, k, m):
    """Real eigenfunctions at a root k of multiplicity m as slot amplitudes,
    from the complex kernel of I - U(k).

    The kernel rows u are the conjugated right singular vectors of the m
    smallest singular values of I - U(k), refined at extended precision
    (refined_kernel) when the next singular value is below NEIGHBOUR_SV,
    next to the root itself (refined_root), refined on det A or, for
    multiplicity m, on its (m - 1)-th derivative; above it they are good
    to about 1e-12.  The conjugation
    (C a)_j = conj(a_rev(j)) exp(-ik l_j) maps the kernel onto itself and
    squares to the identity, so the 2m vectors u + Cu and i(u - Cu) are
    C-fixed.  Their real Gram matrix has eigenvalue 4 on the m combinations
    that span the kernel and 0 on the rest; its top m eigenvectors, scaled
    by 1 / sqrt(eigenvalue), give an orthonormal basis of C-fixed vectors,
    whose eigenfunctions a_e exp(ikx) + a_rev(e) exp(ik(l - x)) are real.
    Raises ValueError when a top eigenvalue is not above 3 (no real basis
    of dimension m).  Returns the m rows.
    """
    u = unitary_matrix(edges, coupled, sigma, k)
    n = len(u)
    _, sv, vh = np.linalg.svd(np.eye(n) - u)
    kernel = np.conj(vh[n - m :])
    if m < n and sv[n - m - 1] < NEIGHBOUR_SV:
        # a root of multiplicity m is a simple root of the (m - 1)-th
        # derivative of det A; ROOT_SHIFT off it I - U stays invertible at
        # REFINE_DIGITS
        with mpmath.workdps(REFINE_DIGITS):
            at = refined_root(edges, coupled, sigma, k, m - 1) + ROOT_SHIFT * (1.0 + k)
        kernel = refined_kernel(edges, coupled, sigma, at, kernel)
    lengths = np.repeat([length for _, _, length in edges], 2)
    flip = np.conj(kernel[:, np.arange(n) ^ 1]) * np.exp(-1j * k * lengths)
    fixed = np.concatenate([kernel + flip, 1j * (kernel - flip)])
    lam, w = np.linalg.eigh((fixed.conj() @ fixed.T).real)
    if lam[m] <= 3.0:
        raise ValueError(f"no real basis of dimension {m} at k={k!r}")
    return (w[:, m:].T @ fixed) / np.sqrt(lam[m:])[:, None]


def slot_l2_gram(edges, k, rows):
    """Real L2 inner products of the eigenfunctions with slot amplitude rows:
    per edge, l (a_e b_e* + a_rev b_rev*) + (sin kl / k)(a_e b_rev* + a_rev b_e*)."""
    gram = np.zeros((len(rows), len(rows)))
    for t, (_, _, length) in enumerate(edges):
        a, b = rows[:, 2 * t], rows[:, 2 * t + 1]
        cross = math.sin(k * length) / k
        gram += np.real(
            length * (np.outer(a, a.conj()) + np.outer(b, b.conj()))
            + cross * (np.outer(a, b.conj()) + np.outer(b, a.conj()))
        )
    return gram


def slot_vertex_values(edges, k, rows):
    """f(v) of real eigenfunctions with slot amplitude rows, as a dict over
    the vertices: 2 Re a_j for the first slot j out of v."""
    values = {}
    for t, (u, v, _) in enumerate(edges):
        values.setdefault(u, 2.0 * np.real(rows[:, 2 * t]))
        values.setdefault(v, 2.0 * np.real(rows[:, 2 * t + 1]))
    return values


def robin_vertex_values(edges, coupled, sigma, k, rows):
    """slot_vertex_values, but at a vertex coupled with sigma > k taken
    from its Robin condition as the sum of outward f'(v) over sigma.  There
    f(v) is a remainder of order k / sigma of the amplitudes, so 2 Re a_j
    carries their absolute rounding, about 1e-16, as a relative error of
    1e-16 sigma / k; the derivatives are of the amplitudes' own order and
    bring it in divided by sigma.  On edge t = (p, q, l), x running from p,
    the outward f'(p) is ik (a_2t - a_2t+1 exp(ikl)) and f'(q) is
    ik (a_2t+1 - a_2t exp(ikl))."""
    values = slot_vertex_values(edges, k, rows)
    if sigma <= k:
        return values
    outward = {v: 0.0 for v in coupled if v in values}
    for t, (p, q, length) in enumerate(edges):
        phase = cmath.exp(1j * k * length)
        a, b = rows[:, 2 * t], rows[:, 2 * t + 1]
        if p in outward:
            outward[p] = outward[p] + np.real(1j * k * (a - b * phase))
        if q in outward:
            outward[q] = outward[q] + np.real(1j * k * (b - a * phase))
    values.update({v: d / sigma for v, d in outward.items()})
    return values


def robin_residual(edges, coupled, sigma, k, a, v):
    """|sum of outward f'(v) - sigma_v f(v)| / ||f||_2 for the real
    eigenfunction with slot amplitudes a at wave number k: its defect in
    the vertex condition at v.  On edge t = (p, q, l), x running from p,
    f = a_2t exp(ikx) + a_2t+1 exp(ik(l - x)).  Raises ValueError for a
    vertex no edge touches, a negative one included."""
    values = slot_vertex_values(edges, k, a[None])
    if v not in values:
        raise ValueError(f"vertex {v} is not a graph vertex")
    outward = 0.0
    for t, (p, q, length) in enumerate(edges):
        phase = cmath.exp(1j * k * length)
        if p == v:
            outward += 1j * k * (a[2 * t] - a[2 * t + 1] * phase)
        if q == v:
            outward += 1j * k * (a[2 * t + 1] - a[2 * t] * phase)
    sigma_v = sigma if v in coupled else 0.0
    norm = math.sqrt(slot_l2_gram(edges, k, a[None])[0, 0])
    return abs(outward - sigma_v * values[v][0]) / norm


def eigenspace_vertex_weight(edges, coupled, sigma, vertices, k, m):
    """(1/m) trace over the eigenspace at k of sum_{v in vertices} f(v)^2
    for L2-normalized f: trace(G^-1 F) / m with G the L2 Gram matrix of
    any basis of gauged_kernel and F_ij = sum_v f_i(v) f_j(v)."""
    rows = gauged_kernel(edges, coupled, sigma, k, m)
    values = robin_vertex_values(edges, coupled, sigma, k, rows)
    f = np.array([values[v] for v in vertices]).reshape(len(vertices), m)
    gram = slot_l2_gram(edges, k, rows)
    return float(np.trace(np.linalg.solve(gram, f.T @ f))) / m


def simple_root_moments(edges, coupled, sigma, ks, num_vertices):
    """Means over simple roots ks of the normalized f(v)^2 per vertex, of
    |a_j|^2 and of a_i conj(a_j), the slot amplitudes scaled so that
    sum_e l_e (|a_e|^2 + |a_rev|^2) = 1.  Returns (vertex means, slot
    means, |cross| matrix)."""
    vertex, cross = np.zeros(num_vertices), 0.0
    lengths = np.repeat([length for _, _, length in edges], 2)
    for k in ks:
        rows = gauged_kernel(edges, coupled, sigma, k, 1)
        norm = slot_l2_gram(edges, k, rows)[0, 0]
        values = robin_vertex_values(edges, coupled, sigma, k, rows)
        vertex += np.array([values[v][0] ** 2 for v in range(num_vertices)]) / norm
        scaled = rows[0] / math.sqrt(np.sum(lengths * np.abs(rows[0]) ** 2))
        cross = cross + np.outer(scaled, scaled.conj())
    cross = cross / len(ks)
    return vertex / len(ks), np.real(np.diag(cross)), np.abs(cross)


def robin_star_sensitivity(lengths, k):
    """d lambda / d sigma of a star coupled at the center, Neumann leaves.

    On edge j (center at x = 0) f = A_j cos(k (l_j - x)); continuity at
    the center gives A_j = f(0) / cos(k l_j), so the normalized
    f(0)^2 = 1 / sum_j (l_j / 2 + sin(2 k l_j) / (4 k)) / cos(k l_j)^2.
    Valid at simple eigenvalues where no cos(k l_j) vanishes.
    """
    return 1.0 / sum(
        (length / 2.0 + math.sin(2.0 * k * length) / (4.0 * k))
        / math.cos(k * length) ** 2
        for length in lengths
    )


def vertex_projectors(basis):
    """sum over the rows of each record of an eigenbasis of f(u) f(v): the
    projector of the record's eigenspace on the vertex values, the same for
    every L2-orthonormal basis of it."""
    values, size = basis.vertex_values, len(basis.spectrum.k)
    out = np.zeros((size, values.shape[1], values.shape[1]))
    np.add.at(out, basis.record, values[:, :, None] * values[:, None, :])
    return out


def quadrature_norm_sq(edges, k):
    """Numerical L2 norm squared of sum-of-plane-waves edge data.

    edges: iterable of (length, a, b) with the restriction to the edge
    being a*exp(ikx) + b*exp(ik(length - x)).  Adaptive quadrature on
    |f|^2, accurate to ~1e-12 absolute per edge.
    """
    total = 0.0
    for length, a, b in edges:
        def density(x):
            f = a * np.exp(1j * k * x) + b * np.exp(1j * k * (length - x))
            return abs(f) ** 2

        val, _ = quad(density, 0.0, length, epsabs=1e-13, epsrel=1e-13, limit=300)
        total += val
    return total


def min_integer_relation(values, bound=10, chunk=2_000_000):
    """Smallest |sum c_i * values_i| over nonzero integer vectors |c_i| <= bound.

    Exhaustive over the (2*bound+1)^len lattice, evaluated in chunks.  A true
    rational dependence would show up as a value at rounding-noise scale.
    """
    values = np.asarray(values, dtype=float)
    n = len(values)
    coeffs = np.arange(-bound, bound + 1, dtype=float)
    radix = len(coeffs)
    total = radix ** n
    # linear index of the all-zero coefficient vector (digit `bound` in every slot)
    zero_index = sum(bound * radix ** i for i in range(n))
    best = math.inf
    for start in range(0, total, chunk):
        idx = np.arange(start, min(start + chunk, total))
        acc = np.zeros(len(idx))
        rest = idx
        for i in range(n):
            rest, digit = np.divmod(rest, radix)
            acc += coeffs[digit] * values[i]
        mags = np.abs(acc)
        mags[idx == zero_index] = math.inf
        best = min(best, float(mags.min()))
    return best
