"""Independent reference computations used to pin expected test values.

Everything in this module is derived from scalar closed forms or
one-dimensional bisection on transcendental equations.  Nothing imports
the package under test, so agreement between the two is meaningful.
"""
from __future__ import annotations

import cmath
import math
from collections import Counter

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


def unitary_matrix(edges, coupled, sigma, k):
    """U(k) = S(k) exp(ikL) over directed slots, built entry by entry.

    edges: (u, v, length) triples; slot 2t runs u -> v along edge t and
    slot 2t + 1 runs back.  Entry [e_out, e_in] scatters e_in, which ends
    at a vertex, into e_out, which starts there, after e_in's propagation
    phase exp(ik length).  coupled vertices carry coupling sigma.
    """
    slots = []
    for u, v, length in edges:
        slots.extend([(u, v, length), (v, u, length)])
    degree = Counter(start for start, _, _ in slots)
    out = np.zeros((len(slots), len(slots)), dtype=complex)
    for e_in, (_, vertex, length) in enumerate(slots):
        s = sigma if vertex in coupled else 0.0
        for e_out, (start, _, _) in enumerate(slots):
            if start == vertex:
                entry = vertex_scattering_entry(degree[vertex], s, k, e_out == e_in ^ 1)
                out[e_out, e_in] = entry * cmath.exp(1j * k * length)
    return out


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
