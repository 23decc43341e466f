"""Self-consistency checks for the reference oracles, with frozen values.

These run before (and independently of) the package: they validate the
oracles that later pin the package's expected outputs.
"""
from __future__ import annotations

import math

import mpmath
import numpy as np
import pytest
from scipy.optimize import brentq

from oracles import (
    REFINE_DIGITS,
    bisect,
    equilateral_star_gaps,
    equilateral_star_wavenumbers,
    gauged_kernel,
    interval_neumann_wavenumbers,
    interval_robin_wavenumbers,
    min_integer_relation,
    quadrature_norm_sq,
    refined_root,
    slot_l2_gram,
)

# Frozen roots of k*tan(k) = sigma, first branch, length 1.
FROZEN_ROBIN_K1 = {
    0.5: 0.6532711870944031,
    1.0: 0.8603335890193797,
    4.5: 1.2913410310442848,
}

# First two nonzero index-paired gaps of the equilateral 4-star at sigma=2.
FROZEN_STAR_GAP_1 = 0.4267632438877307
FROZEN_STAR_GAP_5 = 0.9697008751450937

SQRT_HALF_PRIMES = [1.0, 1.224744871391589, 1.5811388300841898,
                    1.8708286933869707, 2.3452078799117149, 2.5495097567963922]


def test_refined_root_is_the_root_at_full_precision():
    # k sin k = cos k, the Robin interval at sigma 1, solved by mpmath
    # at REFINE_DIGITS digits
    edges, coupled = [(0, 1, 1.0)], frozenset({1})
    with mpmath.workdps(REFINE_DIGITS):
        want = mpmath.findroot(lambda k: k * mpmath.sin(k) - mpmath.cos(k), 0.86)
        got = refined_root(edges, coupled, 1.0, FROZEN_ROBIN_K1[1.0])
        assert abs(got - want) < mpmath.mpf(10) ** (5 - REFINE_DIGITS)
    with pytest.raises(ValueError, match="no simple root"):
        refined_root(edges, coupled, 1.0, 2.0)


def test_refined_double_root_kernel_is_the_eigenspace():
    # the 4-star of leaves 1, 1, 1 and 1 + 2.3e-12, Neumann: at pi / 2 a
    # double root, f = B_t sin kx on the unit leaves with sum_t B_t = 0,
    # 2.7e-12 below a simple one.  Refined on the derivative of det A, the
    # oracle's kernel is that eigenspace to rounding; at the float k it
    # leant 6.5e-13 toward the simple root's
    edges = [(0, 1, 1.0), (0, 2, 1.0), (0, 3, 1.0), (0, 4, 1.0 + 2.3e-12)]
    k = 1.570796326794897
    with mpmath.workdps(REFINE_DIGITS):
        got = refined_root(edges, frozenset(), 0.0, k, 1)
        assert abs(got - mpmath.pi / 2) < mpmath.mpf(10) ** (5 - REFINE_DIGITS)
    b = np.array([[1.0, -1.0, 0.0, 0.0], [1.0, 1.0, -2.0, 0.0]])
    lengths = np.array([length for _, _, length in edges])
    exact = np.zeros((2, 8), dtype=complex)
    exact[:, 0::2], exact[:, 1::2] = b / 2j, -b * np.exp(-1j * k * lengths) / 2j
    rows = gauged_kernel(edges, frozenset(), 0.0, k, 2)
    got, want = (r.T @ np.linalg.solve(slot_l2_gram(edges, k, r), r.conj()) for r in (rows, exact))
    assert np.max(np.abs(got - want)) < 1e-14


def test_bisect_finds_simple_root():
    root = bisect(lambda x: x * x - 2.0, 0.0, 2.0)
    assert abs(root - math.sqrt(2.0)) < 1e-14


def test_bisect_rejects_unbracketed():
    with pytest.raises(ValueError):
        bisect(lambda x: x * x + 1.0, -1.0, 1.0)


def test_interval_neumann_closed_form():
    ks = interval_neumann_wavenumbers(math.pi, 5)
    assert np.allclose(ks, [0, 1, 2, 3, 4], atol=0, rtol=0)


@pytest.mark.parametrize("sigma", [0.5, 1.0, 4.5])
def test_interval_robin_roots_frozen_and_residual(sigma):
    ks = interval_robin_wavenumbers(1.0, sigma, 50)
    assert abs(ks[0] - FROZEN_ROBIN_K1[sigma]) < 5e-15
    # each root actually solves k sin k = sigma cos k
    res = ks * np.sin(ks) - sigma * np.cos(ks)
    assert np.max(np.abs(res)) < 1e-10 * (1 + ks[-1])
    # roots sit on their branches and are strictly increasing
    assert np.all(np.diff(ks) > 1.0)
    branches = np.floor(ks / math.pi)
    assert np.array_equal(branches, np.arange(50))


def test_interval_robin_matches_brentq():
    for sigma in (0.5, 4.5):
        ours = interval_robin_wavenumbers(1.0, sigma, 10)
        for n, k in enumerate(ours):
            lo = n * math.pi + 1e-13
            hi = (n + 0.5) * math.pi - 1e-13
            sign = -1.0 if n % 2 else 1.0
            ref = brentq(
                lambda x: sign * (x * math.sin(x) - sigma * math.cos(x)),
                lo, hi, xtol=1e-15, rtol=8.9e-16,
            )
            assert abs(k - ref) < 5e-14 * (1 + ref)


def test_equilateral_star_neumann_structure():
    # degree 4, length 1: k = 0, then (m+1/2)pi with multiplicity 3
    # interleaved with simple m*pi.
    ks = equilateral_star_wavenumbers(4, 1.0, 0.0, 9)
    expected = [0.0, math.pi / 2, math.pi / 2, math.pi / 2, math.pi,
                1.5 * math.pi, 1.5 * math.pi, 1.5 * math.pi, 2 * math.pi]
    assert np.allclose(ks, expected, atol=1e-14, rtol=0)


def test_equilateral_star_gap_pattern():
    gaps = equilateral_star_gaps(4, 1.0, 2.0, 2000)
    # nonzero exactly at indices 1, 5, 9, ... (1-based: 4m+1)
    nonzero = gaps[0::4]
    zero = np.concatenate([gaps[1::4], gaps[2::4], gaps[3::4]])
    assert np.max(np.abs(zero)) < 1e-12
    assert abs(nonzero[0] - FROZEN_STAR_GAP_1) < 1e-12
    assert abs(nonzero[1] - FROZEN_STAR_GAP_5) < 1e-12
    # increases toward sigma/2 and never reaches it
    assert np.all(np.diff(nonzero[:100]) > 0)
    assert np.all(nonzero < 1.0)
    assert nonzero[-1] > 1.0 - 1e-5


def test_equilateral_star_cluster_structure_at_1e8():
    # the nonzero gaps keep >1e-8 spacing up to m ~ 189, then chain together:
    # single-linkage at tol 1e-8 gives ~190 nonzero clusters, not a handful
    gaps = equilateral_star_gaps(4, 1.0, 2.0, 2000)
    nonzero = np.sort(gaps[0::4])
    splits = np.sum(np.diff(nonzero) >= 1e-8)
    assert 150 <= splits + 1 <= 230


def test_quadrature_norm_cosine():
    # cos(x) on [0, pi]: a = 1/2, b = -1/2, k = 1; integral of cos^2 is pi/2
    val = quadrature_norm_sq([(math.pi, 0.5, -0.5)], 1.0)
    assert abs(val - math.pi / 2) < 1e-11


def test_quadrature_norm_two_edges():
    # piecewise constants: k -> 0 limit is not used; pick k=2, pure a-wave:
    # |a e^{2ix}|^2 = |a|^2, length-weighted sum
    val = quadrature_norm_sq([(1.0, 1.0, 0.0), (2.0, 0.0, 0.5j)], 2.0)
    assert abs(val - (1.0 + 2.0 * 0.25)) < 1e-11


def test_sqrt_prime_lengths_frozen_sums():
    assert abs(sum(SQRT_HALF_PRIMES[:4]) - 5.676712394862749) < 1e-14
    assert abs(sum(SQRT_HALF_PRIMES) - 10.571430031570856) < 1e-13


def test_min_integer_relation_detects_dependence():
    assert min_integer_relation([1.0, 0.5, 2.0], bound=4) == 0.0


def test_min_integer_relation_independent_triple():
    vals = SQRT_HALF_PRIMES[:3]
    assert min_integer_relation(vals, bound=10) > 1e-12
