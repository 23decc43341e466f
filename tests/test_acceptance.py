"""Acceptance gate: end-to-end checks at fixed tolerances.

Each test states its tolerance inline.  Shared spectra come from the
session cache fixture, and the heavy star/tetrahedron series are
requested here first so the stated runtime budgets cover real work.

Section 10 checks the accumulation set {0, 2 sigma/deg(0)} of the gap
sequence on the equilateral star, derived from its closed-form spectrum
(see ``equilateral_star_wavenumbers`` in ``tests/oracles.py``): a finite
sample is judged by which clusters keep a positive share of the gaps,
not by how many clusters it splits into.
"""
from __future__ import annotations

import time

import numpy as np
import pytest

from graphspectra.bounds import (
    check_all,
    gap_bound,
    sensitivity_bound,
    shortest_edge_bound,
)
from graphspectra.eigenfunctions import sensitivity
from graphspectra.graphs import (
    RobinSpec,
    boundary_star_decomposition,
    make_complete4,
    make_star,
)
from graphspectra.solver import compute_spectrum
from graphspectra.stats import (
    accumulation_clusters,
    arctan_prediction,
    running_average,
    theoretical_mean,
    weyl_moments,
)

from builders import incommensurate_lengths, midpoint_star_decomposition
from fd import discretize, oracle_eigenvalues
from oracles import interval_robin_wavenumbers

SIGMA_GRID = tuple(0.5 * i for i in range(9))  # 0, 0.5, ..., 4


# 1. interval exactness ------------------------------------------------------

def test_interval_exactness(pi_interval):
    start = time.perf_counter()
    spectrum = compute_spectrum(pi_interval, RobinSpec.neumann(), n_max=100)
    elapsed = time.perf_counter() - start
    lams = spectrum.eigenvalues(100)
    expected = np.arange(100.0) ** 2
    assert np.max(np.abs(lams - expected)) <= 1e-10
    assert elapsed < 1.0


# 2. Robin interval oracle ---------------------------------------------------

def test_robin_interval_oracle(unit_interval):
    start = time.perf_counter()
    for sigma in (0.5, 1.0, 4.5):
        spectrum = compute_spectrum(
            unit_interval, RobinSpec(frozenset([0]), sigma), n_max=50
        )
        expected = interval_robin_wavenumbers(1.0, sigma, 50)
        assert np.max(np.abs(spectrum.wavenumbers(50) - expected)) <= 1e-10
    assert time.perf_counter() - start < 5.0


# 3. FD cross-validation -----------------------------------------------------

def _fd_clusters(values, rel=1e-3):
    values = np.sort(values)
    sizes = [1]
    for a, b in zip(values, values[1:]):
        if b - a <= rel * (1.0 + abs(b)):
            sizes[-1] += 1
        else:
            sizes.append(1)
    return sizes


def _solver_clusters(spectrum, count):
    ks = spectrum.wavenumbers(count)
    _, sizes = np.unique(ks, return_counts=True)
    return sorted(sizes.tolist()), ks


def _cross_validate(graph, robin, points_per_edge):
    spectrum = compute_spectrum(graph, robin, n_max=20)
    lams = spectrum.eigenvalues(20)
    op = discretize(graph, robin, points_per_edge)
    fd = np.asarray(oracle_eigenvalues(op, 20, richardson=True))
    assert np.max(np.abs(lams - fd) / (1.0 + np.abs(lams))) <= 1e-4
    solver_sizes, ks = _solver_clusters(spectrum, 20)
    # identical wave numbers within a record stay bit-identical, so the
    # same truncation rule applies to both cluster readings
    assert sorted(_fd_clusters(fd)) == solver_sizes, (fd, ks)


def test_fd_cross_validation():
    start = time.perf_counter()
    star = make_star(4, incommensurate_lengths(4))
    tetra = make_complete4([1.0] * 6)
    for sigma in (0.0, 2.0):
        _cross_validate(star, RobinSpec(frozenset([0]), sigma), 256)
        _cross_validate(tetra, RobinSpec(frozenset(range(4)), sigma), 256)
    assert time.perf_counter() - start < 120.0


# 4. coupling-derivative identity against central differences ----------------

def test_hadamard_identity(star4, get_spectrum):
    sigma, h = 2.0, 1e-4
    spectrum = get_spectrum(star4, (0,), sigma, 60)
    upper = compute_spectrum(star4, RobinSpec(frozenset([0]), sigma + h), n_max=60)
    lower = compute_spectrum(star4, RobinSpec(frozenset([0]), sigma - h), n_max=60)
    diff = (upper.eigenvalues(60) - lower.eigenvalues(60)) / (2.0 * h)
    # the first 50 simple eigenvalues
    simple = spectrum.index[spectrum.multiplicity == 1][:50]
    assert simple.size == 50
    got = sensitivity(spectrum, simple)
    assert not np.any(got.degenerate)
    assert got.value == pytest.approx(diff[simple - 1], rel=1e-4)


# 5. star mean convergence ---------------------------------------------------

def test_star_mean_convergence(star4, gap_series):
    start = time.perf_counter()
    series = gap_series(star4, (0,), 2.0, 2500)
    elapsed = time.perf_counter() - start
    limit = theoretical_mean(star4, RobinSpec(frozenset([0]), 2.0))
    assert limit == pytest.approx(2.0 / (2.0 * star4.total_length))
    full = np.mean(series.gaps)
    assert abs(full - limit) / limit <= 0.05
    short = float(np.mean(series.gaps[:500]))
    assert abs(full - limit) < abs(short - limit)
    assert elapsed < 300.0


# 6. tetrahedron mean --------------------------------------------------------

def test_tetrahedron_mean(tetrahedron, gap_series):
    series = gap_series(tetrahedron, tuple(range(4)), 2.0, 5000)
    limit = (8.0 / 3.0) * 2.0 / tetrahedron.total_length
    robin = RobinSpec(frozenset(range(4)), 2.0)
    assert theoretical_mean(tetrahedron, robin) == pytest.approx(limit)
    assert abs(np.mean(series.gaps) - limit) / limit <= 0.05


# 7. bounds never violated ---------------------------------------------------

def test_bounds_never_violated_star(star4, gap_series):
    robin = RobinSpec(frozenset([0]), 2.0)
    series = gap_series(star4, (0,), 2.0, 2500)
    decomp = boundary_star_decomposition(star4, robin)
    for report in check_all(series, decomp):
        assert report.ok, (report.name, report.violations[:10])
    assert np.all(series.gaps < shortest_edge_bound(star4, robin))
    assert np.all(series.gaps < gap_bound(decomp, robin))


def test_bounds_never_violated_tetrahedron(tetrahedron, gap_series):
    robin = RobinSpec(frozenset(range(4)), 2.0)
    series = gap_series(tetrahedron, tuple(range(4)), 2.0, 5000)
    decomp = midpoint_star_decomposition(tetrahedron)
    for report in check_all(series, decomp):
        assert report.ok, (report.name, report.violations[:10])


def test_sensitivity_bound_never_violated(star4, tetrahedron, get_spectrum):
    cases = (
        (star4, frozenset([0]), 2500),
        (tetrahedron, frozenset(range(4)), 5000),
    )
    for graph, verts, n in cases:
        robin = RobinSpec(verts, 2.0)
        spectrum = get_spectrum(graph, tuple(verts), 2.0, n)
        decomp = boundary_star_decomposition(graph, robin)
        lams = spectrum.eigenvalues(n)
        bounds = sensitivity_bound(decomp, robin, lams)
        # one batched call over the simple records among the first n,
        # the first of each wave number
        simple = (spectrum.multiplicity == 1) & (spectrum.index <= n)
        _, first = np.unique(spectrum.k[simple], return_index=True)
        index = spectrum.index[simple][first]
        value = sensitivity(spectrum, index).value
        bound = bounds[index - 1]
        below = value < bound + 1e-10 * (1.0 + bound)
        assert np.all(below), index[~below]


# 8. interlacing and spectral shift ------------------------------------------

def test_interlacing_and_spectral_shift(star4, get_spectrum):
    n = 2000
    neumann = get_spectrum(star4, (), 0.0, n + 1)
    robin = get_spectrum(star4, (0,), 2.0, n)
    k0 = neumann.wavenumbers(n + 1)
    k1 = robin.wavenumbers(n)
    slack = 1e-9 * (1.0 + k0[:n])
    assert np.all(k0[:n] <= k1 + slack)
    assert np.all(k1 < k0[1:] + slack)

    rng = np.random.default_rng(20260817)
    cap = min(neumann.k_cap, robin.k_cap)
    ks = rng.uniform(0.0, cap, size=1000)
    # N(k, 0) - N(k, sigma), each N(k) counting the eigenvalues up to k
    shift = np.searchsorted(neumann.wavenumbers(), ks, side="right") - np.searchsorted(
        robin.wavenumbers(), ks, side="right"
    )
    assert set(shift) <= {0, 1}


# 9. local Weyl law ----------------------------------------------------------

def test_local_weyl_law(star4, get_spectrum):
    n = 2000
    report = weyl_moments(get_spectrum(star4, (0,), 2.0, n), n)
    assert report.skipped == 0
    total = star4.total_length
    for v in range(star4.num_vertices):
        predicted = 2.0 / (star4.degrees[v] * total)
        assert abs(report.vertex_means[v] - predicted) <= 0.05 * predicted, v
    slot_scale = 1.0 / (2.0 * total)
    assert np.max(np.abs(report.slot_means - slot_scale)) <= 0.05 * slot_scale
    off = report.cross_matrix.copy()
    np.fill_diagonal(off, 0.0)
    assert np.max(np.abs(off)) <= 0.05 * slot_scale


# 10. rational-lengths degeneration ------------------------------------------

# The equilateral star (edge length 1, Robin sigma at the center) has
# gaps 0 on the three center-vanishing branches and, on the symmetric
# branch (an interval with coupling s = sigma/deg), d = 2s - c/m^2 + O(m^-4)
# with c = (s^2 + 2s^3/3)/pi^2 ~ 0.034.  So the accumulation points are 0
# (share 3/4) and 2 sigma/deg(0) (share 1/4); sorted nonzero gaps are
# spaced ~2c/m^3, and every m below (2c/tol)^(1/3) stays a singleton.
EQ_SIGMA = 2.0
EQ_N = 2000
MAJOR_SHARE = 0.05  # a cluster with a positive limiting share holds >= 5%


def _equilateral_limit(graph):
    return 2.0 * EQ_SIGMA / graph.degrees[0]


def _major(clusters, n):
    return [(value, c) for value, c in clusters if c >= MAJOR_SHARE * n]


def test_equilateral_gap_cluster_count(equilateral_star, gap_series):
    half, full = (
        accumulation_clusters(
            gap_series(equilateral_star, (0,), EQ_SIGMA, n), tol=1e-8
        )
        for n in (EQ_N // 2, EQ_N)
    )
    # the transient trail has fixed length at fixed tol, later gaps join
    # existing clusters: the count saturates instead of growing with n
    assert len(half) == len(full), (
        f"cluster counts {len(half)}, {len(full)} at n = N/2, N"
    )
    major = _major(full, EQ_N)
    assert len(major) == 2, f"major clusters {major}"
    assert abs(major[0][0]) < 1e-6
    assert abs(major[1][0] - _equilateral_limit(equilateral_star)) < 1e-5


def test_equilateral_zero_gap_frequency(equilateral_star, gap_series):
    series = gap_series(equilateral_star, (0,), 2.0, 2000)
    clusters = accumulation_clusters(series, tol=1e-8)
    zero_count = sum(c for value, c in clusters if abs(value) < 1e-6)
    assert zero_count / 2000 == pytest.approx(0.75, abs=0.02)


def test_equilateral_nonzero_accumulation_count(equilateral_star, gap_series):
    series = gap_series(equilateral_star, (0,), EQ_SIGMA, EQ_N)
    clusters = accumulation_clusters(series)
    nonzero = [(value, c) for value, c in clusters if value > 1e-3]
    major = _major(nonzero, EQ_N)
    assert len(major) == 1, f"major nonzero clusters {major}"
    value, count = major[0]
    assert abs(value - _equilateral_limit(equilateral_star)) < 1e-4
    assert count / EQ_N == pytest.approx(0.25, abs=0.02)
    # the rest is the trail of early symmetric-branch gaps below the limit
    trail = [(v, c) for v, c in nonzero if (v, c) != major[0]]
    assert all(c == 1 and v < value for v, c in trail), f"trail {trail[:5]}..."


# 11. running average against the pointwise prediction -----------------------

def test_running_average_tracks_prediction(star4, gap_series):
    series = gap_series(star4, (0,), 2.0, 2500)
    averaged = running_average(series.gaps, 21)
    predicted = arctan_prediction(star4, series.robin, series.k_neumann)
    window = slice(49, 2500)
    rel = (averaged[window] - predicted[window]) / predicted[window]
    rms = float(np.sqrt(np.mean(rel**2)))
    assert rms <= 0.10, f"RMS relative deviation {rms:.4f}"


# 12. slope of the lowest eigenvalue -----------------------------------------

def _lowest_slope(graph, vertices, h=1e-3):
    def lam1(sigma):
        spectrum = compute_spectrum(
            graph, RobinSpec(frozenset(vertices), sigma), n_max=1
        )
        return float(spectrum.eigenvalues(1)[0])

    # lam1(0) = 0, so 4 lam1(h/2) - lam1(h) = s h + O(h^3)
    return (4.0 * lam1(h / 2.0) - lam1(h)) / h


def test_lowest_eigenvalue_slope(unit_interval, star4, tetrahedron):
    for graph, vertices in (
        (unit_interval, (0,)),
        (star4, (0,)),
        (tetrahedron, tuple(range(4))),
    ):
        expected = len(vertices) / graph.total_length
        got = _lowest_slope(graph, vertices)
        assert got == pytest.approx(expected, rel=1e-3), graph


# 13. Lipschitz audit --------------------------------------------------------

def _lipschitz(spectra, n):
    """Largest difference quotient |d_n(s1) - d_n(s2)| / |s1 - s2| over the
    pairs of the spectra's couplings and the indices up to n."""
    sigmas = [spec.robin.sigma for spec in spectra]
    lams = [spec.eigenvalues(n) for spec in spectra]
    return max(
        np.max(np.abs(lams[j] - lams[i])) / abs(sigmas[j] - sigmas[i])
        for i in range(len(spectra))
        for j in range(i + 1, len(spectra))
    )


def test_lipschitz_audit_star(star4, get_spectrum):
    robin = RobinSpec(frozenset([0]), 1.0)
    decomp = boundary_star_decomposition(star4, robin)
    spectra = [get_spectrum(star4, (0,) if s else (), s, 1000) for s in SIGMA_GRID]
    worst = _lipschitz(spectra, 1000)
    ceiling = 2.0 / decomp.star_lengths[0]
    assert worst <= ceiling + 1e-10 * (1.0 + ceiling), (worst, ceiling)


def test_lipschitz_audit_tetrahedron(tetrahedron, get_spectrum):
    verts = tuple(range(4))
    decomp = midpoint_star_decomposition(tetrahedron)
    spectra = [
        get_spectrum(tetrahedron, verts if s else (), s, 1000) for s in SIGMA_GRID
    ]
    worst = _lipschitz(spectra, 1000)
    ceiling = 2.0 / min(decomp.star_lengths[list(verts)])
    assert worst <= ceiling + 1e-10 * (1.0 + ceiling), (worst, ceiling)
