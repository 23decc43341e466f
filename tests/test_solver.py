"""Eigenvalue solver: counting, refinement, multiplicity, homotopy."""
from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphspectra import solver
from graphspectra.errors import OutOfScannedRange, ToleranceNotMet
from graphspectra.graphs import (
    RobinSpec,
    build_graph,
    incommensurate_lengths,
    make_star,
    make_complete4,
)
from graphspectra.solver import (
    _stop_width,
    compute_spectrum,
    counting_function,
    spectral_shift,
)
from graphspectra.stats import robin_homotopy
from oracles import interval_robin_wavenumbers

NEUMANN = RobinSpec.neumann()


def test_interval_neumann_exact(pi_interval):
    spec = compute_spectrum(pi_interval, NEUMANN, n_max=30)
    ks = spec.wavenumbers(30)
    assert np.max(np.abs(ks - np.arange(30))) < 1e-12
    assert spec.k[0] == 0.0 and spec.multiplicity[0] == 1


def test_interval_robin_matches_oracle(unit_interval):
    for sigma in (0.5, 1.0, 4.5):
        spec = compute_spectrum(unit_interval, RobinSpec(frozenset({0}), sigma), n_max=25)
        oracle = interval_robin_wavenumbers(1.0, sigma, 25)
        assert np.max(np.abs(spec.wavenumbers(25) - oracle)) < 1e-12


def test_no_zero_mode_for_positive_sigma(unit_interval):
    spec = compute_spectrum(unit_interval, RobinSpec(frozenset({0}), 1.0), n_max=5)
    assert spec.wavenumbers()[0] > 0.0


def test_equilateral_star_multiplicities(equilateral_star):
    spec = compute_spectrum(equilateral_star, NEUMANN, n_max=17)
    got = list(zip(spec.index[:5], spec.k[:5], spec.multiplicity[:5]))
    want = [
        (1, 0.0, 1),
        (2, math.pi / 2.0, 3),
        (5, math.pi, 1),
        (6, 3.0 * math.pi / 2.0, 3),
        (9, 2.0 * math.pi, 1),
    ]
    for (gi, gk, gm), (wi, wk, wm) in zip(got, want):
        assert gi == wi and gm == wm
        assert gk == pytest.approx(wk, abs=1e-12)


def test_robin_center_keeps_degenerate_triples(equilateral_star):
    spec = compute_spectrum(equilateral_star, RobinSpec(frozenset({0}), 2.0), n_max=20)
    # center-vanishing states never feel the coupling at the center
    triples = spec.k[spec.multiplicity == 3]
    assert abs(triples[0] - math.pi / 2.0) < 1e-12
    assert abs(triples[1] - 3.0 * math.pi / 2.0) < 1e-12
    # the symmetric branch solves k tan(k) = sigma/4 on the unit edge
    simple = spec.k[spec.multiplicity == 1]
    want = interval_robin_wavenumbers(1.0, 0.5, simple.size)
    assert np.max(np.abs(simple - want)) < 1e-12


def test_index_bookkeeping(star4):
    spec = compute_spectrum(star4, RobinSpec(frozenset({0}), 2.0), n_max=40)
    assert spec.size >= 40
    expect = 1
    for index, multiplicity in zip(spec.index, spec.multiplicity):
        assert index == expect
        expect += multiplicity
    ks = spec.wavenumbers()
    assert np.all(np.diff(ks) >= 0.0)
    assert spec.eigenvalues()[3] == pytest.approx(ks[3] ** 2)


def test_spectrum_arrays_are_read_only(star4):
    spec = compute_spectrum(star4, RobinSpec(frozenset({0}), 2.0), n_max=10)
    for column in (spec.index, spec.k, spec.multiplicity):
        with pytest.raises(ValueError):
            column[0] = 0


def test_kmax_mode(star4):
    spec = compute_spectrum(star4, NEUMANN, k_max=20.0)
    assert spec.k_cap == 20.0
    ks = spec.wavenumbers()
    assert np.all(ks <= 20.0)
    assert counting_function(spec, 20.0) == spec.size
    # Weyl density: N(k) ~ k |G| / pi
    assert spec.size == pytest.approx(20.0 * star4.total_length / math.pi, abs=8)


def test_target_validation(unit_interval):
    with pytest.raises(ValueError):
        compute_spectrum(unit_interval, NEUMANN)
    with pytest.raises(ValueError):
        compute_spectrum(unit_interval, NEUMANN, n_max=5, k_max=3.0)
    with pytest.raises(ValueError):
        compute_spectrum(unit_interval, NEUMANN, n_max=0)
    with pytest.raises(ValueError):
        compute_spectrum(unit_interval, NEUMANN, k_max=-1.0)
    for k_max in (math.inf, math.nan):
        with pytest.raises(ValueError, match="k_max must be finite"):
            compute_spectrum(unit_interval, NEUMANN, k_max=k_max)
    for tol in (math.inf, math.nan, -1e-6, 0.0):
        with pytest.raises(ValueError, match="tol must be finite"):
            compute_spectrum(unit_interval, NEUMANN, n_max=5, tol=tol)


def test_counting_function(pi_interval):
    spec = compute_spectrum(pi_interval, NEUMANN, n_max=10)
    assert counting_function(spec, 2.5) == 3  # k = 0, 1, 2
    k3 = float(spec.wavenumbers()[2])
    # the reported root is within half a stop width of 2, not exactly 2
    assert abs(k3 - 2.0) <= _stop_width(np.asarray(k3), None)
    assert counting_function(spec, k3) == 3  # boundary included
    assert counting_function(spec, 0.5) == 1
    with pytest.raises(OutOfScannedRange):
        counting_function(spec, spec.k_cap + 1.0)


def test_spectral_shift_values(star4):
    s0 = compute_spectrum(star4, NEUMANN, n_max=120)
    s2 = compute_spectrum(star4, RobinSpec(frozenset({0}), 2.0), n_max=120)
    cap = min(s0.k_cap, s2.k_cap)
    assert spectral_shift(s0, s0, 10.0) == 0
    assert spectral_shift(s0, s2, 0.2) == 1  # zero mode counted on one side only
    rng = np.random.default_rng(11)
    for k in rng.uniform(0.1, cap, 200):
        assert spectral_shift(s0, s2, float(k)) in (0, 1)


def test_interlacing_single_robin_vertex(star4):
    s0 = compute_spectrum(star4, NEUMANN, n_max=150)
    s2 = compute_spectrum(star4, RobinSpec(frozenset({0}), 2.0), n_max=150)
    k0, k2 = s0.wavenumbers(150), s2.wavenumbers(150)
    slack = 1e-12 * (1.0 + k0)
    assert np.all(k0 <= k2 + slack)
    assert np.all(k2[:-1] < k0[1:] + slack[1:])


def test_step_scale_invariance(star4, monkeypatch):
    # the certified roots do not depend on the scan grid
    robin = RobinSpec(frozenset({0}), 2.0)
    ka = compute_spectrum(star4, robin, n_max=60).wavenumbers(60)
    step = solver.SCAN_PHASE_STEP
    for scale in (0.5, 2.0):
        monkeypatch.setattr(solver, "SCAN_PHASE_STEP", step * scale)
        kb = compute_spectrum(star4, robin, n_max=60).wavenumbers(60)
        assert np.max(np.abs(ka - kb)) < 1e-11


def test_scan_short_of_n_max_raises(star4, monkeypatch):
    # a scan that certifies fewer than n_max roots raises, not extends
    inertia_counts = solver._inertia_counts

    def lower_quarter(graph, robin, ks):
        # N flat above the lowest quarter: those cells count zero
        n, ok = inertia_counts(graph, robin, ks)
        n[n.size // 4 :] = n[n.size // 4]
        return n, ok

    monkeypatch.setattr(solver, "_inertia_counts", lower_quarter)
    with pytest.raises(ToleranceNotMet, match="winding bound") as raised:
        compute_spectrum(star4, RobinSpec(frozenset({0}), 2.0), n_max=60)
    # wave numbers print as plain floats, not as numpy scalar reprs
    assert "np.float64" not in str(raised.value)


def test_loose_tolerance_still_brackets(unit_interval):
    robin = RobinSpec(frozenset({0}), 1.0)
    spec = compute_spectrum(unit_interval, robin, n_max=10, tol=1e-6)
    oracle = interval_robin_wavenumbers(1.0, 1.0, 10)
    err = np.abs(spec.wavenumbers(10) - oracle)
    assert np.all(err <= 1e-6 * (1.0 + oracle))
    assert err.max() > 1e-13  # actually looser than the default stop


def _homotopy(graph, vertices, sigma, n, t_steps):
    """robin_homotopy over spectra at couplings sigma j / t_steps, j = 0..t_steps."""
    spectra = [
        compute_spectrum(graph, RobinSpec(frozenset(vertices), sigma * j / t_steps), n_max=n)
        for j in range(t_steps + 1)
    ]
    return robin_homotopy(spectra, n)


def test_homotopy_interval_curve(unit_interval):
    curve = _homotopy(unit_interval, {0}, 1.0, 2, 5)
    assert curve.index == 2
    assert curve.couplings[0] == 0.0 and curve.couplings[-1] == 1.0
    assert not curve.degenerate_at
    for t, k in curve.samples:
        if t == 0.0:
            assert k == pytest.approx(math.pi, abs=1e-12)
        else:
            (want,) = interval_robin_wavenumbers(1.0, t, 2)[1:]
            assert k == pytest.approx(want, abs=1e-12)
    assert np.all(np.diff(curve.wavenumbers) >= 0.0)


def test_homotopy_flags_degeneracy(equilateral_star):
    curve = _homotopy(equilateral_star, {0}, 2.0, 3, 2)
    # index 3 sits inside the sigma-independent center-vanishing triple
    assert curve.degenerate_at == curve.couplings
    assert all(k == pytest.approx(math.pi / 2.0, abs=1e-12) for k in curve.wavenumbers)


def test_homotopy_monotone_on_star(star4):
    curve = _homotopy(star4, {0}, 3.0, 4, 6)
    assert np.all(np.diff(curve.wavenumbers) >= -1e-13)
    assert not curve.degenerate_at


def test_homotopy_needs_one_operator_family(star4, tetrahedron):
    spectra = [compute_spectrum(star4, RobinSpec(frozenset({0}), 1.0), n_max=4)]
    with pytest.raises(ValueError, match="different graphs"):
        robin_homotopy(spectra + [compute_spectrum(tetrahedron, NEUMANN, n_max=4)], 4)
    other = compute_spectrum(star4, RobinSpec(frozenset({1}), 2.0), n_max=4)
    with pytest.raises(ValueError, match="vertex sets"):
        robin_homotopy(spectra + [other], 4)


@given(
    st.integers(3, 5),
    st.floats(0.2, 5.0),
    st.integers(0, 3),
)
@settings(max_examples=25, deadline=None)
def test_interlacing_property_random_stars(degree, sigma, seed):
    rng = np.random.default_rng(seed)
    lengths = tuple(rng.uniform(0.5, 2.0, degree))
    g = make_star(degree, lengths)
    s0 = compute_spectrum(g, NEUMANN, n_max=25)
    s1 = compute_spectrum(g, RobinSpec(frozenset({0}), sigma), n_max=25)
    k0, k1 = s0.wavenumbers(25), s1.wavenumbers(25)
    slack = 1e-10 * (1.0 + k0)
    assert np.all(k0 <= k1 + slack)
    assert np.all(k1[:-1] < k0[1:] + slack[1:])


@given(st.floats(0.0, 4.0), st.integers(0, 5))
@settings(max_examples=15, deadline=None)
def test_counting_consistency_property(sigma, seed):
    rng = np.random.default_rng(seed)
    g = make_complete4(tuple(rng.uniform(0.6, 1.8, 6)))
    robin = RobinSpec(frozenset(range(4)), sigma)
    spec = compute_spectrum(g, robin, n_max=30)
    ks = spec.wavenumbers()
    # counting function agrees with direct enumeration at arbitrary k
    for k in rng.uniform(0.05, spec.k_cap, 12):
        assert counting_function(spec, float(k)) == int(np.sum(ks <= k))


@st.composite
def robin_stars_and_k4(draw):
    """Stars of degree 3-5 and K4, lengths in [0.6, 1.8], with a nonempty
    Robin vertex set."""
    rng = np.random.default_rng(draw(st.integers(0, 7)))
    if draw(st.booleans()):
        degree = draw(st.integers(3, 5))
        graph = make_star(degree, tuple(rng.uniform(0.6, 1.8, degree)))
    else:
        graph = make_complete4(tuple(rng.uniform(0.6, 1.8, 6)))
    vertices = draw(st.sets(st.integers(0, graph.num_vertices - 1), min_size=1))
    return graph, frozenset(vertices)


@given(
    robin_stars_and_k4(),
    st.one_of(st.just(5e-324), st.floats(-300.0, -8.0).map(lambda u: 10.0**u)),
    st.lists(st.floats(0.0, 1.0), min_size=8, max_size=8),
)
@settings(max_examples=40, deadline=None)
def test_tiny_coupling_keeps_one_simple_ground_state(case, sigma, us):
    graph, vertices = case
    robin = RobinSpec(vertices, sigma)
    spec = compute_spectrum(graph, robin, n_max=20)
    # Rayleigh with f = 1: 0 < lambda_1 <= sigma |V_R| / |G|
    k_r = math.sqrt(sigma) * math.sqrt(len(vertices) / graph.total_length)
    assert spec.multiplicity[0] == 1
    assert 0.0 < spec.k[0] <= k_r + _stop_width(np.asarray(k_r), None)
    # the records count what the inertia of M(k) counts, wherever it has margin
    ks = spec.k_cap * np.asarray(us)
    ks = ks[ks > 0.0]
    counts, ok = solver._inertia_counts(graph, robin, ks)
    for k, n in zip(ks[ok], counts[ok]):
        assert counting_function(spec, float(k)) == n, (k, n)


@pytest.mark.parametrize("sigma", [1.1754943508222875e-38, 1e-30, 1e-200, 1e-300])
def test_small_k_count_flips_at_the_rayleigh_wave_number(sigma):
    # to first order in sigma the ground state sits at k_R = sqrt(sigma |V_R| / |G|)
    rng = np.random.default_rng(1)
    graph = make_complete4(tuple(rng.uniform(0.6, 1.8, 6)))
    robin = RobinSpec(frozenset(range(4)), sigma)
    k_r = math.sqrt(sigma) * math.sqrt(4.0 / graph.total_length)
    assert solver._small_k_count(graph, robin, 0.999999 * k_r) == 0
    assert solver._small_k_count(graph, robin, 1.000001 * k_r) == 1
