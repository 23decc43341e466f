"""Eigenvalue solver: counting, refinement, multiplicity, homotopy."""
from __future__ import annotations

import collections
import math
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphspectra import solver
from graphspectra.eigenfunctions import eigenbasis, sensitivity
from graphspectra.errors import OutOfRange, ToleranceNotMet
from graphspectra.graphs import (
    RobinSpec,
    build_graph,
    load_graph_file,
    make_star,
    make_complete4,
)
from graphspectra.scattering import total_phase_values
from graphspectra.solver import _stop_width, compute_spectrum
from oracles import exact_inertia_count, interval_robin_wavenumbers

NEUMANN = RobinSpec.neumann()
FIXTURES = Path(__file__).resolve().parents[1] / "fixtures"


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
    for column in (spec.index, spec.k, spec.multiplicity, spec.radius, spec.singular_values):
        with pytest.raises(ValueError):
            column[0] = 0


def _count(spec, k):
    """N(k) of a spectrum: its eigenvalues at or below k, with multiplicity."""
    return int(np.searchsorted(spec.wavenumbers(), k, side="right"))


def test_kmax_mode(star4):
    # a k_max spectrum ends at k_cap, at or past k_max, with every
    # eigenvalue up to k_cap: the inertia count there, and the n_max
    # spectrum's eigenvalues up to it
    spec = compute_spectrum(star4, NEUMANN, k_max=20.0)
    assert spec.k_cap >= 20.0
    ks = spec.wavenumbers()
    assert np.all(ks <= spec.k_cap)
    count, ok = solver._inertia_counts(star4, NEUMANN.vertex_sigmas(star4), [spec.k_cap])
    assert ok[0] and count[0] == spec.size
    longer = compute_spectrum(star4, NEUMANN, n_max=spec.size + 10).wavenumbers()
    np.testing.assert_array_equal(ks, longer[longer <= spec.k_cap])
    # Weyl density: N(k) ~ k |G| / pi
    assert _count(spec, 20.0) == pytest.approx(20.0 * star4.total_length / math.pi, abs=8)


def test_kmax_spectrum_holds_the_roots_within_reach_above_k_max():
    # the weak coupling sets the scan floor, the offset of every scan point,
    # to 3.2e-8: the first scan point at or past k_max, 4.71238893661, falls
    # between the roots 4.71238892 and 4.71238896, the upper one 2.8e-8
    # above it, within the kernel reach of 4.9e-8; the spectrum keeps it, so
    # the kernel rule on every record finds both crossings
    graph = make_star(3, (1.0, 1.0 + 8e-9, 1.0 + 1.6e-8))
    robin = RobinSpec({0}, 3e-11)
    spec = compute_spectrum(graph, robin, k_max=4.71238893)
    top = np.array([4.71238893661])
    threshold = solver._kernel_threshold(graph, robin.vertex_sigmas(graph), top)
    reach = solver._kernel_reach(graph, threshold)[0]
    assert 2.7e-8 < spec.k[-1] - 4.71238893661 < reach
    assert spec.k_cap > 4.7123889645
    basis = eigenbasis(spec, np.arange(spec.k.size))
    assert np.array_equal(np.unique(basis.record), np.arange(spec.k.size))


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


@pytest.mark.parametrize("n_max", [1.5, 2.0, True, np.bool_(True), "3"])
def test_n_max_that_is_no_integer_raises(n_max):
    # 1.5 gave two records and True one, rounded and coerced without a word
    star = make_star(3, (1.0, 1.5, 2.0))
    with pytest.raises(ValueError, match="n_max must be an integer"):
        compute_spectrum(star, RobinSpec(frozenset({0}), 2.0), n_max=n_max)


@pytest.mark.parametrize("count", [-1, 1.5, True, "2"])
def test_a_count_of_eigenvalues_is_a_non_negative_integer(count):
    # -1 silently dropped the last index and True kept the first
    star = make_star(3, (1.0, 1.5, 2.0))
    spec = compute_spectrum(star, RobinSpec(frozenset({0}), 2.0), n_max=4)
    for read in (spec.wavenumbers, spec.eigenvalues):
        with pytest.raises(ValueError, match="count must be"):
            read(count)
        assert read(np.int64(2)).tolist() == read()[:2].tolist()
        assert read(0).size == 0


def test_a_count_past_the_spectrum_raises():
    # 9 and 10**9 returned the 4 values there were, where positions raises
    star = make_star(3, (1.0, 1.5, 2.0))
    spec = compute_spectrum(star, RobinSpec(frozenset({0}), 2.0), n_max=4)
    for read in (spec.wavenumbers, spec.eigenvalues):
        assert read(spec.size).size == spec.size
        for count in (spec.size + 1, 10**9):
            with pytest.raises(OutOfRange, match="beyond the computed spectrum"):
                read(count)


def test_an_infinite_index_is_out_of_range():
    # int(n.max()) in the message raised OverflowError for inf, and printed
    # 301 digits for 1e300
    star = make_star(3, (1.0, 1.5, 2.0))
    spec = compute_spectrum(star, RobinSpec(frozenset({0}), 2.0), n_max=20)
    for read in (spec.positions, lambda n: sensitivity(spec, n)):
        for n in (np.inf, [3, np.inf]):
            with pytest.raises(OutOfRange, match="index inf beyond"):
                read(n)
    with pytest.raises(OutOfRange, match=r"index 1e\+300 beyond"):
        spec.positions(1e300)
    with pytest.raises(ValueError, match="whole number"):
        spec.positions([3, np.nan])


def test_counting_function(pi_interval):
    spec = compute_spectrum(pi_interval, NEUMANN, n_max=10)
    assert _count(spec, 2.5) == 3  # k = 0, 1, 2
    k3 = float(spec.wavenumbers()[2])
    # the reported root is within half a stop width of 2, not exactly 2
    assert abs(k3 - 2.0) <= _stop_width(np.asarray(k3))
    assert _count(spec, k3) == 3  # boundary included
    assert _count(spec, 0.5) == 1


def test_spectral_shift_values(star4):
    s0 = compute_spectrum(star4, NEUMANN, n_max=120)
    s2 = compute_spectrum(star4, RobinSpec(frozenset({0}), 2.0), n_max=120)
    cap = min(s0.k_cap, s2.k_cap)
    assert _count(s0, 0.2) - _count(s2, 0.2) == 1  # zero mode on one side only
    rng = np.random.default_rng(11)
    for k in rng.uniform(0.1, cap, 200):
        assert _count(s0, k) - _count(s2, k) in (0, 1)


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

    def lower_quarter(graph, sigmas, ks):
        # N flat above the lowest quarter: those cells count zero
        n, ok = inertia_counts(graph, sigmas, ks)
        n[n.size // 4 :] = n[n.size // 4]
        return n, ok

    monkeypatch.setattr(solver, "_inertia_counts", lower_quarter)
    with pytest.raises(ToleranceNotMet, match="winding bound") as raised:
        compute_spectrum(star4, RobinSpec(frozenset({0}), 2.0), n_max=60)
    # wave numbers print as plain floats, not as numpy scalar reprs
    assert "np.float64" not in str(raised.value)


def test_scan_point_without_margin_raises(star4, monkeypatch):
    # no count at or above k = 3 has margin: every scan point there is
    # dropped, and the scan raises rather than use a count without margin
    inertia_counts = solver._inertia_counts

    def planted(graph, sigmas, ks):
        n, ok = inertia_counts(graph, sigmas, ks)
        return n, ok & (np.asarray(ks) < 3.0)

    monkeypatch.setattr(solver, "_inertia_counts", planted)
    with pytest.raises(ToleranceNotMet, match="no inertia count with margin") as raised:
        compute_spectrum(star4, RobinSpec(frozenset({0}), 2.0), n_max=60)
    # the first scan point at or above 3
    k = float(re.search(r"margin at k=(\S+) or above", str(raised.value)).group(1))
    cell = solver.SCAN_PHASE_STEP / star4.max_edge_length
    assert 3.0 <= k < 3.0 + cell


def _no_margin_where(monkeypatch, lacks):
    """Plant: no inertia count has margin at the wave numbers where lacks
    holds."""
    inertia_counts = solver._inertia_counts

    def planted(graph, sigmas, ks):
        n, ok = inertia_counts(graph, sigmas, ks)
        return n, ok & ~lacks(np.asarray(ks))

    monkeypatch.setattr(solver, "_inertia_counts", planted)


@pytest.mark.parametrize("coupled", [True, False], ids=["robin", "neumann"])
def test_a_band_without_margin_is_dropped(coupled, monkeypatch):
    # no count in [3, 3 + 2 scan cells) has margin: the scan points there
    # are dropped and their cells join, and the spectrum is the one found
    # without the plant, to the stop width
    graph, robin = load_graph_file(FIXTURES / "star_incommensurate.json")
    robin = robin if coupled else NEUMANN
    want = compute_spectrum(graph, robin, n_max=60)
    cell = solver.SCAN_PHASE_STEP / graph.max_edge_length
    _no_margin_where(monkeypatch, lambda ks: (ks >= 3.0) & (ks < 3.0 + 2.0 * cell))
    got = compute_spectrum(graph, robin, n_max=60)
    assert np.array_equal(got.multiplicity, want.multiplicity)
    assert np.array_equal(got.index, want.index)
    assert got.k_cap == want.k_cap
    assert np.all(np.abs(got.k - want.k) <= _stop_width(want.k))


def test_no_margin_past_k_max_raises(star4, monkeypatch):
    # every scan point at or above k_max is dropped, so the grid falls
    # short of its target: the scan names the first count without margin
    # rather than index past the grid or blame the winding bound
    _no_margin_where(monkeypatch, lambda ks: ks >= 5.0)
    with pytest.raises(ToleranceNotMet, match="no inertia count with margin") as raised:
        compute_spectrum(star4, RobinSpec(frozenset({0}), 2.0), k_max=5.0)
    assert "winding" not in str(raised.value)
    k = float(re.search(r"margin at k=(\S+) or above", str(raised.value)).group(1))
    cell = solver.SCAN_PHASE_STEP / star4.max_edge_length
    assert 5.0 <= k < 5.0 + cell


def test_small_k_count_without_margin_raises(star4, monkeypatch):
    # a zero pivot at leaf 2: C', the star's M(k) on its leaves, is singular,
    # so the count at the scan floor has no margin (and C' is not solved)
    leaf_pivots = solver._leaf_pivots

    def planted(graph, sigmas, k):
        pivots = leaf_pivots(graph, sigmas, k)
        pivots[1] = 0.0
        return pivots

    monkeypatch.setattr(solver, "_leaf_pivots", planted)
    with pytest.raises(ToleranceNotMet, match=r"^no inertia count with margin at k=\S+$"):
        compute_spectrum(star4, RobinSpec(frozenset({0}), 2.0), n_max=20)


def test_small_k_count_off_a_star_without_margin_raises(tetrahedron, monkeypatch):
    # vertex 2 made a copy of vertex 1 in M(k): C', M without vertex 0, is
    # singular, so the count at the scan floor has no margin (and C' is not
    # solved)
    vertex_matrices = solver._vertex_matrices

    def planted(graph, sigmas, ks):
        m, scale = vertex_matrices(graph, sigmas, ks)
        m[:, 2, :], m[:, :, 2] = m[:, 1, :], m[:, :, 1]
        return m, scale

    monkeypatch.setattr(solver, "_vertex_matrices", planted)
    with pytest.raises(ToleranceNotMet, match=r"^no inertia count with margin at k=\S+$"):
        compute_spectrum(tetrahedron, RobinSpec(frozenset({0}), 2.0), n_max=20)


def test_scan_floor_count_off_the_zero_mode_raises(star4, monkeypatch):
    # the Neumann count at the scan floor must be the zero mode alone
    small_k_count = solver._small_k_count
    monkeypatch.setattr(
        solver, "_small_k_count", lambda graph, sigmas, k: small_k_count(graph, sigmas, k) + 1
    )
    with pytest.raises(ToleranceNotMet, match=r"count 2 at the scan floor k=\S+, expected 1"):
        compute_spectrum(star4, NEUMANN, n_max=20)


def test_lost_root_breaks_the_count_audit(monkeypatch):
    # a refinement that loses a simple root: the records left each hold
    # their enclosure, so the certification passes them, and the exact
    # audit finds one eigenvalue fewer than the inertia count above it
    graph, robin = load_graph_file(FIXTURES / "star_incommensurate.json")
    refine = solver._refine_brackets

    def planted(*args):
        roots, mults, owners = refine(*args)
        j = np.argsort(roots)[roots.size // 2]
        assert mults[j] == 1
        return np.delete(roots, j), np.delete(mults, j), np.delete(owners, j)

    monkeypatch.setattr(solver, "_refine_brackets", planted)
    with pytest.raises(ToleranceNotMet, match="records count") as raised:
        compute_spectrum(graph, robin, n_max=300)
    found, want = re.fullmatch(
        r"records count (\d+) eigenvalues up to k=\S+, the inertia count (\d+)", str(raised.value)
    ).groups()
    assert int(found) == int(want) - 1


Curve = collections.namedtuple("Curve", "couplings wavenumbers degenerate_at")


def _homotopy(graph, vertices, sigma, n, t_steps):
    """k_n across couplings sigma j / t_steps, j = 0..t_steps, and the
    couplings where it is a multiple eigenvalue."""
    couplings = [sigma * j / t_steps for j in range(t_steps + 1)]
    ks, degenerate = [], []
    for s in couplings:
        spec = compute_spectrum(graph, RobinSpec(frozenset(vertices), s), n_max=n)
        at = spec.positions(n)
        ks.append(float(spec.k[at]))
        if spec.multiplicity[at] > 1:
            degenerate.append(s)
    return Curve(couplings, ks, degenerate)


def test_homotopy_interval_curve(unit_interval):
    curve = _homotopy(unit_interval, {0}, 1.0, 2, 5)
    assert curve.couplings[0] == 0.0 and curve.couplings[-1] == 1.0
    assert not curve.degenerate_at
    for t, k in zip(curve.couplings, curve.wavenumbers):
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


def test_homotopy_rejects_a_fractional_index(star4):
    spec = compute_spectrum(star4, RobinSpec(frozenset({0}), 1.0), n_max=4)
    with pytest.raises(ValueError, match="whole number"):
        spec.positions(2.5)


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
    # the records count what the inertia of M(k) counts at arbitrary k
    ks = rng.uniform(0.05, spec.k_cap, 12)
    counts, ok = solver._inertia_counts(g, robin.vertex_sigmas(g), ks)
    for k, n in zip(ks[ok], counts[ok]):
        assert _count(spec, k) == n, (k, n)


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
    assert 0.0 < spec.k[0] <= k_r + _stop_width(np.asarray(k_r))
    # the records count what the inertia of M(k) counts, wherever it has margin
    ks = spec.k_cap * np.asarray(us)
    ks = ks[ks > 0.0]
    counts, ok = solver._inertia_counts(graph, robin.vertex_sigmas(graph), ks)
    for k, n in zip(ks[ok], counts[ok]):
        assert _count(spec, k) == n, (k, n)


# a star centred at vertex 2, two edges listed from the leaf, coupled at leaf 0
OFF_CENTRE_STAR = build_graph([(2, 0, 0.7), (1, 2, 1.1), (2, 3, 1.3), (4, 2, 0.9)])


@pytest.mark.parametrize("sigma", [1.1754943508222875e-38, 1e-30, 1e-200, 1e-300])
def test_small_k_count_flips_at_the_rayleigh_wave_number(sigma):
    # to first order in sigma the ground state sits at k_R = sqrt(sigma |V_R| / |G|),
    # on K4 by the congruence about vertex 0 and on a star about its centre
    rng = np.random.default_rng(1)
    cases = [
        (make_complete4(tuple(rng.uniform(0.6, 1.8, 6))), frozenset(range(4))),
        (OFF_CENTRE_STAR, frozenset({0})),
    ]
    for graph, vertices in cases:
        sigmas = RobinSpec(vertices, sigma).vertex_sigmas(graph)
        k_r = math.sqrt(sigma) * math.sqrt(len(vertices) / graph.total_length)
        assert solver._small_k_count(graph, sigmas, 0.999999 * k_r) == 0
        assert solver._small_k_count(graph, sigmas, 1.000001 * k_r) == 1


def test_loop_entry_is_the_tangent_form():
    # -2k cot(kl) + 2k / sin(kl) cancels two terms of size 2 / l; on a
    # loop of length 1e-3 its rounding error, ~4e-13, outgrows the margin
    # 64 V eps ||M|| that the inertia count relies on
    graph = build_graph([(0, 1, 1.0), (0, 0, 0.001)], num_vertices=2)
    robin = RobinSpec(frozenset({0}), 0.001)
    for k in (0.031601720711095835, 0.5, 3.0):
        m = solver._vertex_matrices(graph, robin.vertex_sigmas(graph), [k])[0][0]
        want = -k / math.tan(k) + 2.0 * k * math.tan(0.0005 * k) - 0.001
        assert m[0, 0] == pytest.approx(want, rel=1e-14, abs=1e-16)
        assert m[0, 1] == m[1, 0] == pytest.approx(k / math.sin(k), rel=1e-15)


@pytest.mark.parametrize("short", [1e-4, 1e-3, 1e-2])
def test_cancelling_multi_edge_terms_leave_no_margin(short):
    # beside a unit edge, an edge of length l adds terms of size 1 / l to
    # M(k) that cancel in its entries: near the roots ||M||_2 is far below
    # the rounding of those terms, so a bound on ||M|| claims margin at
    # counts off by one.  A bound on the terms claims none there.
    edges, sigma = [(0, 1, 1.0), (0, 1, short)], 1e-4
    graph, robin = build_graph(edges), RobinSpec(frozenset({0}), sigma)
    spec = compute_spectrum(graph, robin, n_max=12)
    roots = spec.k[spec.k > 0.0]
    ks = (roots[:, None] + np.arange(-12, 13) * np.spacing(roots)[:, None]).ravel()
    exact = np.array([exact_inertia_count(edges, 2, [0], sigma, k) for k in ks])
    m, _ = solver._vertex_matrices(graph, robin.vertex_sigmas(graph), ks)
    mu = np.linalg.eigvalsh(m)
    size = np.abs(mu)
    # the bound 64 V eps ||M||_2 on the eigenvalues of the rounded M(k)
    on_sum = size.min(axis=1) > solver.INERTIA_MARGIN * 2 * solver.EPS * size.max(axis=1)
    floors = np.floor(ks[:, None] * graph.slot_length[0::2] / np.pi).sum(axis=1)
    assert np.any(on_sum & (floors + np.count_nonzero(mu > 0.0, axis=1) != exact))
    counts, ok = solver._inertia_counts(graph, robin.vertex_sigmas(graph), ks)
    assert np.array_equal(counts[ok], exact[ok]) and np.count_nonzero(ok) > 0.1 * ks.size


@st.composite
def pendant_graphs(draw, kinds=("star", "tree", "edge")):
    """Graphs with pendant vertices: stars of degree 2-12 centred at any
    vertex id with each edge listed from either end, trees with a loop or a
    second edge beside one of theirs, and an isolated edge, with lengths in
    [0.01, 100], coupled or Neumann leaves and sigma in [1e-8, 1e6]."""
    length = st.floats(-2.0, 2.0).map(lambda u: 10.0**u)
    kind = draw(st.sampled_from(kinds))
    if kind == "star":
        degree = draw(st.integers(2, 12))
        centre = draw(st.integers(0, degree))
        edges = [
            (centre, j, draw(length)) if draw(st.booleans()) else (j, centre, draw(length))
            for j in range(degree + 1)
            if j != centre
        ]
    elif kind == "tree":
        size = draw(st.integers(3, 8))
        edges = [(draw(st.integers(0, j - 1)), j, draw(length)) for j in range(1, size)]
        u, v, _ = edges[draw(st.integers(0, len(edges) - 1))]
        edges.append((u, u if draw(st.booleans()) else v, draw(length)))
    else:
        edges = [(0, 1, draw(length))]
    graph = build_graph(edges)
    vertices = draw(st.sets(st.integers(0, graph.num_vertices - 1)))
    return graph, RobinSpec(frozenset(vertices), draw(st.floats(-8.0, 6.0).map(lambda u: 10.0**u)))


def _pole_margin(graph, ks):
    x = ks[:, None] * graph.slot_length[0::2]
    floors = np.floor(x / np.pi).sum(axis=1).astype(int)
    return np.all(np.abs(np.sin(x)) > solver.POLE_MARGIN + 2.0 * solver.EPS * x, axis=1), floors


# subnormal k, but not so small that k l rounds to 0, a pole of every edge
@given(
    pendant_graphs(kinds=("star",)),
    st.integers(0, 2**32 - 1),
    st.lists(st.floats(-320.0, -6.0), max_size=4),
)
@settings(max_examples=60, deadline=None)
def test_pendant_reduction_keeps_the_count(case, seed, tiny):
    # a star's Morse index by Haynsworth on its leaves equals that of M
    # wherever both have margin, and N(k) takes it, with its own margin
    graph, robin = case
    top = 60.0 / graph.min_edge_length
    spread = np.random.default_rng(seed).uniform(0.0, top, 400)
    ks = np.concatenate([spread, 10.0 ** np.asarray(tiny)])
    ks = ks[ks > 0.0]
    reduced, reduced_ok = solver._pendant_index(graph, robin.vertex_sigmas(graph), ks)
    full, full_ok = solver._morse_index(graph, robin.vertex_sigmas(graph), ks)
    poles, floors = _pole_margin(graph, ks)
    both = reduced_ok & full_ok & poles
    assert np.array_equal(reduced[both], full[both])
    counts, ok = solver._inertia_counts(graph, robin.vertex_sigmas(graph), ks)
    assert np.array_equal(ok, poles & reduced_ok)
    assert np.array_equal(counts[ok], (floors + reduced)[ok])


@given(pendant_graphs(kinds=("tree",)), st.integers(0, 2**32 - 1))
@settings(max_examples=30, deadline=None)
def test_counts_off_a_star_are_exact(case, seed):
    # a graph with pendant vertices that is no star, a tree with a loop or a
    # second edge, counts its full M(k): the 40-digit count wherever it
    # claims margin
    graph, robin = case
    assert solver._star_layout(graph) is None
    ks = np.random.default_rng(seed).uniform(0.0, 60.0 / graph.min_edge_length, 12)
    counts, ok = solver._inertia_counts(graph, robin.vertex_sigmas(graph), ks)
    for k, count in zip(ks[ok], counts[ok]):
        exact = exact_inertia_count(
            graph.edges, graph.num_vertices, robin.vertices, robin.sigma, k
        )
        assert count == exact, (k, count, exact)


def _float_root(f, lo, hi):
    """The float in [lo, hi] nearest a sign change of f, by bisection."""
    f_lo = np.sign(f(lo))
    while True:
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            return lo if abs(f(lo)) <= abs(f(hi)) else hi
        lo, hi = (mid, hi) if np.sign(f(mid)) == f_lo else (lo, mid)


@given(pendant_graphs(kinds=("star",)), st.integers(0, 40), st.integers(-3, 3), st.data())
@settings(max_examples=60, deadline=None)
def test_a_star_counts_exactly_beside_its_stub_resonances(case, m, ulps, data):
    # k cos kl + sigma sin kl = 0 makes d_v vanish: there a star's count has
    # no margin, and 1e-8 relative off it the count has margin and is
    # exact; where k sin kl = sigma cos kl the stub term cancels, and a
    # count with margin is still exact
    graph, robin = case
    lengths, leaves, _ = solver._star_layout(graph)
    j = data.draw(st.integers(0, leaves.size - 1))
    length = lengths[j]
    sigma = robin.sigma if int(leaves[j]) in robin.vertices else 0.0

    def at(k):
        return float(np.nextafter(k, np.sign(ulps) * np.inf) if ulps else k)

    g = _float_root(lambda k: k * np.cos(k * length) + sigma * np.sin(k * length),
                    (m + 0.25) * np.pi / length, (m + 1.0) * np.pi / length)
    for _ in range(abs(ulps)):
        g = at(g)
    ks = np.array([g, g * (1.0 - 1e-8), g * (1.0 + 1e-8)])
    if sigma > 0.0:
        h = _float_root(lambda k: k * np.sin(k * length) - sigma * np.cos(k * length),
                        max(m * np.pi / length, 1e-300), (m + 0.5) * np.pi / length)
        ks = np.append(ks, h)
    counts, ok = solver._inertia_counts(graph, robin.vertex_sigmas(graph), ks)
    poles, _ = _pole_margin(graph, ks)
    assert not ok[0]
    assert np.array_equal(ok[1:3], poles[1:3])
    for k, count in zip(ks[ok], counts[ok]):
        exact = exact_inertia_count(
            graph.edges, graph.num_vertices, robin.vertices, robin.sigma, k
        )
        assert count == exact, (k, count, exact)


@given(pendant_graphs(kinds=("star",)), st.lists(st.floats(-6.0, 0.0), min_size=1, max_size=3))
@settings(max_examples=40, deadline=None)
def test_small_k_count_of_a_star_is_exact(case, scales):
    # the congruence about the centre gives the 40-digit count of the full
    # M(k) wherever it claims margin, at any centre id and edge direction
    graph, robin = case
    for u in scales:
        k = 0.25 * np.pi / graph.total_length * 10.0**u
        try:
            count = solver._small_k_count(graph, robin.vertex_sigmas(graph), k)
        except ToleranceNotMet:
            continue
        exact = exact_inertia_count(
            graph.edges, graph.num_vertices, robin.vertices, robin.sigma, k
        )
        assert count == exact, (k, count, exact)


def test_a_lone_stub_has_no_margin_at_its_eigenvalue():
    # on an isolated edge with a Robin end the stub term is all of M~, and
    # it vanishes at the graph's eigenvalues k tan kl = sigma
    graph, robin = build_graph([(0, 1, 1.0)]), RobinSpec(frozenset({1}), 3.0)
    assert solver._star_layout(graph)[1].tolist() == [1]
    for m in range(5):
        k = _float_root(
            lambda k: k * np.sin(k) - 3.0 * np.cos(k), max(m * np.pi, 1e-300), (m + 0.5) * np.pi
        )
        _, reduced_ok = solver._pendant_index(graph, robin.vertex_sigmas(graph), np.array([k]))
        assert not reduced_ok[0]
        # 1e-8 relative to either side, the count is decided
        ks = [k * (1.0 - 1e-8), k * (1.0 + 1e-8)]
        counts, ok = solver._inertia_counts(graph, robin.vertex_sigmas(graph), ks)
        assert ok.all() and counts.tolist() == [m, m + 1]


# the full M(k) at the ends and split points of the brackets that the
# counted splits refine on the vertex route, counted apart
ROUTED = {
    ("star_incommensurate", True): 3,
    ("star_incommensurate", False): 3,
    ("tetrahedron", True): 9,
    ("tetrahedron", False): 11,
    ("loopy", True): 0,
    ("loopy", False): 0,
}
# a loop at 0, a double edge 0-1 and the chain 1-2-3 to the pendant vertex 3
LOOPY = (
    build_graph([(0, 0, 0.7), (0, 1, 1.1), (0, 1, 1.6), (1, 2, 0.9), (2, 3, 1.3)]),
    RobinSpec(frozenset({0, 3}), 2.0),
)


@pytest.mark.parametrize(
    "name, coupled, size, matrices",
    [
        ("star_incommensurate", True, 5, 0),
        ("star_incommensurate", False, 5, 0),
        # no star: the scan, quarter points and enclosures counted on the
        # full M(k), and with the coupling one count at k_cap + reach
        ("tetrahedron", True, 4, 1279),
        ("tetrahedron", False, 4, 1297),
        ("loopy", True, 4, 1359),
        ("loopy", False, 4, 1353),
    ],
)
def test_vertex_matrices_decomposed(name, coupled, size, matrices, monkeypatch):
    graph, robin = LOOPY if name == "loopy" else load_graph_file(FIXTURES / f"{name}.json")
    eigvalsh, sizes = np.linalg.eigvalsh, collections.Counter()
    vertex_rows = solver._vertex_rows

    def counted(a):
        sizes[a.shape[-1]] += int(np.prod(a.shape[:-2]))
        return eigvalsh(a)

    def rows(graph, sigmas, ks):
        sizes["routed"] += len(ks)
        return vertex_rows(graph, sigmas, ks)

    monkeypatch.setattr(np.linalg, "eigvalsh", counted)
    monkeypatch.setattr(solver, "_vertex_rows", rows)
    compute_spectrum(graph, robin if coupled else NEUMANN, n_max=300)
    routed = sizes.pop("routed", 0)
    assert sizes[size] - routed == matrices
    assert routed == ROUTED[name, coupled]
    if name.startswith("star"):
        # a star's scalar and the C' of its anchor are counted without eigvalsh
        assert sum(sizes.values()) == sizes[size]
    else:
        # the counts decompose V x V matrices only, and the anchor one C'
        assert sizes == {size: sizes[size], size - 1: 1}


@pytest.mark.parametrize("name", ["tetrahedron", "loopy", "star"])
def test_a_rows_values_do_not_depend_on_its_batch(name):
    # every function of wave numbers takes one couplings row per wave
    # number and does the same arithmetic on a row whatever rows share its
    # batch: a stack above 1,024 matrices, taken in one call, gives row by
    # row what its slices give, a row-wise table what each coupling gives
    # alone, and one (V,) row what the table of its copies gives, bit for bit
    ks = np.linspace(0.37, 61.3, 2100)
    if name == "loopy":
        graph, robin = LOOPY
    elif name == "star":
        graph, robin = make_star(4, (0.7, 1.1, 1.3, 1.7)), RobinSpec(frozenset({0, 2}), 2.0)
    else:
        graph, robin = load_graph_file(FIXTURES / "tetrahedron.json")
    row = robin.vertex_sigmas(graph)
    # two couplings alternating
    table = np.array([row, 0.5 * row])
    which = np.arange(ks.size) % 2
    calls = {
        "inertia_counts": lambda s, k: solver._inertia_counts(graph, s, k),
        "vertex_spectra": lambda s, k: solver._vertex_spectra(graph, s, k),
        "amplitude_dets": lambda s, k: (solver._amplitude_dets(graph, s, k),),
        "eigenphases": lambda s, k: (solver._eigenphases(graph, s, k),),
        "total_phase_values": lambda s, k: (total_phase_values(graph, s, k),),
        "amplitude_svd": lambda s, k: (
            np.linalg.svd(solver._amplitude_matrices(graph, s, k), compute_uv=False),
        ),
    }

    def same(got, want, call):
        for a, b in zip(got, want, strict=True):
            assert a.dtype == b.dtype and a.shape == b.shape, call
            assert a.tobytes() == b.tobytes(), call

    copies = np.tile(row, (ks.size, 1))
    for call, fn in calls.items():
        for sigmas in (copies, table[which]):
            parts = [
                fn(sigmas[rows], ks[rows])
                for rows in (slice(start, start + 1024) for start in range(0, ks.size, 1024))
            ]
            same(fn(sigmas, ks), map(np.concatenate, zip(*parts)), call)
        same(fn(row, ks), fn(copies, ks), call)
        rowwise = fn(table[which], ks)
        for c in range(len(table)):
            same([a[which == c] for a in rowwise], fn(table[c], ks[which == c]), call)


def test_a_shared_bracket_end_gets_the_values_of_its_own_coupling():
    # each bracket end is its own row: two brackets of one coupling that
    # share an end get the same bits there, and the same k under two
    # couplings gets the values of each
    graph, robin = LOOPY
    table = np.array([robin.vertex_sigmas(graph), 0.5 * robin.vertex_sigmas(graph)])
    which = np.array([0, 0, 1, 1])
    los, his = np.array([1.3, 2.05, 1.3, 2.05]), np.array([2.05, 2.9, 2.05, 2.9])

    def rows(s, k):
        return (
            *solver._vertex_rows(graph, s, k),
            solver._eigenphases(graph, s, k),
            total_phase_values(graph, s, k),
        )

    f_lo, f_hi, _, _ = solver._polish_ready(
        graph, table, which, los, his, np.array([3, 4, 3, 4]), np.nan
    )
    ends = [*solver._at_ends(table, which, los, his, rows), (f_lo, f_hi)]
    want = [
        [(*rows(table[c], [k]), solver._amplitude_dets(graph, table[c], [k])) for k in los[:2]]
        for c in range(2)
    ]
    for j, (lo, hi) in enumerate(ends):
        for c in range(2):
            assert hi[2 * c].tobytes() == lo[2 * c + 1].tobytes()
            for b in range(2):
                assert lo[2 * c + b].tobytes() == want[c][b][j][0].tobytes()
        # the other coupling has other values at the same k
        assert not np.array_equal(lo[0], lo[2])


def test_k_cap_leaves_no_root_within_the_kernel_reach_above_it():
    # the first scan point counting n_max sat just below a root within the
    # kernel reach of the records under it, which the kernel rule then found
    # in excess of the crossings it was given
    graph = make_star(
        5,
        (0.5915557211791358, 0.5915557330102503, 0.5915557217706916,
         0.5915557211791358, 0.5915557214749136),
    )
    robin = RobinSpec(frozenset({0}), 0.0025271881091369704)
    for n_max in (47, 48, 49):
        spec = compute_spectrum(graph, robin, n_max=n_max)
        near = np.abs(spec.k - 50.45193) < 1e-5
        assert spec.multiplicity[near].tolist() == [1, 1, 1, 1]
    graph = build_graph([(0, 1, 1.0), (0, 2, 1.0), (0, 3, 1.0), (0, 1, 1.0)])
    robin = RobinSpec(frozenset({0}), 0.001)
    spec = compute_spectrum(graph, robin, n_max=12)
    eigenbasis(spec, np.arange(spec.k.size))
    sigmas = robin.vertex_sigmas(graph)
    cap = np.array([spec.k_cap])
    top = cap + solver._kernel_reach(graph, solver._kernel_threshold(graph, sigmas, cap))
    counts, ok = solver._inertia_counts(graph, sigmas, top)
    assert ok[0] and counts[0] == spec.size


@pytest.mark.parametrize("sigma", [1e-14, 1e-12, 1e-10])
def test_pendant_count_flips_at_the_rayleigh_wave_number(sigma):
    # near k = 0 a leaf's -k cot kl and Schur term are each about 1 / l and
    # cancel to k^2 l; the stub term k tan kl keeps the ground state of a
    # weakly coupled star, sigma |G|^-1 to first order, at full precision
    graph = make_star(5, (0.7, 1.1, 1.3, 0.9, 1.7))
    robin = RobinSpec(frozenset({0}), sigma)
    k_r = math.sqrt(sigma / graph.total_length)
    ks = [0.999 * k_r, 1.001 * k_r]
    counts, ok = solver._inertia_counts(graph, robin.vertex_sigmas(graph), ks)
    assert ok.all() and counts.tolist() == [0, 1]
