"""Bound evaluation: closed forms, error branches, and the audit plumbing."""
from __future__ import annotations

import math

import numpy as np
import pytest

from graphspectra.bounds import (
    check_all,
    decomposition_bound_parameters,
    gap_bound,
    improved_bound,
    sensitivity_bound,
    shortest_edge_bound,
)
from graphspectra.errors import DanglingEndpoint, DegenerateDecomposition, DegenerateParameters
from graphspectra.graphs import (
    RobinSpec,
    StarDecomposition,
    boundary_star_decomposition,
    build_graph,
    make_complete4,
    make_star,
)
from graphspectra.solver import compute_spectrum
from graphspectra.stats import RngSeries
from builders import midpoint_star_decomposition


class TestGapBound:
    def test_star_boundary_value(self, star4):
        robin = RobinSpec(frozenset([0]), 2.0)
        decomp = boundary_star_decomposition(star4, robin)
        assert gap_bound(decomp, robin) == pytest.approx(
            4.0 / star4.total_length, rel=1e-14
        )

    def test_uncoupled_is_zero(self, star4):
        robin = RobinSpec(frozenset([0]), 0.0)
        decomp = boundary_star_decomposition(star4, robin)
        assert gap_bound(decomp, robin) == 0.0

    def test_midpoint_never_beats_shortest_edge(self, tetrahedron):
        robin = RobinSpec(frozenset(range(4)), 3.0)
        decomp = midpoint_star_decomposition(tetrahedron)
        assert gap_bound(decomp, robin) <= shortest_edge_bound(tetrahedron, robin) + 1e-12

    def test_zero_star_rejected(self, unit_interval):
        decomp = StarDecomposition(unit_interval, ((1.0, 0.0),))
        with pytest.raises(DegenerateDecomposition):
            gap_bound(decomp, RobinSpec(frozenset([1]), 2.0))

    def test_vertex_set_checked_at_zero_coupling(self):
        # at sigma = 0 a vertex outside the graph returned 0.0, where every
        # other bound raises
        star = make_star(3, (1.0, 1.5, 2.0))
        decomp = midpoint_star_decomposition(star)
        with pytest.raises(DanglingEndpoint):
            gap_bound(decomp, RobinSpec({9}, 0.0))
        assert gap_bound(decomp, RobinSpec({0}, 0.0)) == 0.0


class TestSensitivityBound:
    def test_uncoupled_collapses(self, star4):
        robin = RobinSpec(frozenset([0]), 0.0)
        decomp = boundary_star_decomposition(star4, RobinSpec(frozenset([0]), 1.0))
        got = sensitivity_bound(decomp, robin, [0.5, 5.0, 500.0])
        assert np.allclose(got, 2.0 / star4.total_length, rtol=1e-14)

    def test_high_energy_limit(self, star4):
        robin = RobinSpec(frozenset([0]), 4.5)
        decomp = boundary_star_decomposition(star4, robin)
        got = sensitivity_bound(decomp, robin, 1e12)
        assert got == pytest.approx(2.0 / star4.total_length, rel=1e-9)

    def test_increasing_in_energy(self, star4):
        robin = RobinSpec(frozenset([0]), 2.0)
        decomp = boundary_star_decomposition(star4, robin)
        lam = np.linspace(0.5, 50.0, 40)
        vals = sensitivity_bound(decomp, robin, lam)
        assert np.all(np.diff(vals) > 0)

    def test_nonpositive_energy_rejected(self, star4):
        robin = RobinSpec(frozenset([0]), 2.0)
        decomp = boundary_star_decomposition(star4, robin)
        with pytest.raises(ValueError):
            sensitivity_bound(decomp, robin, 0.0)

    def test_nan_energy_rejected(self):
        # a NaN energy passed lam <= 0 and gave a NaN bound, never judged
        star = make_star(3, (1.0, 1.5, 2.0))
        robin = RobinSpec(frozenset([0]), 2.0)
        decomp = boundary_star_decomposition(star, robin)
        with pytest.raises(ValueError, match="energy must be positive"):
            sensitivity_bound(decomp, robin, [4.0, math.nan])


class TestSlope:
    """The lowest eigenvalue leaves 0 with slope |V_R| / |G| in the coupling."""

    @staticmethod
    def _slope(graph, vertices, h=1e-3):
        def lam1(sigma):
            spectrum = compute_spectrum(graph, RobinSpec(vertices, sigma), n_max=1)
            return float(spectrum.eigenvalues(1)[0])

        # lam1(0) = 0, so 4 lam1(h/2) - lam1(h) = s h + O(h^3)
        return (4.0 * lam1(h / 2.0) - lam1(h)) / h

    def test_interval_single_end(self, unit_interval):
        assert self._slope(unit_interval, {0}) == pytest.approx(1.0, rel=1e-3)

    def test_unit_tetrahedron_all_vertices(self):
        graph = make_complete4([1.0] * 6)
        assert self._slope(graph, range(4)) == pytest.approx(4.0 / 6.0, rel=1e-3)

    def test_empty_set(self, star4):
        assert self._slope(star4, ()) == 0.0


class TestImprovedBound:
    def test_zero_coupling_is_zero(self):
        got = improved_bound(np.array([5.0, 50.0]), 0.0, 0.3, 4.0)
        assert np.allclose(got, 0.0, rtol=0.0, atol=1e-15)

    def test_small_coupling_expansion(self):
        s_check, S_check = 0.25, 5.0
        lam0 = 3.0
        alpha = 2.0 / np.sqrt(4.0 * lam0 * s_check * S_check - 1.0)
        sigma = 1e-8
        expected = lam0 * 2.0 * alpha * (alpha * s_check * sigma) / (1.0 + alpha**2 / 4.0)
        (got,) = improved_bound(np.array([lam0]), sigma, s_check, S_check)
        assert got == pytest.approx(expected, rel=1e-6)

    def test_increasing_in_coupling(self):
        lam = np.array([4.0])
        vals = [improved_bound(lam, s, 0.3, 5.0)[0] for s in (0.5, 1.0, 2.0, 4.0)]
        assert np.all(np.diff(vals) > 0)

    def test_threshold_is_strict(self):
        s_check, S_check = 0.5, 2.0
        threshold = 1.0 / (4.0 * s_check * S_check)
        at, above = improved_bound(
            np.array([threshold, threshold * 1.01]), 1.0, s_check, S_check
        )
        assert np.isnan(at)
        assert above > 0.0

    def test_degenerate_parameters(self):
        with pytest.raises(DegenerateParameters):
            improved_bound(np.array([5.0]), 1.0, 0.0, 2.0)
        with pytest.raises(DegenerateParameters):
            improved_bound(np.array([5.0]), 1.0, 0.5, -1.0)
        # a NaN or infinite parameter returned a NaN bound that never flags
        for s_check, S_check in ((np.nan, 2.0), (0.5, np.nan), (np.inf, 2.0), (0.5, np.inf)):
            with pytest.raises(DegenerateParameters):
                improved_bound(np.array([5.0]), 1.0, s_check, S_check)

    def test_bad_coupling_rejected(self):
        # a NaN coupling gave NaN bounds, an infinite one finite bounds and a
        # negative one negative bounds
        for sigma in (math.nan, math.inf, -1.0):
            with pytest.raises(DegenerateParameters):
                improved_bound([10.0, 100.0], sigma, 1.0, 1.0)

    def test_decays_toward_flat_bound(self, star4):
        # excess over 2*sigma/S_check shrinks like 1/lambda0 and its sign
        # is that of 3 - 2*s_check*sigma; at the star's parameters the
        # refined curve therefore hugs the flat line from above
        robin = RobinSpec(frozenset([0]), 2.0)
        s_check, S_check = decomposition_bound_parameters(
            boundary_star_decomposition(star4, robin), robin
        )
        flat = 2.0 * 2.0 / S_check
        lams = np.array([10.0, 100.0, 1000.0, 10000.0])
        excess = improved_bound(lams, 2.0, s_check, S_check) - flat
        assert all(e > 0.0 for e in excess)
        assert np.all(np.diff(excess) < 0)
        assert excess[-1] < 1e-5 * flat

    def test_flat_crossing_dichotomy(self):
        # 2*s_check*sigma = 4 > 3: approaches the flat value from below
        assert improved_bound(np.array([1e4]), 2.0, 1.0, 1.0)[0] < 4.0
        # 2*s_check*sigma = 1 < 3: stays above it
        assert improved_bound(np.array([1e4]), 0.5, 1.0, 1.0)[0] > 1.0


class TestParameters:
    def test_star_recipe(self, star4):
        robin = RobinSpec(frozenset([0]), 2.0)
        s_check, S_check = decomposition_bound_parameters(
            boundary_star_decomposition(star4, robin), robin
        )
        assert S_check == pytest.approx(star4.total_length, rel=1e-14)
        lengths = [length for _, _, length in star4.edges]
        assert s_check == pytest.approx(1.0 / sum(1.0 / x for x in lengths), rel=1e-14)

    def test_decomposition_recipe_midpoint(self, tetrahedron):
        robin = RobinSpec(frozenset(range(4)), 2.0)
        decomp = midpoint_star_decomposition(tetrahedron)
        s_check, S_check = decomposition_bound_parameters(decomp, robin)
        stars = decomp.star_lengths.tolist()
        assert S_check == pytest.approx(min(stars), rel=1e-14)
        assert 0.0 < s_check < min(stars)

    def test_zero_split_rejected(self, star4):
        robin_center = RobinSpec(frozenset([0]), 2.0)
        decomp = boundary_star_decomposition(star4, robin_center)
        with pytest.raises(DegenerateParameters):
            decomposition_bound_parameters(decomp, RobinSpec(frozenset([0, 1]), 2.0))


class TestCheckAll:
    def test_interval_all_clean(self, unit_interval, gap_series):
        series = gap_series(unit_interval, (0,), 1.0, 60)
        robin = RobinSpec(frozenset([0]), 1.0)
        decomp = boundary_star_decomposition(unit_interval, robin)
        flat, edge, refined = check_all(series, decomp)
        assert flat.name == "gap-bound" and flat.ok
        assert edge.name == "shortest-edge-bound" and edge.ok
        assert refined.name == "improved-bound" and refined.ok
        assert np.allclose(flat.bound, 2.0)
        assert np.allclose(edge.bound, 4.0)
        # the zero mode sits below the refined-bound threshold
        applicable = np.count_nonzero(~np.isnan(refined.bound))
        assert 55 <= applicable < 60

    def test_refined_converges_to_flat(self, unit_interval, gap_series):
        series = gap_series(unit_interval, (0,), 1.0, 60)
        robin = RobinSpec(frozenset([0]), 1.0)
        decomp = boundary_star_decomposition(unit_interval, robin)
        flat, _, refined = check_all(series, decomp)
        assert refined.bound[-1] == pytest.approx(flat.bound[-1], rel=1e-4)
        assert refined.bound[5] > refined.bound[-1]

    def test_detector_flags_inflated_gap(self, unit_interval, gap_series):
        series = gap_series(unit_interval, (0,), 1.0, 30)
        gaps = series.gaps.copy()
        gaps[17] = 100.0
        doped = RngSeries(
            graph=series.graph,
            robin=series.robin,
            gaps=gaps,
            k_neumann=series.k_neumann,
            k_robin=series.k_robin,
        )
        robin = RobinSpec(frozenset([0]), 1.0)
        decomp = boundary_star_decomposition(unit_interval, robin)
        flat, edge, refined = check_all(doped, decomp)
        assert 18 in flat.violations
        assert 18 in edge.violations
        assert 18 in refined.violations
        assert not flat.ok

    def test_violation_slack_boundary(self, unit_interval):
        robin = RobinSpec(frozenset([0]), 1.0)
        decomp = boundary_star_decomposition(unit_interval, robin)
        bound = gap_bound(decomp, robin)
        below = bound + 0.9e-10 * (1.0 + bound)
        above = bound + 1.1e-10 * (1.0 + bound)
        ks = np.array([1.0, 2.0])
        series = RngSeries(
            graph=unit_interval,
            robin=robin,
            gaps=np.array([below, above]),
            k_neumann=ks,
            k_robin=ks,
        )
        flat, _, _ = check_all(series, decomp)
        assert flat.violations == (2,)

    def test_error_bar_decides_a_violation(self, unit_interval):
        # a gap violates only when it stays above the bound by more than its
        # error; the slack applies on top
        robin = RobinSpec(frozenset([0]), 1.0)
        decomp = boundary_star_decomposition(unit_interval, robin)
        bound = gap_bound(decomp, robin)
        ks = np.array([1.0, 2.0, 3.0])
        series = RngSeries(
            graph=unit_interval,
            robin=robin,
            gaps=np.full(3, bound + 1e-3),
            k_neumann=ks,
            k_robin=ks,
            error=np.array([2e-3, 1e-3, 0.5e-3]),
        )
        flat, _, _ = check_all(series, decomp)
        assert flat.violations == (3,)

    def test_series_gaps_carry_their_radii(self, unit_interval, gap_series):
        series = gap_series(unit_interval, (0,), 1.0, 20)
        # each coupled record's radius is at least 1e-12 (1 + k)
        r = 1e-12 * (1.0 + series.k_robin)
        assert np.all(series.error >= r * (series.k_neumann + series.k_robin))
        assert np.all(series.error <= 1e-9 * (1.0 + series.k_robin) ** 2)

    def test_decomposition_of_another_graph_rejected(self, gap_series):
        # the bounds of a ten times longer star do not hold for this one's
        # gaps, so its decomposition must not be audited against them
        star = make_star(3, (1.0, 1.5, 2.0))
        robin = RobinSpec(frozenset([0]), 2.0)
        series = gap_series(star, (0,), 2.0, 50)
        for report in check_all(series, boundary_star_decomposition(star, robin)):
            assert report.ok, (report.name, report.violations[:10])
        other = boundary_star_decomposition(make_star(3, (10.0, 15.0, 20.0)), robin)
        with pytest.raises(ValueError, match="another graph"):
            check_all(series, other)
