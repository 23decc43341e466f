"""Gap-sequence statistics against closed forms and synthetic series."""
from __future__ import annotations

import itertools

import numpy as np
import pytest

from graphspectra.errors import DanglingEndpoint, InsufficientSpectrum
from graphspectra.graphs import RobinSpec, build_graph, make_star
from graphspectra.scattering import total_phase_derivative, total_phase_values
from graphspectra.solver import compute_spectrum
from graphspectra.stats import (
    RngSeries,
    accumulation_clusters,
    arctan_prediction,
    empirical_cdf,
    rng_sequence,
    running_average,
    sensitivity_prediction,
    theoretical_mean,
    weyl_moments,
)

from oracles import interval_robin_wavenumbers


def _synthetic(gaps, sigma=2.0, graph=None):
    gaps = np.asarray(gaps, dtype=float)
    if graph is None:
        graph = build_graph([(0, 1, 1.0)])
    ks = np.sqrt(np.arange(1.0, gaps.size + 1))
    return RngSeries(
        graph=graph,
        robin=RobinSpec(frozenset([0]), sigma),
        gaps=gaps,
        k_neumann=ks,
        k_robin=ks,
    )


class TestRngSequence:
    def test_interval_gaps_match_oracle(self, unit_interval, gap_series):
        series = gap_series(unit_interval, (0,), 1.0, 12)
        k_robin = interval_robin_wavenumbers(1.0, 1.0, 12)
        k_neumann = np.concatenate([[0.0], np.pi * np.arange(1, 12)])
        expected = k_robin**2 - k_neumann**2
        assert np.allclose(series.gaps, expected, rtol=0, atol=1e-10)
        assert series.gaps.shape == (12,)
        assert len(series) == 12

    def test_difference_consistency_is_exact(self, unit_interval, gap_series):
        # gaps are built as (k1 - k0)(k1 + k0), so this holds bitwise
        series = gap_series(unit_interval, (0,), 3.0, 25)
        rebuilt = (series.k_robin - series.k_neumann) * (series.k_robin + series.k_neumann)
        assert np.array_equal(series.gaps, rebuilt)

    def test_gaps_nonnegative(self, star4, gap_series):
        series = gap_series(star4, (0,), 2.0, 150)
        assert np.all(series.gaps >= -1e-9)
        # graph and coupling come from the coupled spectrum
        assert (series.graph, series.robin) == (star4, RobinSpec(frozenset({0}), 2.0))

    def test_short_spectrum_rejected(self, unit_interval, get_spectrum):
        short = compute_spectrum(unit_interval, RobinSpec.neumann(), n_max=5)
        with pytest.raises(InsufficientSpectrum):
            rng_sequence(short, get_spectrum(unit_interval, (0,), 1.0, 50), 50)

    def test_needs_positive_count(self, unit_interval, get_spectrum):
        with pytest.raises(ValueError):
            rng_sequence(
                get_spectrum(unit_interval, (), 0.0, 5),
                get_spectrum(unit_interval, (0,), 1.0, 5),
                0,
            )

    def test_spectra_of_different_graphs_rejected(self, star4, tetrahedron, get_spectrum):
        neumann = get_spectrum(tetrahedron, (), 0.0, 20)
        with pytest.raises(ValueError, match="different graphs"):
            rng_sequence(neumann, get_spectrum(star4, (0,), 1.0, 20), 20)

    def test_coupled_first_spectrum_rejected(self, star4, get_spectrum):
        coupled = get_spectrum(star4, (0,), 1.0, 20)
        with pytest.raises(ValueError, match="coupled"):
            rng_sequence(coupled, get_spectrum(star4, (0,), 2.0, 20), 20)
        with pytest.raises(ValueError, match="coupled"):
            rng_sequence(coupled, get_spectrum(star4, (), 0.0, 20), 20)


class TestMeans:
    def test_theoretical_mean_star_center(self, star4):
        # single coupled vertex of degree 4: sigma / (2 |G|)
        expected = 2.0 / (2.0 * star4.total_length)
        got = theoretical_mean(star4, RobinSpec(frozenset([0]), 2.0))
        assert got == pytest.approx(expected, rel=1e-14)

    def test_theoretical_mean_all_vertices(self, tetrahedron):
        # four coupled vertices of degree 3: (8/3) sigma / |G|
        got = theoretical_mean(tetrahedron, RobinSpec(frozenset(range(4)), 2.0))
        expected = (8.0 / 3.0) * 2.0 / tetrahedron.total_length
        assert got == pytest.approx(expected, rel=1e-14)

    def test_cesaro_approaches_limit(self, unit_interval, gap_series):
        series = gap_series(unit_interval, (0,), 1.0, 400)
        limit = theoretical_mean(unit_interval, series.robin)
        assert np.mean(series.gaps) == pytest.approx(limit, rel=0.05)


class TestRunningAverage:
    def test_truncated_edges(self):
        out = running_average([1.0, 2.0, 3.0, 4.0, 5.0], 3)
        assert np.allclose(out, [1.5, 2.0, 3.0, 4.0, 4.5])

    def test_window_one_is_identity(self):
        vals = np.array([3.0, 1.0, 4.0, 1.0, 5.0])
        assert np.array_equal(running_average(vals, 1), vals)

    def test_full_window_interior_value(self):
        vals = np.arange(21.0)
        out = running_average(vals, 21)
        assert out[10] == pytest.approx(10.0)

    def test_even_window_rejected(self):
        with pytest.raises(ValueError):
            running_average([1.0, 2.0, 3.0], 2)

    def test_oversized_window_rejected(self):
        with pytest.raises(ValueError):
            running_average([1.0, 2.0], 21)


def test_counts_that_are_no_integers_raise(star4, get_spectrum):
    # a boolean must not count one, nor a float slice, average or index
    neumann, coupled = get_spectrum(star4, (), 0.0, 6), get_spectrum(star4, (0,), 2.0, 6)
    calls = [
        lambda n: rng_sequence(neumann, coupled, n),
        lambda n: weyl_moments(coupled, n),
        lambda n: running_average(np.arange(6.0), n),
    ]
    for call in calls:
        call(np.int64(3))  # a numpy integer is one
        for n in (True, 2.5, 1.0):
            with pytest.raises(ValueError, match="must be an integer"):
                call(n)


class TestPredictions:
    def test_arctan_large_k_limit(self, star4):
        robin = RobinSpec(frozenset([0]), 2.0)
        far = arctan_prediction(star4, robin, 1e8)
        assert far == pytest.approx(theoretical_mean(star4, robin), rel=1e-6)

    def test_arctan_interval_closed_form(self, unit_interval):
        k = np.array([0.3, 1.0, 7.5])
        got = arctan_prediction(unit_interval, RobinSpec(frozenset([0]), 2.0), k)
        assert np.allclose(got, 2.0 * k * np.arctan(2.0 / k), rtol=1e-14)

    def test_arctan_increasing_in_k(self, tetrahedron):
        k = np.linspace(0.1, 40.0, 300)
        vals = arctan_prediction(tetrahedron, RobinSpec(frozenset(range(4)), 2.0), k)
        assert np.all(np.diff(vals) > 0)

    def test_sensitivity_neumann_limit(self, star4):
        # sigma = 0 collapses to the high-energy constant for every lam
        robin = RobinSpec(frozenset([0]), 0.0)
        got = sensitivity_prediction(star4, robin, [0.5, 3.0, 100.0])
        expected = 2.0 / star4.total_length * 0.25
        assert np.allclose(got, expected, rtol=1e-14)

    def test_sensitivity_interval_closed_form(self, unit_interval):
        lam = np.array([0.2, 1.0, 9.0])
        got = sensitivity_prediction(unit_interval, RobinSpec(frozenset([0]), 3.0), lam)
        assert np.allclose(got, 2.0 * lam / (9.0 + lam), rtol=1e-14)

    def test_sensitivity_high_energy_limit(self, tetrahedron):
        robin = RobinSpec(frozenset(range(4)), 2.0)
        got = sensitivity_prediction(tetrahedron, robin, 1e10)
        expected = 2.0 / tetrahedron.total_length * (4.0 / 3.0)
        assert got == pytest.approx(expected, rel=1e-8)

    @pytest.mark.parametrize("vertex", [-1, 4])
    def test_vertices_outside_the_graph_rejected(self, vertex):
        # a negative vertex must not wrap around to the last leaf, whose
        # degree would then be counted twice
        star = make_star(3, (1.0, 1.5, 2.0))
        robin = RobinSpec(frozenset([vertex, 3]), 2.0)
        ks = np.array([0.5, 2.0])
        for closed_form in (
            lambda: theoretical_mean(star, robin),
            lambda: arctan_prediction(star, robin, ks),
            lambda: sensitivity_prediction(star, robin, ks**2),
            lambda: len(robin.coupled_vertices(star)) / star.total_length,
            lambda: total_phase_values(star, robin.vertex_sigmas(star), ks),
            lambda: total_phase_derivative(star, robin, ks),
        ):
            with pytest.raises(DanglingEndpoint):
                closed_form()


class TestWeylMoments:
    def test_slot_means_weighted_sum_is_one(self, star4, get_spectrum):
        spectrum = get_spectrum(star4, (0,), 2.0, 300)
        report = weyl_moments(spectrum, 300)
        # per sample the length-weighted slot functionals sum to exactly 1
        weighted = np.sum(star4.slot_length * report.slot_means)
        assert weighted == pytest.approx(1.0, abs=1e-12)

    def test_counts_add_up(self, star4, get_spectrum):
        spectrum = get_spectrum(star4, (), 0.0, 200)
        report = weyl_moments(spectrum, 200)
        assert report.n_used + report.skipped == 200
        assert report.skipped >= 1  # the zero mode carries no amplitudes

    def test_cross_matrix_hermitian(self, star4, get_spectrum):
        spectrum = get_spectrum(star4, (0,), 2.0, 300)
        report = weyl_moments(spectrum, 300)
        assert np.allclose(report.cross_matrix, report.cross_matrix.conj().T, atol=1e-14)
        assert np.allclose(np.real(np.diag(report.cross_matrix)), report.slot_means)

    def test_moments_near_equidistribution(self, star4, get_spectrum):
        spectrum = get_spectrum(star4, (0,), 2.0, 400)
        report = weyl_moments(spectrum, 400)
        total = star4.total_length
        # loose check at modest N; the acceptance run tightens this at N=2000
        assert report.vertex_means[0] == pytest.approx(2.0 / (4.0 * total), rel=0.25)
        for v in range(1, 5):
            assert report.vertex_means[v] == pytest.approx(2.0 / (1.0 * total), rel=0.25)
        assert np.allclose(report.slot_means, 1.0 / (2.0 * total), rtol=0.25)
        off = report.cross_matrix - np.diag(np.diag(report.cross_matrix))
        assert np.max(np.abs(off)) < 0.25 / (2.0 * total)

    def test_short_spectrum_rejected(self, star4, get_spectrum):
        spectrum = get_spectrum(star4, (0,), 2.0, 100)
        with pytest.raises(InsufficientSpectrum):
            weyl_moments(spectrum, 10**6)

    @pytest.mark.parametrize("name, n", [("unit_interval", 1), ("equilateral_star", 3)])
    def test_no_simple_positive_eigenvalue_rejected(self, name, n, request, get_spectrum):
        # Neumann: the zero mode first, then the equilateral star's triple
        spectrum = get_spectrum(request.getfixturevalue(name), (), 0.0, n)
        with pytest.raises(InsufficientSpectrum, match="no simple positive"):
            weyl_moments(spectrum, n)


class TestCdf:
    def test_right_continuous_at_atoms(self):
        cdf = empirical_cdf(_synthetic([0.0, 0.0, 0.0, 1.0]))
        assert cdf(0.0) == pytest.approx(0.75)
        assert cdf(-1e-12) == pytest.approx(0.0)
        assert cdf(1.0) == pytest.approx(1.0)

    def test_support_and_monotone(self):
        cdf = empirical_cdf(_synthetic([3.0, 1.0, 2.0]))
        assert cdf.values.tolist() == [1.0, 2.0, 3.0]
        xs = np.linspace(0.0, 4.0, 50)
        vals = cdf(xs)
        assert np.all(np.diff(vals) >= 0)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            empirical_cdf(_synthetic([]))


class TestClusters:
    def test_explicit_tolerance_splits(self):
        series = _synthetic([0.0, 0.0, 0.0, 1.0, 1.0 + 5e-7, 2.0])
        clusters = accumulation_clusters(series, tol=1e-3)
        assert [c for _, c in clusters] == [3, 2, 1]
        assert clusters[0][0] == pytest.approx(0.0, abs=1e-15)
        assert clusters[1][0] == pytest.approx(1.0 + 2.5e-7, abs=1e-12)

    def test_everything_merges_at_huge_tolerance(self):
        series = _synthetic([0.0, 1.0, 2.0])
        clusters = accumulation_clusters(series, tol=10.0)
        assert clusters == [(1.0, 3)]

    @pytest.mark.parametrize("tol", [np.nan, np.inf, -1e-3])
    def test_bad_tolerance_rejected(self, tol):
        # NaN chained every gap into one cluster, a negative tol split each off
        with pytest.raises(ValueError, match="finite and at least 0"):
            accumulation_clusters(_synthetic([0.0, 1.0, 2.0]), tol=tol)

    def test_equilateral_zero_cluster(self, equilateral_star, gap_series):
        series = gap_series(equilateral_star, (0,), 2.0, 120)
        clusters = accumulation_clusters(series)
        # three of every four gaps vanish: the degenerate branches never move
        value, count = clusters[0]
        assert abs(value) < 1e-10
        assert count == 90


class TestLipschitz:
    def test_interval_quotient_below_two(self, unit_interval, get_spectrum):
        # |d_n(s1) - d_n(s2)| / |s1 - s2| over pairs of couplings and n <= 40
        neumann = get_spectrum(unit_interval, (0,), 0.0, 40)
        gaps = {
            s: rng_sequence(neumann, get_spectrum(unit_interval, (0,), s, 40), 40).gaps
            for s in (0.0, 0.5, 1.0)
        }
        worst = max(
            np.max(np.abs(gaps[b] - gaps[a])) / (b - a)
            for a, b in itertools.combinations(gaps, 2)
        )
        assert 0.0 < worst <= 2.0 + 1e-9

    def test_short_precomputed_spectrum_rejected(self, unit_interval, get_spectrum):
        # a gap series d_n needs n eigenvalues at every coupling
        short = compute_spectrum(unit_interval, RobinSpec(frozenset([0]), 0.5), n_max=3)
        with pytest.raises(InsufficientSpectrum):
            rng_sequence(get_spectrum(unit_interval, (), 0.0, 20), short, 20)
