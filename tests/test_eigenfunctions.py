"""Kernel vectors, gauges, norms, vertex values, sensitivity."""
from __future__ import annotations

import itertools
import math

import mpmath
import numpy as np
import pytest

from graphspectra import eigenfunctions, solver
from graphspectra.eigenfunctions import (
    NEIGHBOUR_SV,
    _l2_norm_sq,
    eigenbasis,
    evaluate,
    sensitivity,
)
from graphspectra.errors import KernelDimensionMismatch, OutOfRange
from graphspectra.graphs import RobinSpec, build_graph, make_complete4, make_star
from graphspectra.solver import Spectrum, compute_spectrum
from oracles import (
    amplitude_matrix,
    eigenspace_vertex_weight,
    interval_robin_wavenumbers,
    quadrature_norm_sq,
    robin_residual,
    robin_star_sensitivity,
    vertex_projectors,
)

NEUMANN = RobinSpec.neumann()


def _one_record(graph, k, multiplicity):
    """A Neumann spectrum that claims a single record (k, multiplicity)."""
    return Spectrum(
        graph, NEUMANN, np.array([2]), np.array([k]), np.array([multiplicity]),
        np.zeros(1), k_cap=k,
    )


def _residual(basis, row, v):
    """The vertex-condition oracle on one row of an eigenbasis."""
    graph, robin = basis.spectrum.graph, basis.spectrum.robin
    ends = graph.slot_origin
    edges = list(zip(ends[0::2], ends[1::2], graph.slot_length[0::2]))
    return robin_residual(edges, robin.vertices, robin.sigma, basis.k[row], basis.a[row], v)


def _record_rows(spec, n):
    """An eigenbasis of the record holding eigenvalue n, and that record's rows."""
    at = int(spec.positions(n))
    basis = eigenbasis(spec, [at])
    return basis, np.flatnonzero(basis.record == at)


def _reality_defect(graph, basis, row):
    a, k = basis.a[row], basis.k[row]
    flipped = np.conj(a[graph.slot_reversal]) * np.exp(-1j * k * graph.slot_length)
    return np.max(np.abs(a - flipped))


def test_interval_cosine_amplitudes(pi_interval):
    spec = compute_spectrum(pi_interval, NEUMANN, n_max=3)
    basis, (row,) = _record_rows(spec, 2)  # k = 1
    a = basis.a[row]
    assert basis.residual[row] < 1e-10
    assert abs(np.linalg.norm(a) - 1.0) < 1e-12
    assert abs(abs(a[0]) - 1.0 / math.sqrt(2.0)) < 1e-10
    assert _reality_defect(pi_interval, basis, row) < 1e-8


def test_interval_eigenfunction_is_cosine(pi_interval):
    spec = compute_spectrum(pi_interval, NEUMANN, n_max=3)
    basis, (row,) = _record_rows(spec, 3)  # k = 2
    values = basis.vertex_values[row]
    # normalized eigenfunction is sqrt(2/pi) cos(2x), up to overall sign
    want = math.sqrt(2.0 / math.pi)
    sign = math.copysign(1.0, values[0])
    for x in np.linspace(0.0, math.pi, 23):
        got = evaluate(basis, row, 0, float(x))
        assert got == pytest.approx(sign * want * math.cos(2.0 * x), abs=1e-8)
    assert values[0] == pytest.approx(sign * want, abs=1e-10)
    assert abs(values[1]) == pytest.approx(want, abs=1e-10)
    with pytest.raises(OutOfRange):
        evaluate(basis, row, 0, math.pi + 0.1)
    with pytest.raises(OutOfRange):
        evaluate(basis, row, 0, -0.1)


def test_kernel_dimension_guard(pi_interval, equilateral_star):
    with pytest.raises(KernelDimensionMismatch):
        eigenbasis(_one_record(pi_interval, 1.0, 2), [0])
    with pytest.raises(KernelDimensionMismatch):
        eigenbasis(_one_record(pi_interval, 1.4, 1), [0])  # not an eigenvalue
    # the triple root at pi / 2: a short record and records with excess raise
    for m in (1, 2, 4):
        with pytest.raises(KernelDimensionMismatch):
            eigenbasis(_one_record(equilateral_star, math.pi / 2.0, m), [0])
    basis = eigenbasis(_one_record(equilateral_star, math.pi / 2.0, 3), [0])
    assert np.array_equal(basis.record, [0, 0, 0])
    with pytest.raises(KernelDimensionMismatch):
        eigenbasis(_one_record(equilateral_star, 1.3, 3), [0])


def test_rows_of_records_inside_each_others_kernel():
    # two certified simple roots 2.1e-8 apart near pi / 2: each lies inside
    # the other's numerical kernel, so a row needs the pair to count it,
    # though the eigenbasis solves only the record asked for
    star = make_star(3, (1.0, 1.0, 1.0 + 2e-8))
    spec = compute_spectrum(star, RobinSpec(frozenset({0}), 1.0), n_max=4)
    pair = np.flatnonzero(np.abs(spec.k - math.pi / 2.0) < 1e-6)
    assert spec.multiplicity[pair].tolist() == [1, 1]
    assert 0.0 < spec.k[pair[1]] - spec.k[pair[0]] < 1e-7
    for at in pair:
        basis, (row,) = _record_rows(spec, spec.index[at])
        assert basis.record.tolist() == [at]
        assert basis.k[row] == spec.k[at]
        assert basis.residual[row] < 1e-12
        assert _reality_defect(star, basis, row) < 1e-12


@pytest.mark.parametrize(
    "t", [0.0, 1e-9, 0.7853981633974483, 1.5707963267948966, 3.0, 4.8, 9.42, 1234.5678]
)
def test_exact_cos_sin_match_mpmath(t):
    # the residual of the Newton steps takes cos k l and sin k l in
    # double-double, past every float and np.longdouble
    hi, lo = solver._wide_cos_sin((np.array([t]), np.array([0.0])))
    with mpmath.workdps(60):
        for j, want in enumerate((mpmath.cos(t), mpmath.sin(t))):
            assert abs(mpmath.mpf(hi[j, 0]) + mpmath.mpf(lo[j, 0]) - want) < 1e-31 * (1.0 + t)


def _condensed_rows(edges, coupled, sigma, k, y):
    """The rows of the solver's condensed A(k) times x, from the oracle's
    2E x 2E amplitude_matrix at mpmath's precision times y, the edge
    amplitudes of x.  Per vertex, with the oracle's slots in edge order
    and the solver's forward slots first: the solver's Kirchhoff row reads
    f at its own first slot, so it is the oracle's minus
    (sigma / k) / n_v times that slot's f less the oracle's first; a
    continuity row f_q - f_p, q backward and p the slot before it, is a
    sum of the oracle's."""
    product = amplitude_matrix(edges, coupled, sigma, k, mpmath) @ y
    starts = [end for u, v, _ in edges for end in (u, v)]
    out, row = [], 0
    for vertex in sorted(set(starts)):
        at = [j for j, start in enumerate(starts) if start == vertex]
        # f_j less f at the oracle's first slot, from its continuity rows
        rise = dict(zip(at, itertools.accumulate(product[row + 1 : row + len(at)], initial=0)))
        order = sorted(at, key=lambda j: (j % 2, j))
        s = sigma / k if vertex in coupled else 0
        out.append(product[row] - s / mpmath.sqrt(len(at) ** 2 + s**2) * rise[order[0]])
        out.extend(rise[q] - rise[p] for p, q in zip(order, order[1:]) if q % 2)
        row += len(at)
    return out


@pytest.mark.parametrize("sigma", [0.0, 1e-8, 1e-3, 1.0, 1e3, 1e6])
@pytest.mark.parametrize(
    "graph",
    [
        make_complete4((1.0, 1.3, 0.7, 1.1, 0.9, 1.7)),
        make_star(4, (1.0, 1.0, 1.0, 2.5)),
        build_graph([(0, 1, 1.0), (0, 0, 0.6), (1, 1, 1.4)]),
        build_graph([(0, 1, 0.8)]),
    ],
    ids=["K4", "star4", "edge_two_loops", "interval"],
)
def test_wide_product_matches_mpmath(graph, sigma):
    # the residual of the Newton steps, A(k) x at k = k0 + shift in
    # double-double, against the oracle's A(k) at 60 digits: k l_max from
    # 1e-9 to 1e5 and within 1e-12 of multiples of pi / 2, each k once at
    # shift 0 and once a shift of 1e-11 (1 + k) plus a low part off it
    robin = RobinSpec(frozenset({0, 1}), sigma)
    sigmas = robin.vertex_sigmas(graph)
    l_max = float(np.max(graph.slot_length))
    quarters = [q * math.pi / 2.0 + d for q in (1, 2, 3, 1000, 63661) for d in (-1e-12, 1e-12)]
    kl = np.array([1e-9, 1e-3, 0.5, 2.0, 17.3, 1e3, 1e5, *quarters])
    ks = np.repeat(kl / l_max, 2)
    offset = (1e-11 * (1.0 + ks) * (np.arange(ks.size) % 2))[:, None]
    shift = solver._fast_two_sum(offset, 1e-17 * offset)
    layout = solver._amplitude_layout(graph)
    n, edge_columns = layout[0], layout[5]
    x = np.random.default_rng(7).standard_normal((ks.size, n))
    waves = solver._wide_waves(graph, ks)
    hi, lo = solver._wide_product(graph, sigmas, ks, shift, waves, x, np.arange(ks.size))
    edges = list(graph.edges)
    with mpmath.workdps(60):
        for i, k0 in enumerate(ks):
            k = mpmath.mpf(k0) + mpmath.mpf(shift[0][i, 0]) + mpmath.mpf(shift[1][i, 0])
            y = [mpmath.mpf(v) for v in x[i, edge_columns]]
            want = _condensed_rows(edges, robin.vertices, sigma, k, y)
            got = [mpmath.mpf(h) + mpmath.mpf(g) for h, g in zip(hi[i], lo[i])]
            error = max(abs(a - b) for a, b in zip(got, want))
            bound = 1e-28 * (1.0 + k0 * l_max) * np.linalg.norm(x[i])
            assert error <= bound, (k0, float(error), bound)


def test_one_wide_product_per_newton_step(monkeypatch):
    # the near records of one eigenbasis call, of every multiplicity, share
    # one batched residual per Newton step: EXACT_STEPS calls for one near
    # record or for all
    graph = make_complete4((1.0,) * 6)
    spec = compute_spectrum(graph, RobinSpec(frozenset({0, 1}), 0.3), n_max=40)
    calls, wide = [], solver._wide_product

    def counted(graph, sigmas, ks, *rest):
        calls.append(ks.copy())
        return wide(graph, sigmas, ks, *rest)

    monkeypatch.setattr(solver, "_wide_product", counted)
    eigenbasis(spec, np.arange(spec.k.size))
    assert len(calls) == eigenfunctions.EXACT_STEPS and calls[0].size >= 2
    assert all(np.array_equal(ks, calls[0]) for ks in calls)
    one = int(np.flatnonzero(spec.k == calls[0][0])[0])
    calls.clear()
    eigenbasis(spec, [one])
    assert [ks.size for ks in calls] == [1] * eigenfunctions.EXACT_STEPS


@pytest.mark.parametrize(
    "graph, robin",
    [
        (make_complete4((1.0,) * 5 + (1.0 + 1e-10,)), NEUMANN),
        (build_graph([(0, 1, 1.0), (0, 0, 1.0), (0, 0, 0.9999999999976974)]), NEUMANN),
    ],
    ids=["K4", "two_loops"],
)
def test_kernel_vectors_residual_matches_mpmath(monkeypatch, graph, robin):
    # the double-double residual of every Newton step of the near records,
    # at the shift the step took, and once more at a shift of RADIUS_FLOOR
    # (1 + k), against the oracle's A(k + shift) x at 50 digits, within the
    # 1e-32 (1 + k l) |x| of _wide_product's docstring (two_loops: a record
    # of two simple roots 4.85e-12 apart, whose shift goes furthest)
    spec = compute_spectrum(graph, robin, n_max=12)
    calls, wide = [], solver._wide_product

    def kept(graph, sigmas, ks, shift, waves, x, owner):
        out = wide(graph, sigmas, ks, shift, waves, x, owner)
        calls.append((ks[owner], tuple(v[owner, 0] for v in shift), x.copy(), out))
        return out

    monkeypatch.setattr(solver, "_wide_product", kept)
    eigenbasis(spec, np.arange(spec.k.size))
    assert len(calls) == eigenfunctions.EXACT_STEPS
    ks, _, x, _ = calls[-1]
    far = (solver.RADIUS_FLOOR * (1.0 + ks))[:, None]
    sigmas, waves = robin.vertex_sigmas(graph), solver._wide_waves(graph, ks)
    out = wide(graph, sigmas, ks, (far, 0.0 * far), waves, x, np.arange(ks.size))
    calls.append((ks, (far[:, 0], 0.0 * far[:, 0]), x, out))
    columns, l_max = solver._amplitude_layout(graph)[5], float(np.max(graph.slot_length))
    with mpmath.workdps(50):
        for ks, shift, x, (hi, lo) in calls:
            for i, k0 in enumerate(ks):
                k = mpmath.mpf(k0) + mpmath.mpf(shift[0][i]) + mpmath.mpf(shift[1][i])
                y = [mpmath.mpf(v) for v in x[i, columns]]
                want = _condensed_rows(list(graph.edges), robin.vertices, robin.sigma, k, y)
                got = [mpmath.mpf(h) + mpmath.mpf(g) for h, g in zip(hi[i], lo[i])]
                error = max(abs(a - b) for a, b in zip(got, want))
                bound = 1e-32 * (1.0 + k0 * l_max) * np.linalg.norm(x[i])
                assert error <= bound, (k0, float(error), bound)


def test_a_spectrum_rebuilt_without_its_singular_values_gives_the_same_basis():
    # the eigenbasis reads the singular values the certification took, and
    # takes its own SVD where a spectrum carries none: the same projectors,
    # and the same kernel rule's verdict on a claimed multiplicity
    graph, robin = make_complete4((1.0,) * 6), RobinSpec(frozenset({0, 1}), 0.7)
    spec = compute_spectrum(graph, robin, n_max=60)
    taken = np.flatnonzero(~np.isnan(spec.singular_values[:, 0]))
    assert taken.size >= 10

    def rebuilt(multiplicity, singular_values=None):
        return Spectrum(
            spec.graph, spec.robin, spec.index, spec.k, multiplicity, spec.radius,
            spec.k_cap, singular_values,
        )

    bare = rebuilt(spec.multiplicity)
    assert bare.singular_values.shape == spec.singular_values.shape
    assert np.all(np.isnan(bare.singular_values))
    records = np.flatnonzero(spec.k > 0.0)
    got = vertex_projectors(eigenbasis(spec, records))
    want = vertex_projectors(eigenbasis(bare, records))
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))
    for at in taken[[0, -1]]:
        claimed = spec.multiplicity.copy()
        claimed[at] += 1
        verdicts = []
        for carried in (spec.singular_values, None):
            with pytest.raises(KernelDimensionMismatch) as raised:
                eigenbasis(rebuilt(claimed, carried), [at])
            verdicts.append(str(raised.value))
        assert verdicts[0] == verdicts[1]


def test_the_eigenbasis_takes_no_second_svd_of_a_certified_record(monkeypatch):
    # an equilateral K4: one single-matrix SVD for each record whose
    # enclosure the certification counted, none for those whose singular
    # values it took for the kernel rule
    spec = compute_spectrum(make_complete4((0.9,) * 6), RobinSpec(frozenset({0}), 1.3), n_max=60)
    positive = spec.k > 0.0
    untaken = np.count_nonzero(positive & np.isnan(spec.singular_values[:, 0]))
    assert 0 < untaken < np.count_nonzero(positive)
    shapes, svd = [], np.linalg.svd

    def counted(a, *args, **kwargs):
        shapes.append(np.shape(a))
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counted)
    sensitivity(spec, np.arange(1, spec.size + 1))
    assert len(shapes) == untaken and all(len(shape) == 2 for shape in shapes)


def test_zero_mode_has_no_row(unit_interval):
    spec = compute_spectrum(unit_interval, NEUMANN, n_max=3)
    basis, rows = _record_rows(spec, 1)
    assert rows.size == 0 and len(basis.record) == 0


def test_kernel_lost_at_the_record_raises(monkeypatch, star4):
    # a planted fault: A(k) gains 1e-6 ||A|| along its kernel vector, so the
    # record's singular value sits far above the kernel threshold
    spec = compute_spectrum(star4, RobinSpec(frozenset({0}), 2.0), n_max=5)
    build = solver._amplitude_matrices

    def lifted(*args):
        amp = build(*args)
        u, s, vt = np.linalg.svd(amp)
        return amp + 1e-6 * s[:, :1, None] * u[:, :, -1:] * vt[:, -1:, :]

    assert eigenbasis(spec, [2]).residual.max() < 1e-12
    monkeypatch.setattr(solver, "_amplitude_matrices", lifted)
    with pytest.raises(KernelDimensionMismatch, match="below"):
        eigenbasis(spec, [2])


def _plant(monkeypatch, edit):
    """Let edit(amp) change each stack of A(k) that the eigenbasis builds."""
    build = solver._amplitude_matrices

    def planted(*args):
        amp = build(*args)
        edit(amp)
        return amp

    monkeypatch.setattr(solver, "_amplitude_matrices", planted)


def test_an_entry_off_the_arrow_takes_the_svd(monkeypatch, star4, svd_matrices):
    # a planted fault the arrow's own entries do not show: A[2, 3] =
    # 1e-3 ||A|| leaves a, b, c and d, so their Schur entry still vanishes,
    # but the matrix has no kernel left; only the exact check of the leaf
    # block sends the record to the SVD, which finds none
    spec = compute_spectrum(star4, RobinSpec(frozenset({0}), 2.0), n_max=5)
    svd_matrices[0] = 0
    assert eigenbasis(spec, [2]).residual.max() < 1e-12
    assert svd_matrices[0] == 0

    def off_arrow(amp):
        amp[:, 2, 3] = 1e-3 * np.linalg.norm(amp, ord=2, axis=(1, 2))

    _plant(monkeypatch, off_arrow)
    with pytest.raises(KernelDimensionMismatch, match="below"):
        eigenbasis(spec, [2])
    assert svd_matrices[0] == 1


@pytest.mark.parametrize("ratio, svds", [(0.99, 1), (1.01, 0)])
def test_a_small_pivot_takes_the_svd(monkeypatch, star4, svd_matrices, ratio, svds):
    # leaf row 2 scaled so that its pivot |d| is ratio NEIGHBOUR_SV ||A||_2:
    # the kernel is the same, but only a pivot at or above the bound
    # certifies the next singular value without an SVD
    spec = compute_spectrum(star4, RobinSpec(frozenset({0}), 2.0), n_max=5)
    want = eigenbasis(spec, [2])

    def small_pivot(amp):
        for _ in range(8):  # the scaled row moves ||A||_2 a little
            norm = np.linalg.norm(amp, ord=2, axis=(1, 2))
            amp[:, 2] *= (ratio * NEIGHBOUR_SV * norm / np.abs(amp[:, 2, 2]))[:, None]
        pivot = np.abs(amp[:, 2, 2]) / np.linalg.norm(amp, ord=2, axis=(1, 2))
        assert np.allclose(pivot, ratio * NEIGHBOUR_SV, rtol=1e-6, atol=0.0)

    _plant(monkeypatch, small_pivot)
    svd_matrices[0] = 0
    got = eigenbasis(spec, [2])
    assert svd_matrices[0] == svds
    sign = np.sign(np.vdot(want.vertex_values, got.vertex_values))
    assert np.allclose(sign * got.vertex_values, want.vertex_values, rtol=0.0, atol=1e-11)


def _without_closed_form(patch):
    """Send every record's singular values to the SVD."""
    patch.setattr(
        eigenfunctions,
        "_arrow_kernels",
        lambda graph, amp, ks, mults, radius, slope: (
            np.full(amp.shape[:2], np.nan),
            np.zeros((ks.size, amp.shape[1], mults.max(initial=1))),
        ),
    )


@pytest.mark.parametrize("lengths", [(1.0,) * 4, (1.0, 3.0, 5.0)], ids=["equilateral", "1:3:5"])
def test_star_multiples_take_their_kernel_in_closed_form(monkeypatch, svd_matrices, lengths):
    # the triples of the equilateral star and the doubles of the 1:3:5 star
    # sit at the stub poles of all their leaves: the closed-form bounds
    # certify them with no SVD, and the eigenspaces and sensitivities are
    # those of the SVD path, rows that meet every vertex condition among them
    star = make_star(len(lengths), lengths)
    spec = compute_spectrum(star, RobinSpec(frozenset({0}), 2.0), n_max=60)
    records = np.arange(spec.k.size)
    assert np.any(spec.multiplicity > 1)
    svd_matrices[0] = 0
    got, values = eigenbasis(spec, records), sensitivity(spec, spec.index).value
    assert svd_matrices[0] == 0
    with monkeypatch.context() as patch:
        _without_closed_form(patch)
        want, svd_values = eigenbasis(spec, records), sensitivity(spec, spec.index).value
    assert svd_matrices[0] > 0
    assert np.allclose(vertex_projectors(got), vertex_projectors(want), rtol=0.0, atol=1e-12)
    assert np.allclose(values, svd_values, rtol=0.0, atol=1e-12)
    multiple = np.flatnonzero(spec.multiplicity[got.record] > 1)
    assert np.all(got.residual[multiple] < 1e-13)
    for row in multiple:
        for v in range(len(lengths) + 1):
            assert _residual(got, row, v) < 1e-10


def test_star_simples_meet_the_oracle_at_high_k(svd_matrices):
    # x = (1, -c / d) leans from the kernel by |Schur| / min |d|, which once
    # left the sensitivity near k = 227.77 1.7e-11 of the largest value off
    # the oracle; the Newton step after the bordered solve must keep it at
    # rounding, still with no SVD
    star = make_star(4, (1.0,) * 4)
    robin = RobinSpec(frozenset({0, 1}), 2.0)
    spec = compute_spectrum(star, robin, n_max=300)
    at = np.flatnonzero(spec.k > 0.0)
    svd_matrices[0] = 0
    got = sensitivity(spec, spec.index[at]).value
    assert svd_matrices[0] == 0
    edges, vertices = list(star.edges), robin.coupled_vertices(star)
    want = np.array([
        eigenspace_vertex_weight(edges, robin.vertices, robin.sigma, vertices, k, m)
        for k, m in zip(spec.k[at], spec.multiplicity[at])
    ])
    assert np.max(np.abs(got - want)) <= 1e-13 * np.abs(want).max()


def _triple(equilateral_star):
    """The equilateral star at {0}, sigma 2, and the position of its first triple."""
    spec = compute_spectrum(equilateral_star, RobinSpec(frozenset({0}), 2.0), n_max=5)
    (at,) = np.flatnonzero(spec.multiplicity == 3)
    return spec, int(at)


def test_an_entry_off_the_arrow_takes_a_triple_to_the_svd(
    monkeypatch, equilateral_star, svd_matrices
):
    # A[2, 3] = 1e-3 ||A|| leaves every pivot and the centre row as they
    # were, but the triple's kernel loses a dimension: only the exact check
    # of the leaf block sends it to the SVD, which finds it short
    spec, at = _triple(equilateral_star)
    svd_matrices[0] = 0
    assert eigenbasis(spec, [at]).record.tolist() == [at] * 3
    assert svd_matrices[0] == 0

    def off_arrow(amp):
        amp[:, 2, 3] = 1e-3 * np.linalg.norm(amp, ord=2, axis=(1, 2))

    _plant(monkeypatch, off_arrow)
    with pytest.raises(KernelDimensionMismatch, match="below"):
        eigenbasis(spec, [at])
    assert svd_matrices[0] == 1


@pytest.mark.parametrize("pivot, svds", [(0.0, 0), (1e-10, 1)])
def test_a_lifted_pole_pivot_takes_the_svd(
    monkeypatch, equilateral_star, svd_matrices, pivot, svds
):
    # the pivot of leaf row 2 set to pivot ||A||_2 at the triple: exactly at
    # the pole it keeps the closed form; at 1e-10, below the kernel rule's
    # floor, so that the SVD still counts three small singular values, but
    # far above what a root half a stop width off leaves, it leaves it
    spec, at = _triple(equilateral_star)
    want = eigenbasis(spec, [at])

    def lifted(amp):
        amp[:, 2, 2] = pivot * np.linalg.norm(amp, ord=2, axis=(1, 2))

    _plant(monkeypatch, lifted)
    svd_matrices[0] = 0
    got = eigenbasis(spec, [at])
    assert svd_matrices[0] == svds
    assert np.allclose(vertex_projectors(got), vertex_projectors(want), rtol=0.0, atol=1e-8)


@pytest.mark.parametrize("sigma, svds", [(1e3, 0), (1e4, 2)])
def test_a_strong_centre_keeps_the_triples_svd(
    monkeypatch, equilateral_star, svd_matrices, sigma, svds
):
    # the centre row of A(k) is 1 / n_c, about k / sigma: the next singular
    # value at the two triples below 5 falls from 1.3e-3 ||A||_2 at sigma
    # 1e3 to 1.3e-4 ||A||_2 at 1e4, so the bound on it passes the gate only
    # at 1e3, where the closed form must give the SVD's eigenspaces
    spec = compute_spectrum(equilateral_star, RobinSpec(frozenset({0}), sigma), n_max=5)
    triples = np.flatnonzero(spec.multiplicity == 3)
    assert triples.size == 2
    svd_matrices[0] = 0
    got = eigenbasis(spec, triples)
    assert svd_matrices[0] == svds
    with monkeypatch.context() as patch:
        _without_closed_form(patch)
        want = eigenbasis(spec, triples)
    assert np.allclose(vertex_projectors(got), vertex_projectors(want), rtol=0.0, atol=1e-12)


def test_leaves_out_of_edge_order_take_the_closed_form(svd_matrices):
    # A(k)'s rows follow the vertex ids and its B_t columns the edges, so on
    # the first listing its leaf block is diagonal only with its rows taken
    # in edge order: both listings take no SVD and give the same values
    robin, bases = RobinSpec(frozenset({0}), 2.0), []
    for edges in ([(0, 2, 1.0), (0, 1, 1.3)], [(0, 1, 1.3), (0, 2, 1.0)]):
        spec = compute_spectrum(build_graph(edges), robin, n_max=50)
        svd_matrices[0] = 0
        bases.append(eigenbasis(spec, np.arange(spec.k.size)))
        assert svd_matrices[0] == 0
    one, two = bases
    assert np.allclose(one.k, two.k, rtol=1e-15, atol=0.0)
    sign = np.sign(np.sum(one.vertex_values * two.vertex_values, axis=1))[:, None]
    assert np.allclose(sign * one.vertex_values, two.vertex_values, rtol=0.0, atol=1e-13)


def test_l2_norm_against_quadrature(star4):
    robin = RobinSpec(frozenset({0}), 2.0)
    spec = compute_spectrum(star4, robin, n_max=12)
    basis = eigenbasis(spec, np.arange(12))
    for a, k, closed in zip(basis.a, basis.k, basis.l2norm_sq):
        edges = [
            (star4.edges[t][2], complex(a[2 * t]), complex(a[2 * t + 1]))
            for t in range(star4.num_edges)
        ]
        assert closed == pytest.approx(quadrature_norm_sq(edges, k), abs=1e-10)
        assert closed > 0.0


def test_normalized_row_has_unit_norm(star4):
    robin = RobinSpec(frozenset({0}), 2.0)
    spec = compute_spectrum(star4, robin, n_max=5)
    k = spec.k[2]
    basis, (row,) = _record_rows(spec, spec.index[2])
    scaled = np.array(
        [evaluate(basis, row, e, 0.3 * star4.edges[e][2]) for e in range(4)]
    )
    # evaluate divides by the norm, so re-integrating gives 1
    a = basis.a[row]
    edges = [
        (star4.edges[t][2], complex(a[2 * t]), complex(a[2 * t + 1]))
        for t in range(star4.num_edges)
    ]
    total = quadrature_norm_sq(edges, k) / basis.l2norm_sq[row]
    assert total == pytest.approx(1.0, abs=1e-10)
    assert np.all(np.isfinite(scaled))


def test_degenerate_basis_real_gauge(equilateral_star):
    spec = compute_spectrum(equilateral_star, NEUMANN, n_max=4)
    basis, rows = _record_rows(spec, 2)  # the triple root at pi / 2
    assert len(rows) == 3
    for i, row in enumerate(rows):
        assert basis.k[row] == pytest.approx(math.pi / 2.0, rel=1e-12)
        assert basis.residual[row] < 1e-10
        assert _reality_defect(equilateral_star, basis, row) < 1e-8
        for j in rows[:i]:
            assert abs(np.vdot(basis.a[j], basis.a[row])) < 1e-10
        # center-vanishing states: all of them are zero at the hub
        assert abs(basis.vertex_values[row, 0]) < 1e-8


def test_vertex_values_continuity(tetrahedron):
    robin = RobinSpec(frozenset(range(4)), 2.0)
    spec = compute_spectrum(tetrahedron, robin, n_max=8)
    for index, k in zip(spec.index[:8], spec.k[:8]):
        basis, (row,) = _record_rows(spec, index)
        a = basis.a[row]
        for v in range(4):
            # value via each incident slot must agree; construction checks
            # at 1e-6, re-verify at the tighter reporting tolerance
            slots = np.flatnonzero(tetrahedron.slot_origin == v)
            raw = a[slots] + a[tetrahedron.slot_reversal[slots]] * np.exp(
                1j * k * tetrahedron.slot_length[slots]
            )
            assert np.max(np.abs(raw - raw[0])) < 1e-8
            assert abs(np.imag(raw[0])) < 1e-8


def _star_row():
    star = make_star(3, (1.0, 1.5, 2.0))
    spec = compute_spectrum(star, RobinSpec(frozenset({0}), 2.0), n_max=3)
    basis, (row,) = _record_rows(spec, 2)
    return basis, row


def test_evaluate_rejects_edges_outside_the_graph():
    # a negative edge must not wrap around to the last one
    basis, row = _star_row()
    assert np.isfinite(evaluate(basis, row, 2, 0.5))
    for edge in (-1, 3):
        with pytest.raises(OutOfRange):
            evaluate(basis, row, edge, 0.5)


@pytest.mark.parametrize("row, edge", [(0.5, 0), (0, 1.5), (True, 0)])
def test_evaluate_rejects_a_row_or_edge_that_is_no_integer(row, edge):
    # a float must not index, nor a boolean read as a mask
    basis, at = _star_row()
    assert np.isfinite(evaluate(basis, np.int64(at), np.int64(0), 0.1))
    with pytest.raises(ValueError, match="must be an integer"):
        evaluate(basis, row, edge, 0.1)


@pytest.mark.parametrize("x", [True, "0.5"])
def test_evaluate_rejects_an_x_that_is_no_number(x):
    # a boolean must not read as x = 1.0, nor a string escape as a TypeError
    basis, row = _star_row()
    with pytest.raises(ValueError, match="must be a number"):
        evaluate(basis, row, 0, x)


@pytest.mark.parametrize(
    "records, error",
    [
        ([99], OutOfRange),
        ([-1], OutOfRange),
        ([1.5], ValueError),
        ([True], ValueError),
        ([4, True], ValueError),
    ],
)
def test_eigenbasis_rejects_a_position_it_cannot_use(records, error):
    # no position may silently give no rows, nor a boolean the rows of
    # record 1, inside a list of integers too
    star = make_star(3, (1.0, 1.5, 2.0))
    spec = compute_spectrum(star, RobinSpec(frozenset({0}), 2.0), n_max=5)
    assert spec.k.size == 5 and eigenbasis(spec, [4]).record.tolist() == [4]
    with pytest.raises(error):
        eigenbasis(spec, records)


def test_a_boolean_index_is_no_eigenvalue_index(star4):
    # True must not read as index 1, the ground state's, inside a list of
    # integers either
    spec = compute_spectrum(star4, RobinSpec(frozenset({0}), 2.0), n_max=4)
    for n in (True, np.array([True, False]), [2, True], [[True], [3]]):
        with pytest.raises(ValueError, match="whole number"):
            spec.positions(n)
        with pytest.raises(ValueError, match="whole number"):
            sensitivity(spec, n)


def test_robin_residual_rejects_vertices_outside_the_graph():
    # a negative vertex must not wrap around to the last one
    basis, row = _star_row()
    assert _residual(basis, row, 0) < 1e-10
    for v in (-1, 4):
        with pytest.raises(ValueError):
            _residual(basis, row, v)


def test_rows_outside_the_basis_raise(star4):
    # a row of -1 must not read the last row
    spec = compute_spectrum(star4, RobinSpec(frozenset({0}), 2.0), n_max=6)
    basis = eigenbasis(spec, np.arange(len(spec.k)))
    last = len(basis.k) - 1
    assert np.isfinite(evaluate(basis, last, 0, 0.5))
    assert _residual(basis, last, 0) < 1e-6 * basis.k[last]
    for row in (-1, len(basis.k)):
        with pytest.raises(OutOfRange):
            evaluate(basis, row, 0, 0.5)


def test_robin_residual_all_vertices(star4):
    robin = RobinSpec(frozenset({0}), 2.0)
    spec = compute_spectrum(star4, robin, n_max=10)
    for index, k in zip(spec.index[:10], spec.k[:10]):
        basis, (row,) = _record_rows(spec, index)
        for v in range(star4.num_vertices):
            assert _residual(basis, row, v) < 1e-6 * max(k, 1.0)


def test_tangent_identity_at_robin_vertex(star4):
    # sum over incident edges of tan(phase at vertex) equals sigma/k
    robin = RobinSpec(frozenset({0}), 2.0)
    spec = compute_spectrum(star4, robin, n_max=6)
    for index, k in zip(spec.index[:6], spec.k[:6]):
        basis, (row,) = _record_rows(spec, index)
        if abs(basis.vertex_values[row, 0]) < 1e-3:
            continue
        a = basis.a[row]
        slots = np.flatnonzero(star4.slot_origin == 0)
        f_v = a[slots] + a[star4.slot_reversal[slots]] * np.exp(
            1j * k * star4.slot_length[slots]
        )
        back = a[star4.slot_reversal[slots]] * np.exp(
            1j * k * star4.slot_length[slots]
        )
        deriv = 1j * k * (a[slots] - back)
        tans = np.real(deriv) / (k * np.real(f_v))
        assert np.sum(tans) == pytest.approx(2.0 / k, rel=1e-6)


def test_sensitivity_constant_mode(star4, tetrahedron, unit_interval):
    for g, verts in ((unit_interval, {0}), (star4, {0}), (tetrahedron, {0, 1, 2, 3})):
        robin = RobinSpec(frozenset(verts), 0.0)
        got = sensitivity(compute_spectrum(g, robin, n_max=1), 1)
        assert not got.degenerate
        assert got.value == pytest.approx(len(verts) / g.total_length, rel=1e-12)


def test_sensitivity_hadamard_interval(unit_interval):
    robin = RobinSpec(frozenset({0}), 1.0)
    spec = compute_spectrum(unit_interval, robin, n_max=8)
    h = 1e-5
    up = interval_robin_wavenumbers(1.0, 1.0 + h, 8)
    down = interval_robin_wavenumbers(1.0, 1.0 - h, 8)
    for n in range(1, 9):
        got = sensitivity(spec, n)
        fd = (up[n - 1] ** 2 - down[n - 1] ** 2) / (2.0 * h)
        assert not got.degenerate
        assert got.value == pytest.approx(fd, rel=1e-6)


def test_sensitivity_degenerate_flag(equilateral_star):
    robin = RobinSpec(frozenset({0}), 2.0)
    spec = compute_spectrum(equilateral_star, robin, n_max=4)
    got = sensitivity(spec, 3)
    assert got.degenerate
    assert got.value == pytest.approx(0.0, abs=1e-12)  # center-vanishing states


def test_batch_kernel_matches_closed_form(star4):
    robin = RobinSpec(frozenset({0}), 2.0)
    spec = compute_spectrum(star4, robin, n_max=15)
    ks = spec.k[:15]
    basis = eigenbasis(spec, np.arange(15))
    assert np.array_equal(basis.record, np.arange(ks.size))
    assert np.array_equal(basis.k, ks)
    assert np.all(basis.residual < 1e-10)
    lengths = [star4.edges[t][2] for t in range(star4.num_edges)]
    for k, f in zip(ks, basis.vertex_values):
        # f = A_j cos(k (l_j - x)) on edge j: leaf value f(0) / cos(k l_j)
        leaves = f[0] / np.cos(k * np.array(lengths))
        assert np.allclose(f[1:], leaves, atol=1e-9)
        assert f[0] ** 2 == pytest.approx(robin_star_sensitivity(lengths, k), rel=1e-9)
    # each row is the single-record basis at its own k
    for index, a in zip(spec.index, basis.a):
        single, (row,) = _record_rows(spec, index)
        assert abs(np.vdot(single.a[row], a)) == pytest.approx(1.0, abs=1e-12)


def test_batch_sensitivity_mixes_multiplicities(equilateral_star):
    robin = RobinSpec(frozenset({0}), 2.0)
    spec = compute_spectrum(equilateral_star, robin, n_max=30)
    got = sensitivity(spec, np.arange(1, 31))
    mults = np.repeat(spec.multiplicity, spec.multiplicity)[:30]
    assert np.array_equal(got.degenerate, mults > 1)
    # center-vanishing triples carry no weight at the coupled center
    want = [
        robin_star_sensitivity([1.0] * 4, k) if m == 1 else 0.0
        for k, m in zip(spec.wavenumbers(30), mults)
    ]
    assert np.allclose(got.value, want, rtol=1e-9, atol=1e-12)
    with pytest.raises(OutOfRange):
        sensitivity(spec, np.array([1, spec.size + 1]))


@pytest.mark.parametrize(
    "n",
    [3, np.arange(1, 9), np.arange(1, 9).reshape(2, 4), np.array([], dtype=int)],
    ids=["0-d", "1-d", "2-d", "empty"],
)
def test_sensitivity_keeps_the_shape_of_n(equilateral_star, n):
    spec = compute_spectrum(equilateral_star, RobinSpec(frozenset({0}), 2.0), n_max=8)
    flat = sensitivity(spec, np.arange(1, 9))
    got = sensitivity(spec, n)
    at = np.asarray(n) - 1
    assert np.shape(got.value) == np.shape(got.degenerate) == at.shape
    assert np.array_equal(got.value, flat.value[at])
    assert np.array_equal(got.degenerate, flat.degenerate[at])


@pytest.mark.parametrize("n", [2.5, np.array([1, 2.5]), math.nan], ids=["0-d", "1-d", "nan"])
def test_sensitivity_rejects_a_fractional_index(star4, n):
    # the record below 2.5 is lambda_2's; no value may come back for it
    spec = compute_spectrum(star4, RobinSpec(frozenset({0}), 2.0), n_max=8)
    with pytest.raises(ValueError, match="whole number"):
        sensitivity(spec, n)
    assert sensitivity(spec, 2.0).value == sensitivity(spec, 2).value


def test_zero_vector_norm():
    g = build_graph([(0, 1, 1.0)])
    assert _l2_norm_sq(g, np.zeros((1, 2), dtype=complex), np.array([1.0]))[0] == 0.0


@pytest.mark.parametrize("name", ["record", "k", "a", "residual", "l2norm_sq", "vertex_values"])
def test_basis_arrays_are_read_only(star4, name):
    spec = compute_spectrum(star4, RobinSpec(frozenset({0}), 2.0), n_max=5)
    with pytest.raises(ValueError, match="read-only"):
        getattr(eigenbasis(spec, [2]), name)[0] = 0


def test_the_svd_gives_values_only(monkeypatch, tetrahedron):
    # the kernel vectors come from the bordered solve: an SVD off the
    # arrow's gate gives the kernel rule its values and nothing else
    spec = compute_spectrum(tetrahedron, RobinSpec(frozenset({0}), 1.0), n_max=20)
    calls, svd = [], np.linalg.svd

    def spy(a, *args, **kwargs):
        calls.append(kwargs.get("compute_uv", True))
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", spy)
    eigenbasis(spec, np.arange(spec.k.size))
    assert calls and not any(calls)
