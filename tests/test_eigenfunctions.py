"""Kernel vectors, gauges, norms, vertex values, sensitivity."""
from __future__ import annotations

import math

import numpy as np
import pytest

from graphspectra import solver
from graphspectra.eigenfunctions import (
    NEIGHBOUR_SV,
    _l2_norm_sq,
    eigenbasis,
    evaluate,
    sensitivity,
)
from graphspectra.errors import KernelDimensionMismatch, OutOfRange
from graphspectra.graphs import RobinSpec, build_graph, make_star
from graphspectra.solver import Spectrum, compute_spectrum
from oracles import (
    interval_robin_wavenumbers,
    quadrature_norm_sq,
    robin_residual,
    robin_star_sensitivity,
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


def test_l2_norm_against_quadrature(star4):
    robin = RobinSpec(frozenset({0}), 2.0)
    spec = compute_spectrum(star4, robin, n_max=12)
    basis = eigenbasis(spec, np.arange(12))
    for a, k, closed in zip(basis.a, basis.k, basis.l2norm_sq):
        edges = [
            (star4.edge_length(t), complex(a[2 * t]), complex(a[2 * t + 1]))
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
        [evaluate(basis, row, e, 0.3 * star4.edge_length(e)) for e in range(4)]
    )
    # evaluate divides by the norm, so re-integrating gives 1
    a = basis.a[row]
    edges = [
        (star4.edge_length(t), complex(a[2 * t]), complex(a[2 * t + 1]))
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
            slots = tetrahedron.slots_out(v)
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
    [([99], OutOfRange), ([-1], OutOfRange), ([1.5], ValueError), ([True], ValueError)],
)
def test_eigenbasis_rejects_a_position_it_cannot_use(records, error):
    # no position may silently give no rows, nor a boolean the rows of record 1
    star = make_star(3, (1.0, 1.5, 2.0))
    spec = compute_spectrum(star, RobinSpec(frozenset({0}), 2.0), n_max=5)
    assert spec.k.size == 5 and eigenbasis(spec, [4]).record.tolist() == [4]
    with pytest.raises(error):
        eigenbasis(spec, records)


def test_a_boolean_index_is_no_eigenvalue_index(star4):
    # True must not read as index 1, the ground state's
    spec = compute_spectrum(star4, RobinSpec(frozenset({0}), 2.0), n_max=4)
    for n in (True, np.array([True, False])):
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
        slots = star4.slots_out(0)
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
    lengths = [star4.edge_length(t) for t in range(star4.num_edges)]
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
