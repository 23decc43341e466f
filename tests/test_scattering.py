"""Scattering matrix, unitary evolution, secular determinant, total phase.

U(k) comes only from the batched builder unitary_stack; the closed-form
entries in oracles.py are the reference it is checked against.
"""
from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphspectra.errors import ZeroWaveNumber
from graphspectra.graphs import RobinSpec, build_graph, make_complete4, make_star
from graphspectra.scattering import (
    total_phase_derivative,
    total_phase_values,
    unitary_stack,
)
from graphspectra.solver import _eigenphases
from builders import incommensurate_lengths
from oracles import interval_robin_wavenumbers, secular_function, unitary_matrix

NEUMANN = RobinSpec.neumann()


def _zeta(graph, robin, ks):
    """The real secular function zeta of the oracle, from unitary_stack."""
    return secular_function(
        unitary_stack(graph, robin.vertex_sigmas(graph), ks),
        total_phase_values(graph, robin.vertex_sigmas(graph), ks),
        graph.num_edges,
        graph.num_vertices,
    )


def _scattering(graph, robin, k):
    """S(k), read off U(k) by undoing the propagation phases."""
    u = unitary_stack(graph, robin.vertex_sigmas(graph), [k])[0]
    return u * np.exp(-1j * k * graph.slot_length)


def test_entry_neumann_degree3():
    g = make_star(3, (1.0, 1.0, 1.0))
    # center slots 0, 2, 4 point out of vertex 0; reversals 1, 3, 5 point in.
    s = _scattering(g, NEUMANN, 2.0)
    assert s[0, 1] == pytest.approx(2.0 / 3.0 - 1.0)  # back
    assert s[2, 1] == pytest.approx(2.0 / 3.0)  # through


def test_entry_degree2_transparent():
    g = build_graph([(0, 1, 1.0), (1, 2, 1.0)])
    # slot 0 runs 0->1, its reversal is slot 1; slot 2 continues 1->2.
    s = _scattering(g, NEUMANN, 3.0)
    assert s[1, 0] == pytest.approx(0.0)
    assert s[2, 0] == pytest.approx(1.0)


def test_entry_robin_degree1_unimodular():
    g = build_graph([(0, 1, 1.0)])
    robin = RobinSpec(frozenset({1}), 2.0)
    k = 1.3
    got = _scattering(g, robin, k)[1, 0]
    want = (1.0 - 1j * 2.0 / k) / (1.0 + 1j * 2.0 / k)
    assert got == pytest.approx(want)
    assert abs(got) == pytest.approx(1.0)


def test_entry_non_incident_is_zero():
    g = make_star(3, (1.0, 1.0, 1.0))
    # slot 0 ends at leaf 1, slot 2 starts at the center: not coupled
    assert _scattering(g, NEUMANN, 1.0)[2, 0] == 0.0


def test_entry_rejects_zero_k():
    g = build_graph([(0, 1, 1.0)])
    with pytest.raises(ZeroWaveNumber):
        unitary_stack(g, NEUMANN.vertex_sigmas(g), [0.0])
    with pytest.raises(ZeroWaveNumber):
        unitary_stack(g, NEUMANN.vertex_sigmas(g), [-1.0])
    with pytest.raises(ZeroWaveNumber):
        _zeta(g, NEUMANN, [0.0])
    with pytest.raises(ZeroWaveNumber):
        total_phase_values(g, NEUMANN.vertex_sigmas(g), [0.0])


def test_matrix_agrees_with_entries():
    g = make_complete4(incommensurate_lengths(6))
    robin = RobinSpec(frozenset({0, 2}), 1.7)
    k = 0.9
    got = unitary_stack(g, robin.vertex_sigmas(g), [k])[0]
    want = unitary_matrix(g.edges, {0, 2}, 1.7, k)
    assert np.allclose(got, want, rtol=0.0, atol=1e-15)


def test_unitary_on_interval_neumann():
    g = build_graph([(0, 1, math.pi)])
    u = unitary_stack(g, NEUMANN.vertex_sigmas(g), [1.0])[0]
    assert np.linalg.norm(u.conj().T @ u - np.eye(g.num_slots)) < 1e-14
    assert abs(_zeta(g, NEUMANN, [1.0])[0]) < 1e-12
    assert abs(_zeta(g, NEUMANN, [0.5])[0]) > 1e-2


def test_secular_zero_at_robin_interval_root():
    g = build_graph([(0, 1, 1.0)])
    robin = RobinSpec(frozenset({0}), 1.0)
    (k1,) = interval_robin_wavenumbers(1.0, 1.0, 1)
    dets = _zeta(g, robin, [k1, k1 + 0.3])
    assert abs(dets[0]) < 1e-10
    assert abs(dets[1]) > 1e-3


def _kernel_dim(graph, robin, k, tol=1e-8):
    u = unitary_stack(graph, robin.vertex_sigmas(graph), [k])[0]
    sv = np.linalg.svd(np.eye(graph.num_slots) - u, compute_uv=False)
    return int(np.sum(sv < tol * math.sqrt(graph.num_slots)))


def test_equilateral_star_kernel_dimensions():
    g = make_star(4, (1.0, 1.0, 1.0, 1.0))
    # center-vanishing states at cos(k)=0 span a 3-dim kernel; the
    # symmetric state at sin(k)=0 is simple.
    assert _kernel_dim(g, NEUMANN, math.pi / 2.0) == 3
    assert _kernel_dim(g, NEUMANN, math.pi) == 1
    assert _kernel_dim(g, NEUMANN, 0.4) == 0


def test_eigenphases_sorted_and_unimodular():
    g = make_complete4(incommensurate_lengths(6))
    robin = RobinSpec(frozenset(range(4)), 2.0)
    ev = np.linalg.eigvals(unitary_stack(g, robin.vertex_sigmas(g), [1.1])[0])
    assert np.allclose(np.abs(ev), 1.0, atol=1e-12)
    phases = np.sort(np.mod(np.angle(ev), 2.0 * math.pi))
    assert np.all(phases >= 0.0) and np.all(phases < 2.0 * math.pi)
    # the solver's eigenphase row is exactly these sorted reduced phases,
    # and Phi(k) is its sum
    row = _eigenphases(g, robin.vertex_sigmas(g), [1.1])[0]
    assert np.allclose(row, phases, rtol=0.0, atol=1e-12)
    assert row.sum() == pytest.approx(phases.sum(), abs=1e-12)


def test_unitary_stack_matches_pointwise():
    g = make_star(4, incommensurate_lengths(4))
    robin = RobinSpec(frozenset({0}), 2.0)
    ks = np.array([0.3, 1.0, 2.7, 9.4])
    stack = unitary_stack(g, robin.vertex_sigmas(g), ks)
    assert stack.shape == (4, g.num_slots, g.num_slots)
    for i, k in enumerate(ks):
        assert np.allclose(stack[i], unitary_matrix(g.edges, {0}, 2.0, float(k)))
    with pytest.raises(ZeroWaveNumber):
        unitary_stack(g, robin.vertex_sigmas(g), np.array([1.0, 0.0]))


def test_total_phase_closed_forms():
    g = make_star(4, incommensurate_lengths(4))
    length = g.total_length
    assert total_phase_values(g, NEUMANN.vertex_sigmas(g), [3.0])[0] == pytest.approx(6.0 * length)

    robin = RobinSpec(frozenset({0}), 2.0)
    k = 1.7
    want = 2.0 * k * length - 2.0 * math.atan(2.0 / (4.0 * k))
    assert total_phase_values(g, robin.vertex_sigmas(g), [k])[0] == pytest.approx(want, rel=1e-14)

    # coupling correction decays at large k
    tail = total_phase_values(g, robin.vertex_sigmas(g), [500.0]) - total_phase_values(
        g, NEUMANN.vertex_sigmas(g), [500.0]
    )
    assert abs(tail[0]) < 1e-2


def test_total_phase_strictly_increasing():
    g = make_complete4(incommensurate_lengths(6))
    robin = RobinSpec(frozenset(range(4)), 2.0)
    ks = np.linspace(0.05, 40.0, 400)
    theta = total_phase_values(g, robin.vertex_sigmas(g), ks)
    assert np.all(np.diff(theta) > 0.0)
    deriv = total_phase_derivative(g, robin, ks)
    assert np.all(deriv >= 2.0 * g.total_length)
    # finite differences track the closed-form derivative
    mid = 0.5 * (ks[1:] + ks[:-1])
    fd = np.diff(theta) / np.diff(ks)
    assert np.allclose(fd, total_phase_derivative(g, robin, mid), rtol=1e-3)


def test_lifted_det_argument_matches_total_phase():
    g = make_star(4, incommensurate_lengths(4))
    robin = RobinSpec(frozenset({0}), 2.0)
    ks = np.linspace(0.7, 3.0, 201)
    dets = np.array([np.linalg.det(u) for u in unitary_stack(g, robin.vertex_sigmas(g), ks)])
    # steps are small enough that each increment stays well inside (-pi, pi)
    lifted = np.sum(np.angle(dets[1:] / dets[:-1]))
    want = total_phase_values(g, robin.vertex_sigmas(g), ks[[0, -1]])
    assert abs(lifted - (want[1] - want[0])) < 1e-8 * ks.size


@given(
    st.sampled_from(["interval", "star", "tetra", "loop"]),
    st.floats(0.05, 30.0),
    st.floats(0.0, 6.0),
)
@settings(max_examples=60, deadline=None)
def test_unitarity_defect_property(kind, k, sigma):
    if kind == "interval":
        g = build_graph([(0, 1, 1.0)])
        robin = RobinSpec(frozenset({0}), sigma)
    elif kind == "star":
        g = make_star(4, incommensurate_lengths(4))
        robin = RobinSpec(frozenset({0}), sigma)
    elif kind == "tetra":
        g = make_complete4(incommensurate_lengths(6))
        robin = RobinSpec(frozenset(range(4)), sigma)
    else:
        g = build_graph([(0, 0, 1.5), (0, 1, 0.8)])
        robin = RobinSpec(frozenset({0, 1}), sigma)
    u = unitary_stack(g, robin.vertex_sigmas(g), [k])[0]
    defect = np.linalg.norm(u.conj().T @ u - np.eye(g.num_slots))
    assert defect <= 1e-12 * g.num_slots
    assert abs(abs(np.linalg.det(u)) - 1.0) < 1e-12
    # det U(k) = (-1)^(E + V) exp(i Theta(k)), loops included
    theta = total_phase_values(g, robin.vertex_sigmas(g), [k])[0]
    sign = (-1.0) ** (g.num_edges + g.num_vertices)
    assert abs(np.linalg.det(u) - sign * np.exp(1j * theta)) < 1e-12
