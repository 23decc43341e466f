"""Finite-difference oracle: convergence order and cross-validation."""
from __future__ import annotations

import math

import numpy as np
import pytest

from graphspectra.graphs import RobinSpec, build_graph, make_star
from graphspectra.solver import compute_spectrum
from fd import MeshTooCoarse, discretize, oracle_eigenvalues
from oracles import interval_robin_wavenumbers

NEUMANN = RobinSpec.neumann()


def test_mesh_guards(pi_interval):
    with pytest.raises(MeshTooCoarse):
        discretize(pi_interval, NEUMANN, 4)
    op = discretize(pi_interval, NEUMANN, 16)
    with pytest.raises(ValueError):
        oracle_eigenvalues(op, op.size)
    with pytest.raises(ValueError):
        oracle_eigenvalues(op, 0)
    with pytest.raises(ValueError):
        oracle_eigenvalues(op, 3, levels=1)


def test_matrix_symmetric_and_nonnegative(star4):
    robin = RobinSpec(frozenset({0}), 2.0)
    op = discretize(star4, robin, 64)
    asym = (op.matrix - op.matrix.T).toarray()
    assert np.max(np.abs(asym)) < 1e-12
    vals = oracle_eigenvalues(op, 6, richardson=False)
    assert np.all(vals >= -1e-10)


def test_interval_neumann_richardson(pi_interval):
    op = discretize(pi_interval, NEUMANN, 200)
    vals = oracle_eigenvalues(op, 5)
    assert np.allclose(vals, [0.0, 1.0, 4.0, 9.0, 16.0], atol=1e-6)


def test_interval_robin_oracle_agreement(unit_interval):
    robin = RobinSpec(frozenset({0}), 1.0)
    op = discretize(unit_interval, robin, 300)
    vals = oracle_eigenvalues(op, 3)
    want = interval_robin_wavenumbers(1.0, 1.0, 3) ** 2
    assert np.allclose(vals, want, rtol=1e-6)


def test_convergence_order_is_two(pi_interval):
    # eigenvalue error under mesh halving shrinks by ~4 before Richardson
    errs = []
    for n in (50, 100, 200):
        op = discretize(pi_interval, NEUMANN, n)
        lam = oracle_eigenvalues(op, 4, richardson=False)[3]
        errs.append(abs(lam - 9.0))
    order1 = math.log2(errs[0] / errs[1])
    order2 = math.log2(errs[1] / errs[2])
    assert order1 == pytest.approx(2.0, abs=0.2)
    assert order2 == pytest.approx(2.0, abs=0.2)


def test_sigma_shifts_upward(star4):
    op0 = discretize(star4, NEUMANN, 100)
    op2 = discretize(star4, RobinSpec(frozenset({0}), 2.0), 100)
    v0 = oracle_eigenvalues(op0, 8, richardson=False)
    v2 = oracle_eigenvalues(op2, 8, richardson=False)
    assert np.all(v2 >= v0 - 1e-10)


def test_equilateral_multiplicity_clusters(equilateral_star):
    op = discretize(equilateral_star, NEUMANN, 200)
    vals = oracle_eigenvalues(op, 9)
    want = np.array(
        [0.0]
        + [(math.pi / 2.0) ** 2] * 3
        + [math.pi**2]
        + [(3.0 * math.pi / 2.0) ** 2] * 3
        + [(2.0 * math.pi) ** 2]
    )
    assert np.allclose(vals, want, rtol=1e-5, atol=1e-6)


def test_cross_validates_scattering_solver(star4):
    robin = RobinSpec(frozenset({0}), 2.0)
    spec = compute_spectrum(star4, robin, n_max=10)
    op = discretize(star4, robin, 300)
    fd_vals = oracle_eigenvalues(op, 10)
    exact = spec.eigenvalues(10)
    rel = np.abs(fd_vals - exact) / np.maximum(np.abs(exact), 1e-12)
    assert np.max(rel) < 1e-4


def test_loop_edge_discretization():
    g = build_graph([(0, 0, 2.0 * math.pi), (0, 1, 1.0)])
    spec = compute_spectrum(g, NEUMANN, n_max=6)
    op = discretize(g, NEUMANN, 240)
    fd_vals = oracle_eigenvalues(op, 6)
    exact = spec.eigenvalues(6)
    rel = np.abs(fd_vals - exact) / np.maximum(exact, 1e-8)
    assert np.max(rel[1:]) < 1e-4
    assert abs(fd_vals[0]) < 1e-9


def test_refined_solves_hold_short_edges_to_rounding():
    # a unit edge and eight edges of 1e-4 in chains and loops: unrefined LU
    # solves lost 4e-7 of max(lambda, 1) at the 640-point mesh, fourfold
    # more per halving; refined, three meshes meet the solver to 4e-13
    t = 1e-4
    g = build_graph(
        [(0, 1, 1.0), (1, 2, t), (2, 3, t), (0, 4, t), (4, 5, t), (1, 6, t), (6, 7, t)]
        + [(3, 3, t), (5, 5, t)]
    )
    robin = RobinSpec(frozenset({0, 1}), 1e-8)
    exact = compute_spectrum(g, robin, n_max=6).eigenvalues(6)
    fd_vals = oracle_eigenvalues(discretize(g, robin, 160), 6, levels=3)
    assert np.max(np.abs(fd_vals - exact) / np.maximum(exact, 1.0)) < 1e-11


def test_third_mesh_removes_the_h4_term_on_close_pairs():
    # parallel edges 1 and 0.1 with one Robin end: lambda_6 = 293.64 sits
    # 0.18 below its partner, and one Richardson step leaves 7.5e-6 of it
    g = build_graph([(0, 1, 1.0), (0, 1, 0.1)])
    robin = RobinSpec(frozenset({0}), 0.1)
    exact = compute_spectrum(g, robin, n_max=6).eigenvalues(6)
    op = discretize(g, robin, 160)
    two, three = (oracle_eigenvalues(op, 6, levels=n) / exact - 1.0 for n in (2, 3))
    assert abs(two[5]) > 5e-6
    assert np.max(np.abs(three)) < 1e-7
