"""Two-stage root refinement: the counted splits at the cluster-phase
false-position point, the zeta polish, their safeguards, and the
certification checks that stay loud around them."""
from __future__ import annotations

import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphspectra import solver
from graphspectra.errors import ToleranceNotMet
from graphspectra.graphs import RobinSpec, build_graph, load_graph_file, make_star
from graphspectra.scattering import total_phase_values, unitary_stack

NEUMANN = RobinSpec.neumann()
TWO_PI = 2.0 * math.pi
FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def _eigvals_count(graph, robin, lo, hi):
    """Crossings in (lo, hi] from the winding of plain LAPACK eigenphases."""
    ks = np.array([lo, hi])
    ev = np.linalg.eigvals(unitary_stack(graph, robin, ks))
    phi = np.mod(np.angle(ev), TWO_PI).sum(axis=1)
    theta = total_phase_values(graph, robin, ks)
    return int(np.rint((theta[1] - theta[0] - (phi[1] - phi[0])) / TWO_PI))


def test_zeta_is_real_and_vanishes_at_roots(star4):
    robin = RobinSpec(frozenset({0}), 2.0)
    rotation = solver._secular_rotation(star4, robin, 0.7)
    ks = np.linspace(0.1, 40.0, 997)
    z = solver._secular_values(star4, robin, ks, rotation)
    assert np.max(np.abs(z.imag) / np.abs(z)) < 1e-8
    roots = solver.compute_spectrum(star4, robin, k_max=40.0).wavenumbers()
    # one sign change of zeta per simple root
    assert np.count_nonzero(np.diff(np.sign(z.real))) == roots.size


def test_polish_ready_sends_even_and_endpoint_roots_back(pi_interval):
    rotation = solver._secular_rotation(pi_interval, NEUMANN, 0.7)
    # roots at the integers: (0.5, 1.5] and (1.5, 4.5] change sign, (0.5, 2.5]
    # holds two roots, and (0.5, 1.0] has its root on the end
    los = np.array([0.5, 1.5, 0.5, 0.5])
    his = np.array([1.5, 4.5, 2.5, 1.0])
    _, _, ready = solver._polish_ready(pi_interval, NEUMANN, los, his, rotation)
    assert ready.tolist() == [True, True, False, False]


def test_polish_ready_raises_when_zeta_is_not_real(pi_interval):
    # turned by 45 degrees, zeta has |Im| = |zeta| / sqrt(2)
    rotation = solver._secular_rotation(pi_interval, NEUMANN, 0.7) * np.exp(0.25j * np.pi)
    with pytest.raises(ToleranceNotMet, match="not real"):
        solver._polish_ready(
            pi_interval, NEUMANN, np.array([0.5]), np.array([1.5]), rotation
        )


def test_simple_roots_are_polished_with_determinants(star4, monkeypatch):
    matrices = _count_matrices(monkeypatch, "eigvals", "det")
    spec = solver.compute_spectrum(star4, RobinSpec(frozenset({0}), 2.0), n_max=200)
    # bisection alone needs about 45 eigendecompositions per root; here
    # the scan grid (a few points per root) is nearly all that is left
    assert matrices["eigvals"] < 5 * spec.size
    assert matrices["det"] > spec.size


def _count_matrices(monkeypatch, *names):
    """Patch np.linalg functions to count the matrices they decompose."""
    matrices = dict.fromkeys(names, 0)

    def counted(name):
        fn = getattr(np.linalg, name)

        def wrapped(a):
            matrices[name] += int(np.prod(np.shape(a)[:-2]))
            return fn(a)

        return wrapped

    for name in names:
        monkeypatch.setattr(np.linalg, name, counted(name))
    return matrices


def test_multiple_roots_are_split_on_the_cluster_phases(equilateral_star, monkeypatch):
    matrices = _count_matrices(monkeypatch, "eigvals")
    for robin in (RobinSpec(frozenset({0}), 2.0), NEUMANN):
        matrices["eigvals"] = 0
        spec = solver.compute_spectrum(equilateral_star, robin, n_max=200)
        assert sum(r.multiplicity > 1 for r in spec.records) == 54
        # bisecting the triples to the stop width costs about 12.8
        # eigendecompositions per eigenvalue; false position on psi about 2.5
        assert matrices["eigvals"] < 5 * spec.size, (robin, matrices)


@pytest.mark.parametrize("name", ["star_incommensurate", "tetrahedron"])
def test_scan_grid_is_counted_without_eigenphases(name, monkeypatch):
    graph, robin = load_graph_file(FIXTURES / f"{name}.json")
    matrices = _count_matrices(monkeypatch, "eigvals")
    for coupling in (robin, NEUMANN):
        matrices["eigvals"] = 0
        spec = solver.compute_spectrum(graph, coupling, n_max=300)
        # eigenphases on the whole scan grid cost 2.0-2.7 matrices per
        # eigenvalue; only the ends of counted-split brackets remain
        assert matrices["eigvals"] < 0.5 * spec.size, (coupling, matrices)


def test_merged_records_stay_inside_the_audited_kernel():
    # two roots 5e-8 apart near k = 76.969: merged at the radius 1e-9 (1 + k),
    # their mean sat 2.5e-8 from each, outside the kernel threshold
    graph = make_star(3, (1.0, 1.0000000005615068, 1.0000000011230137))
    robin = RobinSpec(frozenset({0}), 0.0014866135130149375)
    spec = solver.compute_spectrum(graph, robin, n_max=60)
    near = [r for r in spec.records if abs(r.k - 76.96902) < 1e-6]
    assert [r.multiplicity for r in near] == [1, 1]
    assert near[1].k - near[0].k == pytest.approx(5.0e-8, rel=0.01)


def test_window_counts_off_an_integer_raise():
    with pytest.raises(ToleranceNotMet, match="away from an integer"):
        solver._window_counts(np.array([TWO_PI * 1.3]), np.array([0.0]))
    counts = solver._window_counts(np.array([TWO_PI * (2.0 + 1e-9)]), np.array([0.0]))
    assert counts.tolist() == [2]


def test_half_count_outside_the_bracket_raises(equilateral_star, monkeypatch):
    # Lower every eigenphase so that Phi drops by 4 pi at each split point,
    # after the scan: each left half then counts two crossings more than
    # its bracket holds.
    eigenphases = solver._eigenphases
    calls = []

    def shifted(graph, robin, ks):
        calls.append(len(ks))
        rows = eigenphases(graph, robin, ks)
        return rows if len(calls) == 1 else rows - 2.0 * TWO_PI / rows.shape[1]

    monkeypatch.setattr(solver, "_eigenphases", shifted)
    with pytest.raises(ToleranceNotMet, match="outside"):
        solver.compute_spectrum(equilateral_star, NEUMANN, k_max=5.0)


def test_kernel_audit_reports_excess_dimension(equilateral_star, monkeypatch):
    # Record every root as simple: the triples at pi/2 and 3 pi/2 then have a
    # three-dimensional kernel but one crossing, which the kernel audit
    # reports before the records are checked against the inertia counts.
    merge = solver._merge_roots
    monkeypatch.setattr(
        solver,
        "_merge_roots",
        lambda roots, mults, radii: merge(roots, np.ones_like(mults), radii),
    )
    with pytest.raises(ToleranceNotMet, match="above"):
        solver.compute_spectrum(equilateral_star, NEUMANN, k_max=5.0)


@st.composite
def awkward_graphs(draw):
    """Small graphs with loops, multi-edges and degree-2 chains; one edge of
    length 1, the others in [1e-4, 1], often repeated exactly."""
    n = draw(st.integers(2, 4))
    length = st.one_of(
        st.just(1.0), st.floats(-4.0, 0.0).map(lambda u: float(10.0**u))
    )
    edges = [(draw(st.integers(0, v - 1)), v, draw(length)) for v in range(1, n)]
    edges[0] = (edges[0][0], edges[0][1], 1.0)
    for _ in range(draw(st.integers(0, 3))):
        kind = draw(st.sampled_from(["loop", "multi", "chain"]))
        if kind == "loop":
            u = draw(st.integers(0, n - 1))
            edges.append((u, u, draw(length)))
        elif kind == "multi":
            u, v, _ = draw(st.sampled_from(edges))
            edges.append((u, v, draw(length)))
        else:
            u = draw(st.integers(0, n - 1))
            edges += [(u, n, draw(length)), (n, n + 1, draw(length))]
            n += 2
    coupled = draw(st.sets(st.integers(0, n - 1), max_size=n))
    sigma = float(10.0 ** draw(st.floats(-8.0, 6.0)))
    return build_graph(edges, num_vertices=n), RobinSpec(frozenset(coupled), sigma)


def _assert_winding_counts(graph, robin, spec):
    for rec in spec.records:
        if rec.k == 0.0:
            continue
        w = float(solver._stop_width(np.asarray(rec.k), None))
        count = _eigvals_count(graph, robin, rec.k - 2.0 * w, rec.k + 2.0 * w)
        if count != rec.multiplicity:
            # roots closer than the merge radius are one record by design
            # (say a loop of length 1 - 2e-10 beside an edge of length 1)
            r = float(solver._merge_radius(graph, robin, np.asarray([rec.k]), None)[0])
            count = _eigvals_count(graph, robin, rec.k - r, rec.k + r)
        assert count == rec.multiplicity, (rec, w)


@given(awkward_graphs())
@settings(max_examples=40, deadline=None)
def test_records_carry_their_winding_count(case):
    graph, robin = case
    _assert_winding_counts(graph, robin, solver.compute_spectrum(graph, robin, n_max=20))


@given(
    st.integers(3, 5),
    st.floats(-15.0, -2.0),
    st.lists(st.sampled_from([0, 1, 2]), min_size=5, max_size=5),
    st.floats(-8.0, 6.0),
    st.booleans(),
)
@settings(max_examples=40, deadline=None)
def test_near_degenerate_clusters_keep_their_counts(degree, u, steps, s, at_leaf):
    # lengths 1 + j delta {0, 1, 2}: clusters of roots that split just
    # above or below the stop width, the hard case for the split point
    delta = 10.0**u
    lengths = tuple(1.0 + j * delta * steps[j] for j in range(degree))
    graph = make_star(degree, lengths)
    robin = RobinSpec(frozenset({1 if at_leaf else 0}), float(10.0**s))
    _assert_winding_counts(graph, robin, solver.compute_spectrum(graph, robin, n_max=20))


@given(awkward_graphs(), st.lists(st.floats(0.0, 1.0), min_size=8, max_size=8))
@settings(max_examples=40, deadline=None)
def test_inertia_count_equals_the_winding_count(case, us):
    # N(k) from the inertia of M(k) against the eigenphase winding count
    # from the anchor, at random k where the inertia count has margin
    graph, robin = case
    k_start, below = solver._anchor(graph, robin, None)
    zero_count = 1 if robin.sigma == 0.0 or not robin.vertices else 0
    ks = k_start + (60.0 / graph.min_edge_length) * np.asarray(us) ** 2
    counts, ok = solver._inertia_counts(graph, robin, ks)
    for k, n in zip(ks[ok], counts[ok]):
        winding = _eigvals_count(graph, robin, k_start, k)
        assert n == zero_count + len(below) + winding, (k, n, winding)


def _slack(spec, count):
    """1e-10 (1 + k) per index, plus the merge radius on multiple records:
    roots closer than that are reported once, at their mean."""
    mults = np.array([r.multiplicity for r in spec.records])
    merged = np.repeat(mults, mults)[:count] > 1
    return (1e-10 + np.where(merged, solver.MERGE_SCALE, 0.0)) * (
        1.0 + spec.wavenumbers(count)
    )


@given(awkward_graphs(), st.integers(0, 63))
@settings(max_examples=40, deadline=None)
def test_interlacing_under_one_robin_vertex(case, vertex):
    # k_n(0) <= k_n(sigma) <= k_{n+1}(0) for a single coupled vertex
    graph, robin = case
    coupled = RobinSpec(frozenset({vertex % graph.num_vertices}), robin.sigma)
    s0 = solver.compute_spectrum(graph, NEUMANN, n_max=21)
    s1 = solver.compute_spectrum(graph, coupled, n_max=20)
    k0, k1 = s0.wavenumbers(21), s1.wavenumbers(20)
    w0, w1 = _slack(s0, 21), _slack(s1, 20)
    assert np.all(k0[:20] <= k1 + w0[:20] + w1)
    assert np.all(k1 <= k0[1:] + w0[1:] + w1)
