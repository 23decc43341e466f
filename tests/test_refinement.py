"""Two-stage root refinement: the counted splits at the cluster-phase
false-position point, the polish on the amplitude determinant det A, their
safeguards, and the certification checks that stay loud around them."""
from __future__ import annotations

import itertools
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from graphspectra import solver
from graphspectra.eigenfunctions import _conjugate_flip, eigenbasis, sensitivity
from graphspectra.errors import ToleranceNotMet
from graphspectra.graphs import (
    RobinSpec,
    build_graph,
    incommensurate_lengths,
    load_graph_file,
    make_star,
)
from graphspectra.scattering import total_phase_values, unitary_stack
from graphspectra.stats import weyl_moments
from oracles import secular_function

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


def test_amplitude_determinant_changes_sign_once_per_simple_root(star4):
    robin = RobinSpec(frozenset({0}), 2.0)
    ks = np.linspace(0.1, 40.0, 997)
    f = solver._amplitude_dets(star4, robin, ks)
    roots = solver.compute_spectrum(star4, robin, k_max=40.0).wavenumbers()
    assert np.all(np.diff(roots) > 0.0)
    assert np.count_nonzero(np.diff(np.sign(f))) == roots.size


@pytest.mark.parametrize("name", ["pi_interval", "equilateral_star", "star4"])
def test_amplitude_determinant_sign_follows_the_count_parity(name, request):
    # sign det A(k) = s_0 (-1)^N(k): through roots on the Dirichlet poles
    # (the pi-interval) and through multiple roots (the equilateral star)
    graph = request.getfixturevalue(name)
    ks = 0.05 + 0.02 * np.arange(1996)  # 0.01 or more from every integer
    for robin in (NEUMANN, RobinSpec(frozenset({0}), 2.0)):
        spec = solver.compute_spectrum(graph, robin, k_max=40.0)
        counts = np.searchsorted(spec.wavenumbers(), ks, side="right")
        signs = np.sign(solver._amplitude_dets(graph, robin, ks)) * (-1.0) ** counts
        assert np.all(signs == signs[0]) and signs[0] != 0.0, robin


def test_polish_ready_sends_even_and_endpoint_roots_back(pi_interval):
    # roots at the integers: (0.5, 1.5] and (1.5, 4.5] change sign, (0.5, 2.5]
    # holds two roots, and (0.5, 1.0] has its root on the end; N(lo) counts
    # the zero mode
    los = np.array([0.5, 1.5, 0.5, 0.5])
    his = np.array([1.5, 4.5, 2.5, 1.0])
    n_lo = np.array([1, 2, 1, 1])
    _, _, ready, sign = solver._polish_ready(pi_interval, NEUMANN, los, his, n_lo)
    assert ready.tolist() == [True, True, False, False]
    # the given s_0 is kept; the opposite one refuses every bracket
    _, _, ready, _ = solver._polish_ready(pi_interval, NEUMANN, los, his, n_lo, -sign)
    assert not ready.any()


def _planted(monkeypatch, row, column, delta):
    """Add delta to one entry of every amplitude matrix the solver builds."""
    build = solver._amplitude_matrices

    def planted(graph, robin, ks):
        a = build(graph, robin, ks)
        a[:, row, column] += delta
        return a

    monkeypatch.setattr(solver, "_amplitude_matrices", planted)


def _same_records(spec, reference):
    ks, ref = spec.k, reference.k
    return (
        np.array_equal(spec.multiplicity, reference.multiplicity)
        and np.array_equal(spec.index, reference.index)
        and bool(np.all(np.abs(ks - ref) <= reference.stop_width(ref)))
    )


@pytest.mark.parametrize(
    "case, entries, deltas",
    [
        ("pi_interval", [(0, 0), (0, 1), (1, 0), (1, 1)], [1e-3, 1.0]),
        ("star80", [(0, 0), (1, 2), (40, 3), (79, 78)], [1e-3]),
    ],
    ids=["pi_interval", "star80"],
)
def test_planted_amplitude_fault_raises_or_keeps_the_records(
    case, entries, deltas, pi_interval, monkeypatch
):
    # one wrong entry of A either leaves the end signs disagreeing with the
    # count parity (the brackets stay with the counted splits) or moves a
    # polished root, which the kernel audit sees; either way no other
    # records come out.  A fault must move a root past the kernel
    # threshold over the branch velocity to be seen: 1e-3 on entries of
    # size at most 1 does.
    if case == "pi_interval":
        graph, robins = pi_interval, (NEUMANN, RobinSpec(frozenset({0}), 2.0))
        target = {"n_max": 40}
    else:
        graph = make_star(40, incommensurate_lengths(40))
        robins, target = (RobinSpec(frozenset({0}), 2.0),), {"k_max": 0.6}
    raised = 0
    for robin in robins:
        reference = solver.compute_spectrum(graph, robin, **target)
        for (row, column), delta in itertools.product(entries, deltas):
            with monkeypatch.context() as patch:
                _planted(patch, row, column, delta)
                try:
                    spec = solver.compute_spectrum(graph, robin, **target)
                except ToleranceNotMet:
                    raised += 1
                    continue
            assert _same_records(spec, reference), (robin, row, column, delta)
    assert raised > 0  # the fault reached the polish


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
        assert np.count_nonzero(spec.multiplicity > 1) == 54
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
    near = np.abs(spec.k - 76.96902) < 1e-6
    assert spec.multiplicity[near].tolist() == [1, 1]
    assert np.diff(spec.k[near])[0] == pytest.approx(5.0e-8, rel=0.01)


def test_window_counts_off_an_integer_raise():
    with pytest.raises(ToleranceNotMet, match="away from an integer"):
        solver._window_counts(np.array([TWO_PI * 1.3]), np.array([0.0]))
    counts = solver._window_counts(np.array([TWO_PI * (2.0 + 1e-9)]), np.array([0.0]))
    assert counts.tolist() == [2]


def test_half_count_outside_the_bracket_raises(equilateral_star, monkeypatch):
    # Lower every eigenphase so that Phi drops by 4 pi at each split point,
    # after the first end rows: each left half then counts two crossings
    # more than its bracket holds.
    eigenphases = solver._eigenphases
    calls = []

    def shifted(graph, robin, ks):
        calls.append(len(ks))
        rows = eigenphases(graph, robin, ks)
        return rows if len(calls) == 1 else rows - 2.0 * TWO_PI / rows.shape[1]

    monkeypatch.setattr(solver, "_eigenphases", shifted)
    # A wrong count-1 half beside the triple at pi / 2 can have end signs
    # of the right parity (its true count is 3) and go to the polish, which
    # the kernel audit then catches.  With every handoff refused, the
    # brackets stay in the counted splits and meet the split check itself.
    ready = solver._polish_ready

    def refused(*args):
        f_lo, f_hi, ok, sign = ready(*args)
        return f_lo, f_hi, np.zeros_like(ok), sign

    with monkeypatch.context() as patch:
        patch.setattr(solver, "_polish_ready", refused)
        with pytest.raises(ToleranceNotMet, match="outside"):
            solver.compute_spectrum(equilateral_star, NEUMANN, k_max=5.0)
    calls.clear()
    with pytest.raises(ToleranceNotMet):
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


@st.composite
def wide_graphs(draw):
    """Stars and connected random graphs (loops and multi-edges allowed)
    with 2E from 32 to 80, edge lengths in [0.5, 2], up to three coupled
    vertices."""
    num_edges = draw(st.integers(16, 40))
    length = st.floats(0.5, 2.0)
    if draw(st.booleans()):
        n = num_edges + 1
        edges = [(0, v, draw(length)) for v in range(1, n)]
    else:
        n = draw(st.integers(4, num_edges))
        edges = [(draw(st.integers(0, v - 1)), v, draw(length)) for v in range(1, n)]
        vertex = st.integers(0, n - 1)
        edges += [
            (draw(vertex), draw(vertex), draw(length))
            for _ in range(num_edges - len(edges))
        ]
    coupled = draw(st.sets(st.integers(0, n - 1), max_size=3))
    sigma = float(10.0 ** draw(st.floats(-2.0, 3.0)))
    return build_graph(edges, num_vertices=n), RobinSpec(frozenset(coupled), sigma)


def _assert_winding_counts(graph, robin, spec):
    for k, multiplicity in zip(spec.k, spec.multiplicity):
        if k == 0.0:
            continue
        w = float(solver._stop_width(np.asarray(k), None))
        count = _eigvals_count(graph, robin, k - 2.0 * w, k + 2.0 * w)
        if count != multiplicity:
            # roots closer than the merge radius are one record by design
            # (say a loop of length 1 - 2e-10 beside an edge of length 1)
            r = float(solver._merge_radius(graph, robin, np.asarray([k]), None)[0])
            count = _eigvals_count(graph, robin, k - r, k + r)
        assert count == multiplicity, (k, multiplicity, w)


@given(awkward_graphs())
@settings(max_examples=40, deadline=None)
def test_records_carry_their_winding_count(case):
    graph, robin = case
    _assert_winding_counts(graph, robin, solver.compute_spectrum(graph, robin, n_max=20))


@given(wide_graphs())
@settings(max_examples=5, deadline=None)
def test_wide_graphs_carry_their_winding_count(case):
    graph, robin = case
    _assert_winding_counts(graph, robin, solver.compute_spectrum(graph, robin, n_max=20))


def test_wide_star_polishes_its_handoff_brackets(monkeypatch):
    # 2E = 64: with a rounding level of N eps 2^N on the complex
    # determinant no handoff end was clear and none of the 374 handoff
    # brackets was polished; the parity handoff needs no level
    graph = make_star(32, incommensurate_lengths(32))
    ready_fn = solver._polish_ready
    ready = []

    def counted(*args):
        out = ready_fn(*args)
        ready.append(out[2])
        return out

    monkeypatch.setattr(solver, "_polish_ready", counted)
    solver.compute_spectrum(graph, RobinSpec(frozenset({0}), 2.0), n_max=300)
    ready = np.concatenate(ready)
    assert ready.size > 300
    assert np.mean(ready) >= 0.9


@given(awkward_graphs(), st.lists(st.floats(0.0, 1.0), min_size=8, max_size=8))
@settings(max_examples=40, deadline=None)
def test_amplitude_determinant_is_the_secular_function(case, us):
    # 2^E det A(k) = s zeta(k) with one sign s per graph, at random k where
    # I - U(k) has no singular value below 1e-4 (away from the roots, so
    # that both determinants are accurate)
    graph, robin = case
    ks = 1e-3 + (60.0 / graph.min_edge_length) * np.asarray(us) ** 2
    u = unitary_stack(graph, robin, ks)
    sv = np.linalg.svd(np.eye(graph.num_slots) - u, compute_uv=False)
    ks, u = ks[sv.min(axis=1) > 1e-4], u[sv.min(axis=1) > 1e-4]
    if ks.size == 0:
        return
    zeta = secular_function(
        u, total_phase_values(graph, robin, ks), graph.num_edges, graph.num_vertices
    )
    assert np.all(np.abs(zeta.imag) <= 1e-8 * np.abs(zeta))
    ratio = 2.0**graph.num_edges * solver._amplitude_dets(graph, robin, ks) / zeta.real
    assert np.allclose(ratio, ratio[0], rtol=0.0, atol=1e-8), ratio
    assert abs(abs(ratio[0]) - 1.0) <= 1e-8, ratio


@given(
    st.integers(3, 5),
    st.floats(-15.0, -2.0),
    st.lists(st.sampled_from([0, 1, 2]), min_size=5, max_size=5),
    st.floats(-8.0, 6.0),
    st.booleans(),
)
@settings(max_examples=40, deadline=None)
# four roots near 5 pi / 2, each gap below the merge radius: one record
@example(degree=5, u=-9.25, steps=[0, 0, 1, 1, 1], s=0.0, at_leaf=False)
def test_near_degenerate_clusters_keep_their_counts(degree, u, steps, s, at_leaf):
    # lengths 1 + j delta {0, 1, 2}: clusters of roots that split just
    # above or below the stop width, the hard case for the split point
    delta = 10.0**u
    lengths = tuple(1.0 + j * delta * steps[j] for j in range(degree))
    graph = make_star(degree, lengths)
    robin = RobinSpec(frozenset({1 if at_leaf else 0}), float(10.0**s))
    _assert_winding_counts(graph, robin, solver.compute_spectrum(graph, robin, n_max=20))


@given(
    st.integers(3, 5),
    st.floats(-15.0, -2.0),
    st.lists(st.sampled_from([0, 1, 2]), min_size=5, max_size=5),
    st.floats(-8.0, 6.0),
    st.booleans(),
)
@settings(max_examples=40, deadline=None)
# two simple roots 2.1e-8 apart near pi / 2, each inside the other's kernel
@example(degree=3, u=-8.0, steps=[0, 0, 1, 0, 0], s=0.0, at_leaf=False)
# a leaf coupled at sigma = 1e-7 splits the double root at 3 pi / 2
@example(degree=3, u=-2.0, steps=[0] * 5, s=-7.0, at_leaf=True)
# four roots near pi / 2 in one chain whose mean misses a root: two
# double records, not a double root split into two simple ones
@example(degree=5, u=-8.9375, steps=[0, 0, 1, 1, 0], s=0.0, at_leaf=False)
def test_eigenfunctions_accept_the_certified_clusters(degree, u, steps, s, at_leaf):
    # the eigenfunctions count kernels by the solver's rule, so every
    # spectrum it certifies has eigenfunctions, and all in the real gauge
    delta = 10.0**u
    lengths = tuple(1.0 + j * delta * steps[j] for j in range(degree))
    graph = make_star(degree, lengths)
    robin = RobinSpec(frozenset({1 if at_leaf else 0}), float(10.0**s))
    spec = solver.compute_spectrum(graph, robin, n_max=20)
    weyl_moments(spec, 20)
    sensitivity(spec, np.arange(1, 21))
    basis = eigenbasis(spec, np.arange(len(spec.k)))
    flipped = _conjugate_flip(graph, basis.a, basis.k[:, None])
    assert np.max(np.abs(basis.a - flipped)) <= 1e-12


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
    merged = np.repeat(spec.multiplicity, spec.multiplicity)[:count] > 1
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
