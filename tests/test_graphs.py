"""Graph model, generators, and star decompositions."""
from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphspectra.errors import (
    DanglingEndpoint,
    DisconnectedGraph,
    NonPositiveLength,
)
from graphspectra.graphs import (
    MetricGraph,
    RobinSpec,
    StarDecomposition,
    boundary_star_decomposition,
    build_graph,
    make_complete4,
    make_star,
    parse_graph,
)
from builders import incommensurate_lengths, midpoint_star_decomposition
from oracles import min_integer_relation


def test_single_edge_graph():
    g = build_graph([(0, 1, 1.0)])
    assert g.num_edges == 1
    assert g.total_length == 1.0
    assert g.degrees[0] == g.degrees[1] == 1
    assert list(g.slot_reversal) == [1, 0]
    assert g.slot_origin[0] == 0 and g.slot_terminus[0] == 1


def test_star_topology():
    g = make_star(4, (1.0, 1.0, 1.0, 1.0))
    assert g.degrees[0] == 4
    assert all(g.degrees[v] == 1 for v in range(1, 5))
    assert g.total_length == 4.0


def test_complete4_topology():
    g = make_complete4([1.0] * 6)
    assert g.total_length == 6.0
    assert all(g.degrees[v] == 3 for v in range(4))


def test_loop_contributes_two_slots():
    g = build_graph([(0, 0, 2.0), (0, 1, 1.0)])
    assert g.degrees[0] == 3  # loop twice plus the pendant edge
    assert g.slot_reversal[0] == 1 and g.slot_origin[1] == 0


def test_reversal_is_involution_without_fixed_points():
    g = make_complete4(incommensurate_lengths(6))
    rev = g.slot_reversal
    assert np.array_equal(rev[rev], np.arange(g.num_slots))
    assert np.all(rev != np.arange(g.num_slots))


def test_rejects_bad_lengths():
    with pytest.raises(NonPositiveLength):
        build_graph([(0, 1, 0.0)])
    with pytest.raises(NonPositiveLength):
        build_graph([(0, 1, -2.0)])
    with pytest.raises(NonPositiveLength):
        build_graph([(0, 1, math.inf)])


def test_rejects_disconnected():
    with pytest.raises(DisconnectedGraph):
        build_graph([(0, 1, 1.0), (2, 3, 1.0)])
    with pytest.raises(DisconnectedGraph):
        MetricGraph(3, ((0, 1, 1.0),))  # vertex 2 isolated


def test_rejects_more_vertices_than_a_connected_graph_can_have():
    # E edges connect at most E + 1 vertices; a count this large once
    # reached an allocation of size num_vertices and escaped as MemoryError
    huge = 10**18
    with pytest.raises(DisconnectedGraph, match="plus one, 2: the graph cannot be connected"):
        MetricGraph(huge, ((0, 1, 1.0),))
    with pytest.raises(DisconnectedGraph, match="plus one, 2: the graph cannot be connected"):
        parse_graph({"vertices": huge, "edges": [{"u": 0, "v": 1, "len": 1.0}]})


def test_rejects_dangling_endpoint():
    with pytest.raises(DanglingEndpoint):
        MetricGraph(2, ((0, 5, 1.0),))


def test_rejects_empty():
    with pytest.raises(ValueError):
        build_graph([])


def test_constructors_coerce_no_input():
    # each of these once came back as another graph or coupling, without error
    with pytest.raises(ValueError, match="vertex id must be an integer"):
        build_graph([(0, 1.9, True)])
    with pytest.raises(ValueError, match="edge length must be a number"):
        build_graph([(0, 1, True)])
    with pytest.raises(ValueError, match="Robin vertex must be an integer"):
        RobinSpec(frozenset({0.6}), 1.0)
    with pytest.raises(ValueError, match="sigma must be a number"):
        RobinSpec(frozenset({0}), True)
    with pytest.raises(ValueError, match="vertex count must be an integer"):
        MetricGraph(2.5, ((0, 1, 1.0),))
    # numpy integer and float scalars are what they say
    g = build_graph([(np.int64(0), np.int32(1), np.float64(1.5))])
    assert g == MetricGraph(np.intp(2), ((0, 1, 1.5),))
    assert RobinSpec(frozenset({np.int64(1)}), np.float32(0.5)) == RobinSpec(frozenset({1}), 0.5)


def test_graph_hashable_and_equal_on_defining_fields():
    g1 = make_star(3, (1.0, 2.0, 3.0))
    g2 = make_star(3, (1.0, 2.0, 3.0))
    assert g1 == g2 and hash(g1) == hash(g2)
    assert {g1: "x"}[g2] == "x"


def test_robin_spec_validation():
    with pytest.raises(ValueError):
        RobinSpec(frozenset({0}), -1.0)
    g = build_graph([(0, 1, 1.0)])
    with pytest.raises(DanglingEndpoint):
        RobinSpec(frozenset({7}), 1.0).vertex_sigmas(g)
    sig = RobinSpec(frozenset({0}), 2.5).vertex_sigmas(g)
    assert sig[0] == 2.5 and sig[1] == 0.0
    assert RobinSpec.neumann().sigma == 0.0


def test_incommensurate_lengths_formula():
    vals = incommensurate_lengths(3)
    assert vals[0] == 1.0
    assert abs(vals[1] - math.sqrt(3.0 / 2.0)) < 1e-15
    assert abs(vals[2] - math.sqrt(5.0 / 2.0)) < 1e-15
    assert incommensurate_lengths(1, 2.5) == (2.5,)
    scaled = incommensurate_lengths(2, 3.0)
    assert abs(scaled[1] / scaled[0] - math.sqrt(1.5)) < 1e-15


def test_incommensurate_lengths_pass_rational_probe():
    vals = incommensurate_lengths(4)
    assert min_integer_relation(vals, bound=10) > 1e-12


def test_midpoint_decomposition():
    g = build_graph([(0, 1, 1.0)])
    d = midpoint_star_decomposition(g)
    assert d.splits == ((0.5, 0.5),)
    assert d.star_lengths[0] == d.star_lengths[1] == 0.5

    star = make_star(4, (1.0, 1.0, 1.0, 1.0))
    d = midpoint_star_decomposition(star)
    assert d.star_lengths[0] == 2.0
    assert d.star_lengths[1] == 0.5

    tetra = make_complete4([1.0] * 6)
    d = midpoint_star_decomposition(tetra)
    assert all(abs(d.star_lengths[v] - 1.5) < 1e-15 for v in range(4))


def test_boundary_decomposition_star_center():
    star = make_star(4, incommensurate_lengths(4))
    robin = RobinSpec(frozenset({0}), 2.0)
    d = boundary_star_decomposition(star, robin)
    assert abs(d.star_lengths[0] - star.total_length) < 1e-14
    assert d.star_lengths[1] == 0.0


def test_boundary_decomposition_interval_and_fallback():
    g = build_graph([(0, 1, 1.0)])
    d = boundary_star_decomposition(g, RobinSpec(frozenset({1}), 1.0))
    assert d.splits == ((0.0, 1.0),)

    tetra = make_complete4([1.0] * 6)
    d = boundary_star_decomposition(tetra, RobinSpec(frozenset(range(4)), 1.0))
    assert d.splits == midpoint_star_decomposition(tetra).splits


def test_harmonic_split():
    star = make_star(4, (1.0, 2.0, 4.0, 4.0))
    robin = RobinSpec(frozenset({0}), 1.0)
    d = boundary_star_decomposition(star, robin)
    # 1/(1/1 + 1/2 + 1/4 + 1/4) = 0.5
    assert abs(d.harmonic_splits[0] - 0.5) < 1e-15
    assert d.harmonic_splits[1] == 0.0  # a zero split collapses s_v


def _star_arrays_oracle(decomp):
    """|S_v| and s_v vertex by vertex: each vertex's splits summed in slot
    order (edge by edge, the tail's split first), s_v = 0 at a zero split."""
    parts = [[] for _ in range(decomp.graph.num_vertices)]
    for (u, v, _), (s_u, s_v) in zip(decomp.graph.edges, decomp.splits):
        parts[u].append(s_u)
        parts[v].append(s_v)
    lengths, harmonic = [], []
    for splits in parts:
        total = inverse = 0.0
        for split in splits:
            total += split
            inverse += 1.0 / split if split else 0.0
        lengths.append(total)
        harmonic.append(0.0 if 0.0 in splits else 1.0 / inverse)
    return parts, lengths, harmonic


def _uneven(graph, fractions):
    """Edge t split at fractions[t] of its length from its tail."""
    lengths = [length for _, _, length in graph.edges]
    return StarDecomposition(
        graph, tuple((f * length, length - f * length) for length, f in zip(lengths, fractions))
    )


@pytest.mark.parametrize(
    "decomp",
    [
        # a loop at 0 and a double edge 0-1
        _uneven(
            build_graph([(0, 0, 0.7), (0, 1, 1.3), (0, 1, 0.9), (1, 2, 2.1), (2, 2, 0.3)]),
            (0.31, 0.77, 0.1, 0.45, 0.6),
        ),
        # zero splits at every leaf
        boundary_star_decomposition(make_star(4, incommensurate_lengths(4)), RobinSpec({0}, 1.0)),
        _uneven(make_complete4((0.3, 0.7, 1.1, 1.3, 1.7, 0.1)), (0.2, 0.4, 0.6, 0.8, 0.3, 0.9)),
        # nine slots at the centre
        _uneven(make_star(9, incommensurate_lengths(9)), np.linspace(0.1, 0.9, 9)),
    ],
    ids=["loops-multi-edge", "zero-splits", "k4", "star9"],
)
def test_star_arrays_match_the_per_vertex_oracle(decomp):
    parts, lengths, harmonic = _star_arrays_oracle(decomp)
    for v, splits in enumerate(parts):
        got = (decomp.star_lengths[v], decomp.harmonic_splits[v])
        if len(splits) < 8:
            # bitwise: both add in slot order
            assert got == (lengths[v], harmonic[v]), v
        else:
            assert got == pytest.approx((lengths[v], harmonic[v]), abs=0, rel=1e-15), v


def test_decomposition_rejects_bad_splits():
    g = build_graph([(0, 1, 1.0)])
    with pytest.raises(ValueError):
        StarDecomposition(g, ((0.7, 0.7),))
    with pytest.raises(ValueError):
        StarDecomposition(g, ((-0.1, 1.1),))
    # a NaN split passed the sign and sum checks and gave a NaN bound
    for split in ((math.nan, math.nan), (math.inf, 1.0), (1.0, -math.inf)):
        with pytest.raises(ValueError, match="not finite"):
            StarDecomposition(make_star(2, (1.0, 2.0)), (split, (1.0, 1.0)))


def test_parse_graph_roundtrip():
    g, robin = parse_graph(
        {
            "vertices": 3,
            "edges": [
                {"u": 0, "v": 1, "len": 1.0},
                {"u": 1, "v": 2, "len": 2.0},
            ],
            "robin": {"vertices": [0], "sigma": 1.5},
        }
    )
    assert g.num_vertices == 3 and g.total_length == 3.0
    assert robin.vertices == frozenset({0}) and robin.sigma == 1.5

    g2, robin2 = parse_graph(
        {"vertices": 2, "edges": [{"u": 0, "v": 1, "len": 1.0}]}
    )
    assert robin2.sigma == 0.0 and not robin2.vertices

    with pytest.raises(ValueError):
        parse_graph({"edges": []})

    # no id, count, length or sigma is rounded or coerced: each of these
    # once read as a different graph and exited 0
    def edited(edge=None, **top):
        mapping = {
            "vertices": 2,
            "edges": [{"u": 0, "v": 1, "len": 1.0, **(edge or {})}],
            "robin": {"vertices": [0], "sigma": 1.0},
        }
        mapping.update(top)
        return mapping

    for bad in (
        edited({"v": 1.9}),
        edited({"u": True}),
        edited({"u": "0"}),
        edited({"len": True}),
        edited({"len": "1.0"}),
        edited(vertices=2.5),
        edited(vertices=2.0),
        edited(robin={"vertices": [0.6], "sigma": 1.0}),
        edited(robin={"vertices": [False], "sigma": 1.0}),
        edited(robin={"vertices": [0], "sigma": True}),
        edited(robin={"vertices": [0], "sigma": None}),
    ):
        with pytest.raises(ValueError, match="must be an integer|must be a number"):
            parse_graph(bad)
    # a robin block of the wrong shape once escaped as a traceback
    for bad in (edited(robin=[0]), edited(robin={"vertices": 0, "sigma": 1.0})):
        with pytest.raises(ValueError, match="malformed graph description"):
            parse_graph(bad)
    assert parse_graph(edited(robin=None))[1] == RobinSpec.neumann()


# ---------------------------------------------------------------------------
# property suites

edge_lists = st.lists(
    st.tuples(
        st.integers(0, 5),
        st.integers(0, 5),
        st.floats(0.3, 2.5, allow_nan=False),
    ),
    min_size=1,
    max_size=8,
)


def _try_build(edges):
    try:
        return build_graph(edges)
    except (DisconnectedGraph, DanglingEndpoint, NonPositiveLength):
        return None


@given(edge_lists)
@settings(max_examples=60, deadline=None)
def test_star_lengths_partition_total_length(edges):
    g = _try_build(edges)
    if g is None:
        return
    for decomp in (
        midpoint_star_decomposition(g),
        boundary_star_decomposition(g, RobinSpec(frozenset({0}), 1.0)),
    ):
        total = sum(decomp.star_lengths)
        assert abs(total - g.total_length) < 1e-12 * (1 + g.total_length)
        for t, (s_u, s_v) in enumerate(decomp.splits):
            assert s_u + s_v == pytest.approx(g.edges[t][2], abs=0, rel=1e-15)


@given(edge_lists)
@settings(max_examples=60, deadline=None)
def test_slot_tables_consistent(edges):
    g = _try_build(edges)
    if g is None:
        return
    rev = g.slot_reversal
    assert np.array_equal(g.slot_origin[rev], g.slot_terminus)
    assert np.array_equal(g.slot_length[rev], g.slot_length)
    assert int(g.degrees.sum()) == g.num_slots
