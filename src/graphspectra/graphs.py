"""Immutable metric-graph data model, validation, and canonical builders.

A metric graph is a combinatorial graph whose edges carry positive lengths.
Edge t between vertices (u, v) owns two directed slots: slot 2t runs u -> v
and slot 2t+1 runs v -> u, so the slot order is (e_1, rev e_1, e_2, rev e_2,
...).  Loops are allowed and contribute both slots (and degree 2) at their
vertex.  All types are frozen and hashable on their defining fields; derived
slot tables are precomputed and excluded from comparison.
"""
from __future__ import annotations

import json
import math
import numbers
import operator
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DanglingEndpoint,
    DisconnectedGraph,
    NonPositiveLength,
)

__all__ = [
    "MetricGraph",
    "RobinSpec",
    "StarDecomposition",
    "build_graph",
    "make_star",
    "make_complete4",
    "boundary_star_decomposition",
    "parse_graph",
    "load_graph_file",
]


@dataclass(frozen=True)
class MetricGraph:
    """Connected metric graph with directed-slot indexing.

    Fields
        num_vertices: vertex ids are the dense integers 0..num_vertices-1.
        edges: tuple of (u, v, length) triples, length > 0.

    Derived (not part of equality/hash)
        total_length, degrees, and the per-slot tables slot_origin,
        slot_terminus, slot_reversal, slot_length.
    """

    num_vertices: int
    edges: tuple[tuple[int, int, float], ...]
    total_length: float = field(init=False, compare=False, repr=False)
    degrees: np.ndarray = field(init=False, compare=False, repr=False)
    slot_origin: np.ndarray = field(init=False, compare=False, repr=False)
    slot_terminus: np.ndarray = field(init=False, compare=False, repr=False)
    slot_reversal: np.ndarray = field(init=False, compare=False, repr=False)
    slot_length: np.ndarray = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        edges = tuple(_edge(*edge) for edge in self.edges)
        object.__setattr__(self, "edges", edges)
        object.__setattr__(self, "num_vertices", _integer(self.num_vertices, "vertex count"))
        if not edges:
            raise ValueError("a metric graph needs at least one edge")
        if self.num_vertices < 1:
            raise ValueError("num_vertices must be positive")

        for u, v, length in edges:
            if not (0 <= u < self.num_vertices) or not (0 <= v < self.num_vertices):
                raise DanglingEndpoint(
                    f"edge ({u}, {v}) references a vertex outside 0..{self.num_vertices - 1}"
                )
            if not math.isfinite(length) or length <= 0.0:
                raise NonPositiveLength(f"edge ({u}, {v}) has invalid length {length}")

        m = len(edges)
        # before anything of size num_vertices is allocated
        if self.num_vertices > m + 1:
            raise DisconnectedGraph(
                f"vertex count {self.num_vertices} above the edge count plus one, "
                f"{m + 1}: the graph cannot be connected"
            )
        origin = np.empty(2 * m, dtype=np.intp)
        terminus = np.empty(2 * m, dtype=np.intp)
        lengths = np.empty(2 * m)
        for t, (u, v, length) in enumerate(edges):
            origin[2 * t], terminus[2 * t] = u, v
            origin[2 * t + 1], terminus[2 * t + 1] = v, u
            lengths[2 * t] = lengths[2 * t + 1] = length
        reversal = np.arange(2 * m, dtype=np.intp)
        reversal[0::2] += 1
        reversal[1::2] -= 1

        degrees = np.bincount(origin, minlength=self.num_vertices)
        if np.any(degrees == 0):
            lonely = int(np.argmin(degrees))
            raise DisconnectedGraph(f"vertex {lonely} has no incident edge")

        # union-find connectivity over edge endpoints
        parent = list(range(self.num_vertices))

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for u, v, _ in edges:
            parent[find(u)] = find(v)
        roots = {find(x) for x in range(self.num_vertices)}
        if len(roots) > 1:
            raise DisconnectedGraph(
                f"graph has {len(roots)} components; expected a connected graph"
            )

        object.__setattr__(self, "total_length", float(lengths[0::2].sum()))
        object.__setattr__(self, "degrees", degrees)
        object.__setattr__(self, "slot_origin", origin)
        object.__setattr__(self, "slot_terminus", terminus)
        object.__setattr__(self, "slot_reversal", reversal)
        object.__setattr__(self, "slot_length", lengths)

    @property
    def num_edges(self) -> int:
        return len(self.edges)

    @property
    def num_slots(self) -> int:
        return 2 * len(self.edges)

    @property
    def min_edge_length(self) -> float:
        return float(self.slot_length.min())

    @property
    def max_edge_length(self) -> float:
        return float(self.slot_length.max())


@dataclass(frozen=True)
class RobinSpec:
    """Robin vertex set and a single global coupling sigma >= 0.

    sigma = 0 reduces every condition to Neumann-Kirchhoff, whatever the
    vertex set.  Membership of a vertex in `vertices` marks the delta-type
    condition sum of outward derivatives = sigma * f(v) there.
    """

    vertices: frozenset[int]
    sigma: float

    def __post_init__(self):
        vertices = frozenset(_integer(v, "Robin vertex") for v in self.vertices)
        object.__setattr__(self, "vertices", vertices)
        object.__setattr__(self, "sigma", _real(self.sigma, "sigma"))
        if not math.isfinite(self.sigma) or self.sigma < 0.0:
            raise ValueError(f"coupling must be finite and >= 0, got {self.sigma}")

    @classmethod
    def neumann(cls) -> "RobinSpec":
        return cls(frozenset(), 0.0)

    def coupled_vertices(self, graph: MetricGraph) -> list[int]:
        """The coupled vertex ids in increasing order; raises DanglingEndpoint
        for one that is not a vertex of graph."""
        ids = sorted(self.vertices)
        for v in ids:
            if not (0 <= v < graph.num_vertices):
                raise DanglingEndpoint(f"Robin vertex {v} is not a graph vertex")
        return ids

    def vertex_sigmas(self, graph: MetricGraph) -> np.ndarray:
        """Per-vertex coupling array; validates the vertex set against the graph."""
        out = np.zeros(graph.num_vertices)
        out[self.coupled_vertices(graph)] = self.sigma
        return out


@dataclass(frozen=True)
class StarDecomposition:
    """Partition of the graph into vertex stars by splitting each edge.

    splits[t] = (s_u, s_v) assigns the portion of edge t adjacent to each
    endpoint; the two parts sum to the edge length exactly.  Two arrays
    indexed by vertex are derived from them: star_lengths[v] is the total
    length |S_v| of the star at v, and harmonic_splits[v] the harmonic
    mean-type quantity s_v = 1 / sum(1/s), zero when any incident split is
    zero.  Both sum a vertex's splits in slot order.
    """

    graph: MetricGraph
    splits: tuple[tuple[float, float], ...]
    star_lengths: np.ndarray = field(init=False, compare=False, repr=False)
    harmonic_splits: np.ndarray = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        splits = tuple((float(a), float(b)) for a, b in self.splits)
        object.__setattr__(self, "splits", splits)
        g = self.graph
        if len(splits) != g.num_edges:
            raise ValueError("one split per edge required")
        for t, ((s_u, s_v), (_, _, length)) in enumerate(zip(splits, g.edges)):
            if not (0.0 <= s_u < np.inf and 0.0 <= s_v < np.inf):
                raise ValueError(f"split on edge {t} is negative or not finite")
            if abs((s_u + s_v) - length) > 4.0 * np.finfo(float).eps * length:
                raise ValueError(
                    f"splits {s_u} + {s_v} do not sum to edge length {length}"
                )
        per_slot = np.abs(splits).reshape(-1)  # s_u at slot 2t, s_v at 2t + 1; no -0.0
        star_lengths = np.bincount(g.slot_origin, per_slot, g.num_vertices)
        # a zero split gives 1/0 = inf, so s_v = 1/inf = 0
        with np.errstate(divide="ignore"):
            inverse = np.bincount(g.slot_origin, 1.0 / per_slot, g.num_vertices)
        object.__setattr__(self, "star_lengths", star_lengths)
        object.__setattr__(self, "harmonic_splits", 1.0 / inverse)


def build_graph(edges, num_vertices=None) -> MetricGraph:
    """Validated MetricGraph from raw (u, v, length) triples.

    num_vertices defaults to 1 + the largest referenced vertex id.
    """
    edges = tuple(_edge(*edge) for edge in edges)
    if not edges:
        raise ValueError("a metric graph needs at least one edge")
    if num_vertices is None:
        num_vertices = 1 + max(max(u, v) for u, v, _ in edges)
    return MetricGraph(num_vertices, edges)


def make_star(d: int, lengths) -> MetricGraph:
    """Star with d edges, central vertex 0, leaves 1..d."""
    if d < 1:
        raise ValueError("a star needs at least one edge")
    lengths = tuple(lengths)
    if len(lengths) != d:
        raise ValueError(f"expected {d} lengths, got {len(lengths)}")
    return build_graph([(0, i + 1, lengths[i]) for i in range(d)], num_vertices=d + 1)


_COMPLETE4_EDGES = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))


def make_complete4(lengths) -> MetricGraph:
    """Complete graph on 4 vertices; lengths follow the fixed edge order
    (0,1), (0,2), (0,3), (1,2), (1,3), (2,3)."""
    lengths = tuple(lengths)
    if len(lengths) != 6:
        raise ValueError(f"expected 6 lengths, got {len(lengths)}")
    return build_graph(
        [(u, v, lengths[i]) for i, (u, v) in enumerate(_COMPLETE4_EDGES)],
        num_vertices=4,
    )


def boundary_star_decomposition(graph: MetricGraph, robin: RobinSpec) -> StarDecomposition:
    """Assign each edge fully to its Robin endpoint where possible.

    An edge with exactly one endpoint in the Robin set contributes its whole
    length to that endpoint's star; edges with zero or two Robin endpoints
    (including loops at a Robin vertex) fall back to the midpoint split.
    On a star with a Robin center this yields |S_center| = total length.
    """
    robin_set = robin.vertices
    splits = []
    for u, v, length in graph.edges:
        u_in = u in robin_set
        v_in = v in robin_set
        if u_in and not v_in:
            splits.append((length, 0.0))
        elif v_in and not u_in:
            splits.append((0.0, length))
        else:
            splits.append((0.5 * length, 0.5 * length))
    return StarDecomposition(graph, tuple(splits))


def _integer(value, what: str) -> int:
    """value as an int: a Python or numpy integer, no boolean.  Anything else
    raises ValueError, so no id or count is rounded or coerced."""
    if not isinstance(value, (bool, np.bool_)):
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise ValueError(f"{what} must be an integer, got {value!r}")


def _real(value, what: str) -> float:
    """value as a float: a real number, numpy's included, and no boolean;
    anything else raises ValueError."""
    if isinstance(value, numbers.Real) and not isinstance(value, (bool, np.bool_)):
        return float(value)
    raise ValueError(f"{what} must be a number, got {value!r}")


def _has_boolean(values) -> bool:
    """Whether values, a number, an array or a list of them, holds a
    boolean: np.asarray reads True inside a list of integers as 1."""
    if isinstance(values, np.ndarray):
        return values.dtype == bool
    flat = np.ravel(np.asarray(values, dtype=object))
    return any(isinstance(v, (bool, np.bool_)) for v in flat)


def _edge(u, v, length) -> tuple[int, int, float]:
    return _integer(u, "vertex id"), _integer(v, "vertex id"), _real(length, "edge length")


def parse_graph(mapping) -> tuple[MetricGraph, RobinSpec]:
    """Build (graph, robin) from the JSON graph schema.

    Schema: {"vertices": N, "edges": [{"u": int, "v": int, "len": float}],
    "robin": {"vertices": [int, ...], "sigma": float}}.  The robin block is
    optional and defaults to no Robin vertices with sigma 0.  N and the
    vertex ids must be JSON integers, lengths and sigma JSON numbers:
    anything else, booleans included, raises ValueError (MetricGraph and
    RobinSpec check them).
    """
    try:
        num_vertices = mapping["vertices"]
        edges = [(e["u"], e["v"], e["len"]) for e in mapping["edges"]]
        robin_block = {} if mapping.get("robin") is None else mapping["robin"]
        vertices = list(robin_block.get("vertices", ()))
        sigma = robin_block.get("sigma", 0.0)
    except (AttributeError, KeyError, TypeError) as exc:
        raise ValueError(f"malformed graph description: {exc}") from exc
    graph, robin = MetricGraph(num_vertices, tuple(edges)), RobinSpec(vertices, sigma)
    robin.coupled_vertices(graph)  # validates the vertex set
    return graph, robin


def load_graph_file(path) -> tuple[MetricGraph, RobinSpec]:
    """Read a graph JSON file and return (graph, robin)."""
    with open(path, "r", encoding="utf-8") as handle:
        return parse_graph(json.load(handle))
