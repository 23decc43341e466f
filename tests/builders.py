"""Test graph builders: incommensurate edge lengths and the midpoint star
decomposition, which only the tests use."""
from __future__ import annotations

import math

from graphspectra.graphs import MetricGraph, StarDecomposition


def _first_primes(n: int) -> list[int]:
    primes = []
    candidate = 2
    while len(primes) < n:
        if all(candidate % p for p in primes):
            primes.append(candidate)
        candidate += 1
    return primes


def incommensurate_lengths(count: int, scale: float = 1.0) -> tuple[float, ...]:
    """Lengths scale*sqrt(p_i)/sqrt(p_1) over the first `count` primes p_i.

    Square roots of distinct primes are linearly independent over the
    rationals, so these lengths admit no rational dependence; the first
    length is exactly `scale`.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    if not (scale > 0.0) or not math.isfinite(scale):
        raise ValueError("scale must be positive and finite")
    primes = _first_primes(count)
    root0 = math.sqrt(primes[0])
    return tuple(scale * math.sqrt(p) / root0 for p in primes)


def midpoint_star_decomposition(graph: MetricGraph) -> StarDecomposition:
    """Split every edge at its midpoint."""
    return StarDecomposition(
        graph, tuple((0.5 * length, 0.5 * length) for _, _, length in graph.edges)
    )
