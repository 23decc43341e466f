"""Shared fixtures: reference graphs and a session-wide spectrum cache."""
from __future__ import annotations

import numpy as np
import pytest
from hypothesis import settings

from graphspectra.graphs import RobinSpec, build_graph, make_complete4, make_star
from graphspectra.solver import compute_spectrum
from graphspectra.stats import rng_sequence
from builders import incommensurate_lengths

# a failing draw prints the @reproduce_failure blob that replays it
settings.register_profile("graphspectra", print_blob=True)
settings.load_profile("graphspectra")


@pytest.fixture(scope="session")
def unit_interval():
    return build_graph([(0, 1, 1.0)])


@pytest.fixture(scope="session")
def pi_interval():
    import math

    return build_graph([(0, 1, math.pi)])


@pytest.fixture(scope="session")
def star4():
    return make_star(4, incommensurate_lengths(4))


@pytest.fixture(scope="session")
def equilateral_star():
    return make_star(4, (1.0, 1.0, 1.0, 1.0))


@pytest.fixture(scope="session")
def tetrahedron():
    return make_complete4(incommensurate_lengths(6))


@pytest.fixture(scope="session")
def get_spectrum():
    """Memoized compute_spectrum keyed by (graph, coupled set, sigma).

    Acceptance tests ask for overlapping prefixes of the same spectra;
    the cache keeps the longest one seen so far and serves slices.
    """
    cache: dict = {}

    def get(graph, vertices, sigma, n):
        key = (graph, frozenset(vertices), float(sigma))
        hit = cache.get(key)
        if hit is None or hit.size < n:
            hit = compute_spectrum(
                graph, RobinSpec(frozenset(vertices), float(sigma)), n_max=n
            )
            cache[key] = hit
        return hit

    return get


@pytest.fixture(scope="session")
def gap_series(get_spectrum):
    """Index-paired gaps between cached Neumann and coupled spectra."""

    def get(graph, vertices, sigma, n):
        return rng_sequence(
            get_spectrum(graph, (), 0.0, n), get_spectrum(graph, vertices, sigma, n), n
        )

    return get


@pytest.fixture
def svd_matrices(monkeypatch):
    """A one-entry list counting the matrices np.linalg.svd is given."""
    count, svd = [0], np.linalg.svd

    def counting(a, *args, **kwargs):
        count[0] += int(np.prod(np.shape(a)[:-2]))
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counting)
    return count
