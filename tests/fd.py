"""Independent finite-difference oracle for graph Laplacian eigenvalues.

Each edge is meshed uniformly; interior nodes carry the standard
three-point second-difference row, and each vertex is one shared
unknown whose row sums the one-sided differences (f_v - f_first)/h_e
over incident edges plus the coupling term sigma_v f_v.  With the
lumped mass weights (h_e at interior nodes, sum of h_e/2 at vertices)
the generalized problem K f = lambda M f is symmetric under the fold
A = M^{-1/2} K M^{-1/2}, and its eigenvalues converge at O(h^2).
Richardson extrapolation of the h and h/2 meshes, (4 l_half - l_h)/3,
upgrades that to O(h^4), which is oracle grade for the first ~20
eigenvalues at a few hundred points per edge.

This module deliberately shares no code with the scattering-based
solver: it exists to cross-validate it.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import ArpackError, ArpackNoConvergence, eigsh

from graphspectra.errors import GraphSpectraError
from graphspectra.graphs import MetricGraph, RobinSpec

MIN_POINTS = 8


class MeshTooCoarse(GraphSpectraError):
    """The finite-difference mesh has too few points per edge."""


class ConvergenceFailure(GraphSpectraError):
    """An iterative eigenvalue solve did not converge."""


@dataclass(frozen=True)
class DiscreteOperator:
    """Symmetric folded discretization of one graph operator."""

    graph: MetricGraph
    robin: RobinSpec
    points_per_edge: int
    matrix: sp.csr_matrix
    mass: np.ndarray

    @property
    def size(self) -> int:
        return self.matrix.shape[0]


def discretize(
    graph: MetricGraph, robin: RobinSpec, points_per_edge: int
) -> DiscreteOperator:
    """Assemble the folded operator at points_per_edge subintervals."""
    if points_per_edge < MIN_POINTS:
        raise MeshTooCoarse(
            f"need at least {MIN_POINTS} points per edge, got {points_per_edge}"
        )
    n_sub = points_per_edge
    n_int = n_sub - 1
    n_vertices = graph.num_vertices
    size = n_vertices + n_int * graph.num_edges

    sigmas = robin.vertex_sigmas(graph)
    rows: list[int] = []
    cols: list[int] = []
    vals: list[float] = []
    mass = np.zeros(size)

    def add(i: int, j: int, v: float) -> None:
        rows.append(i)
        cols.append(j)
        vals.append(v)

    for v in range(n_vertices):
        if sigmas[v] != 0.0:
            add(v, v, float(sigmas[v]))

    for t, (u, v, length) in enumerate(graph.edges):
        h = length / n_sub
        base = n_vertices + t * n_int
        # chain of nodes along the edge: u, base..base+n_int-1, v
        chain = [u] + list(range(base, base + n_int)) + [v]
        for i, j in zip(chain[:-1], chain[1:]):
            add(i, i, 1.0 / h)
            add(j, j, 1.0 / h)
            add(i, j, -1.0 / h)
            add(j, i, -1.0 / h)
        mass[chain[1:-1]] += h
        mass[u] += 0.5 * h
        mass[v] += 0.5 * h

    stiffness = sp.coo_matrix((vals, (rows, cols)), shape=(size, size)).tocsr()
    scale = sp.diags(1.0 / np.sqrt(mass))
    folded = (scale @ stiffness @ scale).tocsr()
    return DiscreteOperator(
        graph=graph,
        robin=robin,
        points_per_edge=points_per_edge,
        matrix=folded,
        mass=mass,
    )


def _lowest(op: DiscreteOperator, m: int) -> np.ndarray:
    # shift-invert around a point below the spectrum turns the smallest
    # eigenvalues into the dominant ones, which Lanczos finds quickly
    try:
        vals = eigsh(
            op.matrix,
            k=m,
            sigma=-0.01,
            which="LM",
            return_eigenvectors=False,
        )
    except (ArpackError, ArpackNoConvergence) as exc:
        raise ConvergenceFailure(f"sparse eigensolve failed: {exc}") from exc
    return np.sort(vals)


def oracle_eigenvalues(
    op: DiscreteOperator, m: int, richardson: bool = True
) -> np.ndarray:
    """Lowest m eigenvalues; richardson combines the h and h/2 meshes."""
    if m < 1:
        raise ValueError("m must be at least 1")
    if m > op.size // 4:
        raise ValueError(
            f"m={m} too large for a {op.size}-point mesh; refine or ask for fewer"
        )
    coarse = _lowest(op, m)
    if not richardson:
        return coarse
    fine_op = discretize(op.graph, op.robin, 2 * op.points_per_edge)
    fine = _lowest(fine_op, m)
    return (4.0 * fine - coarse) / 3.0
