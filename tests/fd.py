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
eigenvalues at a few hundred points per edge.  The error expands in even
powers of h alone: along an edge the discrete solution is a sampled
sinusoid whose wave number, and the vertex rows' effective derivative,
are even functions of h_e.  So a third mesh, h/4, removes the h^4 term
as well, for graphs where it is large (close pairs of eigenvalues on
edges of very different lengths).

Short edges make K stiff (entries 1/h_e), and a plain sparse LU solve then
loses about eps / h_e^2 of the low eigenvalues, growing fourfold with each
mesh halving.  Each solve is therefore refined against the residual taken
in difference form, K f = D^T (f_i - f_j) / h + sigma f over the mesh
segments (i, j), whose rounding stays at eps of the differences rather than
of the values.

This module deliberately shares no code with the scattering-based
solver: it exists to cross-validate it.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import splu

from graphspectra.errors import GraphSpectraError
from graphspectra.graphs import MetricGraph, RobinSpec

MIN_POINTS = 8
# block inverse iteration: at most MAX_SWEEPS sweeps, ended once the Ritz
# values move by less than SWEEP_TOL of themselves plus the solve's rounding
MAX_SWEEPS = 300
SWEEP_TOL = 1e-10
# below the spectrum, so that K - SHIFT M is positive definite
SHIFT = -1.0
# refinement steps per solve, each shrinking its rounding error by about
# eps ||A|| / (lambda - SHIFT), at most ~0.04 at h = 1e-4 / 640
REFINE_STEPS = 2


class MeshTooCoarse(GraphSpectraError):
    """The finite-difference mesh has too few points per edge."""


class ConvergenceFailure(GraphSpectraError):
    """An iterative eigenvalue solve did not converge."""


@dataclass(frozen=True)
class DiscreteOperator:
    """Symmetric folded discretization of one graph operator, with the
    stiffness K = D^T diag(conductance) D + diag(sigmas) kept both whole
    and in factors, for the solves' residuals."""

    graph: MetricGraph
    robin: RobinSpec
    points_per_edge: int
    matrix: sp.csr_matrix
    mass: np.ndarray
    stiffness: sp.csr_matrix
    # signed incidence of the mesh segments (+1 at one end, -1 at the other)
    difference: sp.csr_matrix
    conductance: np.ndarray
    sigmas: np.ndarray

    def stiffness_times(self, f: np.ndarray) -> np.ndarray:
        """K f, with each segment's difference taken before its 1/h."""
        return self.difference.T @ (self.conductance[:, None] * (self.difference @ f)) + (
            self.sigmas[:, None] * f
        )

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

    sigmas = np.zeros(size)
    sigmas[:n_vertices] = robin.vertex_sigmas(graph)
    starts: list[int] = []
    ends: list[int] = []
    conductance: list[float] = []
    mass = np.zeros(size)

    for t, (u, v, length) in enumerate(graph.edges):
        h = length / n_sub
        base = n_vertices + t * n_int
        # chain of nodes along the edge: u, base..base+n_int-1, v
        chain = [u] + list(range(base, base + n_int)) + [v]
        starts += chain[:-1]
        ends += chain[1:]
        conductance += [1.0 / h] * n_sub
        mass[chain[1:-1]] += h
        mass[u] += 0.5 * h
        mass[v] += 0.5 * h

    segments = np.arange(len(starts))
    difference = sp.coo_matrix(
        (
            np.repeat([1.0, -1.0], len(starts)),
            (np.concatenate([segments, segments]), np.concatenate([starts, ends])),
        ),
        shape=(len(starts), size),
    ).tocsr()
    conductance = np.array(conductance)
    stiffness = (difference.T @ sp.diags(conductance) @ difference + sp.diags(sigmas)).tocsr()
    scale = sp.diags(1.0 / np.sqrt(mass))
    folded = (scale @ stiffness @ scale).tocsr()
    return DiscreteOperator(
        graph=graph,
        robin=robin,
        points_per_edge=points_per_edge,
        matrix=folded,
        mass=mass,
        stiffness=stiffness,
        difference=difference,
        conductance=conductance,
        sigmas=sigmas,
    )


def _lowest(op: DiscreteOperator, m: int) -> np.ndarray:
    # Block inverse iteration about a shift below the spectrum, with the
    # Rayleigh-Ritz step on the inverse: a block of 2m vectors holds every
    # copy of a multiple eigenvalue, where single-vector Lanczos (ARPACK)
    # can miss one (one of four on four parallel unit edges), and the
    # inverse keeps the small eigenvalues accurate to their own size where
    # short edges make ||A|| large.  (A - SHIFT)^{-1} is applied as
    # M^{1/2} (K - SHIFT M)^{-1} M^{1/2}, the inner solve refined.
    root = np.sqrt(op.mass)[:, None]
    lu = splu((op.stiffness - SHIFT * sp.diags(op.mass)).tocsc())

    def solve(x: np.ndarray) -> np.ndarray:
        rhs = root * x
        f = lu.solve(rhs)
        for _ in range(REFINE_STEPS):
            f = f + lu.solve(rhs - op.stiffness_times(f) + SHIFT * op.mass[:, None] * f)
        return root * f

    x = np.random.default_rng(0).standard_normal((op.size, min(2 * m, op.size)))
    x = np.linalg.qr(x)[0]
    mu = np.full(x.shape[1], np.inf)
    for _ in range(MAX_SWEEPS):
        y = solve(x)
        h = x.T @ y
        # h is symmetric but for the rounding of the solve, which bounds
        # how far the Ritz values of the inverse can settle
        last, (mu, w) = mu, np.linalg.eigh(h)
        if np.all(np.abs(mu - last)[-m:] <= SWEEP_TOL * mu[-m:] + 4.0 * np.abs(h - h.T).max()):
            return SHIFT + 1.0 / mu[::-1][:m]
        x = np.linalg.qr(y @ w)[0]
    raise ConvergenceFailure(f"lowest {m} eigenvalues still moving after {MAX_SWEEPS} sweeps")


def oracle_eigenvalues(
    op: DiscreteOperator, m: int, richardson: bool = True, levels: int = 2
) -> np.ndarray:
    """Lowest m eigenvalues; richardson extrapolates over the meshes h,
    h/2, ..., h/2^(levels-1), each further mesh removing the next even
    power of h (levels=2 is (4 l_half - l_h)/3)."""
    if m < 1:
        raise ValueError("m must be at least 1")
    if m > op.size // 4:
        raise ValueError(
            f"m={m} too large for a {op.size}-point mesh; refine or ask for fewer"
        )
    if levels < 2:
        raise ValueError(f"Richardson needs at least 2 meshes, got levels={levels}")
    coarse = _lowest(op, m)
    if not richardson:
        return coarse
    rows = [coarse] + [
        _lowest(discretize(op.graph, op.robin, 2**level * op.points_per_edge), m)
        for level in range(1, levels)
    ]
    # column j of the tableau removes the h^(2j) term
    for j in range(1, levels):
        factor = 4.0**j
        rows = [(factor * fine - coarse) / (factor - 1.0) for coarse, fine in zip(rows, rows[1:])]
    return rows[0]
