"""Vertex scattering matrices and the unitary slot evolution.

At a vertex v of degree d with delta coupling strength s >= 0 the
scattering amplitude from an incoming slot e to an outgoing slot e' is

    S_{e'e}(k) = 2 / (d + i s / k)  -  [e' == reversal(e)],

so the d x d vertex block is c(k) J - I with J the all-ones matrix and
c(k) = 2/(d + i s/k).  Assembling all blocks over the 2E directed slots
and composing with the propagation phases diag(exp(i k l_e)) gives

    U(k) = S(k) . exp(i k L),

a unitary 2E x 2E matrix.  k > 0 is an eigenvalue wave number exactly
when det(I - U(k)) = 0, and the eigenvalue's multiplicity equals
dim ker(I - U(k)).

The determinant of U(k) moves on the unit circle with a closed-form
lifted argument

    Theta(k) = 2 k |G| - 2 sum_v arctan(s_v / (deg(v) k)),

summing over the coupled vertices, where |G| is the total edge length.
Theta is strictly increasing in k and drives the root counting used by
the eigenvalue solver.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ZeroWaveNumber
from .graphs import MetricGraph, RobinSpec

__all__ = [
    "UnitaryAtK",
    "TotalPhase",
    "vertex_scattering_entry",
    "scattering_matrix",
    "build_unitary",
    "unitary_stack",
    "secular_det",
    "total_phase",
    "total_phase_values",
    "total_phase_derivative",
]

TWO_PI = 2.0 * np.pi


@dataclass(frozen=True)
class UnitaryAtK:
    """U(k) together with its eigenphases and a unitarity residual.

    eigenphases are the arguments of the eigenvalues of ``matrix``,
    reduced to [0, 2*pi) and sorted ascending.  unitarity_defect is the
    Frobenius norm of U*U - I; for well-formed inputs it sits at
    rounding level, far below the 1e-12 * 2E acceptance line.
    """

    k: float
    matrix: np.ndarray
    eigenphases: np.ndarray
    unitarity_defect: float


@dataclass(frozen=True)
class TotalPhase:
    """Closed-form lifted argument of det U at one wave number."""

    k: float
    theta: float


def _require_positive_k(k: float) -> float:
    k = float(k)
    # The i*s/k coupling term blows up at k=0; the solver owns that case.
    if not k > 0.0:
        raise ZeroWaveNumber(f"scattering matrix needs k > 0, got {k!r}")
    return k


def vertex_scattering_entry(
    graph: MetricGraph,
    robin: RobinSpec,
    v: int,
    e_in: int,
    e_out: int,
    k: float,
) -> complex:
    """Single entry S_{e_out, e_in}(k) of the scattering block at v.

    e_in must point into v and e_out out of v; any other pairing is not
    coupled through v and returns 0.
    """
    k = _require_positive_k(k)
    if graph.slot_terminus[e_in] != v or graph.slot_origin[e_out] != v:
        return 0.0 + 0.0j
    d = graph.degree(v)
    c = 2.0 / (d + 1j * robin.sigma_at(v) / k)
    if e_out == graph.slot_reversal[e_in]:
        return c - 1.0
    return c


def _coupling_mask(graph: MetricGraph) -> np.ndarray:
    # mask[e_out, e_in] is True when both slots meet at the same vertex,
    # e_in pointing in and e_out pointing out.
    return graph.slot_origin[:, None] == graph.slot_terminus[None, :]


def scattering_matrix(graph: MetricGraph, robin: RobinSpec, k: float) -> np.ndarray:
    """Full 2E x 2E scattering matrix S(k) over directed slots."""
    k = _require_positive_k(k)
    sigmas = robin.vertex_sigmas(graph)
    c = 2.0 / (graph.degrees + 1j * sigmas / k)
    s = np.where(_coupling_mask(graph), c[graph.slot_origin][:, None], 0.0 + 0.0j)
    s[graph.slot_reversal, np.arange(graph.num_slots)] -= 1.0
    return s


def build_unitary(graph: MetricGraph, robin: RobinSpec, k: float) -> UnitaryAtK:
    """Assemble U(k) = S(k) exp(ikL) and diagonalize it."""
    k = _require_positive_k(k)
    u = scattering_matrix(graph, robin, k) * np.exp(1j * k * graph.slot_length)
    defect = float(np.linalg.norm(u.conj().T @ u - np.eye(graph.num_slots)))
    phases = np.sort(np.mod(np.angle(np.linalg.eigvals(u)), TWO_PI))
    return UnitaryAtK(k=k, matrix=u, eigenphases=phases, unitarity_defect=defect)


def unitary_stack(
    graph: MetricGraph, robin: RobinSpec, ks: np.ndarray
) -> np.ndarray:
    """U(k) for a batch of wave numbers, shape (len(ks), 2E, 2E).

    One fused construction so the solver can run batched
    eigendecompositions over scan grids and bisection frontiers.
    """
    ks = np.asarray(ks, dtype=float)
    if ks.ndim != 1:
        raise ValueError("ks must be one-dimensional")
    if ks.size and not np.all(ks > 0.0):
        raise ZeroWaveNumber("all batch wave numbers must be positive")
    sigmas = robin.vertex_sigmas(graph)
    # c has shape (B, V); pick per-row vertex coefficients, then mask.
    c = 2.0 / (graph.degrees[None, :] + 1j * sigmas[None, :] / ks[:, None])
    s = np.where(
        _coupling_mask(graph)[None, :, :],
        c[:, graph.slot_origin][:, :, None],
        0.0 + 0.0j,
    )
    s[:, graph.slot_reversal, np.arange(graph.num_slots)] -= 1.0
    return s * np.exp(1j * ks[:, None, None] * graph.slot_length[None, None, :])


def secular_det(graph: MetricGraph, robin: RobinSpec, k: float) -> complex:
    """det(I - U(k)); zero exactly at eigenvalue wave numbers."""
    from .solver import secular_dets  # the batched path; solver imports this module

    return complex(secular_dets(graph, robin, [_require_positive_k(k)])[0])


def total_phase_values(
    graph: MetricGraph, robin: RobinSpec, ks: np.ndarray
) -> np.ndarray:
    """Vectorized Theta(k) over an array of positive wave numbers."""
    ks = np.asarray(ks, dtype=float)
    if ks.size and not np.all(ks > 0.0):
        raise ZeroWaveNumber("total phase needs k > 0")
    theta = 2.0 * graph.total_length * ks
    for v in sorted(robin.vertices):
        theta = theta - 2.0 * np.arctan(robin.sigma / (graph.degree(v) * ks))
    return theta


def total_phase(graph: MetricGraph, robin: RobinSpec, k: float) -> TotalPhase:
    """Theta(k) = 2k|G| - 2 sum_v arctan(s_v/(deg(v) k)) as a record."""
    k = _require_positive_k(k)
    theta = float(total_phase_values(graph, robin, np.asarray([k]))[0])
    return TotalPhase(k=k, theta=theta)


def total_phase_derivative(
    graph: MetricGraph, robin: RobinSpec, ks: np.ndarray
) -> np.ndarray:
    """d Theta / dk; always >= 2|G|, so Theta is strictly increasing."""
    ks = np.asarray(ks, dtype=float)
    if ks.size and not np.all(ks > 0.0):
        raise ZeroWaveNumber("total phase derivative needs k > 0")
    out = np.full_like(ks, 2.0 * graph.total_length)
    for v in sorted(robin.vertices):
        d = graph.degree(v)
        out = out + 2.0 * robin.sigma * d / (d * d * ks * ks + robin.sigma**2)
    return out
