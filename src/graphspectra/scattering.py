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

summing over the coupled vertices, where |G| is the total edge length:

    det U(k) = (-1)^(E + V) exp(i Theta(k)).

The vertex block c J - I has eigenvalues c d - 1 = exp(-2i arctan(s / (d k)))
once and -1 (d - 1 times), the slot reversal is E transpositions, and
the propagation phases contribute exp(2 i k |G|).  Theta is strictly
increasing in k and drives the root counting used by the eigenvalue
solver.
"""
from __future__ import annotations

import numpy as np

from .errors import ZeroWaveNumber
from .graphs import MetricGraph, RobinSpec

__all__ = [
    "unitary_stack",
    "total_phase_values",
    "total_phase_derivative",
]


def _coupling_mask(graph: MetricGraph) -> np.ndarray:
    # mask[e_out, e_in] is True when both slots meet at the same vertex,
    # e_in pointing in and e_out pointing out.
    return graph.slot_origin[:, None] == graph.slot_terminus[None, :]


def unitary_stack(graph: MetricGraph, sigmas, ks: np.ndarray) -> np.ndarray:
    """U(k) for a batch of wave numbers, shape (len(ks), 2E, 2E), each row at
    its own vertex couplings: sigmas broadcasts to (len(ks), V), as
    RobinSpec.vertex_sigmas does for one coupling.

    One fused construction so the solver can run batched
    eigendecompositions, determinants and SVDs over many wave numbers.
    """
    ks = np.asarray(ks, dtype=float)
    if ks.ndim != 1:
        raise ValueError("ks must be one-dimensional")
    if ks.size and not np.all(ks > 0.0):
        raise ZeroWaveNumber("all batch wave numbers must be positive")
    # c has shape (B, V); pick per-row vertex coefficients, then mask.
    c = 2.0 / (graph.degrees[None, :] + 1j * np.asarray(sigmas) / ks[:, None])
    s = np.where(
        _coupling_mask(graph)[None, :, :],
        c[:, graph.slot_origin][:, :, None],
        0.0 + 0.0j,
    )
    s[:, graph.slot_reversal, np.arange(graph.num_slots)] -= 1.0
    return s * np.exp(1j * ks[:, None, None] * graph.slot_length[None, None, :])


def total_phase_values(graph: MetricGraph, sigmas, ks: np.ndarray) -> np.ndarray:
    """Vectorized Theta(k) over an array of positive wave numbers, each at
    its own vertex couplings: sigmas broadcasts to (len(ks), V).

    The arctan terms are taken vertex by vertex in increasing order, so a
    row's value does not depend on the couplings of the other rows.
    """
    ks = np.asarray(ks, dtype=float)
    if ks.size and not np.all(ks > 0.0):
        raise ZeroWaveNumber("total phase needs k > 0")
    sigmas = np.asarray(sigmas)
    theta = 2.0 * graph.total_length * ks
    for v in np.flatnonzero(sigmas.reshape(-1, graph.num_vertices).any(axis=0)):
        theta = theta - 2.0 * np.arctan(sigmas[..., v] / (graph.degrees[v] * ks))
    return theta


def total_phase_derivative(
    graph: MetricGraph, robin: RobinSpec, ks: np.ndarray
) -> np.ndarray:
    """d Theta / dk; always >= 2|G|, so Theta is strictly increasing."""
    ks = np.asarray(ks, dtype=float)
    if ks.size and not np.all(ks > 0.0):
        raise ZeroWaveNumber("total phase derivative needs k > 0")
    out = np.full_like(ks, 2.0 * graph.total_length)
    for v in robin.coupled_vertices(graph):
        d = graph.degree(v)
        out = out + 2.0 * robin.sigma * d / (d * d * ks * ks + robin.sigma**2)
    return out
