"""Amplitude vectors, real gauge fixing, eigenfunction evaluation.

An eigenfunction with wave number k restricted to edge e is

    f|_e(x) = a_e exp(ikx) + a_rev(e) exp(ik(l_e - x)),

with the amplitude vector a in ker(I - U(k)).  A real eigenfunction
satisfies the reality relations a_e = conj(a_rev(e)) exp(-ik l_e) on
every slot, that is a = C a for the antiunitary map

    (C a)_j = conj(a_rev(j)) exp(-ik l_j),

which squares to the identity and maps ker(I - U(k)) onto itself.
Kernel vectors come out of the SVD with an arbitrary phase (or, for a
multiple eigenvalue, an arbitrary unitary mix), so every record gets
the same real gauge: the 2m vectors u + Cu and i(u - Cu) of its m
kernel rows u are C-fixed.  In exact arithmetic their real Gram matrix
has eigenvalue 4 on the combinations that span the fixed part of the
kernel (m-fold) and 0 on the rest.  Its top m eigenvectors, scaled by
1 / sqrt(eigenvalue), combine them into an orthonormal basis of C-fixed
vectors, because the inner product of two fixed vectors is real.  A
kernel that C does not map onto itself pulls the top eigenvalues toward
2; one not above 3, nearer 2 than 4, raises KernelDimensionMismatch.

The squared L2 norm of f over the graph is the exact edge-wise integral

    sum_e [ l_e (|a_e|^2 + |a_rev|^2) + (2/k) sin(k l_e) Re(a_e conj(a_rev)) ],

and vertex values in the real gauge reduce to f(v) = 2 Re(a_j) for any
slot j pointing out of v.

All of it runs in one batched evaluation, eigenbasis: the SVDs of
I - U(k) over a set of records of one Spectrum, the gauge batched per
multiplicity, every quantity above vectorized over the result.
evaluate and robin_residual read one row of it, and the sensitivity
sums its vertex values.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    ContinuityViolation,
    DanglingEndpoint,
    KernelDimensionMismatch,
    OutOfRange,
)
from .graphs import MetricGraph
from .solver import Spectrum, _kernel_mismatch, _stack_map

__all__ = [
    "EigenBasis",
    "SensitivityValue",
    "eigenbasis",
    "evaluate",
    "sensitivity",
    "robin_residual",
]

CONTINUITY_TOL = 1e-6


@dataclass(frozen=True)
class EigenBasis:
    """Real-gauge eigenfunctions of a batch of records of spectrum, one
    row each.

    Rows come grouped by record in spectrum order, m rows for a record
    of multiplicity m; record[i] is the position of row i's record in
    the spectrum's arrays and k[i] its wave number.  a holds unit kernel
    vectors of I - U(k), residual |(I - U(k)) a|, l2norm_sq the exact
    squared L2 norm of the eigenfunction, and vertex_values the
    L2-normalized values f(v).
    """

    spectrum: Spectrum
    record: np.ndarray
    k: np.ndarray
    a: np.ndarray
    residual: np.ndarray
    l2norm_sq: np.ndarray
    vertex_values: np.ndarray


@dataclass(frozen=True)
class SensitivityValue:
    """Coupling derivatives of the eigenvalues n asked for, shaped like n;
    degenerate marks a value that is a basis average over the eigenspace
    of a multiple eigenvalue rather than a single state."""

    value: np.ndarray
    degenerate: np.ndarray


def _conjugate_flip(graph: MetricGraph, a: np.ndarray, k: float) -> np.ndarray:
    return np.conj(a[..., graph.slot_reversal]) * np.exp(-1j * k * graph.slot_length)


def _l2_norm_sq(graph: MetricGraph, a: np.ndarray, k: np.ndarray) -> np.ndarray:
    """Exact squared L2 norms over the graph of amplitude rows a at wave numbers k."""
    out_slots = np.arange(0, graph.num_slots, 2)
    rev = graph.slot_reversal[out_slots]
    lengths = graph.slot_length[out_slots]
    direct = lengths * (np.abs(a[:, out_slots]) ** 2 + np.abs(a[:, rev]) ** 2)
    cross = (
        (2.0 / k)[:, None]
        * np.sin(k[:, None] * lengths)
        * np.real(a[:, out_slots] * np.conj(a[:, rev]))
    )
    return np.sum(direct + cross, axis=1)


def eigenbasis(spectrum: Spectrum, records) -> EigenBasis:
    """Real-gauge eigenfunctions of the wanted records and their chains.

    records are positions in the spectrum's arrays.  Consecutive positive
    records closer than the largest kernel reach link into one chain,
    and every record in the chain of a wanted one is solved too: the
    kernel-dimension rule (_kernel_mismatch) counts the crossings near a
    record among the records it sees, and a whole chain shows it every
    one of them.  The zero mode has no amplitude vector and is left out.
    One pass of SVDs over the U(k) stack of those records, every later
    step vectorized over the rows.  Raises KernelDimensionMismatch where
    a record breaks the rule at the spectrum's kernel threshold, or
    where its kernel has no real gauge; raises ContinuityViolation when
    an eigenfunction takes two values at one vertex.
    """
    graph = spectrum.graph
    all_ks, all_mults = spectrum.k, spectrum.multiplicity
    positive = np.flatnonzero(all_ks > 0.0)
    threshold = spectrum.kernel_threshold(all_ks[positive])
    reach = 2.0 * threshold.max(initial=0.0) / graph.min_edge_length
    chain = np.cumsum(np.diff(all_ks[positive], prepend=-np.inf) > reach)
    chained = np.isin(chain, chain[np.isin(positive, records)])
    handed, threshold = positive[chained], threshold[chained]
    ks, mults = all_ks[handed], all_mults[handed]
    n = graph.num_slots
    eye = np.eye(n)

    def decompose(u):
        # one LAPACK call per matrix, not per stack: the benchmark's layer
        # trace (bench/tests) pins eigenfunctions.svd_calls to svd_matrices
        sv = np.empty((len(u), n))
        vh = np.empty((len(u), n, n), dtype=complex)
        for i, m in enumerate(eye - u):
            _, sv[i], vh[i] = np.linalg.svd(m)
        return sv, vh

    sv, vh = _stack_map(graph, spectrum.robin, ks, decompose)
    mismatch = _kernel_mismatch(graph, ks, mults, sv, threshold)
    if mismatch:
        raise KernelDimensionMismatch(mismatch)

    local = np.repeat(np.arange(ks.size), mults)
    first_row = np.cumsum(mults) - mults
    a = np.empty((local.size, n), dtype=complex)
    residual = np.empty(local.size)
    for m in np.unique(mults):
        # the real gauge of the module docstring, on the right singular
        # vectors of the m smallest singular values
        at = np.flatnonzero(mults == m)
        vt = vh[at]
        u = np.conj(vt[:, n - m :])
        flip = _conjugate_flip(graph, u, ks[at, None, None])
        fixed = np.concatenate([u + flip, 1j * (u - flip)], axis=1)
        lam, w = np.linalg.eigh(np.einsum("rin,rjn->rij", fixed.conj(), fixed).real)
        lam, w = lam[:, m:], w[:, :, m:]
        unreal = np.flatnonzero(lam[:, 0] <= 3.0)
        if unreal.size:
            raise KernelDimensionMismatch(
                f"kernel of I - U(k) at k={float(ks[at[unreal[0]]])!r} has no "
                f"real basis of dimension {m}"
            )
        rows = first_row[at, None] + np.arange(m)
        a[rows] = np.einsum("rij,rin->rjn", w, fixed) / np.sqrt(lam)[:, :, None]
        # |(I - U) a| = |Sigma V^H a|, over all 2E rows of V^H
        residual[rows] = np.linalg.norm(
            sv[at, None, :] * np.einsum("rij,rmj->rmi", vt, a[rows]), axis=2
        )
    k = ks[local]

    l2norm_sq = _l2_norm_sq(graph, a, k)
    # f at the origin of every slot; continuity asks one value per vertex.
    # Slot values at a vertex differ by at most twice |(I - U) a|, which
    # the kernel threshold bounds, so a loose tol widens this check too.
    at_origin = a + a[:, graph.slot_reversal] * np.exp(1j * k[:, None] * graph.slot_length)
    _, first_out = np.unique(graph.slot_origin, return_index=True)
    jump = np.abs(at_origin - at_origin[:, first_out[graph.slot_origin]])
    broken = jump > np.maximum(CONTINUITY_TOL, 2.0 * threshold[local])[:, None]
    if np.any(broken):
        row, slot = np.unravel_index(np.argmax(broken), jump.shape)
        raise ContinuityViolation(
            f"eigenfunction at k={float(k[row])!r} takes inconsistent values "
            f"at vertex {graph.slot_origin[slot]}"
        )
    vertex_values = np.real(at_origin[:, first_out]) / np.sqrt(l2norm_sq)[:, None]
    return EigenBasis(spectrum, handed[local], k, a, residual, l2norm_sq, vertex_values)


def _check_row(basis: EigenBasis, row: int) -> None:
    if not 0 <= row < len(basis.k):
        raise OutOfRange(f"row {row} outside 0..{len(basis.k) - 1}")


def evaluate(basis: EigenBasis, row: int, edge: int, x: float) -> float:
    """Normalized value of eigenfunction row at position x along an edge."""
    graph = basis.spectrum.graph
    _check_row(basis, row)
    if not 0 <= edge < graph.num_edges:
        raise OutOfRange(f"edge {edge} outside 0..{graph.num_edges - 1}")
    length = graph.edge_length(edge)
    if not 0.0 <= x <= length:
        raise OutOfRange(f"x={x!r} outside [0, {length!r}] on edge {edge}")
    a, k = basis.a[row], basis.k[row]
    raw = a[2 * edge] * np.exp(1j * k * x) + a[2 * edge + 1] * np.exp(1j * k * (length - x))
    return float(np.real(raw)) / float(np.sqrt(basis.l2norm_sq[row]))


def robin_residual(basis: EigenBasis, row: int, v: int) -> float:
    """Defect of eigenfunction row in the vertex condition
    sum f'(v) = sigma_v f(v) of the basis's spectrum; diagnostic."""
    graph, robin = basis.spectrum.graph, basis.spectrum.robin
    _check_row(basis, row)
    if not 0 <= v < graph.num_vertices:
        raise DanglingEndpoint(f"vertex {v} is not a graph vertex")
    a, k = basis.a[row], basis.k[row]
    slots = graph.slots_out(v)
    back = a[graph.slot_reversal[slots]] * np.exp(1j * k * graph.slot_length[slots])
    outward = 1j * k * np.sum(a[slots] - back)
    norm = float(np.sqrt(basis.l2norm_sq[row]))
    sigma = robin.vertex_sigmas(graph)[v]
    return float(np.abs(outward / norm - sigma * basis.vertex_values[row, v]))


def sensitivity(spectrum: Spectrum, n) -> SensitivityValue:
    """Coupling derivative of eigenvalue n: sum over coupled vertices of
    the squared normalized vertex values.

    n is an index or an array of indices, and both fields come back
    shaped like it; each record they touch is solved once, all in one
    eigenbasis call.  For a multiple eigenvalue the basis average is
    returned (the trace over the eigenspace divided by its dimension,
    which is basis independent) with degenerate=True.
    """
    which = spectrum.positions(n)
    mults = spectrum.multiplicity
    coupled = spectrum.robin.coupled_vertices(spectrum.graph)
    # constant eigenfunction at k = 0: f(v)^2 = 1/|G| at every vertex
    values = np.full(mults.size, len(coupled) / spectrum.graph.total_length)
    basis = eigenbasis(spectrum, which)
    per_row = np.sum(basis.vertex_values[:, coupled] ** 2, axis=1)
    solved = np.unique(basis.record)
    values[solved] = np.bincount(basis.record, weights=per_row)[solved] / mults[solved]
    return SensitivityValue(value=values[which], degenerate=mults[which] > 1)
