"""Amplitude vectors, real gauge fixing, eigenfunction evaluation.

An eigenfunction with wave number k restricted to edge e is

    f|_e(x) = a_e exp(ikx) + a_rev(e) exp(ik(l_e - x)),

with the amplitude vector a in ker(I - U(k)).  A real eigenfunction
satisfies the reality relations a_e = conj(a_rev(e)) exp(-ik l_e) on
every slot; kernel vectors come out of the SVD with an arbitrary global
phase, so the gauge is fixed by minimizing the reality defect.  For a
simple eigenvalue the optimal phase has the closed form
gamma = -arg(sum_j a_j a_rev(j) exp(ik l_j)) / 2.  For a multiple
eigenvalue the antiunitary map

    (C a)_j = conj(a_rev(j)) exp(-ik l_j)

squares to the identity and fixes exactly the real-gauge vectors, so an
orthonormal real-gauge basis is built from projections u + Cu and
i(u - Cu).

The squared L2 norm of f over the graph is the exact edge-wise integral

    sum_e [ l_e (|a_e|^2 + |a_rev|^2) + (2/k) sin(k l_e) Re(a_e conj(a_rev)) ],

and vertex values in the real gauge reduce to f(v) = 2 Re(a_j) for any
slot j pointing out of v.

All of it runs in one batched evaluation, eigenbasis: the SVDs of
I - U(k) over a set of records (k, m), every quantity above vectorized
over the result.  The single-record functions and the sensitivity are
views of it.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    ContinuityViolation,
    DegenerateEigenvalue,
    KernelDimensionMismatch,
    OutOfRange,
)
from .graphs import MetricGraph, RobinSpec
from .solver import Spectrum, _kernel_threshold, _stack_map, compute_spectrum

__all__ = [
    "AmplitudeVector",
    "EigenBasis",
    "EigenfunctionHandle",
    "SensitivityValue",
    "eigenbasis",
    "kernel_vector",
    "eigenfunction_handle",
    "evaluate",
    "sensitivity",
    "robin_residual",
]

CONTINUITY_TOL = 1e-6


@dataclass(frozen=True)
class AmplitudeVector:
    """Unit kernel vector of I - U(k) in the real gauge."""

    k: float
    a: np.ndarray
    residual: float


@dataclass(frozen=True)
class EigenfunctionHandle:
    """One L2-normalizable eigenfunction ready for pointwise evaluation."""

    graph: MetricGraph
    amplitude: AmplitudeVector
    l2norm_sq: float
    vertex_values: np.ndarray


@dataclass(frozen=True)
class EigenBasis:
    """Real-gauge eigenfunctions of a batch of records, one row each.

    Rows come grouped by record in input order, m rows for a record of
    multiplicity m; record[i] is the input position of row i and k[i]
    its wave number.  a holds unit kernel vectors of I - U(k), residual
    |(I - U(k)) a|, l2norm_sq the exact squared L2 norm of the
    eigenfunction, and vertex_values the L2-normalized values f(v).
    """

    record: np.ndarray
    k: np.ndarray
    a: np.ndarray
    residual: np.ndarray
    l2norm_sq: np.ndarray
    vertex_values: np.ndarray


@dataclass(frozen=True)
class SensitivityValue:
    """Coupling derivative of one eigenvalue; degenerate means the value
    is a basis average over the eigenspace rather than a single state.
    Both fields are arrays when several indices are asked for at once."""

    value: float
    degenerate: bool


def _conjugate_flip(graph: MetricGraph, a: np.ndarray, k: float) -> np.ndarray:
    return np.conj(a[..., graph.slot_reversal]) * np.exp(-1j * k * graph.slot_length)


def _gauge_phase(graph: MetricGraph, a: np.ndarray, k) -> np.ndarray:
    """Least-squares unit phase: rotating by it minimizes the reality defect."""
    w = np.sum(a * a[..., graph.slot_reversal] * np.exp(1j * k * graph.slot_length), axis=-1)
    return np.exp(-0.5j * np.angle(w))


def _real_gauge_basis(graph, basis, k):
    """Orthonormal basis of fixed points of the conjugation symmetry.

    Each raw vector contributes up to two fixed directions, u + Cu and
    i(u - Cu); Gram-Schmidt against fixed vectors keeps the result fixed
    because the inner product of two fixed vectors is real.
    """
    out: list[np.ndarray] = []
    want = basis.shape[0]
    for v in basis:
        u = v.copy()
        for w in out:
            u = u - np.vdot(w, u) * w
        flip = _conjugate_flip(graph, u, k)
        for cand in (u + flip, 1j * (u - flip)):
            if np.linalg.norm(cand) <= 1e-6:
                continue
            for w in out:
                cand = cand - np.vdot(w, cand) * w
            norm = np.linalg.norm(cand)
            if norm > 1e-6:
                out.append(cand / norm)
            if len(out) == want:
                return out
    raise KernelDimensionMismatch(
        f"could not complete a real-gauge basis of dimension {want} at k={k!r}"
    )


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


def eigenbasis(
    graph: MetricGraph, robin: RobinSpec, ks, multiplicities, tol: float | None = None
) -> EigenBasis:
    """Real-gauge eigenfunctions of every record (k, m), k > 0.

    One pass of SVDs over the U(k) stack of all records, every later
    step vectorized over the rows.  Raises
    KernelDimensionMismatch unless each record's numerical kernel
    dimension, counted against the solver's threshold for the
    refinement tolerance tol, equals m; raises ContinuityViolation when
    an eigenfunction takes two values at one vertex.
    """
    ks = np.asarray(ks, dtype=float)
    mults = np.asarray(multiplicities, dtype=int)
    n = graph.num_slots
    eye = np.eye(n)
    # the right singular vectors of the m smallest singular values span
    # a kernel of dimension m; only that many rows of V^H are kept
    width = int(mults.max(initial=1))

    def decompose(_, u):
        # one LAPACK call per matrix, not per stack: the benchmark's layer
        # trace (bench/tests) pins eigenfunctions.svd_calls to svd_matrices
        sv = np.empty((len(u), n))
        vh = np.empty((len(u), width, n), dtype=complex)
        for i, m in enumerate(eye - u):
            _, sv[i], full = np.linalg.svd(m)
            vh[i] = full[n - width :]
        return sv, vh

    sv, vh = _stack_map(graph, robin, ks, decompose)
    threshold = _kernel_threshold(graph, robin, ks, tol)
    dims = np.sum(sv < threshold[:, None], axis=1)
    wrong = np.flatnonzero(dims != mults)
    if wrong.size:
        j = wrong[0]
        raise KernelDimensionMismatch(
            f"kernel of I - U(k) at k={float(ks[j])!r} has numerical dimension "
            f"{dims[j]}, expected multiplicity {mults[j]}"
        )

    record = np.repeat(np.arange(ks.size), mults)
    first_row = np.cumsum(mults) - mults
    a = np.empty((record.size, n), dtype=complex)
    simple = np.flatnonzero(mults == 1)
    raw = np.conj(vh[simple, -1, :])
    a[first_row[simple]] = raw * _gauge_phase(graph, raw, ks[simple, None])[:, None]
    for j in np.flatnonzero(mults > 1):
        basis = np.conj(vh[j, width - mults[j] :, :])[::-1]
        a[first_row[j] : first_row[j] + mults[j]] = _real_gauge_basis(graph, basis, ks[j])
    k = ks[record]
    # |(I - U) a| = |Sigma V^H a|; a lies in the span of the kept rows
    residual = np.linalg.norm(
        sv[record, n - width :] * np.einsum("rij,rj->ri", vh[record], a), axis=1
    )

    l2norm_sq = _l2_norm_sq(graph, a, k)
    # f at the origin of every slot; continuity asks one value per vertex.
    # Slot values at a vertex differ by at most twice |(I - U) a|, which
    # the kernel threshold bounds, so a loose tol widens this check too.
    at_origin = a + a[:, graph.slot_reversal] * np.exp(1j * k[:, None] * graph.slot_length)
    _, first_out = np.unique(graph.slot_origin, return_index=True)
    jump = np.abs(at_origin - at_origin[:, first_out[graph.slot_origin]])
    broken = jump > np.maximum(CONTINUITY_TOL, 2.0 * threshold[record])[:, None]
    if np.any(broken):
        row, slot = np.unravel_index(np.argmax(broken), jump.shape)
        raise ContinuityViolation(
            f"eigenfunction at k={float(k[row])!r} takes inconsistent values "
            f"at vertex {graph.slot_origin[slot]}"
        )
    vertex_values = np.real(at_origin[:, first_out]) / np.sqrt(l2norm_sq)[:, None]
    return EigenBasis(record, k, a, residual, l2norm_sq, vertex_values)


def eigenfunction_handle(
    graph: MetricGraph, robin: RobinSpec, k: float, multiplicity: int = 1
) -> list[EigenfunctionHandle]:
    """Real-gauge eigenbasis at one eigenvalue, with norms and vertex values."""
    basis = eigenbasis(graph, robin, [k], [multiplicity])
    return [
        EigenfunctionHandle(
            graph=graph,
            amplitude=AmplitudeVector(
                k=float(k), a=basis.a[i], residual=float(basis.residual[i])
            ),
            l2norm_sq=float(basis.l2norm_sq[i]),
            vertex_values=basis.vertex_values[i],
        )
        for i in range(multiplicity)
    ]


def kernel_vector(
    graph: MetricGraph, robin: RobinSpec, k: float, multiplicity: int = 1
) -> list[AmplitudeVector]:
    """Orthonormal real-gauge basis of ker(I - U(k))."""
    return [h.amplitude for h in eigenfunction_handle(graph, robin, k, multiplicity)]


def evaluate(handle: EigenfunctionHandle, edge: int, x: float) -> float:
    """Normalized eigenfunction value at position x along an edge."""
    length = handle.graph.edge_length(edge)
    if not 0.0 <= x <= length:
        raise OutOfRange(f"x={x!r} outside [0, {length!r}] on edge {edge}")
    amp = handle.amplitude
    a_out = amp.a[2 * edge]
    a_back = amp.a[2 * edge + 1]
    raw = a_out * np.exp(1j * amp.k * x) + a_back * np.exp(1j * amp.k * (length - x))
    return float(np.real(raw)) / float(np.sqrt(handle.l2norm_sq))


def robin_residual(handle: EigenfunctionHandle, robin: RobinSpec, v: int) -> float:
    """Defect in the vertex condition sum f'(v) = sigma_v f(v); diagnostic."""
    graph = handle.graph
    amp = handle.amplitude
    slots = graph.slots_out(v)
    back = amp.a[graph.slot_reversal[slots]] * np.exp(
        1j * amp.k * graph.slot_length[slots]
    )
    outward = 1j * amp.k * np.sum(amp.a[slots] - back)
    norm = float(np.sqrt(handle.l2norm_sq))
    return float(
        np.abs(outward / norm - robin.sigma_at(v) * handle.vertex_values[v])
    )


def sensitivity(
    graph: MetricGraph,
    robin: RobinSpec,
    n,
    *,
    spectrum: Spectrum | None = None,
    strict: bool = False,
) -> SensitivityValue:
    """Coupling derivative of eigenvalue n: sum over coupled vertices of
    the squared normalized vertex values.

    n is one index or an array of indices; each record they touch is
    solved once, all in one eigenbasis call.  For a multiple eigenvalue
    the basis average is returned (the trace over the eigenspace divided
    by its dimension, which is basis independent) with degenerate=True;
    strict=True raises instead.
    """
    idx = np.asarray(n)
    if np.any(idx < 1):
        raise ValueError("eigenvalue index starts at 1")
    if spectrum is None:
        spectrum = compute_spectrum(graph, robin, n_max=int(idx.max()))
    if np.any(idx > spectrum.size):
        raise OutOfRange(f"index {int(idx.max())} beyond the computed spectrum")
    firsts = [rec.index for rec in spectrum.records]
    used, which = np.unique(
        np.searchsorted(firsts, idx.ravel(), side="right") - 1, return_inverse=True
    )
    ks = np.array([spectrum.records[j].k for j in used])
    mults = np.array([spectrum.records[j].multiplicity for j in used])
    degenerate = mults[which] > 1
    if strict and np.any(degenerate):
        j = int(np.argmax(degenerate))
        raise DegenerateEigenvalue(
            f"eigenvalue {idx.ravel()[j]} at k={float(ks[which[j]])!r} "
            f"has multiplicity {mults[which[j]]}"
        )
    # constant eigenfunction at k = 0: f(v)^2 = 1/|G| at every vertex
    values = np.full(used.size, len(robin.vertices) / graph.total_length)
    moving = ks > 0.0
    basis = eigenbasis(graph, robin, ks[moving], mults[moving], spectrum.tol)
    per_row = np.sum(basis.vertex_values[:, sorted(robin.vertices)] ** 2, axis=1)
    values[moving] = np.bincount(
        basis.record, weights=per_row, minlength=int(moving.sum())
    ) / mults[moving]
    value = values[which]
    if idx.ndim == 0:
        return SensitivityValue(value=float(value[0]), degenerate=bool(degenerate[0]))
    return SensitivityValue(value=value, degenerate=degenerate)
