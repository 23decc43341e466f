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
from .solver import KERNEL_SV_SCALE, Spectrum, _stack_map, compute_spectrum
from .scattering import unitary_stack

__all__ = [
    "AmplitudeVector",
    "EigenfunctionHandle",
    "SensitivityValue",
    "kernel_vector",
    "kernel_vectors_batch",
    "l2_norm_sq",
    "eigenfunction_handle",
    "vertex_value",
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
class SensitivityValue:
    """Coupling derivative of one eigenvalue; degenerate means the value
    is a basis average over the eigenspace rather than a single state."""

    value: float
    degenerate: bool


def _conjugate_flip(graph: MetricGraph, a: np.ndarray, k: float) -> np.ndarray:
    return np.conj(a[..., graph.slot_reversal]) * np.exp(-1j * k * graph.slot_length)


def _reality_defect(graph: MetricGraph, a: np.ndarray, k: float) -> float:
    return float(np.max(np.abs(a - _conjugate_flip(graph, a, k))))


def _gauge_phase(graph: MetricGraph, a: np.ndarray, k) -> np.ndarray:
    """Least-squares unit phase: rotating by it minimizes the reality defect."""
    w = np.sum(a * a[..., graph.slot_reversal] * np.exp(1j * k * graph.slot_length), axis=-1)
    return np.exp(-0.5j * np.angle(w))


def _raw_kernel_basis(graph, robin, k, multiplicity):
    (u,) = unitary_stack(graph, robin, np.asarray([k]))
    m = np.eye(graph.num_slots) - u
    _, sv, vh = np.linalg.svd(m)
    dim = int(np.sum(sv < KERNEL_SV_SCALE * np.sqrt(graph.num_slots)))
    if dim != multiplicity:
        raise KernelDimensionMismatch(
            f"kernel of I - U(k) at k={k!r} has numerical dimension {dim}, "
            f"expected multiplicity {multiplicity}"
        )
    basis = np.conj(vh[graph.num_slots - multiplicity :, :])
    return m, basis[::-1]


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


def kernel_vector(
    graph: MetricGraph, robin: RobinSpec, k: float, multiplicity: int = 1
) -> list[AmplitudeVector]:
    """Orthonormal real-gauge basis of ker(I - U(k))."""
    m, basis = _raw_kernel_basis(graph, robin, k, multiplicity)
    if multiplicity == 1:
        vecs = [basis[0] * _gauge_phase(graph, basis[0], k)]
    else:
        vecs = _real_gauge_basis(graph, basis, k)
    return [
        AmplitudeVector(k=float(k), a=v, residual=float(np.linalg.norm(m @ v)))
        for v in vecs
    ]


def kernel_vectors_batch(graph: MetricGraph, robin: RobinSpec, ks: np.ndarray):
    """Gauged kernel vectors for a batch of simple eigenvalues.

    Returns (amplitudes, residuals) with amplitudes of shape (B, 2E).
    Much faster than kernel_vector in a loop; no dimension audit, so
    callers must pass wave numbers of simple eigenvalues only.
    """
    eye = np.eye(graph.num_slots)

    def gauged(batch, u):
        _, sv, vh = np.linalg.svd(eye - u)
        a = np.conj(vh[:, -1, :])
        return a * _gauge_phase(graph, a, batch[:, None])[:, None], sv[:, -1]

    return _stack_map(graph, robin, ks, gauged)


def l2_norm_sq(amp: AmplitudeVector, graph: MetricGraph) -> float:
    """Exact squared L2 norm of the eigenfunction over the whole graph."""
    a = amp.a
    out_slots = np.arange(0, graph.num_slots, 2)
    rev = graph.slot_reversal[out_slots]
    lengths = graph.slot_length[out_slots]
    direct = lengths * (np.abs(a[out_slots]) ** 2 + np.abs(a[rev]) ** 2)
    cross = (
        (2.0 / amp.k)
        * np.sin(amp.k * lengths)
        * np.real(a[out_slots] * np.conj(a[rev]))
    )
    return float(np.sum(direct + cross))


def _vertex_values(graph: MetricGraph, amp: AmplitudeVector, norm: float) -> np.ndarray:
    values = np.empty(graph.num_vertices)
    for v in range(graph.num_vertices):
        slots = graph.slots_out(v)
        raw = amp.a[slots] + amp.a[graph.slot_reversal[slots]] * np.exp(
            1j * amp.k * graph.slot_length[slots]
        )
        if np.max(np.abs(raw - raw[0])) > CONTINUITY_TOL:
            raise ContinuityViolation(
                f"eigenfunction at k={amp.k!r} takes inconsistent values at vertex {v}"
            )
        values[v] = float(np.real(raw[0])) / norm
    return values


def eigenfunction_handle(
    graph: MetricGraph, robin: RobinSpec, k: float, multiplicity: int = 1
) -> list[EigenfunctionHandle]:
    """Kernel basis wrapped with norms and vertex values."""
    handles = []
    for amp in kernel_vector(graph, robin, k, multiplicity):
        nsq = l2_norm_sq(amp, graph)
        handles.append(
            EigenfunctionHandle(
                graph=graph,
                amplitude=amp,
                l2norm_sq=nsq,
                vertex_values=_vertex_values(graph, amp, float(np.sqrt(nsq))),
            )
        )
    return handles


def vertex_value(handle: EigenfunctionHandle, v: int) -> float:
    """Normalized eigenfunction value at a vertex."""
    return float(handle.vertex_values[v])


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
    n: int,
    *,
    spectrum: Spectrum | None = None,
    strict: bool = False,
) -> SensitivityValue:
    """Coupling derivative of eigenvalue n: sum over coupled vertices of
    the squared normalized vertex values.

    For a multiple eigenvalue the basis average is returned (the trace
    over the eigenspace divided by its dimension, which is basis
    independent) with degenerate=True; strict=True raises instead.
    """
    if n < 1:
        raise ValueError("eigenvalue index starts at 1")
    if spectrum is None:
        spectrum = compute_spectrum(graph, robin, n_max=n)
    record = None
    for rec in spectrum.records:
        if rec.index <= n < rec.index + rec.multiplicity:
            record = rec
            break
    if record is None:
        raise OutOfRange(f"index {n} beyond the computed spectrum")
    if record.k == 0.0:
        # constant eigenfunction: f(v)^2 = 1/|G| at every vertex
        return SensitivityValue(
            value=len(robin.vertices) / graph.total_length, degenerate=False
        )
    if record.multiplicity > 1 and strict:
        raise DegenerateEigenvalue(
            f"eigenvalue {n} at k={record.k!r} has multiplicity {record.multiplicity}"
        )
    handles = eigenfunction_handle(graph, robin, record.k, record.multiplicity)
    verts = sorted(robin.vertices)
    total = 0.0
    for handle in handles:
        total += float(np.sum(handle.vertex_values[verts] ** 2))
    return SensitivityValue(
        value=total / record.multiplicity,
        degenerate=record.multiplicity > 1,
    )
