"""Domain error taxonomy for metric-graph spectral computations."""


class GraphSpectraError(Exception):
    """Base class for all library-specific errors."""


class NonPositiveLength(GraphSpectraError):
    """An edge length is zero, negative, or not finite."""


class DisconnectedGraph(GraphSpectraError):
    """The metric graph is not connected."""


class DanglingEndpoint(GraphSpectraError):
    """An edge or Robin set references a vertex that does not exist."""


class ZeroWaveNumber(GraphSpectraError):
    """A scattering quantity was requested at k <= 0, where it is undefined."""


class ToleranceNotMet(GraphSpectraError):
    """Root refinement could not reach the requested tolerance."""


class OutOfScannedRange(GraphSpectraError):
    """A query point lies beyond the scanned wave-number range."""


class IndexCrossingAmbiguity(GraphSpectraError):
    """A coupling homotopy hit a persistently multiple eigenvalue."""


class ContinuityViolation(GraphSpectraError):
    """Vertex values computed from different incident edges disagree."""


class DegenerateEigenvalue(GraphSpectraError):
    """An operation requiring a simple eigenvalue met a multiple one."""


class MeshTooCoarse(GraphSpectraError):
    """The finite-difference mesh has too few points per edge."""


class ConvergenceFailure(GraphSpectraError):
    """An iterative eigenvalue solve did not converge."""


class PreconditionViolated(GraphSpectraError):
    """A closed-form bound was evaluated outside its validity region."""


class DegenerateParameters(GraphSpectraError):
    """A bound parameter (s-check or S-check) is zero."""


class DegenerateDecomposition(GraphSpectraError):
    """A star decomposition assigns zero total length to a Robin vertex."""


class InsufficientSpectrum(GraphSpectraError):
    """A statistic was requested beyond the computed spectral range."""


class KernelDimensionMismatch(GraphSpectraError):
    """The numerical kernel dimension disagrees with the declared multiplicity."""


class OutOfRange(GraphSpectraError):
    """An evaluation point lies outside its edge."""
