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
    """A count, bracket or record failed the solver's certification."""


class ContinuityViolation(GraphSpectraError):
    """Vertex values computed from different incident edges disagree."""


class DegenerateParameters(GraphSpectraError):
    """A bound parameter (s-check or S-check) is not finite and positive."""


class DegenerateDecomposition(GraphSpectraError):
    """A star decomposition assigns zero total length to a Robin vertex."""


class InsufficientSpectrum(GraphSpectraError):
    """A statistic was requested beyond the computed spectral range."""


class KernelDimensionMismatch(GraphSpectraError):
    """The numerical kernel dimension disagrees with the declared multiplicity."""


class OutOfRange(GraphSpectraError):
    """An eigenvalue index, basis row, edge or edge position is out of range."""
