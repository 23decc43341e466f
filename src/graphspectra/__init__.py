"""Spectral computation on metric graphs.

Eigenvalues and eigenfunctions of the Laplacian on a network of
intervals, with standard (Kirchhoff) or delta-type vertex conditions,
found through the scattering description of the secular equation; plus
the statistics of the index-paired gap sequence between the coupled and
uncoupled spectra, with their limiting means, pointwise predictions,
and explicit bounds.

Import from the submodules.  Typical use:

    >>> from graphspectra.graphs import RobinSpec, make_star
    >>> from graphspectra.solver import compute_spectrum
    >>> star = make_star(3, (1.0, 1.5, 2.0))
    >>> spectrum = compute_spectrum(star, RobinSpec(frozenset([0]), 2.0), n_max=100)
    >>> spectrum.wavenumbers(3)
    array([0.54885251, 0.91068253, 1.3355473 ])
"""

# bench/tests imports these three from the root; graphs and solver load
# with the command line anyway, so keeping them costs no import time.
from .graphs import RobinSpec, make_star
from .solver import compute_spectrum

__version__ = "0.1.0"

__all__ = ["RobinSpec", "compute_spectrum", "make_star"]
