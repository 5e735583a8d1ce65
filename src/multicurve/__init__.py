"""Statistics of simple closed multicurves on hyperbolic surfaces.

Library layout:

- topology: surface types and pants decompositions (combinatorial data)
- hypfun: collar width and the scalar weight functions
- dtlattice: Dehn-Thurston coordinates and lattice-ball enumeration
- thurston: measures of combinatorial length balls
- bounds: sandwich and uniform counting bounds for the unit-ball function
- wpcells: chart-level Weil-Petersson cells, exact integrals, Monte Carlo
- exactpoly / volumes: exact Q[pi^2] arithmetic and volume tables
- frequencies: counting polynomials and frequencies
- torus: concrete once-punctured-torus geometry (the end-to-end oracle)
- config / verify / cli: batch front door
"""

__version__ = "0.1.0"


def __getattr__(name):
    # kernel_backend is read from the kernels module on first access, so that
    # importing the package (and the command line) does not compile it
    if name == "kernel_backend":
        from ._kernels import BACKEND

        return BACKEND
    raise AttributeError("module %r has no attribute %r" % (__name__, name))
