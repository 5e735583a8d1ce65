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

from ._kernels import BACKEND as kernel_backend  # noqa: F401
