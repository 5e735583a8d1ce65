"""The counting kernels: weighted lattice-ball counts and Fricke trace-tree
walks, implemented in _pykernels."""

from ._pykernels import (  # noqa: F401
    BACKEND,
    count_ball,
    count_multi,
    count_upto,
    slopes_upto,
    trace_of_slope,
)
