"""Kernel backend selection.

The compiled extension is used when it imports; otherwise the pure-Python
twin, which returns the same results (_pykernels states where they differ).
"""

try:
    from . import _ckernels as _impl  # type: ignore[attr-defined]
except ImportError:
    from . import _pykernels as _impl

BACKEND = _impl.BACKEND
count_ball = _impl.count_ball
trace_of_slope = _impl.trace_of_slope
slopes_upto = _impl.slopes_upto
count_upto = _impl.count_upto
count_multi = _impl.count_multi
