"""Kernel selection: the compiled trajectory loop, else the pure-Python twin.

The compiled loop is ``_trajectory_c``, built from ``_trajectory_c.c`` by
``setup.py``.  When it cannot be imported, ``_trajectory_py`` runs instead:
same results, far slower.  That fallback issues a ``RuntimeWarning`` naming
the missing module, and ``IMPL`` says which kernel is in use.
"""

import warnings

try:
    from . import _trajectory_c as _impl
except ImportError as exc:
    warnings.warn(
        "compiled trajectory kernel belldistil._trajectory_c is unavailable "
        f"({exc}); using the pure-Python kernel",
        RuntimeWarning,
    )
    from . import _trajectory_py as _impl

simulate = _impl.simulate
simulate_philox = _impl.simulate_philox
IMPL = _impl.IMPL
