"""The compiled trajectory kernel and the exact expectation's backward induction.

``_trajectory_c`` is built from ``_trajectory_c.c`` by ``setup.py``; there
is no fallback.  Without it, importing this module (and so ``belldistil``)
raises an ``ImportError`` that names the module and the build command.
``_trajectory_py`` holds the reference loop that tests compare the kernel
against; the tests hold the numpy induction that ``exact_expectations``
replaced.
"""

try:
    from ._trajectory_c import IMPL, exact_expectations, simulate, simulate_philox
except ImportError as exc:
    raise ImportError(
        f"compiled trajectory kernel belldistil._trajectory_c is unavailable "
        f"({exc}); build it with `python setup.py build_ext --inplace`"
    ) from exc
