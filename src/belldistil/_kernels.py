"""The compiled trajectory kernel, the exact expectation's backward induction,
and the CSV writer and logarithm of the CLI tables.

``_trajectory_c`` is built from ``_trajectory_c.c`` by ``setup.py``; there
is no fallback.  Without it, importing this module (and so ``belldistil``)
raises an ``ImportError`` that names the module and the build command.
``PHILOX`` names the paths that compute the Monte Carlo's whole Philox
blocks and the exact induction's averaging loop: ``"avx512"``, 18 blocks and
16 table entries per step in AVX-512 lanes, which the module picks at load
time on an x86-64-v4 CPU when built by GCC 12 or later, or ``"scalar"``, one
block at a time and the compiler's baseline loop, everywhere else.  Both
give the same bits.
``_trajectory_py`` holds the one reference entry, ``simulate``, that tests
compare the kernel against; the tests hold the numpy induction that
``exact_expectations`` replaced.

``format_table`` writes a float table as CSV text, each cell the bytes of
``format(x, '.12g')``: a cell whose 12-digit mantissa a double computes
beyond doubt is written in fixed point, and every other cell by
``PyOS_double_to_string``, the routine that ``format`` itself calls.
``log_each`` gives the bits of ``math.log`` per value, because it calls the
same libm ``log`` and raises where ``math.log`` does.
"""

try:
    from ._trajectory_c import (
        IMPL,
        PHILOX,
        exact_expectations,
        format_table,
        log_each,
        simulate,
        simulate_philox,
    )
except ImportError as exc:
    raise ImportError(
        f"compiled trajectory kernel belldistil._trajectory_c is unavailable "
        f"({exc}); build it with `python setup.py build_ext --inplace`"
    ) from exc
