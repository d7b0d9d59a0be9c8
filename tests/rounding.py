"""The four IEEE rounding modes, set through C's ``fesetround``: tests only.

Python floats, numpy and the compiled kernel all round under the mode of
the thread that runs them, so a computation rerun in each mode shows how
far its rounding can move it (Parker's Monte Carlo arithmetic, with the
four deterministic modes in place of random rounding).
"""

from __future__ import annotations

import ctypes
import ctypes.util
import platform
from contextlib import contextmanager

#: The four modes, by name.
MODES = ("nearest", "upward", "downward", "towardzero")

#: fenv.h's ``FE_*`` values, per machine.
_FE_MODES = {
    "x86_64": {"nearest": 0x000, "downward": 0x400, "upward": 0x800,
               "towardzero": 0xC00},
    "aarch64": {"nearest": 0x000000, "upward": 0x400000, "downward": 0x800000,
                "towardzero": 0xC00000},
}


def _effect() -> dict:
    """Whether 1 + 2**-60 rounds up, 1 - 2**-60 down and -1 - 2**-60 down:
    the three answers tell the four modes apart."""
    one, tiny = 1.0, 2.0**-60
    return {"up": one + tiny > one, "down": one - tiny < one,
            "below -1": -one - tiny < -one}


_EFFECTS = {
    "nearest": {"up": False, "down": False, "below -1": False},
    "upward": {"up": True, "down": False, "below -1": False},
    "downward": {"up": False, "down": True, "below -1": True},
    "towardzero": {"up": False, "down": True, "below -1": False},
}


@contextmanager
def rounding(mode: str):
    """Runs the block in the rounding mode named (one of ``MODES``), after
    checking that the mode took, and in round-to-nearest after it.  On a
    machine other than x86-64 and aarch64 it raises ``KeyError``."""
    fe = _FE_MODES[platform.machine()]
    libm = ctypes.CDLL(ctypes.util.find_library("m"))
    try:
        if libm.fesetround(fe[mode]) != 0:
            raise RuntimeError(f"fesetround refused {mode}")
        if libm.fegetround() != fe[mode] or _effect() != _EFFECTS[mode]:
            raise RuntimeError(f"{mode} did not take: {_effect()}")
        yield
    finally:
        libm.fesetround(fe["nearest"])
