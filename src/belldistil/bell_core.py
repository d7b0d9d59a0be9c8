"""Bell-diagonal two-qubit states and the closed-form single-step maps.

A state is described by the four Bell-projector coefficients in the fixed
global order (Phi+, Psi-, Psi+, Phi-).  One distillation step consumes two
identical pairs and, conditioned on the parity of two local measurements,
either keeps pair 1 in a sharpened state (success) or in a degraded state
(failure).  Everything here is exact algebra on the coefficient simplex;
the density-matrix verification of these formulas lives in
:mod:`belldistil.oracle`.

The private maps below take the coefficients of one state as floats, or of
many states as four equal-length arrays (a ``(4, k)`` coefficient stack,
state i in column i).  Each formula is written once; every operation in it
is elementwise, so a stack gives each state the bits of its own float call.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidStateError

#: Tolerance on the normalization sum a + b + c + d = 1.
NORM_ATOL = 1e-12

#: Coefficients in [CLAMP_FLOOR, 0) are treated as floating-point
#: cancellation residue and clamped to zero; anything more negative is a
#: hard error.
CLAMP_FLOOR = -1e-15

#: Below this weight the failure branch of a step is physically unreachable.
UNREACHABLE_ATOL = 1e-14

#: Coefficient vector reachable by local operations alone (fidelity 1/2);
#: reported as the failure branch when that branch has zero probability.
LOCC_FLOOR_COEFFS = (0.5, 0.5, 0.0, 0.0)

_Coeffs = tuple[float, float, float, float]


def _select(cond, x, y):
    """``x if cond else y``, elementwise when ``cond`` is an array."""
    return np.where(cond, x, y) if isinstance(cond, np.ndarray) else (x if cond else y)


def _square(x):
    """``x ** 2`` as Python rounds it (C ``pow``), elementwise for arrays.

    numpy's ``**`` squares by ``x * x``, which differs from ``pow`` in the
    last bit for about one input in a thousand; ``np.float_power`` calls
    ``pow``.
    """
    return np.float_power(x, 2.0) if isinstance(x, np.ndarray) else x**2


def _raise_first(ok: np.ndarray, check, *values: np.ndarray) -> None:
    """Raise what ``check`` raises on the floats of the first state of a
    stack that fails ``ok``; the float call holds the one error message."""
    if not ok.all():
        i = int(np.argmin(ok))
        check(*(float(x[i]) for x in values))


def _normalized(a, b, c, d):
    """The one state check: clamp cancellation residue, check, renormalize.

    Every constructed state and every application of a step map passes
    through here exactly once (renormalizing is not idempotent in floating
    point).  The comparisons are written so that NaN fails them.  A stack
    takes the same steps elementwise, every state is checked, and the error
    is the one of the first state that fails.
    """
    if isinstance(a, np.ndarray):
        valid = ((a >= CLAMP_FLOOR) & (b >= CLAMP_FLOOR) & (c >= CLAMP_FLOOR)
                 & (d >= CLAMP_FLOOR))
        ca, cb, cc, cd = (np.where(x < 0.0, 0.0, x) for x in (a, b, c, d))
        total = ((ca + cb) + cc) + cd
        _raise_first(valid & (abs(total - 1.0) <= NORM_ATOL), _normalized, a, b, c, d)
        return (ca / total, cb / total, cc / total, cd / total)
    if not (a >= CLAMP_FLOOR and b >= CLAMP_FLOOR and c >= CLAMP_FLOOR
            and d >= CLAMP_FLOOR):
        coeffs = (a, b, c, d)
        bad = next(x for x in coeffs if not x >= CLAMP_FLOOR)
        kind = "NaN" if bad != bad else "negative"
        raise InvalidStateError(f"{kind} coefficient {bad!r} in {coeffs!r}")
    # the same as max(x, 0.0): residue becomes 0.0 and -0.0 stays -0.0
    a = 0.0 if a < 0.0 else a
    b = 0.0 if b < 0.0 else b
    c = 0.0 if c < 0.0 else c
    d = 0.0 if d < 0.0 else d
    # the order of Python 3.11's sum(); later versions compensate
    total = ((a + b) + c) + d
    if not abs(total - 1.0) <= NORM_ATOL:
        raise InvalidStateError(f"coefficients sum to {total!r}, expected 1")
    return (a / total, b / total, c / total, d / total)


@dataclass(frozen=True)
class BellDiagonalState:
    """Coefficients (a, b, c, d) of the Bell projectors (Phi+, Psi-, Psi+, Phi-).

    The vector must lie on the probability simplex.  Tiny negative entries
    from floating-point cancellation are clamped to zero and the vector is
    renormalized; genuinely invalid input, NaN included, raises
    :class:`InvalidStateError`.
    """

    a: float
    b: float
    c: float
    d: float

    def __post_init__(self) -> None:
        self.__dict__.update(zip("abcd", _normalized(self.a, self.b, self.c, self.d)))

    def as_tuple(self) -> tuple[float, float, float, float]:
        return (self.a, self.b, self.c, self.d)

    def serialize(self) -> str:
        """Four decimal floats in coefficient order, space separated."""
        return " ".join(f"{x:.17g}" for x in self.as_tuple())


@dataclass(frozen=True)
class StepOutcome:
    """Success probability and the two conditioned post-states of one step.

    ``failure_reachable`` is False when the failure branch has probability
    zero; its state is then reported as the LOCC floor (0.5, 0.5, 0, 0).
    """

    p_success: float
    success_state: BellDiagonalState
    failure_state: BellDiagonalState
    failure_reachable: bool = True


def fidelity(s: BellDiagonalState) -> float:
    """Overlap with the target Bell state Phi+; simply the coefficient a."""
    return s.a


def werner(big_a: float) -> BellDiagonalState:
    """Werner state: the three non-target coefficients share (1 - A)/3 evenly."""
    return _state(_werner_coeffs(big_a))


def _werner_coeffs(big_a):
    """Coefficients of :func:`werner`, or a stack of them for an array of A;
    raises for the first A outside [0, 1]."""
    if isinstance(big_a, np.ndarray):
        _raise_first((0.0 <= big_a) & (big_a <= 1.0), _werner_coeffs, big_a)
    elif not 0.0 <= big_a <= 1.0:
        raise InvalidStateError(f"Werner parameter {big_a!r} outside [0, 1]")
    rest = (1.0 - big_a) / 3.0
    return _normalized(big_a, rest, rest, rest)


def is_distillable(s: BellDiagonalState) -> bool:
    """True iff the state is non-separable: some coefficient exceeds 1/2."""
    return max(s.as_tuple()) > 0.5


def success_probability(s: BellDiagonalState) -> float:
    """Probability (a+b)^2 + (c+d)^2 that a step keeps pair 1."""
    return _success_weight(*s.as_tuple())


# The step maps on coefficient floats or stacks.  Their inputs are
# coefficients of valid states; each application validates its output once,
# through _normalized.


def _success_weight(a, b, c, d):
    return _square(a + b) + _square(c + d)


def _success_coeffs(a, b, c, d, p):
    """Post-state of a successful step, given its success weight ``p``."""
    return _normalized(
        (a * a + b * b) / p,
        2.0 * c * d / p,
        (c * c + d * d) / p,
        2.0 * a * b / p,
    )


def _failure_coeffs(a, b, c, d):
    """Post-state of a failed step and whether failure is reachable; an
    unreachable failure reports the LOCC floor."""
    # Since (a+b) + (c+d) = 1, the failure weight 1 - p equals
    # 2(a+b)(c+d) exactly; the product form stays accurate when p -> 1.
    q = 2.0 * (a + b) * (c + d)
    reachable = q >= UNREACHABLE_ATOL
    floor_a, floor_b, floor_c, floor_d = LOCC_FLOOR_COEFFS
    q = _select(reachable, q, 1.0)
    coeffs = _normalized(
        _select(reachable, a * c + b * d, floor_a) / q,
        _select(reachable, a * d + b * c, floor_b) / q,
        _select(reachable, a * c + b * d, floor_c) / q,
        _select(reachable, a * d + b * c, floor_d) / q,
    )
    return coeffs, reachable


def _state(coeffs: _Coeffs) -> BellDiagonalState:
    """A state from coefficients that :func:`_normalized` already returned."""
    s = object.__new__(BellDiagonalState)
    s.__dict__.update(zip("abcd", coeffs))
    return s


def distill_step(s: BellDiagonalState) -> StepOutcome:
    """One two-pair step: success/failure post-states and the success weight.

    The local pre-rotation that swaps the Psi- and Phi- contributions is
    already folded into these coefficient maps; no separate rotation is
    exposed on coefficient vectors.
    """
    coeffs = s.as_tuple()
    p = _success_weight(*coeffs)
    success = _state(_success_coeffs(*coeffs, p))
    failure, reachable = _failure_coeffs(*coeffs)
    return StepOutcome(p, success, _state(failure), bool(reachable))


def avg_fidelity_single_locc(s: BellDiagonalState) -> float:
    """Single-step average fidelity when a failed step is replaced by a
    locally prepared pair of fidelity 1/2: closed form a + b(1 - 2a)."""
    return s.a + s.b * (1.0 - 2.0 * s.a)


def avg_fidelity_single_conditional(s: BellDiagonalState) -> float:
    """Single-step average fidelity keeping the degraded failure state:
    closed form a^2 + a(c - b) + b(1 - c)."""
    return s.a * s.a + s.a * (s.c - s.b) + s.b * (1.0 - s.c)


def iterate_map(s: BellDiagonalState, k: int) -> BellDiagonalState:
    """k-fold composition of the success branch of :func:`distill_step`."""
    if k < 0:
        raise ValueError(f"iteration count must be >= 0, got {k}")
    coeffs = s.as_tuple()
    for _ in range(k):
        coeffs = _success_coeffs(*coeffs, _success_weight(*coeffs))
    return _state(coeffs)
