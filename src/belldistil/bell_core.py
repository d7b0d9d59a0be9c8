"""Bell-diagonal two-qubit states and the closed-form single-step maps.

A state is described by the four Bell-projector coefficients in the fixed
global order (Phi+, Psi-, Psi+, Phi-).  One distillation step consumes two
identical pairs and, conditioned on the parity of two local measurements,
either keeps pair 1 in a sharpened state (success) or in a degraded state
(failure).  Everything here is exact algebra on the coefficient simplex;
the density-matrix verification of these formulas lives in
:mod:`belldistil.oracle`.
"""

from __future__ import annotations

from dataclasses import dataclass

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


def _normalized(a: float, b: float, c: float, d: float) -> _Coeffs:
    """The one state check: clamp cancellation residue, check, renormalize.

    Every constructed state and every application of a step map passes
    through here exactly once (renormalizing is not idempotent in floating
    point).  The comparisons are written so that NaN fails them.
    """
    if not (a >= CLAMP_FLOOR and b >= CLAMP_FLOOR and c >= CLAMP_FLOOR
            and d >= CLAMP_FLOOR):
        coeffs = (a, b, c, d)
        bad = next(x for x in coeffs if not x >= CLAMP_FLOOR)
        kind = "NaN" if bad != bad else "negative"
        raise InvalidStateError(f"{kind} coefficient {bad!r} in {coeffs!r}")
    # the same as max(x, 0.0): residue becomes 0.0 and -0.0 stays -0.0
    clamped = (
        0.0 if a < 0.0 else a,
        0.0 if b < 0.0 else b,
        0.0 if c < 0.0 else c,
        0.0 if d < 0.0 else d,
    )
    total = sum(clamped)
    if not abs(total - 1.0) <= NORM_ATOL:
        raise InvalidStateError(f"coefficients sum to {total!r}, expected 1")
    a, b, c, d = clamped
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
    if not 0.0 <= big_a <= 1.0:
        raise InvalidStateError(f"Werner parameter {big_a!r} outside [0, 1]")
    rest = (1.0 - big_a) / 3.0
    return BellDiagonalState(big_a, rest, rest, rest)


def is_distillable(s: BellDiagonalState) -> bool:
    """True iff the state is non-separable: some coefficient exceeds 1/2."""
    return max(s.as_tuple()) > 0.5


def success_probability(s: BellDiagonalState) -> float:
    """Probability (a+b)^2 + (c+d)^2 that a step keeps pair 1."""
    return _success_weight(*s.as_tuple())


# The step maps on plain coefficient floats.  Their inputs are coefficients
# of a valid state; each application validates its output once, through
# _normalized.


def _success_weight(a: float, b: float, c: float, d: float) -> float:
    return (a + b) ** 2 + (c + d) ** 2


def _success_coeffs(a: float, b: float, c: float, d: float, p: float) -> _Coeffs:
    """Post-state of a successful step, given its success weight ``p``."""
    return _normalized(
        (a * a + b * b) / p,
        2.0 * c * d / p,
        (c * c + d * d) / p,
        2.0 * a * b / p,
    )


def _failure_coeffs(a: float, b: float, c: float, d: float) -> _Coeffs | None:
    """Post-state of a failed step, or None when failure is unreachable."""
    # Since (a+b) + (c+d) = 1, the failure weight 1 - p equals
    # 2(a+b)(c+d) exactly; the product form stays accurate when p -> 1.
    q = 2.0 * (a + b) * (c + d)
    if q < UNREACHABLE_ATOL:
        return None
    return _normalized(
        (a * c + b * d) / q,
        (a * d + b * c) / q,
        (a * c + b * d) / q,
        (a * d + b * c) / q,
    )


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
    failure = _failure_coeffs(*coeffs)
    if failure is None:
        return StepOutcome(p, success, BellDiagonalState(*LOCC_FLOOR_COEFFS), False)
    return StepOutcome(p, success, _state(failure))


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
