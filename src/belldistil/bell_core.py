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


@dataclass(frozen=True)
class BellDiagonalState:
    """Coefficients (a, b, c, d) of the Bell projectors (Phi+, Psi-, Psi+, Phi-).

    The vector must lie on the probability simplex.  Tiny negative entries
    from floating-point cancellation are clamped to zero and the vector is
    renormalized; genuinely invalid input raises :class:`InvalidStateError`.
    """

    a: float
    b: float
    c: float
    d: float

    def __post_init__(self) -> None:
        coeffs = (self.a, self.b, self.c, self.d)
        for x in coeffs:
            if x < CLAMP_FLOOR:
                raise InvalidStateError(f"negative coefficient {x!r} in {coeffs!r}")
        clamped = [max(x, 0.0) for x in coeffs]
        total = sum(clamped)
        if abs(total - 1.0) > NORM_ATOL:
            raise InvalidStateError(f"coefficients sum to {total!r}, expected 1")
        for name, value in zip("abcd", (x / total for x in clamped)):
            object.__setattr__(self, name, value)

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
    return (s.a + s.b) ** 2 + (s.c + s.d) ** 2


def _success_state(s: BellDiagonalState, p: float) -> BellDiagonalState:
    """Post-state of a successful step on ``s``, given its success weight ``p``."""
    a, b, c, d = s.as_tuple()
    return BellDiagonalState(
        (a * a + b * b) / p,
        2.0 * c * d / p,
        (c * c + d * d) / p,
        2.0 * a * b / p,
    )


def distill_step(s: BellDiagonalState) -> StepOutcome:
    """One two-pair step: success/failure post-states and the success weight.

    The local pre-rotation that swaps the Psi- and Phi- contributions is
    already folded into these coefficient maps; no separate rotation is
    exposed on coefficient vectors.
    """
    a, b, c, d = s.as_tuple()
    p = success_probability(s)
    success = _success_state(s, p)
    # Since (a+b) + (c+d) = 1, the failure weight 1 - p equals
    # 2(a+b)(c+d) exactly; the product form stays accurate when p -> 1.
    q = 2.0 * (a + b) * (c + d)
    if q < UNREACHABLE_ATOL:
        return StepOutcome(p, success, BellDiagonalState(*LOCC_FLOOR_COEFFS), False)
    failure = BellDiagonalState(
        (a * c + b * d) / q,
        (a * d + b * c) / q,
        (a * c + b * d) / q,
        (a * d + b * c) / q,
    )
    return StepOutcome(p, success, failure)


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
    for _ in range(k):
        s = _success_state(s, success_probability(s))
    return s
