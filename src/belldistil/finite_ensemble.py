"""Single-round statistics for a finite, even sample of N identical pairs.

One round performs N/2 independent steps, so the number of surviving pairs
is binomial.  The round-averaged fidelity and the minimal sample size for
which a round does not lose fidelity on average follow in closed form.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

from .bell_core import BellDiagonalState, distill_step, success_probability
from .errors import FallbackAboveTargetError, NotDistillableError

#: Above this number of trials, binomial weights switch from exact integer
#: arithmetic to log-gamma evaluation to avoid overflow.
_EXACT_COMB_LIMIT = 500


class UnsuccessfulConvention(enum.Enum):
    """Fidelity bookkeeping for a totally unsuccessful round."""

    #: Replace the lost pair by a locally prepared one: F_u = 1/2.
    LOCC_FLOOR = "locc"
    #: Keep the conditioned failure state of the step: F_u = F(failure).
    CONDITIONAL = "conditional"


@dataclass(frozen=True)
class RoundStats:
    """Survivor distribution of one round on ``n_pairs`` pairs.

    ``pmf[j]`` is the probability that j of the n_pairs/2 steps succeed.
    """

    n_pairs: int
    p_success: float
    pmf: list[float]


def binomial_pmf(m: int, p: float) -> list[float]:
    """Probability mass function of Binomial(m, p) as a list of length m + 1."""
    if m < 0:
        raise ValueError(f"trial count must be >= 0, got {m}")
    q = 1.0 - p
    if m <= _EXACT_COMB_LIMIT:
        return [math.comb(m, j) * p**j * q ** (m - j) for j in range(m + 1)]
    if p == 0.0 or p == 1.0:
        out = [0.0] * (m + 1)
        out[m if p == 1.0 else 0] = 1.0
        return out
    out = []
    for j in range(m + 1):
        log_comb = (
            math.lgamma(m + 1) - math.lgamma(j + 1) - math.lgamma(m - j + 1)
        )
        out.append(math.exp(log_comb + j * math.log(p) + (m - j) * math.log(q)))
    return out


def _require_even(n: int) -> None:
    if n < 2 or n % 2:
        raise ValueError(f"sample size must be a positive even count, got {n}")


def survivor_pmf(n: int, s: BellDiagonalState) -> RoundStats:
    """Distribution of the number of pairs surviving one round on n pairs."""
    _require_even(n)
    p = success_probability(s)
    return RoundStats(n_pairs=n, p_success=p, pmf=binomial_pmf(n // 2, p))


def unsuccessful_fidelity(s: BellDiagonalState, conv: UnsuccessfulConvention) -> float:
    """F_u under the chosen convention; the LOCC floor when failure is unreachable."""
    if conv is UnsuccessfulConvention.LOCC_FLOOR:
        return 0.5
    step = distill_step(s)
    return step.failure_state.a if step.failure_reachable else 0.5


def avg_fidelity_one_round(
    n: int, s: BellDiagonalState, conv: UnsuccessfulConvention
) -> float:
    """Round-averaged fidelity: all-fail weight takes F_u, the rest F(success)."""
    _require_even(n)
    step = distill_step(s)
    p_all_fail = (1.0 - step.p_success) ** (n // 2)
    f_u = unsuccessful_fidelity(s, conv)
    return p_all_fail * f_u + (1.0 - p_all_fail) * step.success_state.a


def n_min(s: BellDiagonalState, conv: UnsuccessfulConvention) -> float:
    """Continuous sample size at which one round exactly preserves fidelity.

    Returns the real-valued solution; use :func:`round_up_even` for a
    usable sample size.  Raises :class:`NotDistillableError` when the step
    cannot gain fidelity (a <= 1/2) and :class:`FallbackAboveTargetError`
    when F_u already meets the target fidelity.
    """
    step = distill_step(s)
    f_s = step.success_state.a
    if s.a <= 0.5 or f_s <= s.a:
        raise NotDistillableError(
            f"fidelity {s.a!r} cannot be increased by a distillation step"
        )
    f_u = unsuccessful_fidelity(s, conv)
    if f_u >= s.a:
        raise FallbackAboveTargetError(
            f"fallback fidelity {f_u!r} already >= target {s.a!r}"
        )
    return 2.0 * math.log((s.a - f_s) / (f_u - f_s)) / math.log(1.0 - step.p_success)


def round_up_even(x: float) -> int:
    """Smallest even integer >= x, never below 2."""
    n = max(2, math.ceil(x))
    return n + (n % 2)
