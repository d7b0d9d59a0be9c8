"""Single-round statistics for a finite, even sample of N identical pairs.

One round performs N/2 independent steps, so the number of surviving pairs
is binomial.  The round-averaged fidelity and the minimal sample size for
which a round does not lose fidelity on average follow in closed form.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .bell_core import (
    BellDiagonalState,
    _failure_coeffs,
    _success_coeffs,
    _success_weight,
    success_probability,
)
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
    return _fallback_fidelity(s.as_tuple(), conv)


def _fallback_fidelity(coeffs, conv: UnsuccessfulConvention):
    if conv is UnsuccessfulConvention.LOCC_FLOOR:
        return 0.5
    return _failure_coeffs(*coeffs)[0][0]


def avg_fidelity_one_round(
    n: int, s: BellDiagonalState, conv: UnsuccessfulConvention
) -> float:
    """Round-averaged fidelity: all-fail weight takes F_u, the rest F(success)."""
    _require_even(n)
    coeffs = s.as_tuple()
    p = _success_weight(*coeffs)
    p_all_fail = (1.0 - p) ** (n // 2)
    f_u = unsuccessful_fidelity(s, conv)
    return p_all_fail * f_u + (1.0 - p_all_fail) * _success_coeffs(*coeffs, p)[0]


def _n_min_terms(coeffs, conv: UnsuccessfulConvention):
    """Success fidelity, fallback fidelity F_u and failure weight 1 - p of
    one step, for one state's coefficients or a coefficient stack."""
    p = _success_weight(*coeffs)
    return _success_coeffs(*coeffs, p)[0], _fallback_fidelity(coeffs, conv), 1.0 - p


def _n_min(a: float, f_s: float, f_u: float, fail: float) -> float:
    if a <= 0.5 or f_s <= a:
        raise NotDistillableError(
            f"fidelity {a!r} cannot be increased by a distillation step"
        )
    if f_u >= a:
        raise FallbackAboveTargetError(
            f"fallback fidelity {f_u!r} already >= target {a!r}"
        )
    return 2.0 * math.log((a - f_s) / (f_u - f_s)) / math.log(fail)


def n_min(
    s: BellDiagonalState | np.ndarray, conv: UnsuccessfulConvention
) -> float | list[float | None]:
    """Continuous sample size at which one round exactly preserves fidelity.

    Returns the real-valued solution; use :func:`round_up_even` for a
    usable sample size.  Raises :class:`NotDistillableError` when the step
    cannot gain fidelity (a <= 1/2) and :class:`FallbackAboveTargetError`
    when F_u already meets the target fidelity.

    For a ``(4, k)`` coefficient stack the maps run once over all k states
    and the result is a list with one value per state, None where the call
    on that state alone would raise one of those two errors.
    """
    if isinstance(s, BellDiagonalState):
        return _n_min(s.a, *_n_min_terms(s.as_tuple(), conv))
    terms = (s[0], *_n_min_terms(s, conv))
    values = []
    # math.log per state: np.log differs from it in the last bit of some inputs
    for row in zip(*(np.broadcast_to(x, s[0].shape).tolist() for x in terms)):
        try:
            values.append(_n_min(*row))
        except (NotDistillableError, FallbackAboveTargetError):
            values.append(None)
    return values


def round_up_even(x: float) -> int:
    """Smallest even integer >= x, never below 2."""
    n = max(2, math.ceil(x))
    return n + (n % 2)
