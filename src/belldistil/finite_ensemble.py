"""Single-round statistics for a finite, even sample of N identical pairs.

One round performs N/2 independent steps, so the number of surviving pairs
is binomial.  The round-averaged fidelity and the minimal sample size for
which a round does not lose fidelity on average follow in closed form.
"""

from __future__ import annotations

import enum
import math
import operator
from dataclasses import dataclass

import numpy as np

from . import _kernels
from .bell_core import (
    BellDiagonalState,
    _checked_count,
    _checked_stack,
    _failure_coeffs,
    _success_coeffs,
    _success_weight,
    success_probability,
)
from .errors import NotDistillableError, ResourceCapError
from .iterative_scheme import EXACT_N_CAP

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
    """Probability mass function of Binomial(m, p) as a list of length m + 1.

    It is the point mass at 0 after m passes of the binomial operator that
    the exact engine runs: each pass keeps weight 1 - p of every entry in
    place and moves weight p one place up.  Every term is non-negative, so
    each pass costs an entry at most two roundings of relative error, down
    to ``DBL_MIN``; p = 0 and p = 1 give their point masses exactly.
    """
    m = _checked_count(m, "trial count", 0)
    if not 0.0 <= p <= 1.0:  # NaN fails too
        raise ValueError(f"probability p must be in [0, 1], got {p}")
    q = 1.0 - p
    w = np.zeros(m + 1)
    w[0] = 1.0
    for _ in range(m):
        w[1:] = q * w[1:] + p * w[:-1]
        w[0] *= q
    return w.tolist()


def _require_even(n: int) -> int:
    """``n`` through ``operator.index``, checked to be a positive even count."""
    n = operator.index(n)
    if n < 2 or n % 2:
        raise ValueError(f"sample size must be a positive even count, got {n}")
    return n


def survivor_pmf(n: int, s: BellDiagonalState) -> RoundStats:
    """Distribution of the number of pairs surviving one round on n pairs."""
    n = _require_even(n)
    if n > EXACT_N_CAP:
        raise ResourceCapError(f"survivor distribution capped at n = {EXACT_N_CAP}")
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
    n = _require_even(n)
    f_s, f_u, fail = _round_terms(s.as_tuple(), conv)
    p_all_fail = fail ** (n // 2)
    return p_all_fail * f_u + (1.0 - p_all_fail) * f_s


def _round_terms(coeffs, conv: UnsuccessfulConvention):
    """Success fidelity, fallback fidelity F_u and failure weight 1 - p of
    one step, for one state's coefficients or a coefficient stack."""
    p = _success_weight(*coeffs)
    return _success_coeffs(*coeffs, p)[0], _fallback_fidelity(coeffs, conv), 1.0 - p


def _log(x: np.ndarray) -> np.ndarray:
    """``math.log`` per value, with its bits and its ``ValueError``;
    ``np.log`` differs in the last bit for some inputs."""
    out = np.empty_like(x)
    _kernels.log_each(x, out)
    return out


def n_min(
    s: BellDiagonalState | np.ndarray, conv: UnsuccessfulConvention
) -> float | list[float | None]:
    """Continuous sample size at which one round exactly preserves fidelity.

    Returns the real-valued solution; use :func:`round_up_even` for a
    usable sample size.  Raises :class:`NotDistillableError` when the step
    cannot gain fidelity (a <= 1/2, or F(success) <= a).  F_u is at most
    1/2 under both conventions, so it is always below the target a.

    A state is evaluated as a stack of one.  For a ``(4, k)`` coefficient
    stack, checked first and used as given, the maps run once over all k
    states and the result is a list with one value per state, None where
    the call on that state alone would raise.
    """
    single = isinstance(s, BellDiagonalState)
    stack = np.array(s.as_tuple())[:, None] if single else _checked_stack(s)
    values = [None if math.isnan(x) else x for x in _n_min_column(stack, conv).tolist()]
    if single and values[0] is None:
        raise NotDistillableError(
            f"fidelity {s.a!r} cannot be increased by a distillation step"
        )
    return values[0] if single else values


def _n_min_column(stack: np.ndarray, conv: UnsuccessfulConvention) -> np.ndarray:
    """:func:`n_min` of each state of a checked ``(4, k)`` coefficient stack,
    as floats, with NaN where a round cannot gain fidelity."""
    a, f_s, f_u, fail = np.broadcast_arrays(stack[0], *_round_terms(stack, conv))
    keep = ~((a <= 0.5) | (f_s <= a))
    a, f_s, f_u, fail = (x[keep] for x in (a, f_s, f_u, fail))
    column = np.full(keep.shape, np.nan)
    column[keep] = 2.0 * _log((a - f_s) / (f_u - f_s)) / _log(fail)
    return column


def round_up_even(x: float) -> int:
    """Smallest even integer >= x, never below 2."""
    n = max(2, math.ceil(x))
    return n + (n % 2)
