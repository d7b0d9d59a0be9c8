"""Brute-force enumeration oracles used only by the tests.

These deliberately avoid the production shortcuts: no binomial weights, no
memoization.  Every per-round success/failure pattern is enumerated as an
explicit bitstring and weighted by its product probability, so agreement
with the dynamic program is a genuine cross-check.  numpy only lists the
patterns and multiplies out their weights; each pattern is still followed
on its own.
"""

from __future__ import annotations

import numpy as np

from belldistil.bell_core import BellDiagonalState, iterate_map, success_probability
from belldistil.iterative_scheme import IterationPolicy


def _patterns(steps: int, p: float) -> tuple[np.ndarray, np.ndarray]:
    """Success count and product probability of each of the 2**steps
    success/failure patterns of one round, one row per bitstring."""
    bits = (np.arange(2**steps)[:, None] >> np.arange(steps - 1, -1, -1)) & 1
    return bits.sum(axis=1), np.where(bits == 1, p, 1.0 - p).prod(axis=1)


def pattern_pmf(n: int, s: BellDiagonalState) -> list[float]:
    """Survivor distribution of one round on n pairs by enumerating all
    2**(n/2) success/failure patterns."""
    assert n >= 2 and n % 2 == 0
    counts, weights = _patterns(n // 2, success_probability(s))
    return np.bincount(counts, weights=weights, minlength=n // 2 + 1).tolist()


def enumerate_expectation(
    n: int, s0: BellDiagonalState, policy: IterationPolicy
) -> tuple[float, int]:
    """Expectation of the iterative scheme's output fidelity, by exhaustive
    enumeration of every per-round outcome pattern.

    Returns (expectation, deepest round index reached by any pattern).
    """
    if n < 1:
        raise ValueError(n)
    if policy.drop_one_when_even and n % 2 == 0:
        n -= 1
    max_depth = 0
    chain = [s0]  # success-map iterates by depth, extended on demand

    def state(depth: int) -> BellDiagonalState:
        while len(chain) <= depth:
            chain.append(iterate_map(chain[-1], 1))
        return chain[depth]

    def rec(live: int, depth: int, backup: int | None, prob: float) -> float:
        nonlocal max_depth
        max_depth = max(max_depth, depth)
        if live == 0:
            if backup is not None:
                return prob * state(backup).a
            return prob * policy.failure_fidelity
        if live == 1:
            return prob * state(depth).a
        if live == 2 and backup is None and policy.stop_at_two_without_backup:
            return prob * state(depth).a
        if live % 2:
            if policy.backup_enabled:
                backup = depth
            live -= 1
        counts, weights = _patterns(live // 2, success_probability(state(depth)))
        return sum(
            rec(j, depth + 1, backup, w)
            for j, w in zip(counts.tolist(), (prob * weights).tolist())
        )

    return rec(n, 0, None, 1.0), max_depth
