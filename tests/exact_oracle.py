"""The exact engine in exact rationals, used only by the tests.

The depth tables and the backward induction of ``sweep_over_n``, evaluated
in stdlib ``fractions``: the four state coefficients and the failure
fidelity enter at their exact binary values, and nothing after that
rounds.  The induction follows the rules of ``iterative_scheme`` one
(live count, depth, backup depth) at a time and weights each survivor count
by its binomial probability.  It shares no code with the library and reads
only a policy's fields, so agreement checks the float engine's rounding as
well as its rules.  The rationals grow at each depth, so it is meant for
small counts (N <= 12 in the tests).
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb


def depth_tables(
    coeffs: tuple[float, float, float, float], depth_cap: int
) -> tuple[list[Fraction], list[Fraction]]:
    """Fidelity and step success probability of the success-map iterates of
    the state with Bell coefficients ``coeffs`` (Phi+, Psi-, Psi+, Phi-),
    at depths 0 .. depth_cap."""
    a, b, c, d = map(Fraction, coeffs)
    fid, psucc = [a], [(a + b) ** 2 + (c + d) ** 2]
    for _ in range(depth_cap):
        p = psucc[-1]
        a, b, c, d = (a * a + b * b) / p, 2 * c * d / p, (c * c + d * d) / p, 2 * a * b / p
        fid.append(a)
        psucc.append((a + b) ** 2 + (c + d) ** 2)
    return fid, psucc


def sweep(
    coeffs: tuple[float, float, float, float], counts: list[int], policy
) -> list[tuple[Fraction, Fraction]]:
    """For each count n, the exact expected output fidelity on n pairs under
    ``policy`` and the fidelity of the all-success run, floor(log2 n) rounds
    deep: the value and the reference of ``sweep_over_n``'s row for n."""
    fid, psucc = depth_tables(coeffs, max(counts).bit_length() - 1)
    failure = Fraction(policy.failure_fidelity)

    @lru_cache(maxsize=None)
    def expectation(n: int, depth: int, backup: int | None) -> Fraction:
        if n == 0:
            return failure if backup is None else fid[backup]
        if n == 1 or (n == 2 and backup is None and policy.stop_at_two_without_backup):
            return fid[depth]
        if n % 2:
            if policy.backup_enabled:
                backup = depth
            n -= 1
        h, p = n // 2, psucc[depth]
        return sum(comb(h, j) * p**j * (1 - p) ** (h - j) * expectation(j, depth + 1, backup)
                   for j in range(h + 1))

    rows = []
    for n in counts:
        start = n - 1 if policy.drop_one_when_even and n % 2 == 0 else n
        rows.append((expectation(start, 0, None), fid[n.bit_length() - 1]))
    return rows
