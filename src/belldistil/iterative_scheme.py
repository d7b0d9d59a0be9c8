"""Iterative distillation of N pairs with optional backup pairs.

Each round processes the live pairs two at a time; survivors of a round are
one iteration deeper in the success map.  When the live count is odd one
pair can be stored as a backup and used if everything later fails.  The
expectation of the final fidelity is computed two ways: exactly, by
backward induction over depth on a table over (live count, backup depth)
that gives every starting count up to N at once, and by seeded Monte Carlo
over individual trajectories, whose Philox uniforms the kernel computes
from their stream indices as a trajectory reads them.  ``sweep_over_n``
answers every exact query, from one table at the largest count, for one
state or for a whole coefficient stack at once.

The per-run iteration rules, in dispatch order on the current live count n:

1. Before the first round only: with ``drop_one_when_even`` and n even,
   one pair is discarded.
2. n = 0: the backup pair is the output if one exists, else the run failed
   and the output is ``failure_fidelity``.
3. n = 1: the live pair is the output (it is at least as deep as any backup).
4. n = 2 without a backup: stop; one live pair is the output.  With a
   backup the iteration continues (a failure can still fall back on it).
5. n odd: one pair is set aside as backup at the current depth, replacing
   any older (shallower) backup; with backups disabled it is discarded.
6. n/2 independent steps are performed; the survivors re-enter at rule 2.

Each round at least halves the live count, so no run on N pairs goes deeper
than ``depth_cap(N)`` = floor(log2 N), the rounds of the all-success run;
every depth table stops there.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _kernels
from .bell_core import (
    BellDiagonalState,
    _success_coeffs,
    _success_weight,
    iterate_map,
)
from .errors import ResourceCapError

#: Largest pair count accepted by the exact expectation.
EXACT_N_CAP = 4096

#: Largest trial count accepted by the Monte Carlo estimate; it keeps
#: 17 bytes per trial (result, failure flag, spread temporary), so about
#: 170 MB at the cap.
MC_TRIALS_CAP = 10_000_000

#: Largest trials * n accepted by the Monte Carlo estimate.  A trajectory on
#: n pairs reads up to n uniforms, and the kernel gets through 1.3e8 to
#: 1.9e8 of them per second on one core (x86-64, 2 CPUs), so a run at the
#: cap ends in about a minute.
MC_WORK_CAP = 8_000_000_000

#: Largest states * n**2 accepted by an exact sweep, n its largest effective
#: count.  A sweep at the cap, 4,768 states at n = 4096, takes about 50 s on
#: one core (x86-64, 2 CPUs).
_EXACT_WORK_CAP = 80_000_000_000

#: A coefficient stack is evaluated in chunks of states whose exact tables
#: hold at most this many (state, starting count) entries, about 32 bytes
#: each at the peak, so a sweep stays near 2 MB at any grid size.
_STACK_ENTRIES = 2**16


@dataclass(frozen=True)
class IterationPolicy:
    """Tunable rules of the iteration.

    ``stop_at_two_without_backup`` isolates rule 4 above so the alternative
    reading (keep distilling at two pairs even without a backup) can be
    compared; the default matches the stop rule.
    """

    backup_enabled: bool = True
    drop_one_when_even: bool = False
    failure_fidelity: float = 0.5
    stop_at_two_without_backup: bool = True

    def __post_init__(self) -> None:
        if not 0.0 <= self.failure_fidelity <= 0.5:
            raise ValueError(
                f"failure fidelity must lie in [0, 1/2], got {self.failure_fidelity!r}"
            )


@dataclass(frozen=True)
class TrialStats:
    """Monte Carlo summary over independent trajectories."""

    trials: int
    mean_fidelity: float
    std_error: float
    failure_rate: float


BACKUP = IterationPolicy()
NO_BACKUP = IterationPolicy(backup_enabled=False)
DROP_ONE = IterationPolicy(drop_one_when_even=True)


def depth_cap(n: int) -> int:
    """Rounds of the all-success run on n pairs, floor(log2 n); no
    trajectory goes deeper."""
    return n.bit_length() - 1


def _depth_tables(
    s0: BellDiagonalState | np.ndarray, n: int
) -> tuple[np.ndarray, np.ndarray]:
    """Fidelity and step success probability of the success-map iterates,
    indexed by depth 0 .. depth_cap(n); a ``(4, k)`` coefficient stack
    gives each table a trailing axis over its k states."""
    coeffs = s0.as_tuple() if isinstance(s0, BellDiagonalState) else tuple(s0)
    p = _success_weight(*coeffs)
    fid, psucc = [coeffs[0]], [p]
    for _ in range(depth_cap(n)):
        coeffs = _success_coeffs(*coeffs, p)
        p = _success_weight(*coeffs)
        fid.append(coeffs[0])
        psucc.append(p)
    return np.array(fid), np.array(psucc)


def _effective_n(n: int, policy: IterationPolicy) -> int:
    if n < 1:
        raise ValueError(f"pair count must be >= 1, got {n}")
    if policy.drop_one_when_even and n % 2 == 0:
        return n - 1
    return n


def fully_successful_fidelity(s0: BellDiagonalState, n: int) -> float:
    """Reference curve: fidelity after the depth_cap(n) rounds of an
    all-success run, n halving down to a single pair."""
    if n < 1:
        raise ValueError(f"pair count must be >= 1, got {n}")
    return iterate_map(s0, depth_cap(n)).a


def _exact_table(
    fid: np.ndarray, psucc: np.ndarray, n: int, policy: IterationPolicy
) -> np.ndarray:
    """Exact expectation for every starting count 0 .. n, by backward
    induction over depth on depth tables that reach at least depth_cap(n).

    ``value[..., live, slot]`` is one minus the expectation on entering a
    depth with ``live`` pairs; slot 0 means no backup and slot k + 1 a backup
    stored at depth k, so the table at depth d has d + 1 slots.  Averaging
    the small infidelity instead of the fidelity keeps the rounding of the
    branch averages relative to it.  The average over Binomial(m, p)
    survivors is row 0 of ``(q + p * shift)**m`` applied to the deeper
    table; the compiled ``_kernels.binomial_rows`` takes those steps in
    place, and the tests keep the numpy loop it replaced as its reference.
    A trailing state axis of the depth tables leads here, so each state's
    table is contiguous; every operation is elementwise along it.
    """
    loss = (1.0 - fid).T
    states = loss.shape[:-1]
    value = None
    for depth in reversed(range(depth_cap(n) + 1)):
        top = n >> depth
        deeper, value = value, np.empty(states + (top + 1, depth + 1))
        value[..., 0, 0] = 1.0 - policy.failure_fidelity
        value[..., 0, 1:] = loss[..., :depth]
        value[..., 1, :] = loss[..., depth, None]
        if top >= 2:
            # after[..., k - 1, :] averages the deeper table over k steps' survivors
            after = np.empty(states + (top // 2, depth + 2))
            _kernels.binomial_rows(deeper.reshape(-1, *deeper.shape[-2:]),
                                   np.reshape(psucc[depth], -1),
                                   after.reshape(-1, *after.shape[-2:]))
            value[..., 2::2, :] = after[..., : depth + 1]
            # an odd count stores one pair at this depth, replacing any older backup
            odd = after[..., : (top - 1) // 2, :]
            value[..., 3::2, :] = (odd[..., depth + 1 :] if policy.backup_enabled
                                   else odd[..., : depth + 1])
            if policy.stop_at_two_without_backup:
                value[..., 2, 0] = loss[..., depth]
    return 1.0 - value[..., 0]


def expected_fidelity_exact(
    n: int, s0: BellDiagonalState, policy: IterationPolicy
) -> float:
    """Exact expectation of the trajectory fidelity."""
    return sweep_over_n(s0, [n], policy)[0][1]


def expected_fidelity_mc(
    n: int,
    s0: BellDiagonalState,
    policy: IterationPolicy,
    trials: int,
    seed: int,
    workers: int = 1,
) -> TrialStats:
    """Monte Carlo estimate over ``trials`` independent trajectories.

    Trial t consumes doubles t*n .. t*n + n - 1 of a counter-based Philox
    stream keyed by ``seed`` (numpy's ``Philox(key=seed)``, which also
    validates the seed), so results are bit-identical for a given
    (seed, trials, n, s0, policy) regardless of worker count or execution
    order; aggregation is exact summation over the trial-ordered results.
    The trials are split into ``workers`` contiguous chunks.  The compiled
    kernel computes each uniform from its stream index when a trajectory
    reads it, so no uniform buffer grows with n or the trial count; the
    per-trial results do, so more than ``MC_TRIALS_CAP`` trials raise
    :class:`ResourceCapError`, and a stream index past 64 bits ``ValueError``,
    before anything is allocated.  The work grows with trials * n, so
    more than ``MC_WORK_CAP`` raises :class:`ResourceCapError` after the
    depth tables (a few dozen entries) and before the results are allocated.
    """
    if trials < 1:
        raise ValueError(f"trial count must be >= 1, got {trials}")
    if trials > MC_TRIALS_CAP:
        raise ResourceCapError(
            f"Monte Carlo capped at {MC_TRIALS_CAP} trials; "
            "use fewer trials or average independent seeds"
        )
    n = _effective_n(n, policy)
    if n > 2**63 - 1 or trials * n > 2**64 - 1:
        raise ValueError(
            f"stream index trials * n = {trials} * {n} does not fit in 64 bits"
        )
    fid, psucc = _depth_tables(s0, n)
    if trials * n > MC_WORK_CAP:
        raise ResourceCapError(
            f"Monte Carlo capped at trials * n = {MC_WORK_CAP}; "
            "use fewer trials or fewer pairs"
        )
    k0, k1 = (int(w) for w in np.random.Philox(key=seed).state["state"]["key"])
    out = np.empty(trials)
    failed = np.zeros(trials, dtype=np.uint8)

    def run_chunk(lo: int, hi: int) -> None:
        _kernels.simulate_philox(
            k0,
            k1,
            lo,
            n,
            psucc,
            fid,
            policy.backup_enabled,
            policy.stop_at_two_without_backup,
            policy.failure_fidelity,
            out[lo:hi],
            failed[lo:hi],
        )

    if workers <= 1:
        run_chunk(0, trials)
    else:
        # imported here: concurrent.futures brings in logging, about 1 MB of
        # resident memory that a single-worker run does not need
        from concurrent.futures import ThreadPoolExecutor

        bounds = [trials * i // workers for i in range(workers + 1)]
        with ThreadPoolExecutor(max_workers=workers) as pool:
            list(pool.map(run_chunk, bounds[:-1], bounds[1:]))

    mean = math.fsum(out) / trials
    std_error = float(np.std(out, ddof=1)) / math.sqrt(trials) if trials > 1 else 0.0
    return TrialStats(
        trials=trials,
        mean_fidelity=mean,
        std_error=std_error,
        failure_rate=int(failed.sum()) / trials,
    )


def _exact_counts(
    n_range: range | list[int], policy: IterationPolicy
) -> list[tuple[int, int]]:
    """Each pair count with its effective count, checked in order (n >= 1,
    then the cap)."""
    counts = []
    for n in n_range:
        m = _effective_n(n, policy)
        if m > EXACT_N_CAP:
            raise ResourceCapError(
                f"exact expectation capped at n = {EXACT_N_CAP}; "
                "use expected_fidelity_mc for larger samples"
            )
        counts.append((n, m))
    return counts


def sweep_over_n(
    s0: BellDiagonalState | np.ndarray,
    n_range: range | list[int],
    policy: IterationPolicy,
) -> list[tuple[int, float | list[float], float | list[float]]]:
    """Exact expectation and all-success reference for each pair count,
    checked in order (n >= 1, then the cap) and all read from one table at
    the largest count.

    For a ``(4, k)`` coefficient stack the expectation and the reference
    are lists over its k states, each equal to the call on that state
    alone; the stack is evaluated in chunks of states that bound the
    table's memory.  The work grows with states * n**2 for the largest
    effective count n, so more than ``_EXACT_WORK_CAP`` raises
    :class:`ResourceCapError` after the counts are checked and before any
    table is built.
    """
    counts = _exact_counts(n_range, policy)
    if not counts:
        return []
    top_n, top_m = max(n for n, _ in counts), max(m for _, m in counts)
    if isinstance(s0, BellDiagonalState):
        states, chunks = 1, [s0]
    else:
        states, width = s0.shape[1], _STACK_ENTRIES // (top_m + 1)
        # an empty stack is one empty chunk
        chunks = [s0[:, i : i + width] for i in range(0, max(states, 1), width)]
    if states * top_m**2 > _EXACT_WORK_CAP:
        raise ResourceCapError(
            f"exact expectation capped at states * n**2 = {_EXACT_WORK_CAP}; "
            "use fewer states or fewer pairs"
        )
    parts = []
    for chunk in chunks:
        # dropping a pair can lower depth_cap, so the depth table follows the raw count
        fid, psucc = _depth_tables(chunk, top_n)
        table = _exact_table(fid, psucc, top_m, policy)
        parts.append((table[..., [m for _, m in counts]].T,
                      fid[[depth_cap(n) for n, _ in counts]]))
    values, references = (np.concatenate(x, axis=-1).tolist() for x in zip(*parts))
    return [(n, v, r) for (n, _), v, r in zip(counts, values, references)]
