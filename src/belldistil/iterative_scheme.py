"""Iterative distillation of N pairs with optional backup pairs.

Each round processes the live pairs two at a time; survivors of a round are
one iteration deeper in the success map.  When the live count is odd one
pair can be stored as a backup and used if everything later fails.  The
expectation of the final fidelity is computed two ways: exactly, by a
compiled backward induction over depth on a table over (live count, backup
depth) that answers any set of starting counts up to N in one pass, and by
seeded Monte Carlo over individual trajectories, whose Philox uniforms the
kernel computes from their stream indices as a trajectory reads them.
``sweep_over_n`` answers every exact query, from one induction at the
largest count, for one state or for a whole coefficient stack at once.

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
import operator
from dataclasses import dataclass

import numpy as np

from . import _kernels
from .bell_core import (
    BellDiagonalState,
    _checked_count,
    _checked_stack,
    _success_coeffs,
    _success_weight,
    iterate_map,
)
from .errors import ResourceCapError

#: Largest pair count accepted by the exact expectation.
EXACT_N_CAP = 4096

#: Largest trial count accepted by the Monte Carlo estimate; it keeps
#: 16 bytes per trial (result, spread temporary), so about 160 MB at the
#: cap.
MC_TRIALS_CAP = 10_000_000

#: Largest trials * n accepted by the Monte Carlo estimate.  A trajectory on
#: n pairs reads up to n uniforms, and the kernel gets through trials * n
#: at 5.6e8 per second on one core when it reads nearly all of them
#: (werner(0.99)) and 7.7e8 to 8.2e8 at werner(0.55) with the AVX-512
#: Philox, or 3.8e8 and 5.2e8 with the scalar one (x86-64, 2 CPUs, n = 8192
#: and 2**20), so a run at the cap ends in about 14 s, or 21 s.
MC_WORK_CAP = 8_000_000_000

#: Largest states * n**2 accepted by an exact sweep, n its largest effective
#: count.  A sweep at the cap, 4,768 Werner states at n = 4096, takes about
#: 3 s on one core with AVX-512 (6 s on SSE2; x86-64, 2 CPUs).
_EXACT_WORK_CAP = 80_000_000_000

#: A coefficient stack is evaluated in chunks of this many (state, starting
#: count) entries, 2**16 // (n + 1) states for the largest effective count n.
#: A chunk's depth tables, their temporaries and its ``out`` peak at 2.4 MB
#: under tracemalloc (21,845 states at n = 2; 0.07 MB at n = 4096); the
#: induction's two scratch tables are allocated per call, not per state.
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
    return _checked_count(n, "pair count", 1).bit_length() - 1


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
    n = _checked_count(n, "pair count", 1)
    if policy.drop_one_when_even and n % 2 == 0:
        return n - 1
    return n


def fully_successful_fidelity(s0: BellDiagonalState, n: int) -> float:
    """Reference curve: fidelity after the depth_cap(n) rounds of an
    all-success run, n halving down to a single pair."""
    return iterate_map(s0, depth_cap(n)).a


def _exact_table(
    fid: np.ndarray, psucc: np.ndarray, counts: list[int], policy: IterationPolicy
) -> np.ndarray:
    """Exact expectation for each starting count in ``counts``, by backward
    induction over depth on depth tables that reach at least
    depth_cap(max(counts)); a trailing state axis of the depth tables leads
    the result.

    The compiled ``_kernels.exact_expectations`` runs the induction, one
    state at a time.  Its table at each depth holds one minus the
    expectation on entering that depth, per live count and backup slot (no
    backup, or one stored at depth k): averaging the small infidelity
    instead of the fidelity keeps the rounding of the branch averages
    relative to it.  The average over Binomial(m, p) survivors is row 0 of
    ``(q + p * shift)**m`` applied to the deeper table.  Only the slots that
    the requested counts read are averaged, which moves no bit; the tests
    keep the numpy loop that it replaced as its reference.
    """
    out = np.empty(fid.shape[1:] + (len(counts),))
    _kernels.exact_expectations(
        fid.reshape(len(fid), -1),
        psucc.reshape(len(psucc), -1),
        np.array(counts, dtype=np.int64),
        policy.backup_enabled,
        policy.stop_at_two_without_backup,
        policy.failure_fidelity,
        out.reshape(-1, len(counts)),
    )
    return out


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
    order.  The kernel tallies, per chunk, how many trials output each
    depth's fidelity and how many fail; the mean is the exact sum of the
    outputs from those tallies, rounded once (what ``math.fsum`` over them
    gives), and the failure rate the failed tally over the trials.
    The trials are split into ``min(workers, trials)`` contiguous chunks.
    The compiled kernel computes each uniform from its stream index when a
    trajectory reads it, so no uniform buffer grows with n or the trial
    count; the per-trial results do, so more than ``MC_TRIALS_CAP`` trials
    raise :class:`ResourceCapError`, and fewer than one worker or a stream
    index past 64 bits ``ValueError``, before anything is allocated.  The
    work grows with trials * n, so more than ``MC_WORK_CAP`` raises
    :class:`ResourceCapError` after the depth tables (a few dozen entries)
    and before the results are allocated.
    """
    seed = operator.index(seed)
    trials = _checked_count(trials, "trial count", 1)
    if trials > MC_TRIALS_CAP:
        raise ResourceCapError(
            f"Monte Carlo capped at {MC_TRIALS_CAP} trials; "
            "use fewer trials or average independent seeds"
        )
    workers = _checked_count(workers, "worker count", 1)
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

    def run_chunk(lo: int, hi: int) -> np.ndarray:
        # each chunk tallies its own outputs: no two threads add to one count
        counts = np.zeros(len(fid) + 1, dtype=np.int64)
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
            counts,
        )
        return counts

    workers = min(workers, trials)
    if workers == 1:
        counts = run_chunk(0, trials)
    else:
        # imported here: concurrent.futures brings in logging, about 1 MB of
        # resident memory that a single-worker run does not need
        from concurrent.futures import ThreadPoolExecutor

        bounds = [trials * i // workers for i in range(workers + 1)]
        with ThreadPoolExecutor(max_workers=workers) as pool:
            counts = sum(pool.map(run_chunk, bounds[:-1], bounds[1:]))

    counts = counts.tolist()
    mean = _tally_sum([*fid.tolist(), policy.failure_fidelity], counts) / trials
    std_error = float(np.std(out, ddof=1)) / math.sqrt(trials) if trials > 1 else 0.0
    return TrialStats(
        trials=trials,
        mean_fidelity=mean,
        std_error=std_error,
        failure_rate=counts[-1] / trials,
    )


def _tally_sum(values: list[float], counts: list[int]) -> float:
    """``math.fsum`` over ``counts[k]`` copies of each ``values[k]``: the
    exact sum, over the common power-of-two denominator, rounded once."""
    ratios = [v.as_integer_ratio() for v in values]
    den = max(d for _, d in ratios)
    return sum(c * m * (den // d) for (m, d), c in zip(ratios, counts)) / den


def _exact_counts(
    n_range: range | list[int], policy: IterationPolicy
) -> tuple[list[int], list[int], list[int]]:
    """The pair counts, their effective counts and the depths of their
    all-success runs, each count checked as :func:`sweep_over_n` says."""
    ns, counts, depths = [], [], []
    for n in map(operator.index, n_range):
        m = _effective_n(n, policy)
        if m > EXACT_N_CAP:
            raise ResourceCapError(
                f"exact expectation capped at n = {EXACT_N_CAP}; "
                "use expected_fidelity_mc for larger samples"
            )
        ns.append(n)
        counts.append(m)
        depths.append(depth_cap(n))
    return ns, counts, depths


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
    table is built.  A stack is checked first, as a state is when it is
    built, and its columns are used as given.
    """
    s0 = s0 if isinstance(s0, BellDiagonalState) else _checked_stack(s0)
    ns, counts, depths = _exact_counts(n_range, policy)
    if not ns:
        return []
    top_n, top_m = max(ns), max(counts)
    if isinstance(s0, BellDiagonalState):
        states, shape, chunks = 1, (len(counts),), [(..., s0)]
    else:
        states, width = s0.shape[1], _STACK_ENTRIES // (top_m + 1)
        shape = (len(counts), states)
        # an empty stack is one empty chunk
        chunks = [(np.s_[:, i : i + width], s0[:, i : i + width])
                  for i in range(0, max(states, 1), width)]
    if states * top_m**2 > _EXACT_WORK_CAP:
        raise ResourceCapError(
            f"exact expectation capped at states * n**2 = {_EXACT_WORK_CAP}; "
            "use fewer states or fewer pairs"
        )
    # each chunk is written in place; the lists are made once, at the end
    values, references = np.empty(shape), np.empty(shape)
    for columns, chunk in chunks:
        # dropping a pair can lower depth_cap, so the depth table follows the raw count
        fid, psucc = _depth_tables(chunk, top_n)
        values[columns] = _exact_table(fid, psucc, counts, policy).T
        references[columns] = fid[depths]
    values = values.tolist()
    return list(zip(ns, values, references.tolist()))
