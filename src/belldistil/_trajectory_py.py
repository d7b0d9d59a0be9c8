"""Pure-Python trajectory kernel.

Reference implementation of the per-run iteration loop.  The compiled twin,
the C extension ``_trajectory_c`` (source ``_trajectory_c.c``), implements
byte-for-byte identical semantics.  ``simulate`` consumes a caller's
uniforms; ``simulate_philox`` reads trial t's uniforms from doubles
t*n0 .. t*n0 + n0 - 1 of a Philox stream, so results are independent of
execution order and thread count.  Uniform consumption per trajectory is
bounded by the initial pair count (each round uses floor(n/2) variates and
survivors at most halve).  Here the stream is drawn by numpy in blocks of
at most ``_BLOCK_DOUBLES``; the compiled twin computes each double from its
index when a trajectory reads it.
"""

from __future__ import annotations

import numpy as np

IMPL = "python"

#: Uniforms ``simulate_philox`` draws at once (2 MiB): a block of trials
#: holds at most this many doubles, or one trial's worth when n0 is larger.
_BLOCK_DOUBLES = 1 << 18


def _one(
    row: np.ndarray,
    n: int,
    psucc: np.ndarray,
    fid: np.ndarray,
    backup_enabled: bool,
    stop_at_two: bool,
    failure_fidelity: float,
) -> tuple[float, bool]:
    """Run one trajectory on ``n`` pairs, consuming uniforms from ``row``."""
    off = 0
    depth = 0
    backup = -1  # iteration depth of the stored backup pair, -1 when absent
    while True:
        if n == 0:
            if backup >= 0:
                return float(fid[backup]), False
            return failure_fidelity, True
        if n == 1:
            return float(fid[depth]), False
        if n == 2 and backup < 0 and stop_at_two:
            return float(fid[depth]), False
        if n % 2:
            if backup_enabled:
                backup = depth  # deeper pair replaces any older backup
            n -= 1
        h = n // 2
        p = psucc[depth]
        n = int(np.count_nonzero(row[off : off + h] < p))
        off += h
        depth += 1


def simulate(
    u: np.ndarray,
    n0: int,
    psucc: np.ndarray,
    fid: np.ndarray,
    backup_enabled: bool,
    stop_at_two: bool,
    failure_fidelity: float,
    out: np.ndarray,
    failed: np.ndarray,
) -> None:
    """Fill ``out``/``failed`` with one trajectory per row of ``u``."""
    for t in range(u.shape[0]):
        value, fail = _one(
            u[t], n0, psucc, fid, backup_enabled, stop_at_two, failure_fidelity
        )
        out[t] = value
        failed[t] = fail


def simulate_philox(
    k0: int,
    k1: int,
    first_trial: int,
    n0: int,
    psucc: np.ndarray,
    fid: np.ndarray,
    backup_enabled: bool,
    stop_at_two: bool,
    failure_fidelity: float,
    out: np.ndarray,
    failed: np.ndarray,
) -> None:
    """Fill ``out``/``failed`` with trials ``first_trial``, ``first_trial +
    1``, ...; trial t reads doubles ``t * n0`` onwards of the Philox stream
    keyed by ``k0 + 2**64 * k1``.

    Each block of trials starts its own generator at its place in the
    stream (the counter advances once per four doubles).
    """
    key = int(k0) | int(k1) << 64
    block = max(1, _BLOCK_DOUBLES // max(n0, 1))
    for lo in range(0, out.shape[0], block):
        hi = min(lo + block, out.shape[0])
        start, skip = divmod((first_trial + lo) * n0, 4)
        rng = np.random.Generator(np.random.Philox(key=key, counter=start))
        rng.random(skip)
        simulate(
            rng.random((hi - lo, n0)),
            n0,
            psucc,
            fid,
            backup_enabled,
            stop_at_two,
            failure_fidelity,
            out[lo:hi],
            failed[lo:hi],
        )
