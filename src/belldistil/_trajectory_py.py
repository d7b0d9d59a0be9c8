"""Reference trajectory loop in pure Python.

The definition of one run of the iterative scheme, kept as the reference
that tests and the benchmark's twin check compare the compiled kernel
``_trajectory_c`` (source ``_trajectory_c.c``) against; the package itself
always runs the compiled kernel.  ``simulate`` consumes a caller's
uniforms, one row per trajectory.  ``simulate_philox`` draws them with
numpy's Philox started at the first trial's counter, so it reaches any
stream index up to the top of the 64-bit range.  Uniform consumption per
trajectory is bounded by the initial pair count (each round uses
floor(n/2) variates and survivors at most halve).
"""

from __future__ import annotations

import numpy as np


def _one(
    row: np.ndarray,
    n: int,
    psucc: np.ndarray,
    backup_enabled: bool,
    stop_at_two: bool,
) -> int:
    """Run one trajectory on ``n`` pairs, consuming uniforms from ``row``;
    return the depth whose fidelity it outputs, or -1 when it fails."""
    off = 0
    depth = 0
    backup = -1  # iteration depth of the stored backup pair, -1 when absent
    while True:
        if n == 0:
            return backup
        if n == 1:
            return depth
        if n == 2 and backup < 0 and stop_at_two:
            return depth
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
        depth = _one(u[t], n0, psucc, backup_enabled, stop_at_two)
        out[t] = fid[depth] if depth >= 0 else failure_fidelity
        failed[t] = depth < 0


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
    counts: np.ndarray,
) -> None:
    """Fill ``out`` with trials ``first_trial``, ``first_trial + 1``, ...;
    trial t reads doubles ``t * n0`` onwards of numpy's
    ``Philox(key=k0 + 2**64 * k1)`` stream, whose block at counter c holds
    doubles 4 * (c - 1) .. 4 * c - 1.  Each trial adds one to ``counts`` at
    its output depth, or at ``counts[-1]`` when it fails."""
    counter, skip = divmod(first_trial * n0, 4)
    rng = np.random.Generator(np.random.Philox(key=k0 | k1 << 64, counter=counter))
    rng.random(skip)
    for t in range(out.shape[0]):
        depth = _one(rng.random(n0), n0, psucc, backup_enabled, stop_at_two)
        out[t] = fid[depth] if depth >= 0 else failure_fidelity
        counts[depth] += 1
