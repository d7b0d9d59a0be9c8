"""Reference trajectory loop in pure Python.

The definition of one run of the iterative scheme, kept as the reference
that tests and the benchmark's twin check compare the compiled kernel
``_trajectory_c`` (source ``_trajectory_c.c``) against; the package itself
always runs the compiled kernel.  Its one entry, ``simulate``, consumes a
caller's uniforms, one row per trajectory; the tests draw those rows from
numpy's Philox at any stream index.  Uniform consumption per trajectory is
bounded by the initial pair count (each round uses floor(n/2) variates and
survivors at most halve).
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

