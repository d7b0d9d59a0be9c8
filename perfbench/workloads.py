"""The three benchmark workloads: their inputs, operations and output checks.

Every workload is a list of operations.  An operation is one call into a
public entry point of ``belldistil`` (``cli.main`` or a function of one of
its modules) and a check of that call's output.  A pass runs every
operation once; the benchmark times passes and checks every output.

Modules are always reached through their attributes at call time
(``cli.main``, ``iterative_scheme.expected_fidelity_mc``), so that the traced
run can wrap those attributes without touching the package.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from belldistil import _kernels, _trajectory_py, bell_core, cli, iterative_scheme

#: Seed whose outputs are pinned bit for bit in ``goldens.json``.
DEFAULT_SEED = 0

GOLDENS_PATH = Path(__file__).with_name("goldens.json")

#: A Monte Carlo mean may sit at most this many standard errors from the
#: exact expectation.
MC_SIGMAS = 5.0

#: Exact values must match their goldens to this absolute tolerance and may
#: exceed 1 by at most as much.
EXACT_ATOL = 1e-12


@dataclass(frozen=True)
class Op:
    """One timed call and the check of its output.

    ``check`` returns ``None`` when the output is right and a one-line
    reason otherwise.  ``csv`` marks CLI operations whose output is a CSV
    table.
    """

    name: str
    call: Callable[[], object]
    check: Callable[[object], str | None]
    csv: bool = False


def load_goldens() -> dict:
    return json.loads(GOLDENS_PATH.read_text(encoding="ascii"))


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("ascii")).hexdigest()


def run_cli(argv: list[str]) -> tuple[int, str]:
    """``cli.main(argv)`` in process; returns the exit code and stdout."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        rc = cli.main(argv)
    return rc, out.getvalue()


def _report_value(text: str, label: str) -> float:
    """The number on the line of a CLI report that starts with ``label``."""
    for line in text.splitlines():
        if line.startswith(label):
            return float(line[len(label):])
    raise ValueError(f"no {label!r} line in report")


def check_mc_against_exact(
    mean: float, std_error: float, exact: float, trials: int, got_trials: int
) -> str | None:
    if got_trials != trials:
        return f"trials {got_trials} != {trials}"
    if not std_error > 0.0:
        return f"std error {std_error!r} is not positive"
    if abs(mean - exact) > MC_SIGMAS * std_error:
        return f"mean {mean!r} is more than {MC_SIGMAS} sigma from exact {exact!r}"
    return None


# -- paper_figures ------------------------------------------------------------

#: Seed-independent CLI runs; each output is pinned by its SHA-256.
PAPER_FIXED = {
    "step_a": ["step", "0.7", "0.1", "0.1", "0.1"],
    "step_b": ["step", "0.9", "0.05", "0.03", "0.02"],
    "step_c": ["step", "0.6", "0.25", "0.1", "0.05"],
    "nmin": ["nmin", "--step", "0.0001"],
    "fig3_backup": ["fig3", "--step", "0.002", "--policy", "backup"],
    "fig3_nobackup": ["fig3", "--step", "0.002", "--policy", "nobackup"],
    "fig4": ["fig4", "--n-stop", "128"],
    "iterate_exact": ["iterate", "--n", "5", "--a0", "0.75"],
}
PAPER_CSV = {"nmin", "fig3_backup", "fig3_nobackup", "fig4"}
PAPER_MC_TRIALS = 10_000
PAPER_ORACLE_SAMPLES = 400


def paper_seeded(seed: int) -> dict[str, list[str]]:
    """CLI runs whose inputs come from the workload seed."""
    return {
        "iterate_mc": ["iterate", "--n", "5", "--a0", "0.75", "--method", "mc",
                       "--trials", str(PAPER_MC_TRIALS), "--seed", str(seed)],
        "verify_oracle": ["verify-oracle", "--samples", str(PAPER_ORACLE_SAMPLES),
                          "--seed", str(seed)],
    }


def check_sha(expected: str) -> Callable[[object], str | None]:
    def check(result: object) -> str | None:
        rc, text = result
        if rc != 0:
            return f"exit code {rc}"
        if sha256(text) != expected:
            return "output differs from its golden"
        return None

    return check


def _check_iterate_mc(exact: float) -> Callable[[object], str | None]:
    def check(result: object) -> str | None:
        rc, text = result
        if rc != 0:
            return f"exit code {rc}"
        return check_mc_against_exact(
            _report_value(text, "mean fidelity"),
            _report_value(text, "std error"),
            exact,
            PAPER_MC_TRIALS,
            int(_report_value(text, "trials")),
        )

    return check


def _check_oracle(result: object) -> str | None:
    rc, text = result
    if rc != 0:
        return f"exit code {rc}"
    if int(_report_value(text, "samples")) != PAPER_ORACLE_SAMPLES:
        return "wrong sample count"
    if "verdict               pass" not in text.splitlines():
        return "oracle verdict is not pass"
    return None


def paper_figures(seed: int, goldens: dict) -> list[Op]:
    g = goldens["paper_figures"]
    ops = [
        Op(name, lambda argv=argv: run_cli(argv), check_sha(g["sha256"][name]),
           csv=name in PAPER_CSV)
        for name, argv in PAPER_FIXED.items()
    ]
    for name, argv in paper_seeded(seed).items():
        if seed == DEFAULT_SEED:
            check = check_sha(g["sha256_default_seed"][name])
        elif name == "iterate_mc":
            check = _check_iterate_mc(g["iterate_exact_value"])
        else:
            check = _check_oracle
        ops.append(Op(name, lambda argv=argv: run_cli(argv), check))
    return ops


# -- exact_large_n ------------------------------------------------------------

EXACT_A0 = 0.75
EXACT_CASES = {
    "n1024": (1024, "BACKUP"),
    "n2048": (2048, "BACKUP"),
    "n4096": (4096, "BACKUP"),
    "n2048_nobackup": (2048, "NO_BACKUP"),
}


def check_exact(expected: float) -> Callable[[object], str | None]:
    def check(value: object) -> str | None:
        if not abs(value - expected) <= EXACT_ATOL:
            return f"{value!r} differs from golden {expected!r} by more than {EXACT_ATOL}"
        if not value <= 1.0 + EXACT_ATOL:
            return f"{value!r} exceeds 1 by more than {EXACT_ATOL}"
        return None

    return check


def exact_large_n(seed: int, goldens: dict) -> list[Op]:
    """The seed sets only the order of the cases; their values are fixed."""
    g = goldens["exact_large_n"]
    names = sorted(EXACT_CASES)
    random.Random(seed).shuffle(names)
    ops = []
    for name in names:
        n, policy = EXACT_CASES[name]

        def call(n=n, policy=policy):
            return iterative_scheme.expected_fidelity_exact(
                n, bell_core.werner(EXACT_A0), getattr(iterative_scheme, policy)
            )

        ops.append(Op(name, call, check_exact(g[name])))
    return ops


# -- monte_carlo --------------------------------------------------------------

MC_A0 = 0.55
#: name -> (pair count, trials).  n8192 is above the exact engine's cap.
MC_CASES = {
    "n12": (12, 200_000),
    "n512": (512, 20_000),
    "n8192": (8192, 5_000),
}


def stats_dict(stats) -> dict:
    return {
        "trials": stats.trials,
        "mean_fidelity": stats.mean_fidelity,
        "std_error": stats.std_error,
        "failure_rate": stats.failure_rate,
    }


def _check_mc_golden(expected: dict) -> Callable[[object], str | None]:
    def check(stats: object) -> str | None:
        if stats_dict(stats) != expected:
            return f"{stats!r} is not bit-identical to its golden"
        return None

    return check


def _check_mc_exact(exact: float, trials: int) -> Callable[[object], str | None]:
    def check(stats: object) -> str | None:
        return check_mc_against_exact(
            stats.mean_fidelity, stats.std_error, exact, trials, stats.trials
        ) or _check_mc_range(stats, trials)

    return check


def _check_mc_range(stats, trials: int) -> str | None:
    # Every trajectory ends at a fidelity in [1/2, 1], so the sample
    # standard deviation is at most 1/4 (times the ddof=1 correction).
    se_cap = 0.25 * math.sqrt(trials / (trials - 1)) / math.sqrt(trials)
    if stats.trials != trials:
        return f"trials {stats.trials} != {trials}"
    if not 0.5 <= stats.mean_fidelity <= 1.0:
        return f"mean {stats.mean_fidelity!r} outside [1/2, 1]"
    if not 0.0 <= stats.std_error <= se_cap:
        return f"std error {stats.std_error!r} outside [0, {se_cap!r}]"
    if not 0.0 <= stats.failure_rate <= 1.0:
        return f"failure rate {stats.failure_rate!r} outside [0, 1]"
    return None


def monte_carlo(seed: int, goldens: dict) -> list[Op]:
    g = goldens["monte_carlo"]
    ops = []
    for name, (n, trials) in MC_CASES.items():

        def call(n=n, trials=trials):
            return iterative_scheme.expected_fidelity_mc(
                n, bell_core.werner(MC_A0), iterative_scheme.BACKUP, trials, seed,
                workers=1,
            )

        if seed == DEFAULT_SEED:
            check = _check_mc_golden(g["default_seed"][name])
        elif name in g["exact"]:
            check = _check_mc_exact(g["exact"][name], trials)
        else:
            check = lambda stats, trials=trials: _check_mc_range(stats, trials)
        ops.append(Op(name, call, check))
    return ops


WORKLOADS = {
    "paper_figures": paper_figures,
    "exact_large_n": exact_large_n,
    "monte_carlo": monte_carlo,
}


# -- kernel twin check --------------------------------------------------------

#: (pair count, trials) slices on which both kernels must agree bit for bit.
TWIN_SLICES = ((12, 2000), (512, 100))


def kernel_twin_check(seed: int) -> str | None:
    """``_trajectory_py.simulate`` and the active ``_kernels.simulate`` must
    give identical trajectories on the same uniforms.

    The depth tables are rebuilt here from the public ``bell_core`` maps so
    that the check does not depend on the scheme's private helpers.
    """
    s0 = bell_core.werner(MC_A0)
    for n, trials in TWIN_SLICES:
        states = [s0]
        for _ in range(iterative_scheme.depth_cap(n) + 1):
            states.append(bell_core.iterate_map(states[-1], 1))
        fid = np.array([s.a for s in states])
        psucc = np.array([bell_core.success_probability(s) for s in states])
        u = np.random.Generator(np.random.Philox(key=seed)).random((trials, n))
        results = []
        for kernel in (_trajectory_py.simulate, _kernels.simulate):
            out = np.empty(trials)
            failed = np.zeros(trials, dtype=np.uint8)
            kernel(u, n, psucc, fid, True, True, 0.5, out, failed)
            results.append((out, failed))
        (out_py, failed_py), (out_k, failed_k) = results
        if not (np.array_equal(out_py, out_k) and np.array_equal(failed_py, failed_k)):
            return f"kernel {_kernels.IMPL} differs from the Python twin at n={n}"
    return None
