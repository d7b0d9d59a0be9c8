"""Set-up probe: a fresh interpreter imports ``belldistil`` and makes its first call.

Usage: python3 perfbench/first_call.py <workload> <seed>

Prints one JSON line with the ``CLOCK_MONOTONIC`` time at which the first
call returned and the result of checking its output.  The caller records
the same clock before it spawns this process; the difference is the
set-up time.  Nothing of the benchmark is imported before that time.
"""

import contextlib
import io
import json
import sys
import time

MC_FIRST_TRIALS = 1000
EXACT_FIRST_N = 64


def first_call(workload: str, seed: int) -> object:
    import belldistil
    from belldistil import cli

    if workload == "paper_figures":
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            rc = cli.main(["iterate", "--n", "5", "--a0", "0.75"])
        return rc, out.getvalue()
    if workload == "exact_large_n":
        return belldistil.expected_fidelity_exact(
            EXACT_FIRST_N, belldistil.werner(0.75), belldistil.BACKUP
        )
    if workload == "monte_carlo":
        return belldistil.expected_fidelity_mc(
            12, belldistil.werner(0.55), belldistil.BACKUP, MC_FIRST_TRIALS, seed
        )
    raise ValueError(f"unknown workload {workload!r}")


def check(workload: str, result: object) -> str | None:
    import workloads as w

    g = w.load_goldens()
    if workload == "paper_figures":
        return w.check_sha(g["paper_figures"]["sha256"]["iterate_exact"])(result)
    if workload == "exact_large_n":
        return w.check_exact(g["first_call"]["exact"])(result)
    return w.check_mc_against_exact(
        result.mean_fidelity, result.std_error, g["monte_carlo"]["exact"]["n12"],
        MC_FIRST_TRIALS, result.trials,
    )


def main() -> None:
    workload, seed = sys.argv[1], int(sys.argv[2])
    try:
        result = first_call(workload, seed)
        done = time.clock_gettime(time.CLOCK_MONOTONIC)
        error = check(workload, result)
    except Exception as exc:  # reported as a failed first call
        done = time.clock_gettime(time.CLOCK_MONOTONIC)
        error = f"raised {exc!r}"
    print(json.dumps({"done": done, "error": error}))


if __name__ == "__main__":
    main()
