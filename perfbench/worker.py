"""Runs one workload in a fresh process and prints one JSON line.

Usage: python3 perfbench/worker.py <workload> <seed> <seconds> <trace 0|1>

Timing mode (trace 0) runs untraced passes until ``seconds`` have passed,
and at least ``MIN_PASSES`` of them, and reports every pass time and the
process's peak resident memory.
Trace mode (trace 1) runs one untraced pass, one traced pass, and, when
the workload calls the Monte Carlo engine, one pass under tracemalloc for
the peak memory of the uniforms; it reports the span summary.

Every output of every pass is checked; a call that raises, exits non-zero
or fails its check counts as failed.
"""

from __future__ import annotations

import json
import platform
import resource
import sys
import time

import numpy as np

import belldistil
from belldistil import _kernels

import workloads
from tracer import Tracer

MC_SPAN = "iterative_scheme.mc"

#: A timing run makes at least this many passes, however long they take.
MIN_PASSES = 3


def guarded(fn, *args) -> str | None:
    """``fn(*args)``, a check; an exception it raises is its failure."""
    try:
        return fn(*args)
    except Exception as exc:
        return f"check raised {exc!r}"


class Runner:
    """Runs passes over a workload's operations and counts failures."""

    def __init__(self, ops: list[workloads.Op]):
        self.ops = ops
        self.attempted = 0
        self.failures: list[str] = []
        self.op_s: dict[str, list[float]] = {op.name: [] for op in ops}

    def record(self, name: str, error: str | None) -> None:
        self.attempted += 1
        if error is not None:
            self.failures.append(f"{name}: {error}")

    def run_pass(self) -> tuple[float, list]:
        """Runs every operation once; returns the pass time and the outputs.

        Each operation's own time is appended to ``op_s``.
        """
        outputs = []
        start = time.perf_counter()
        for op in self.ops:
            op_start = time.perf_counter()
            try:
                outputs.append((op.call(), None))
            except Exception as exc:  # the pass goes on; the failure is reported
                outputs.append((None, f"raised {exc!r}"))
            self.op_s[op.name].append(time.perf_counter() - op_start)
        elapsed = time.perf_counter() - start
        for op, (output, error) in zip(self.ops, outputs):
            self.record(op.name, error if error is not None else guarded(op.check, output))
        return elapsed, outputs


def metadata(seed: int) -> dict:
    return {
        "kernels_impl": _kernels.IMPL,
        "belldistil": belldistil.__version__,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "seed": seed,
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main() -> None:
    workload, seed, seconds, trace = (
        sys.argv[1], int(sys.argv[2]), float(sys.argv[3]), sys.argv[4] == "1"
    )
    ops = workloads.WORKLOADS[workload](seed, workloads.load_goldens())
    runner = Runner(ops)
    runner.record("kernel_twin_check", guarded(workloads.kernel_twin_check, seed))
    result = {"meta": metadata(seed)}

    if not trace:
        pass_s = []
        start = time.perf_counter()
        while len(pass_s) < MIN_PASSES or time.perf_counter() - start < seconds:
            pass_s.append(runner.run_pass()[0])
        result.update(pass_s=pass_s, op_s=runner.op_s, peak_rss_mb=peak_rss_mb())
    else:
        untraced_s, _ = runner.run_pass()
        tracer = Tracer()
        tracer.install()
        try:
            traced_s, outputs = runner.run_pass()
        finally:
            tracer.uninstall()
        summary = tracer.summary()
        summary.update(
            untraced_s=untraced_s,
            traced_s=traced_s,
            csv_bytes=sum(
                len(out[1]) for op, (out, _) in zip(ops, outputs) if op.csv and out
            ),
        )
        if MC_SPAN in summary["spans"]:
            memory = Tracer(memory_of=MC_SPAN)
            memory.install()
            try:
                runner.run_pass()
            finally:
                memory.uninstall()
            summary["uniform_peak_mb"] = memory.peak_bytes / 2**20
        result["trace"] = summary

    result.update(attempted=runner.attempted, failures=runner.failures)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
