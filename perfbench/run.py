"""Benchmark of the belldistil package: three workloads, checked outputs.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: paper_figures, exact_large_n, monte_carlo (see README.md here).

With ``--trace 0`` the run builds the package in place, times a fresh
interpreter's import and first call several times (``setup_s``), then runs
the workload in a fresh worker process for ``--seconds`` and reports the
median pass time (``wall_s``) and that process's peak resident memory
(``peak_rss_mb``).  With ``--trace 1`` it runs every workload once more,
each in its own traced worker, and reports the per-layer metrics.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the run's metadata
is printed on the line before it and written with the full result to
``perfbench/results/``.  This script itself uses only the standard
library; the package is imported only by the processes it starts.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import NoReturn

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"

WORKLOADS = ("paper_figures", "exact_large_n", "monte_carlo")

#: Fresh-interpreter set-up measurements per run; the first one, which
#: also writes bytecode caches, is not counted.
SETUP_PROBES = 7

BUILD_TIMEOUT_S = 850
PROBE_TIMEOUT_S = 30
WORKER_TIMEOUT_S = 160


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    # The workloads are single-threaded; keep BLAS from starting threads.
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def fail(message: str) -> NoReturn:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build() -> None:
    """Builds the package's extensions in place (a no-op without Cython)."""
    proc = subprocess.run(
        [sys.executable, "setup.py", "build_ext", "--inplace"],
        cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
        text=True, timeout=BUILD_TIMEOUT_S,
    )
    if proc.returncode != 0:
        fail(f"build failed:\n{proc.stdout[-2000:]}")


def run_child(args: list[str], timeout: float) -> dict:
    """Runs a benchmark script in a fresh interpreter; returns its JSON line."""
    proc = subprocess.run(
        [sys.executable, *args], cwd=ROOT, env=child_env(),
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=timeout,
    )
    if proc.returncode != 0:
        fail(f"{' '.join(args)} exited with {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def measure_setup(workload: str, seed: int) -> tuple[list[float], list[str]]:
    """Set-up times of fresh interpreters, and the failures of their first calls."""
    times, failures = [], []
    for i in range(SETUP_PROBES + 1):
        start = time.clock_gettime(time.CLOCK_MONOTONIC)
        probe = run_child([str(HERE / "first_call.py"), workload, str(seed)], PROBE_TIMEOUT_S)
        if probe["error"] is not None:
            failures.append(f"first_call: {probe['error']}")
        if i:
            times.append(probe["done"] - start)
    return times, failures


def run_worker(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    return run_child(
        [str(HERE / "worker.py"), workload, str(seed), str(seconds), "1" if trace else "0"],
        WORKER_TIMEOUT_S,
    )


# -- per-layer metrics --------------------------------------------------------


def _span(trace: dict, key: str) -> tuple[int, float, int]:
    calls, total_s, units = trace["spans"].get(key, (0, 0.0, 0))
    return calls, total_s, units


def _per_call(trace: dict, key: str, scale: float) -> float:
    calls, total_s, _ = _span(trace, key)
    return scale * total_s / calls if calls else 0.0


def per_layer_metrics(traces: dict) -> dict:
    """Per-layer metrics, each taken from the workload it is meant to move."""
    pf, ex, mc = (traces[w] for w in WORKLOADS)
    kernel_calls, kernel_s, trajectories = _span(mc, "kernels.simulate")
    _, oracle_s, samples = _span(pf, "oracle.compare_with_closed_form")
    depth = [_span(t, "iterative_scheme.depth_tables") for t in traces.values()]
    depth_calls = sum(d[0] for d in depth)
    m = {
        "bell_core.distill_step_us": (_per_call(pf, "bell_core.distill_step", 1e6), "us"),
        "bell_core.iterate_map_us": (_per_call(pf, "bell_core.iterate_map", 1e6), "us"),
        "finite_ensemble.binomial_pmf_comb_ms": (
            _per_call(pf, "finite_ensemble.binomial_pmf.comb", 1e3), "ms"),
        "finite_ensemble.binomial_pmf_lgamma_ms": (
            _per_call(ex, "finite_ensemble.binomial_pmf.lgamma", 1e3), "ms"),
        "finite_ensemble.binomial_pmf_s.exact_large_n": (
            _span(ex, "finite_ensemble.binomial_pmf.comb")[1]
            + _span(ex, "finite_ensemble.binomial_pmf.lgamma")[1], "s"),
        "finite_ensemble.n_min_us": (_per_call(pf, "finite_ensemble.n_min", 1e6), "us"),
        "iterative_scheme.depth_tables_us": (
            1e6 * sum(d[1] for d in depth) / depth_calls if depth_calls else 0.0, "us"),
        "iterative_scheme.exact_s.n1024": (_span(ex, "iterative_scheme.exact.n1024")[1], "s"),
        "iterative_scheme.exact_s.n2048": (_span(ex, "iterative_scheme.exact.n2048")[1], "s"),
        "iterative_scheme.exact_s.n4096": (_span(ex, "iterative_scheme.exact.n4096")[1], "s"),
        "iterative_scheme.philox_s": (mc["mc_pre_kernel_s"], "s"),
        "iterative_scheme.uniform_bytes": (_span(mc, "iterative_scheme.mc")[2], "bytes"),
        "iterative_scheme.uniform_peak_mb": (mc.get("uniform_peak_mb", 0.0), "MB"),
        "iterative_scheme.aggregate_s": (mc["mc_post_kernel_s"], "s"),
        "kernels.simulate_s": (kernel_s, "s"),
        "kernels.trajectories_per_s": (trajectories / kernel_s if kernel_calls else 0.0, "1/s"),
        "oracle.sample_ms": (1e3 * oracle_s / samples if samples else 0.0, "ms"),
        "oracle.dejmps_step_full_ms": (_per_call(pf, "oracle.dejmps_step_full", 1e3), "ms"),
    }
    for cmd in ("step", "nmin", "iterate", "fig3", "fig4", "verify-oracle"):
        m[f"cli.{cmd}_s"] = (_span(pf, f"cli.{cmd}")[1], "s")
    m["cli.csv_bytes"] = (pf["csv_bytes"], "bytes")
    for w, t in traces.items():
        m[f"trace.overhead_s.{w}"] = (t["traced_s"] - t["untraced_s"], "s")
        m[f"trace.unattributed_s.{w}"] = (t["traced_s"] - t["top_level_s"], "s")
    return m


# -- run metadata -------------------------------------------------------------


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8", errors="replace") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def declared_metrics(trace: bool) -> set[str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not (SRC / "belldistil" / "__init__.py").is_file():
        fail(f"no package source under {SRC}; run from a checkout of the repository")

    build()
    failures: list[str] = []
    attempted = 0
    if args.trace:
        traces = {}
        for w in WORKLOADS:
            result = run_worker(w, args.seed, args.seconds, trace=True)
            traces[w] = result["trace"]
            attempted += result["attempted"]
            failures += [f"{w}: {f}" for f in result["failures"]]
        metrics = per_layer_metrics(traces)
        detail = {"traces": traces}
    else:
        setup_s, setup_failures = measure_setup(args.workload, args.seed)
        result = run_worker(args.workload, args.seed, args.seconds, trace=False)
        # Every probe's first call is checked, the dropped one too.
        attempted = result["attempted"] + SETUP_PROBES + 1
        failures = setup_failures + result["failures"]
        metrics = {
            "wall_s": (statistics.median(result["pass_s"]), "s"),
            "setup_s": (statistics.median(setup_s), "s"),
            "peak_rss_mb": (result["peak_rss_mb"], "MB"),
        }
        detail = {"pass_s": result["pass_s"], "op_s": result["op_s"], "setup_samples_s": setup_s}

    if set(metrics) != declared_metrics(bool(args.trace)):
        fail("reported metrics differ from those declared in BENCHMARK.json")
    meta = {
        **result["meta"],
        "workload": args.workload,
        "trace": args.trace,
        "seconds": args.seconds,
        "cpu_model": cpu_model(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "attempted": attempted,
        "failed": len(failures),
        "error_rate": len(failures) / attempted,
    }
    line = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    RESULTS.mkdir(exist_ok=True)
    out = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(
        json.dumps({"meta": meta, "result": line, "failures": failures, **detail}, indent=1)
        + "\n",
        encoding="utf-8",
    )
    for f in failures:
        print(f"FAILED {f}", file=sys.stderr)
    print(json.dumps({"meta": meta}))
    print(json.dumps(line))


if __name__ == "__main__":
    main()
