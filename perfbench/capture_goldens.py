"""Write ``goldens.json``: the outputs the benchmark checks against.

Run once on the commit whose outputs are the reference, from the root of
the repository:

    PYTHONPATH=src python3 perfbench/capture_goldens.py

The file pins the SHA-256 of every ``paper_figures`` output, each exact
value of ``exact_large_n``, and the bit-exact Monte Carlo statistics of the
default seed.  Re-capturing it accepts whatever the current code outputs,
so it is done only on purpose, never to make a failing check pass.
"""

from __future__ import annotations

import json

from belldistil import bell_core, iterative_scheme

import workloads as w

from first_call import EXACT_FIRST_N


def main() -> None:
    paper = {
        "sha256": {},
        "sha256_default_seed": {},
        "iterate_exact_value": iterative_scheme.expected_fidelity_exact(
            5, bell_core.werner(0.75), iterative_scheme.BACKUP
        ),
    }
    for key, runs in (("sha256", w.PAPER_FIXED),
                      ("sha256_default_seed", w.paper_seeded(w.DEFAULT_SEED))):
        for name, argv in runs.items():
            rc, text = w.run_cli(argv)
            if rc != 0:
                raise SystemExit(f"{name} exited with {rc}; nothing written")
            paper[key][name] = w.sha256(text)

    exact = {
        name: iterative_scheme.expected_fidelity_exact(
            n, bell_core.werner(w.EXACT_A0), getattr(iterative_scheme, policy)
        )
        for name, (n, policy) in w.EXACT_CASES.items()
    }

    s_mc = bell_core.werner(w.MC_A0)
    mc = {
        "default_seed": {
            name: w.stats_dict(
                iterative_scheme.expected_fidelity_mc(
                    n, s_mc, iterative_scheme.BACKUP, trials, w.DEFAULT_SEED
                )
            )
            for name, (n, trials) in w.MC_CASES.items()
        },
        "exact": {
            name: iterative_scheme.expected_fidelity_exact(n, s_mc, iterative_scheme.BACKUP)
            for name, (n, _) in w.MC_CASES.items()
            if n <= iterative_scheme.EXACT_N_CAP
        },
    }

    first_call = {
        "exact": iterative_scheme.expected_fidelity_exact(
            EXACT_FIRST_N, bell_core.werner(w.EXACT_A0), iterative_scheme.BACKUP
        )
    }

    goldens = {
        "paper_figures": paper,
        "exact_large_n": exact,
        "monte_carlo": mc,
        "first_call": first_call,
    }
    w.GOLDENS_PATH.write_text(json.dumps(goldens, indent=2) + "\n", encoding="ascii")
    print(f"wrote {w.GOLDENS_PATH}")


if __name__ == "__main__":
    main()
