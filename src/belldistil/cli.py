"""Command-line front end.

Subcommands::

    step           closed-form report for one distillation step
    nmin           minimal-sample-size sweep over Werner fidelity (CSV)
    iterate        expected fidelity of the iterative scheme for one (N, A0)
    fig3           relative-fidelity sweep over A0 for several N (CSV)
    fig4           fidelity sweep over N at fixed A0, three curves (CSV)
    verify-oracle  closed-form maps vs the density-matrix simulation

CSV cells are decimal floats with 12 significant digits, or empty where
undefined (an ``nmin`` without a gain, the ``fig3`` ratio at A0 = 0); rows
are ordered by the sweep variable and the file ends with a newline.  A
``--start``/``--stop``/``--step`` grid holds the points start + i*step
(rounded to 12 decimals) that do not pass ``--stop``.  Exit codes: 0
success, 1 verification failure (also an oracle matrix off the Bell
diagonal or read as no state), 2 usage error (also an unwritable ``--out`` path, a NaN or
infinite coefficient or grid bound, a grid step below 1e-12, the resolution
of the grid points, an empty ``fig4`` range, or a Monte Carlo stream index
past 64 bits), 3 resource cap (an exact expectation above 4096 pairs, a
Monte Carlo run of more than 10,000,000 trials or of more than
8,000,000,000 trials * pairs, a grid of more than 100,000 points, or a
``verify-oracle`` run of more than 1,000,000 samples).
"""

from __future__ import annotations

import argparse
import functools
import itertools
import math
import sys
from dataclasses import replace
from typing import Iterable

import numpy as np

from .bell_core import (
    NORM_ATOL,
    BellDiagonalState,
    _werner_coeffs,
    avg_fidelity_single_conditional,
    avg_fidelity_single_locc,
    distill_step,
    is_distillable,
    werner,
)
from .errors import InvalidStateError, ResourceCapError
from .finite_ensemble import (
    UnsuccessfulConvention,
    n_min,
    unsuccessful_fidelity,
)
from .iterative_scheme import (
    BACKUP,
    DROP_ONE,
    NO_BACKUP,
    _exact_counts,
    expected_fidelity_exact,
    expected_fidelity_mc,
    fully_successful_fidelity,
    sweep_over_n,
)

USAGE_ERROR = 2
RESOURCE_ERROR = 3

#: Most points a ``--start``/``--stop``/``--step`` grid may have.
_GRID_POINT_CAP = 100_000

#: Grid points are rounded to this many decimals, so a finer step would
#: repeat them.
_GRID_DECIMALS = 12

_POLICIES = {"backup": BACKUP, "nobackup": NO_BACKUP, "drop-even": DROP_ONE}


def _fmt(x: float) -> str:
    return f"{x:.12g}"


def _a_grid(start: float, stop: float, step: float) -> list[float]:
    if not all(map(math.isfinite, (start, stop, step))):
        raise ValueError("grid requires finite start, stop and step")
    if step <= 0 or start >= stop:
        raise ValueError("grid requires step > 0 and start < stop")
    # half the grid resolution of slack absorbs rounding in stop - start: a
    # step that divides the range still reaches stop, and no point passes
    # stop by more than the slack
    intervals = (stop - start + 0.5 * 10.0**-_GRID_DECIMALS) / step
    if intervals >= _GRID_POINT_CAP:  # floor(intervals) + 1 points
        raise ResourceCapError(
            f"grid capped at {_GRID_POINT_CAP} points; "
            "use a larger step or a narrower range"
        )
    if step < 10.0**-_GRID_DECIMALS:
        raise ValueError(
            f"grid step must be at least 1e-{_GRID_DECIMALS}, "
            "the resolution of the grid points"
        )
    return [
        round(start + i * step, _GRID_DECIMALS)
        for i in range(math.floor(intervals) + 1)
    ]


def _werner_stack(grid: list[float]) -> np.ndarray:
    """The ``(4, k)`` coefficient stack of the Werner states of a grid."""
    return np.array(_werner_coeffs(np.array(grid)))


def _write_csv(path: str | None, header: list[str], rows: Iterable[str]) -> None:
    """Write the table to ``path``, or to stdout when no path is given.

    ``rows`` holds each row's comma-joined cells.  It is read once and
    joined with the header into one string before the single write, so the
    whole table is held in memory even when ``rows`` is a generator."""
    text = "".join(row + "\n" for row in itertools.chain([",".join(header)], rows))
    if path is None:
        sys.stdout.write(text)
        return
    with open(path, "w", encoding="ascii", newline="\n") as out:
        out.write(text)


def _parse_state(values: list[float]) -> BellDiagonalState:
    if any(v < 0 for v in values):
        raise InvalidStateError(f"negative coefficient in {values!r}")
    total = sum(values)
    dev = abs(total - 1.0)
    if not dev <= 1e-9:
        raise InvalidStateError(
            f"coefficients sum to {total!r}; deviations above 1e-9 are rejected"
        )
    if not dev <= NORM_ATOL:
        print(
            f"warning: renormalizing input (sum deviates by {dev:.3g})",
            file=sys.stderr,
        )
        values = [v / total for v in values]
    return BellDiagonalState(*values)


def cmd_step(args: argparse.Namespace) -> int:
    s = _parse_state([args.a, args.b, args.c, args.d])
    outcome = distill_step(s)
    print(f"input state           {s.serialize()}")
    print(f"distillable           {'yes' if is_distillable(s) else 'no'}")
    print(f"p_success             {_fmt(outcome.p_success)}")
    print(f"success state         {outcome.success_state.serialize()}")
    print(f"failure state         {outcome.failure_state.serialize()}"
          + ("" if outcome.failure_reachable else "  (unreachable)"))
    print(f"F(success)            {_fmt(outcome.success_state.a)}")
    print(f"F(failure)            {_fmt(outcome.failure_state.a)}")
    print(f"avg fidelity (locc)   {_fmt(avg_fidelity_single_locc(s))}")
    print(f"avg fidelity (cond)   {_fmt(avg_fidelity_single_conditional(s))}")
    return 0


def cmd_nmin(args: argparse.Namespace) -> int:
    grid = _a_grid(args.start, args.stop, args.step)
    stack = _werner_stack(grid)
    columns = [
        n_min(stack, conv)
        for conv in (UnsuccessfulConvention.LOCC_FLOOR, UnsuccessfulConvention.CONDITIONAL)
    ]
    # each value and its round_up_even, written out as 2 * ceil(x / 2) but at
    # least 2 because a call per cell is a measurable share of the op; both
    # cells stay empty where n_min has no value (a round cannot gain fidelity)
    rows = (
        f"{a:.12g},"
        f"{',' if locc is None else f'{locc:.12g},{max(2, math.ceil(locc / 2) * 2)}'},"
        f"{',' if cond is None else f'{cond:.12g},{max(2, math.ceil(cond / 2) * 2)}'}"
        for a, locc, cond in zip(grid, *columns)
    )
    _write_csv(
        args.out,
        ["A", "nmin_locc", "nmin_locc_even", "nmin_conditional", "nmin_conditional_even"],
        rows,
    )
    return 0


def cmd_iterate(args: argparse.Namespace) -> int:
    policy = _POLICIES[args.policy]
    s0 = werner(args.a0)
    if args.fu == "conditional":
        f_u = unsuccessful_fidelity(s0, UnsuccessfulConvention.CONDITIONAL)
        policy = replace(policy, failure_fidelity=min(0.5, f_u))
    reference = fully_successful_fidelity(s0, args.n)
    if args.method == "exact":
        value = expected_fidelity_exact(args.n, s0, policy)
        print(f"expected fidelity     {_fmt(value)}")
    else:
        stats = expected_fidelity_mc(args.n, s0, policy, args.trials, args.seed)
        print(f"mean fidelity         {_fmt(stats.mean_fidelity)}")
        print(f"std error             {_fmt(stats.std_error)}")
        print(f"failure rate          {_fmt(stats.failure_rate)}")
        print(f"trials                {stats.trials}")
    print(f"all-success reference {_fmt(reference)}")
    return 0


def cmd_fig3(args: argparse.Namespace) -> int:
    policy = _POLICIES[args.policy]
    grid = _a_grid(args.start, args.stop, args.step)
    # errors come in the order of a loop over A0 that sweeps each state in
    # turn: the first A0, then the counts, then the later A0s
    werner(grid[0])
    _exact_counts(args.n_list, policy)
    cells = sweep_over_n(_werner_stack(grid), args.n_list, policy)
    rows = [
        # the ratio is undefined at A0 = 0 (or -0.0): its cells stay empty
        ",".join([_fmt(a0)] + [_fmt(f / a0) if a0 else "" for f in values])
        for a0, *values in zip(grid, *(column for _, column, _ in cells))
    ]
    _write_csv(args.out, ["A0"] + [f"ratio_N{n}" for n in args.n_list], rows)
    return 0


def cmd_fig4(args: argparse.Namespace) -> int:
    if args.n_start > args.n_stop:
        raise ValueError(
            f"empty pair range: --n-start {args.n_start} > --n-stop {args.n_stop}"
        )
    s0 = werner(args.a0)
    n_range = range(args.n_start, args.n_stop + 1)
    rows = [
        f"{n},{nobackup:.12g},{backup:.12g},{full:.12g}"
        for (n, nobackup, full), (_, backup, _) in zip(
            sweep_over_n(s0, n_range, NO_BACKUP), sweep_over_n(s0, n_range, BACKUP)
        )
    ]
    _write_csv(args.out, ["N", "nobackup", "backup", "fully_successful"], rows)
    return 0


def cmd_verify_oracle(args: argparse.Namespace) -> int:
    # imported here: compiled from source, the oracle module costs about
    # 0.6 MB of resident memory that no other subcommand needs
    from .oracle import compare_with_closed_form

    # the comparison checks the sample count before anything is drawn
    report = compare_with_closed_form(args.samples, args.seed)
    print(f"rotation convention   {'pass' if report.rotation.passed else 'FAIL'}"
          f" (max deviation {report.rotation.max_deviation:.3g})")
    print(f"samples               {report.samples}")
    print(f"max p deviation       {report.max_p_deviation:.3g}")
    print(f"max success deviation {report.max_success_deviation:.3g}")
    print(f"max failure deviation {report.max_failure_deviation:.3g}")
    if report.rotation.passed and report.max_deviation < 1e-10:
        print("verdict               pass")
        return 0
    print(f"verdict               FAIL (worst state {report.worst_state})")
    return 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="belldistil",
        description="Iterative CNOT entanglement distillation for finite samples.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("step", help="closed-form report for one distillation step")
    for name in "abcd":
        p.add_argument(name, type=float, help=f"Bell coefficient {name}")
    p.set_defaults(func=cmd_step)

    p = sub.add_parser("nmin", help="minimal sample size sweep over Werner fidelity")
    p.add_argument("--start", type=float, default=0.505)
    p.add_argument("--stop", type=float, default=0.995)
    p.add_argument("--step", type=float, default=0.005)
    p.add_argument("--out", default=None, help="CSV path (default: stdout)")
    p.set_defaults(func=cmd_nmin)

    p = sub.add_parser("iterate", help="expected fidelity of the iterative scheme")
    p.add_argument("--n", type=int, required=True, help="initial pair count")
    p.add_argument("--a0", type=float, required=True, help="Werner fidelity")
    p.add_argument("--policy", choices=sorted(_POLICIES), default="backup")
    p.add_argument("--method", choices=["exact", "mc"], default="exact")
    p.add_argument("--trials", type=int, default=100_000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--fu",
        choices=["locc", "conditional"],
        default="locc",
        help="fidelity credited to a failed run: the LOCC floor 1/2 or the "
        "conditioned failure-state fidelity of the input",
    )
    p.set_defaults(func=cmd_iterate)

    p = sub.add_parser("fig3", help="relative fidelity sweep over A0 (CSV)")
    p.add_argument("--n-list", type=lambda v: [int(x) for x in v.split(",")],
                   default=[4, 5, 6], help="comma-separated pair counts")
    p.add_argument("--start", type=float, default=0.505)
    p.add_argument("--stop", type=float, default=0.995)
    p.add_argument("--step", type=float, default=0.005)
    p.add_argument("--policy", choices=sorted(_POLICIES), default="backup")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_fig3)

    p = sub.add_parser("fig4", help="fidelity sweep over N at fixed A0 (CSV)")
    p.add_argument("--a0", type=float, default=0.75)
    p.add_argument("--n-start", type=int, default=3)
    p.add_argument("--n-stop", type=int, default=40)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_fig4)

    p = sub.add_parser("verify-oracle", help="closed form vs density-matrix oracle")
    p.add_argument("--samples", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_verify_oracle)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser of :func:`build_parser`, built once per process."""
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except (ResourceCapError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return RESOURCE_ERROR if isinstance(exc, ResourceCapError) else USAGE_ERROR


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
