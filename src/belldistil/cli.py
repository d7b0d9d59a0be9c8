"""Command-line front end.

Subcommands::

    step           closed-form report for one distillation step
    nmin           minimal-sample-size sweep over Werner fidelity (CSV)
    iterate        expected fidelity of the iterative scheme for one (N, A0)
    fig3           relative-fidelity sweep over A0 for several N (CSV)
    fig4           fidelity sweep over N at fixed A0, three curves (CSV)
    verify-oracle  closed-form maps vs the density-matrix simulation

CSV cells are decimal floats with 12 significant digits, or empty where
undefined (an ``nmin`` without a gain, the ``fig3`` ratio at A0 = 0), which
the table marks with NaN; rows are ordered by the sweep variable and the
file ends with a newline.  A ``--start``/``--stop``/``--step`` grid holds
the points start + i*step (rounded to 12 decimals) that do not pass
``--stop``.  Exit codes: 0 success, 1 verification failure (also an oracle
matrix off the Bell diagonal or read as no state), 2 usage error (also an
unwritable ``--out`` path, a NaN or infinite coefficient or grid bound, a
grid step below 1e-12, the resolution of the grid points, an empty
``fig4`` range, or a Monte Carlo stream index past 64 bits), 3 resource cap
(an exact expectation above 4096 pairs, an exact sweep of more than
80,000,000,000 states * n**2 for its largest effective count n, a Monte
Carlo run of more than 10,000,000 trials or of more than 8,000,000,000
trials * pairs, a grid of more than 100,000 points, or a ``verify-oracle``
run of more than 1,000,000 samples).
"""

from __future__ import annotations

import argparse
import functools
import math
import sys
from dataclasses import replace

import numpy as np

from . import _kernels
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
    _n_min_column,
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
    # round(x, 12) is the integer nearest x * 1e12 (ties to even) over 1e12,
    # rounded once.  rint and one division give it where the rounding of
    # x * 1e12 cannot cross a tie, more than one spacing from one, which
    # holds only below 2**52; round itself takes the other points.
    x = start + np.arange(math.floor(intervals) + 1) * step
    scale = 10.0**_GRID_DECIMALS
    with np.errstate(over="ignore", invalid="ignore"):
        hi = x * scale
        whole = np.rint(hi)
        safe = abs(abs(hi - whole) - 0.5) > abs(np.spacing(hi))
    grid = (whole / scale).tolist()
    for i in np.flatnonzero(~safe).tolist():
        grid[i] = round(float(x[i]), _GRID_DECIMALS)
    return grid


def _werner_stack(grid: list[float]) -> np.ndarray:
    """The ``(4, k)`` coefficient stack of the Werner states of a grid."""
    return np.array(_werner_coeffs(np.array(grid)))


def _write_csv(path: str | None, header: list[str], table: np.ndarray) -> None:
    """Write ``header`` and the rows of ``table`` as CSV to ``path``, or to
    stdout when no path is given.

    ``table`` is a 2-d float array with one column per header name.  A cell
    holds the text of ``format(x, '.12g')``, or nothing where x is NaN.  The
    whole text is built in one compiled call before ``path`` is opened, and
    written at once."""
    text = ",".join(header) + "\n" + _kernels.format_table(np.ascontiguousarray(table))
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
    columns = [grid]
    for conv in (UnsuccessfulConvention.LOCC_FLOOR, UnsuccessfulConvention.CONDITIONAL):
        # the Werner stack is checked as it is built; NaN where a round
        # cannot gain fidelity (n_min gives None)
        x = _n_min_column(stack, conv)
        # round_up_even for the whole column: integers below 2,200, which
        # '.12g' writes as '%d' would
        columns += [x, np.maximum(2.0, np.ceil(x / 2.0) * 2.0)]
    _write_csv(
        args.out,
        ["A", "nmin_locc", "nmin_locc_even", "nmin_conditional", "nmin_conditional_even"],
        np.column_stack(columns),
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
    values = np.array(
        [column for _, column, _ in sweep_over_n(_werner_stack(grid), args.n_list, policy)]
    )
    a0 = np.array(grid)
    # the ratio is undefined at A0 = 0 (or -0.0): NaN leaves its cells empty
    ratios = np.divide(values, a0, out=np.full_like(values, np.nan), where=a0 != 0)
    _write_csv(
        args.out, ["A0"] + [f"ratio_N{n}" for n in args.n_list], np.column_stack([a0, ratios.T])
    )
    return 0


def cmd_fig4(args: argparse.Namespace) -> int:
    if args.n_start > args.n_stop:
        raise ValueError(
            f"empty pair range: --n-start {args.n_start} > --n-stop {args.n_stop}"
        )
    s0 = werner(args.a0)
    n_range = range(args.n_start, args.n_stop + 1)
    # rows (n, value, reference); n is exact as a float
    nobackup = np.array(sweep_over_n(s0, n_range, NO_BACKUP))
    backup = np.array(sweep_over_n(s0, n_range, BACKUP))
    _write_csv(
        args.out,
        ["N", "nobackup", "backup", "fully_successful"],
        np.column_stack([nobackup[:, :2], backup[:, 1], nobackup[:, 2]]),
    )
    return 0


def cmd_verify_oracle(args: argparse.Namespace) -> int:
    # imported here: compiled from source, the oracle module costs about
    # 0.6 MB of resident memory that no other subcommand needs
    from .oracle import compare_with_closed_form

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
