"""The closed-form layer gives the same bits on every path.

``_depth_tables`` and ``n_min`` must agree bit for bit with the public,
state-building maps they replace: the tables that the trajectory kernel
reads set the Monte Carlo bits, and ``n_min`` sets the bytes of the
``nmin`` CSV.
"""

import math

import numpy as np
import pytest

from belldistil import (
    BellDiagonalState,
    FallbackAboveTargetError,
    NotDistillableError,
    UnsuccessfulConvention,
    distill_step,
    iterate_map,
    n_min,
    success_probability,
    werner,
)
from belldistil.cli import _a_grid
from belldistil.iterative_scheme import _depth_tables, depth_cap

#: The Werner grid of ``nmin --step 0.001``, 200 random states and a few edges.
STATES = (
    [werner(a) for a in _a_grid(0.505, 0.995, 0.001)]
    + [BellDiagonalState(*row)
       for row in np.random.default_rng(11).dirichlet(np.ones(4), size=200)]
    + [BellDiagonalState(*c) for c in [(1, 0, 0, 0), (0.5, 0.5, 0, 0),
                                       (0.25,) * 4, (0.9, 0.1, 0, 0), (0, 0, 0, 1)]]
)


def public_tables(s0, n):
    """The depth tables rebuilt from the public maps, one step at a time."""
    states = [s0]
    for _ in range(depth_cap(n) + 1):
        states.append(iterate_map(states[-1], 1))
    return (np.array([s.a for s in states]),
            np.array([success_probability(s) for s in states]))


def public_n_min(s, conv):
    """``n_min`` written with ``distill_step``, as a reference."""
    step = distill_step(s)
    f_s = step.success_state.a
    if s.a <= 0.5 or f_s <= s.a:
        raise NotDistillableError("not distillable")
    if conv is UnsuccessfulConvention.LOCC_FLOOR or not step.failure_reachable:
        f_u = 0.5
    else:
        f_u = step.failure_state.a
    if f_u >= s.a:
        raise FallbackAboveTargetError("fallback above target")
    return 2.0 * math.log((s.a - f_s) / (f_u - f_s)) / math.log(1.0 - step.p_success)


def outcome(fn, *args):
    try:
        return fn(*args)
    except Exception as exc:  # the type is what is compared
        return type(exc)


@pytest.mark.parametrize("n", [2, 5, 33, 4096])
def test_depth_tables_match_the_public_maps(n):
    for s0 in STATES:
        fid, psucc = _depth_tables(s0, n)
        want_fid, want_psucc = public_tables(s0, n)
        assert fid.tolist() == want_fid.tolist()
        assert psucc.tolist() == want_psucc.tolist()


@pytest.mark.parametrize("conv", list(UnsuccessfulConvention))
def test_n_min_matches_the_step_formula(conv):
    raised = set()
    for s in STATES:
        got, want = outcome(n_min, s, conv), outcome(public_n_min, s, conv)
        assert repr(got) == repr(want), s
        if isinstance(want, type):
            raised.add(want.__name__)
    # the precondition error does occur on these states
    assert raised == {"NotDistillableError"}
