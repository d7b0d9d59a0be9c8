"""The closed-form layer gives the same bits on every path.

``_depth_tables`` and ``n_min`` must agree bit for bit with the public,
state-building maps they replace: the tables that the trajectory kernel
reads set the Monte Carlo bits, and ``n_min`` sets the bytes of the
``nmin`` CSV.  A ``(4, k)`` coefficient stack must give every state the
bits of its own call, through the maps, the depth tables, ``n_min`` and
the exact table, and the same error as the first state that fails.  The
compiled ``binomial_rows`` must give the bits of the numpy loop it
replaced, which stays here as its reference.
"""

import math
import tracemalloc
import warnings

import numpy as np
import pytest

from belldistil import (
    BACKUP,
    DROP_ONE,
    NO_BACKUP,
    BellDiagonalState,
    FallbackAboveTargetError,
    InvalidStateError,
    IterationPolicy,
    NotDistillableError,
    UnsuccessfulConvention,
    distill_step,
    iterate_map,
    n_min,
    success_probability,
    sweep_over_n,
    werner,
)
from belldistil import _kernels
from belldistil.bell_core import _normalized, _normalized_rows, _square
from belldistil.cli import _a_grid, _werner_stack
from belldistil.iterative_scheme import _STACK_ENTRIES, _depth_tables, depth_cap

#: The Werner grid of ``nmin --step 0.001``, 200 random states and a few edges.
STATES = (
    [werner(a) for a in _a_grid(0.505, 0.995, 0.001)]
    + [BellDiagonalState(*row)
       for row in np.random.default_rng(11).dirichlet(np.ones(4), size=200)]
    + [BellDiagonalState(*c) for c in [(1, 0, 0, 0), (0.5, 0.5, 0, 0),
                                       (0.25,) * 4, (0.9, 0.1, 0, 0), (0, 0, 0, 1)]]
)


#: The Werner grid of ``fig3 --step 0.002``.
FIG3_GRID = _a_grid(0.505, 0.995, 0.002)

#: Every policy of the library, and the relaxed stop rule.
POLICIES = [BACKUP, NO_BACKUP, DROP_ONE, IterationPolicy(stop_at_two_without_backup=False)]


def stack(states):
    """The ``(4, k)`` coefficient stack of a list of states."""
    return np.array([s.as_tuple() for s in states]).T


def public_tables(s0, n):
    """The depth tables rebuilt from the public maps, one step at a time."""
    states = [s0]
    for _ in range(depth_cap(n)):
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


def reference_binomial_rows(w, p, after):
    """The numpy loop that ``_kernels.binomial_rows`` replaced, once per
    state j: ``after[j, k - 1]`` is row 0 of ``w[j]`` after k averaging
    steps.  Returns the last ``w``; the caller's ``w`` is left as it is."""
    last = []
    for w_j, p_j, after_j in zip(w, p, after):
        for row in after_j:
            w_j = (1.0 - p_j) * w_j[:-1] + p_j * w_j[1:]
            row[:] = w_j[0]
        last.append(w_j)
    return np.array(last)


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


def test_square_rounds_like_python():
    # numpy's ** and np.square compute x * x, which differs from C pow in
    # the last bit for some of these
    x = np.random.default_rng(3).random(200_000)
    x = np.concatenate([x, 1.0 - 1e-3 * x, 1e-5 * x])
    assert _square(x).tolist() == [v**2 for v in x.tolist()]


@pytest.mark.parametrize("n", [2, 5, 33, 4096])
def test_stacked_depth_tables_match_each_state(n):
    fid, psucc = _depth_tables(stack(STATES), n)
    assert fid.shape == psucc.shape == (depth_cap(n) + 1, len(STATES))
    for i, s0 in enumerate(STATES):
        want_fid, want_psucc = _depth_tables(s0, n)
        assert fid[:, i].tolist() == want_fid.tolist()
        assert psucc[:, i].tolist() == want_psucc.tolist()


@pytest.mark.parametrize("conv", list(UnsuccessfulConvention))
def test_stacked_n_min_matches_each_state(conv):
    got = n_min(stack(STATES), conv)
    want = [outcome(n_min, s, conv) for s in STATES]
    assert [None if isinstance(w, type) else w for w in want] == got
    assert None in got


def test_werner_stack_matches_each_state():
    grid = _a_grid(0.0, 1.0, 0.0007) + [1.0]
    assert _werner_stack(grid).T.tolist() == [list(werner(a).as_tuple()) for a in grid]


@pytest.mark.parametrize("policy", POLICIES)
def test_stacked_exact_table_matches_each_state(policy):
    counts = [1, 2, 3, 4, 5, 6, 12, 33, 128]
    rows = sweep_over_n(_werner_stack(FIG3_GRID), counts, policy)
    assert [n for n, _, _ in rows] == counts
    for i, a0 in enumerate(FIG3_GRID):
        want = sweep_over_n(werner(a0), counts, policy)
        assert [(n, values[i], refs[i]) for n, values, refs in rows] == want, a0


def test_empty_stack_gives_empty_columns():
    empty = np.empty((4, 0))
    assert sweep_over_n(empty, [4, 5], BACKUP) == [(4, [], []), (5, [], [])]
    assert n_min(empty, UnsuccessfulConvention.CONDITIONAL) == []


def test_stack_wider_than_a_chunk_matches_each_state():
    count = 2000
    grid = _a_grid(0.5, 0.99, 0.01)
    assert len(grid) > _STACK_ENTRIES // (count + 1)
    ((_, values, refs),) = sweep_over_n(_werner_stack(grid), [count], BACKUP)
    assert [(v, r) for v, r in zip(values, refs)] == [
        sweep_over_n(werner(a0), [count], BACKUP)[0][1:] for a0 in grid
    ]


def test_stacked_sweep_memory_is_bounded_at_any_grid_size():
    # one table over these 99 states at 2000 pairs would peak near 11 MB
    grid = _a_grid(0.5, 0.99, 0.005)
    stacked = _werner_stack(grid)
    tracemalloc.start()
    try:
        sweep_over_n(stacked, [2000], BACKUP)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 5 * 2**20


def scalar_error(coeffs):
    with pytest.raises(InvalidStateError) as exc:
        BellDiagonalState(*coeffs)
    return str(exc.value)


@pytest.mark.parametrize("later", [(0.2, 0.8, 0.1, 0.0), (-1e-3, 0.5, 0.5, 0.0),
                                   (float("nan"), 1.0, 0.0, 0.0)])
@pytest.mark.parametrize("first", [(0.25, float("nan"), 0.25, 0.25),
                                   (0.7, 0.2, -0.1, 0.2), (0.6, 0.2, 0.2, 0.2)])
def test_stack_raises_the_first_failing_states_message(first, later):
    rows = [(0.25,) * 4] * 8
    rows[3], rows[5] = first, later
    with pytest.raises(InvalidStateError) as exc:
        _normalized(*np.array(rows).T)
    assert str(exc.value) == scalar_error(first)


def test_row_check_reports_each_state_with_its_float_bits():
    inf, nan = float("inf"), float("nan")
    rows = ([s.as_tuple() for s in STATES]
            + [(0.5, 0.5, -1e-16, 0.0), (-0.0, 1.0, 0.0, -0.0), (0.5, 0.5, -1e-9, 0.0),
               (0.6, 0.5, 0.0, 0.0), (0.0,) * 4, (nan, 0.5, 0.5, 0.0), (inf, 0.0, 0.0, 0.0),
               (inf, -inf, 1.0, 0.0), (-inf, 1.0, 0.0, 0.0), (1.0, nan, inf, -inf)])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        coeffs, ok = _normalized_rows(*np.array(rows).T)
    assert (~ok).sum() == 8  # the last eight rows
    for row, got, passed in zip(rows, np.array(coeffs).T.tolist(), ok):
        try:
            want = _normalized(*row)
        except InvalidStateError:
            assert not passed, row
        else:
            assert passed and [x.hex() for x in got] == [x.hex() for x in want], row


@pytest.mark.parametrize("later", [(0.2, 0.8, 0.1, 0.0), (-1e-3, 0.5, 0.5, 0.0)])
@pytest.mark.parametrize("first", [(1.0, 1.0, 0.0, 0.0), (1.5, 0.0, 0.0, -0.5),
                                   (0.25, float("nan"), 0.25, 0.25),
                                   (0.75, float("inf"), 0.0, 0.0)])
def test_sweep_and_n_min_check_the_stack_first(first, later):
    rows = [(0.75, 0.25, 0.0, 0.0)] * 8
    rows[3], rows[5] = first, later
    s0 = np.array(rows).T
    for call in (lambda: sweep_over_n(s0, [5], BACKUP),
                 lambda: sweep_over_n(s0, [0, 5000], BACKUP),  # before the counts
                 lambda: n_min(s0, UnsuccessfulConvention.LOCC_FLOOR),
                 lambda: n_min(s0, UnsuccessfulConvention.CONDITIONAL)):
        with pytest.raises(InvalidStateError) as exc:
            call()
        assert str(exc.value) == scalar_error(first)


@pytest.mark.parametrize("shape", [(), (4,), (3, 2), (5, 1), (4, 2, 1), (1, 4)])
def test_sweep_and_n_min_reject_other_shapes(shape):
    s0 = np.full(shape, 0.25)
    for call in (lambda: sweep_over_n(s0, [5], BACKUP),
                 lambda: n_min(s0, UnsuccessfulConvention.CONDITIONAL)):
        with pytest.raises(ValueError) as exc:
            call()
        assert str(exc.value) == f"expected a (4, k) coefficient stack, got shape {shape}"


def test_nested_lists_are_stacks():
    s0 = _werner_stack([0.6, 0.75])
    assert sweep_over_n(s0.tolist(), [5], BACKUP) == sweep_over_n(s0, [5], BACKUP)
    assert n_min(s0.tolist(), UnsuccessfulConvention.LOCC_FLOOR) == n_min(
        s0, UnsuccessfulConvention.LOCC_FLOOR)


def binomial_case(rows, slots, p, steps):
    """A random ``rows`` x ``slots`` table per state of ``p`` and the
    ``after`` rows of ``steps`` steps."""
    w = np.random.default_rng(rows * slots + len(p)).random((len(p), rows, slots))
    return w, np.asarray(p, dtype=float), np.empty((len(p), steps, slots))


def random_p(k):
    p = np.random.default_rng(k).random(k)
    p[::3], p[1::3] = 0.0, 1.0
    return p


@pytest.mark.parametrize("rows, slots, p, steps", [
    (2, 1, [0.3], 1),
    (9, 3, [0.0], 8),
    (9, 3, [1.0], 8),
    (2049, 2, [0.6410256410256411], 2048),
    (40, 5, [0.77], 12),
    (17, 2, random_p(4), 16),
    (33, 4, random_p(7), 20),
    # wider than one chunk of _STACK_ENTRIES (state, count) entries at 32 pairs
    (17, 2, random_p(_STACK_ENTRIES // 33 + 5), 16),
    (6, 3, [], 5),
])
def test_binomial_rows_matches_the_numpy_loop(rows, slots, p, steps):
    w, p, after = binomial_case(rows, slots, p, steps)
    want_after = np.full_like(after, np.nan)
    want_w = reference_binomial_rows(w.copy(), p, want_after)
    _kernels.binomial_rows(w, p, after)
    assert after.tolist() == want_after.tolist()
    assert w[:, : rows - steps].tolist() == want_w.tolist()


def test_binomial_rows_matches_the_numpy_loop_at_every_vector_tail():
    # the build may vectorize the loop 8 doubles wide: every row count up to
    # 40 and slot count up to 17 leaves its own remainder for the peel and
    # tail loops, and below 8 slots the read-ahead w[i + m] falls inside the
    # vector being written
    for rows in range(2, 41):
        for slots in range(1, 18):
            for p in ([0.77], [0.3, 0.5, 0.9]):
                w, p, after = binomial_case(rows, slots, p, rows - 1)
                want_after = np.full_like(after, np.nan)
                want_w = reference_binomial_rows(w.copy(), p, want_after)
                _kernels.binomial_rows(w, p, after)
                assert after.tobytes() == want_after.tobytes(), (rows, slots, len(p))
                assert w[:, :1].tobytes() == want_w.tobytes(), (rows, slots, len(p))


def test_exact_table_matches_the_numpy_loop(monkeypatch):
    counts = list(range(1, 40)) + [300, 1023]
    stacked = _werner_stack(_a_grid(0.505, 0.995, 0.035))

    def sweeps():
        return [sweep_over_n(s0, counts, policy)
                for policy in POLICIES for s0 in (werner(0.75), stacked)]

    with monkeypatch.context() as patch:
        patch.setattr(_kernels, "binomial_rows", reference_binomial_rows)
        want = sweeps()
    assert sweeps() == want


def test_binomial_rows_rejects_bad_buffers():
    rows, steps, p = 9, 8, random_p(4)
    # w and after are views between sentinel states, so a stray write shows
    w_base = np.random.default_rng(0).random((len(p) + 2, rows, 2))
    after_base = np.full((len(p) + 2, steps, 2), -1.0)
    w, after = w_base[1:-1], after_base[1:-1]
    w_before = w_base.copy()
    read_only = w.copy()
    read_only.flags.writeable = False
    read_only_after = np.empty(after.shape)
    read_only_after.flags.writeable = False
    bad = {
        "float32 w": dict(w=w.astype(np.float32)),
        "int64 p": dict(p=np.ones(4, dtype=np.int64)),
        "1-d w": dict(w=w.ravel()),
        "2-d p": dict(p=p[None]),
        "non-contiguous w": dict(w=np.repeat(w, 2, axis=2)[..., ::2]),
        "non-contiguous after": dict(after=np.repeat(after, 2, axis=2)[..., ::2]),
        "read-only w": dict(w=read_only),
        "read-only after": dict(after=read_only_after),
        "after as long as w": dict(after=np.empty(w.shape)),
        "after overlapping w": dict(after=w.reshape(-1)[2 : 2 + after.size]
                                    .reshape(after.shape)),
        "after with other slots": dict(after=np.empty((len(p), steps, 1))),
        "p with another state count": dict(p=p[:3].copy()),
        "after with another state count": dict(after=np.empty((3, steps, 2))),
        "p overlapping w": dict(p=w.reshape(-1)[1 : 1 + len(p)]),
        "p overlapping after": dict(p=after.reshape(-1)[1 : 1 + len(p)]),
    }
    for name, override in bad.items():
        args = dict(w=w, p=p, after=after)
        args.update(override)
        with pytest.raises(ValueError):
            _kernels.binomial_rows(**args)
        assert w_base.tolist() == w_before.tolist(), name
        assert (after_base == -1.0).all(), name
    _kernels.binomial_rows(w, p, after)
    assert w_base[0].tolist() == w_before[0].tolist()
    assert w_base[-1].tolist() == w_before[-1].tolist()
    assert (after_base[0] == -1.0).all() and (after_base[-1] == -1.0).all()
    assert not (after_base[1:-1] == -1.0).any()
