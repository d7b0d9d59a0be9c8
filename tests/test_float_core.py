"""The closed-form layer gives the same bits on every path.

``_depth_tables`` and ``n_min`` must agree bit for bit with the public,
state-building maps they replace: the tables that the trajectory kernel
reads set the Monte Carlo bits, and ``n_min`` sets the bytes of the
``nmin`` CSV.  A ``(4, k)`` coefficient stack must give every state the
bits of its own call, through the maps, the depth tables, ``n_min`` and
the exact table, and the same error as the first state that fails.  The
compiled ``exact_expectations`` must give the bits of the numpy backward
induction it replaced, which stays here as its reference.
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
from belldistil.bell_core import _normalized, _normalized_rows, _square, _step_coeffs
from belldistil.cli import _a_grid, _werner_stack
from belldistil.finite_ensemble import _n_min_column
from belldistil.iterative_scheme import (
    _STACK_ENTRIES,
    _depth_tables,
    _exact_table,
    depth_cap,
)

from rounding import MODES, rounding

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
    # F_u <= 1/2 < a, so the fallback never meets the target
    assert f_u < s.a
    return 2.0 * math.log((s.a - f_s) / (f_u - f_s)) / math.log(1.0 - step.p_success)


def reference_binomial_rows(w, p, after):
    """The numpy averaging loop, once per state j: ``after[j, k - 1]`` is
    row 0 of ``w[j]`` after k averaging steps; ``w`` is left as it is."""
    for w_j, p_j, after_j in zip(w, p, after):
        for row in after_j:
            w_j = (1.0 - p_j) * w_j[:-1] + p_j * w_j[1:]
            row[:] = w_j[0]


def reference_exact_table(
    fid: np.ndarray, psucc: np.ndarray, n: int, policy: IterationPolicy
) -> np.ndarray:
    """Exact expectation for every starting count 0 .. n, by backward
    induction over depth on depth tables that reach at least depth_cap(n).

    ``value[..., live, slot]`` is one minus the expectation on entering a
    depth with ``live`` pairs; slot 0 means no backup and slot k + 1 a backup
    stored at depth k, so the table at depth d has d + 1 slots.  Averaging
    the small infidelity instead of the fidelity keeps the rounding of the
    branch averages relative to it.  The average over Binomial(m, p)
    survivors is row 0 of ``(q + p * shift)**m`` applied to the deeper
    table; ``reference_binomial_rows`` takes those steps.  A trailing state
    axis of the depth tables leads here, so each state's table is
    contiguous; every operation is elementwise along it.
    """
    loss = (1.0 - fid).T
    states = loss.shape[:-1]
    value = None
    for depth in reversed(range(depth_cap(n) + 1)):
        top = n >> depth
        deeper, value = value, np.empty(states + (top + 1, depth + 1))
        value[..., 0, 0] = 1.0 - policy.failure_fidelity
        value[..., 0, 1:] = loss[..., :depth]
        value[..., 1, :] = loss[..., depth, None]
        if top >= 2:
            # after[..., k - 1, :] averages the deeper table over k steps' survivors
            after = np.empty(states + (top // 2, depth + 2))
            reference_binomial_rows(deeper.reshape(-1, *deeper.shape[-2:]),
                                    np.reshape(psucc[depth], -1),
                                    after.reshape(-1, *after.shape[-2:]))
            value[..., 2::2, :] = after[..., : depth + 1]
            # an odd count stores one pair at this depth, replacing any older backup
            odd = after[..., : (top - 1) // 2, :]
            value[..., 3::2, :] = (odd[..., depth + 1 :] if policy.backup_enabled
                                   else odd[..., : depth + 1])
            if policy.stop_at_two_without_backup:
                value[..., 2, 0] = loss[..., depth]
    return 1.0 - value[..., 0]


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
    # the nmin CSV reads the column under n_min: NaN where it gives None
    column = _n_min_column(stack(STATES), conv)
    assert column.dtype == np.float64
    assert [x.hex() for x in column.tolist()] == ["nan" if x is None else x.hex() for x in got]
def test_stacked_step_matches_each_state():
    # the oracle compares its stacks with this form of distill_step
    p, success, failure, reachable = _step_coeffs(*stack(STATES))
    assert not reachable.all()
    for i, s in enumerate(STATES):
        want = distill_step(s)
        assert p[i].hex() == want.p_success.hex()
        assert [x[i].hex() for x in success] == [
            x.hex() for x in want.success_state.as_tuple()]
        assert [x[i].hex() for x in failure] == [
            x.hex() for x in want.failure_state.as_tuple()]
        assert reachable[i] == want.failure_reachable


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


def sweep_memory(stacked, counts):
    """tracemalloc peak of a stacked sweep above what its result keeps."""
    sweep_over_n(stacked[:, :1], counts, BACKUP)  # warms up numpy
    tracemalloc.start()
    try:
        result = sweep_over_n(stacked, counts, BACKUP)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(result) == len(counts)
    return peak - kept


def test_sweep_reads_its_lists_from_one_array_each():
    # the values and the references, one float64 per (count, state) each,
    # are written in place and read into lists once: above the lists the
    # peak holds at most the two arrays, not the chunks and a joined copy
    states, counts = 1000, range(1, 65)
    one_array = 8 * states * len(counts)
    assert sweep_memory(_werner_stack(np.linspace(0.51, 0.99, states)), counts) < (
        2 * one_array)


def test_stacked_sweep_memory_is_bounded_at_small_counts():
    # 50,000 states at n in {2, 4}: the temporaries of one table over the
    # whole stack would exceed the bound, those of a chunk do not
    stacked = _werner_stack(np.linspace(0.51, 0.99, 50_000))
    assert sweep_memory(stacked, [2, 4]) < 2 * 2**20


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


#: Every count up to 130 and the counts on either side of the powers of two
#: up to the cap, where the depth tables gain a depth.
REFERENCE_COUNTS = list(range(1, 131)) + [255, 256, 1023, 1024, 2047, 2048, 4095, 4096]


def count_sets(top):
    """Requested count sets up to ``top`` of every parity mix: the engine
    averages only the backup slots that the counts' parities read."""
    counts = [c for c in REFERENCE_COUNTS if c < top] + [top]
    sets = [counts, [c for c in counts if c % 2 == 0], [c for c in counts if c % 2], [top]]
    return [c for c in sets if c]


#: Werner states from near the distillation threshold to near purity, where
#: the averaged entries fall below ``DBL_MIN``, and random Bell-diagonal ones.
REFERENCE_STATES = [werner(a) for a in (0.55, 0.75, 0.95, 0.99, 0.999)] + [
    BellDiagonalState(*row)
    for row in np.random.default_rng(23).dirichlet(np.ones(4), size=4)
]


def random_p(k):
    p = np.random.default_rng(k).random(k)
    p[::3], p[1::3] = 0.0, 1.0
    return p


@pytest.mark.parametrize("policy", POLICIES + [IterationPolicy(failure_fidelity=0.3)])
def test_exact_expectations_match_the_numpy_loop(policy):
    stacked = stack(REFERENCE_STATES)
    fid, psucc = _depth_tables(stacked, max(REFERENCE_COUNTS))
    want = reference_exact_table(fid, psucc, max(REFERENCE_COUNTS), policy)
    singles = [[c] for c in (1, 2, 3, 4, 5, 6, 7, 33, 255, 256)]
    for counts in count_sets(130) + count_sets(4096) + singles:
        got = _exact_table(fid, psucc, counts, policy)
        assert got.tobytes() == want[:, counts].tobytes(), (counts[:3], len(counts))
        for i, s0 in enumerate(REFERENCE_STATES):
            got = _exact_table(*_depth_tables(s0, max(counts)), counts, policy)
            assert got.tobytes() == want[i, counts].tobytes(), (s0, counts[:3], len(counts))


@pytest.mark.parametrize("n, p", [
    (2, [0.3]),
    (17, [0.0]),
    (17, [1.0]),
    (4096, [0.6410256410256411]),
    (80, [0.77]),
    (33, random_p(4)),
    (66, random_p(7)),
    (40, random_p(100)),
    (11, []),
])
def test_exact_expectations_match_the_numpy_loop_on_any_tables(n, p):
    # random fidelities, and success probabilities that no state has
    p = np.asarray(p, dtype=float)
    depths = np.arange(1, depth_cap(n) + 2)[:, None]
    fid = np.random.default_rng(n + len(p)).random((len(depths), len(p)))
    psucc = p**depths
    for policy in POLICIES:
        want = reference_exact_table(fid, psucc, n, policy)
        for counts in count_sets(n):
            got = _exact_table(fid, psucc, counts, policy)
            assert got.tobytes() == want[:, counts].tobytes(), (policy, counts[:3])


def test_exact_expectations_leave_subnormals_on():
    tiny = 2.2250738585072014e-308  # DBL_MIN
    # near purity the engine's tables fall below DBL_MIN
    sweep_over_n(stack([werner(0.99), werner(0.999)]), [2048, 4095], BACKUP)
    for half in (tiny / 2, (np.array([tiny]) / 2).item()):
        assert 0.0 < half < tiny


ROUNDING_COUNTS = [4, 5, 12, 64, 1024, 4096]


def rounded_outputs():
    """The exact sweep under every policy, ``n_min`` on the ``nmin`` grid
    under both conventions and the step maps on 64 random states, flat."""
    werners = _werner_stack([0.55, 0.6, 0.75, 0.95, 0.999])
    values = [np.ravel([row[1:] for row in sweep_over_n(werners, ROUNDING_COUNTS, policy)])
              for policy in POLICIES]
    grid = _werner_stack(_a_grid(0.505, 0.995, 0.005))
    values += [np.array(n_min(grid, conv), dtype=float) for conv in UnsuccessfulConvention]
    states = np.random.default_rng(14).dirichlet(np.ones(4), size=64).T
    p, success, failure, _ = _step_coeffs(*states)
    values += [p, *success, *failure]
    return np.concatenate(values)


def test_rounding_modes_move_the_exact_values_by_under_1e_12():
    runs = []
    for mode in MODES:
        with rounding(mode):
            runs.append(rounded_outputs())
    runs = np.array(runs)
    spread = runs.max(axis=0) - runs.min(axis=0)
    assert np.isfinite(runs).all()
    # the modes took in the engines, and moved nothing past the contract
    assert 0.0 < spread.max() <= 1e-12
    np.testing.assert_array_equal(rounded_outputs(), runs[MODES.index("nearest")])


def test_exact_expectations_reject_bad_buffers():
    counts = np.array([1, 6, 33], dtype=np.int64)
    states = stack(REFERENCE_STATES[:4])
    fid, psucc = _depth_tables(states, 33)
    # out is a view between sentinel states, so a stray write shows
    out_base = np.full((6, len(counts)), -1.0)
    out = out_base[1:-1]
    inputs = (fid.copy(), psucc.copy(), counts.copy())
    read_only = np.empty(out.shape)
    read_only.flags.writeable = False
    shared = np.full(fid.size + out.size, 0.5)
    bad = {
        "float32 fid": dict(fid=fid.astype(np.float32)),
        "int32 counts": dict(counts=counts.astype(np.int32)),
        "float64 counts": dict(counts=counts.astype(float)),
        "float32 out": dict(out=np.empty(out.shape, dtype=np.float32)),
        "1-d fid": dict(fid=fid.ravel()),
        "3-d psucc": dict(psucc=psucc[None]),
        "2-d counts": dict(counts=counts[None]),
        "1-d out": dict(out=out.ravel()),
        "non-contiguous fid": dict(fid=np.repeat(fid, 2, axis=1)[:, ::2]),
        "non-contiguous counts": dict(counts=np.repeat(counts, 2)[::2]),
        "non-contiguous out": dict(out=np.repeat(out, 2, axis=1)[:, ::2]),
        "read-only out": dict(out=read_only),
        "out with a state too many": dict(out=out_base[1:]),
        "out with a count too few": dict(out=np.empty((4, 2))),
        "out with counts and states swapped": dict(out=np.empty((3, 4))),
        "psucc with another state count": dict(psucc=psucc[:, :3].copy()),
        "psucc with another depth count": dict(psucc=np.vstack([psucc, psucc[-1:]])),
        "fewer depths than depth_cap(33) + 1": dict(fid=fid[:-1].copy(),
                                                    psucc=psucc[:-1].copy()),
        "a count of 0": dict(counts=np.array([1, 0, 33])),
        "a negative count": dict(counts=np.array([1, -3, 33])),
        "out overlapping fid": dict(fid=shared[: fid.size].reshape(fid.shape),
                                    out=shared[-out.size - 1 : -1].reshape(out.shape)),
        "out overlapping psucc": dict(psucc=shared[: psucc.size].reshape(psucc.shape),
                                      out=shared[-out.size - 1 : -1].reshape(out.shape)),
    }
    for name, override in bad.items():
        args = dict(fid=fid, psucc=psucc, counts=counts, out=out)
        args.update(override)
        with pytest.raises(ValueError):
            _kernels.exact_expectations(args["fid"], args["psucc"], args["counts"],
                                        True, True, 0.5, args["out"])
        assert (out_base == -1.0).all(), name
        assert (shared == 0.5).all(), name
    # a scratch table too large to allocate
    huge, one_count = 2**61, np.full((4, 1), -1.0)
    with pytest.raises(MemoryError):
        _kernels.exact_expectations(*_depth_tables(states, huge),
                                    np.array([huge]), True, True, 0.5, one_count)
    assert (one_count == -1.0).all()
    _kernels.exact_expectations(fid, psucc, counts, True, True, 0.5, out)
    assert all(a.tobytes() == b.tobytes() for a, b in zip((fid, psucc, counts), inputs))
    assert (out_base[0] == -1.0).all() and (out_base[-1] == -1.0).all()
    assert not (out == -1.0).any()
