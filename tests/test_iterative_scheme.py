import hashlib
import itertools
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from belldistil import (
    BACKUP,
    DROP_ONE,
    NO_BACKUP,
    IterationPolicy,
    ResourceCapError,
    TrialStats,
    expected_fidelity_exact,
    expected_fidelity_mc,
    fully_successful_fidelity,
    iterate_map,
    sweep_over_n,
    werner,
)
from belldistil import _trajectory_py
from belldistil.cli import _a_grid, _werner_stack
from belldistil._kernels import simulate, simulate_philox
from belldistil.iterative_scheme import (
    MC_TRIALS_CAP,
    MC_WORK_CAP,
    _depth_tables,
    _effective_n,
    depth_cap,
)

from enumeration import deepest_round, enumerate_expectation

WERNER_075 = werner(0.75)
F1 = 41 / 52
E3 = 7 / 9
E4 = 4303 / 5616
E5 = 1063 / 1296


def kernel_runs(n, trials, seed):
    """Outputs and failure flags of ``trials`` runs of the active kernel on
    ``n`` pairs of WERNER_075 under BACKUP, fed seeded Philox uniforms."""
    fid, psucc = _depth_tables(WERNER_075, n)
    u = np.random.Generator(np.random.Philox(key=seed)).random((trials, n))
    out = np.empty(trials)
    failed = np.zeros(trials, dtype=np.uint8)
    simulate(u, n, psucc, fid, True, True, 0.5, out, failed)
    return out, failed


class TestRunTrajectory:
    """Single runs, through the seeded Monte Carlo and the active kernel."""

    def test_single_pair_is_untouched(self):
        stats = expected_fidelity_mc(1, WERNER_075, BACKUP, trials=50, seed=0)
        assert stats == TrialStats(50, 0.75, 0.0, 0.0)

    def test_two_pairs_stop_immediately(self):
        stats = expected_fidelity_mc(2, WERNER_075, BACKUP, trials=50, seed=0)
        assert stats == TrialStats(50, 0.75, 0.0, 0.0)

    def test_three_pairs_two_outcomes(self):
        out, failed = kernel_runs(3, 500, seed=1)
        assert set(out.tolist()) == {0.75, F1}
        assert not failed.any()

    def test_three_pair_success_frequency(self):
        out, failed = kernel_runs(3, 20_000, seed=2)
        assert not failed.any()
        assert np.mean(out == F1) == pytest.approx(13 / 18, abs=0.01)

    def test_rejects_empty_sample(self):
        with pytest.raises(ValueError):
            expected_fidelity_mc(0, WERNER_075, BACKUP, trials=50, seed=0)

    def test_output_bounds(self):
        for n in (3, 5, 8, 13):
            out, _ = kernel_runs(n, 200, seed=3)
            assert ((0.5 <= out) & (out <= 1.0)).all(), n


class TestExpectedFidelityExact:
    def test_frozen_werner_values(self):
        assert expected_fidelity_exact(3, WERNER_075, BACKUP) == pytest.approx(E3, abs=1e-14)
        assert expected_fidelity_exact(4, WERNER_075, BACKUP) == pytest.approx(E4, abs=1e-14)
        assert expected_fidelity_exact(5, WERNER_075, BACKUP) == pytest.approx(E5, abs=1e-14)

    def test_matches_enumeration_all_policies(self):
        for policy in (BACKUP, NO_BACKUP, DROP_ONE):
            for n in range(1, 9):
                expected, _ = enumerate_expectation(n, WERNER_075, policy)
                assert expected_fidelity_exact(n, WERNER_075, policy) == pytest.approx(
                    expected, abs=1e-12
                ), (policy, n)

    def test_matches_enumeration_off_werner(self):
        from belldistil import BellDiagonalState

        s = BellDiagonalState(0.62, 0.2, 0.1, 0.08)
        for n in (5, 7, 8):
            expected, _ = enumerate_expectation(n, s, BACKUP)
            assert expected_fidelity_exact(n, s, BACKUP) == pytest.approx(
                expected, abs=1e-12
            )

    def test_resource_cap(self):
        with pytest.raises(ResourceCapError, match="expected_fidelity_mc"):
            expected_fidelity_exact(4097, WERNER_075, BACKUP)
        # the cap itself is accepted
        assert 0.5 <= expected_fidelity_exact(4096, WERNER_075, BACKUP) <= 1.0

    def test_near_purity_keeps_its_digits(self):
        # References computed with mpmath at 45 significant digits from the
        # exact Werner input a = 3/4, b = c = d = 1/12: the DEJMPS success
        # map and the failure weight 2(a+b)(c+d) iterated at that precision,
        # and the expectation summed over every binomial branch; rounded
        # to 20 digits.
        references = {
            (1024, BACKUP): 0.99999999989375751188,
            (1024, NO_BACKUP): 0.99999984568077204776,
            (2048, BACKUP): 0.99999999999999976226,
            (2048, NO_BACKUP): 0.99999999998700284698,
        }
        for (n, policy), reference in references.items():
            value = expected_fidelity_exact(n, WERNER_075, policy)
            assert abs(value - reference) <= 1e-14, (n, policy)
            assert value <= 1.0, (n, policy)

    def test_backup_dominance(self):
        for n in range(3, 13):
            for a in (0.55, 0.6, 0.75, 0.9, 0.95):
                s = werner(a)
                assert (
                    expected_fidelity_exact(n, s, BACKUP)
                    >= expected_fidelity_exact(n, s, NO_BACKUP) - 1e-12
                )

    def test_odd_over_even_zigzag(self):
        e4, e5, e6 = (
            expected_fidelity_exact(n, WERNER_075, BACKUP) for n in (4, 5, 6)
        )
        assert e5 > e4
        assert e5 > e6

    def test_drop_one_matches_odd_case(self):
        for n in (4, 6, 8, 10, 12):
            dropped = expected_fidelity_exact(n, WERNER_075, DROP_ONE)
            odd = expected_fidelity_exact(n - 1, WERNER_075, BACKUP)
            kept = expected_fidelity_exact(n, WERNER_075, BACKUP)
            assert dropped == pytest.approx(odd, abs=1e-12)
            assert dropped >= kept - 1e-12

    def test_count_search_reaches_the_depths_of_the_patterns(self):
        relaxed = IterationPolicy(stop_at_two_without_backup=False)
        for policy in (BACKUP, relaxed):
            for n in range(1, 22):
                _, deepest = enumerate_expectation(n, WERNER_075, policy)
                assert deepest_round(n, policy) == deepest, (n, policy)

    def test_depth_bound(self):
        relaxed = IterationPolicy(stop_at_two_without_backup=False)
        for n in range(1, 1025):
            for policy in (BACKUP, NO_BACKUP, DROP_ONE):
                assert deepest_round(n, policy) <= depth_cap(n), (n, policy)
            # the bound is tight: without the stop at two, some run reaches it
            assert deepest_round(n, relaxed) == depth_cap(n), n

    def test_depth_tables_end_at_the_all_success_run(self):
        for n in range(1, 4097):
            assert 2 ** depth_cap(n) <= n < 2 ** (depth_cap(n) + 1), n
            fid, _ = _depth_tables(WERNER_075, n)
            assert len(fid) == depth_cap(n) + 1, n
            assert fid[-1] == fully_successful_fidelity(WERNER_075, n), n

    def test_alternative_stop_reading_shifts_the_break_even(self):
        # Keeping two backup-less pairs in play makes N=4 a gamble: the
        # break-even input fidelity rises from about 0.56 to about 0.65.
        relaxed = IterationPolicy(stop_at_two_without_backup=False)
        lo, hi = 0.505, 0.995
        for policy, expected_root in ((BACKUP, 0.5607), (relaxed, 0.6514)):
            a, b = lo, hi
            for _ in range(40):
                mid = (a + b) / 2
                if expected_fidelity_exact(4, werner(mid), policy) / mid > 1:
                    b = mid
                else:
                    a = mid
            assert (a + b) / 2 == pytest.approx(expected_root, abs=2e-3)


class TestExpectedFidelityMC:
    def test_single_trial(self):
        stats = expected_fidelity_mc(5, WERNER_075, BACKUP, trials=1, seed=9)
        assert stats.std_error == 0.0
        assert stats.mean_fidelity in (
            pytest.approx(0.75),
            pytest.approx(F1),
            pytest.approx(iterate_map(WERNER_075, 2).a),
        )

    def test_rejects_zero_trials(self):
        with pytest.raises(ValueError):
            expected_fidelity_mc(5, WERNER_075, BACKUP, trials=0, seed=0)

    @pytest.mark.parametrize("workers", [0, -3])
    def test_rejects_fewer_than_one_worker_first(self, monkeypatch, workers):
        import belldistil.iterative_scheme as scheme

        def reached(*args):
            raise AssertionError("the depth tables were built")

        monkeypatch.setattr(scheme, "_depth_tables", reached)
        with pytest.raises(ValueError) as exc:
            expected_fidelity_mc(5, WERNER_075, BACKUP, 10, seed=0, workers=workers)
        assert str(exc.value) == f"worker count must be >= 1, got {workers}"

    def test_stream_index_past_64_bits_is_rejected_first(self, monkeypatch):
        import belldistil.iterative_scheme as scheme

        class Reached(Exception):
            pass

        def reached(*args):
            raise Reached

        # any accepted count would go on to build its depth tables
        monkeypatch.setattr(scheme, "_depth_tables", reached)
        for n, trials in ((2**63, 1), (2**62, 5), (2**63 - 1, 3)):
            with pytest.raises(ValueError, match="does not fit in 64 bits"):
                expected_fidelity_mc(n, WERNER_075, BACKUP, trials, seed=0)
        # the largest accepted indices; dropping a pair brings 2**63 in range
        for n, policy in ((2**63 - 1, BACKUP), (2**63, DROP_ONE)):
            with pytest.raises(Reached):
                expected_fidelity_mc(n, WERNER_075, policy, trials=2, seed=0)

    def test_trial_cap_raises_before_allocating(self):
        # the per-trial results alone would take 17 bytes per trial
        tracemalloc.start()
        try:
            with pytest.raises(ResourceCapError, match="10000000 trials"):
                expected_fidelity_mc(5, WERNER_075, BACKUP, trials=10**13, seed=0)
            with pytest.raises(ResourceCapError):
                expected_fidelity_mc(5, WERNER_075, BACKUP, MC_TRIALS_CAP + 1, 0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    def test_work_cap_raises_before_allocating(self, monkeypatch):
        import belldistil.iterative_scheme as scheme

        # one trial on 2**62 - 1 pairs has a valid stream index but would
        # read up to that many uniforms
        tracemalloc.start()
        try:
            with pytest.raises(ResourceCapError, match=f"trials \\* n = {MC_WORK_CAP};"):
                expected_fidelity_mc(2**62 - 1, WERNER_075, BACKUP, trials=1, seed=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20
        # the cap counts the pairs that are run: dropping one brings 10 * 11 under it
        monkeypatch.setattr(scheme, "MC_WORK_CAP", 100)
        assert expected_fidelity_mc(10, WERNER_075, BACKUP, 10, 0).trials == 10
        assert expected_fidelity_mc(10, WERNER_075, DROP_ONE, 11, 0).trials == 11
        with pytest.raises(ResourceCapError):
            expected_fidelity_mc(10, WERNER_075, BACKUP, 11, 0)

    def test_agrees_with_exact(self):
        stats = expected_fidelity_mc(5, WERNER_075, BACKUP, trials=100_000, seed=42)
        assert abs(stats.mean_fidelity - E5) <= 3 * stats.std_error

    def test_same_seed_bitwise_reproducible(self):
        a = expected_fidelity_mc(7, WERNER_075, BACKUP, trials=20_000, seed=123)
        b = expected_fidelity_mc(7, WERNER_075, BACKUP, trials=20_000, seed=123)
        assert a == b

    def test_worker_count_does_not_change_bits(self):
        a = expected_fidelity_mc(9, WERNER_075, BACKUP, trials=50_000, seed=5)
        b = expected_fidelity_mc(9, WERNER_075, BACKUP, trials=50_000, seed=5, workers=4)
        assert a == b

    @pytest.mark.parametrize("trials, workers, chunks", [
        (3, 1000, [(0, 1), (1, 2), (2, 3)]),
        (3, 2, [(0, 1), (1, 3)]),
        (1, 8, None),  # one chunk runs without a pool
    ])
    def test_workers_are_capped_at_the_trials(self, monkeypatch, trials, workers, chunks):
        import concurrent.futures

        pools = []

        class InlinePool:
            """Records its size and chunks and runs them inline: no thread starts."""

            def __init__(self, max_workers):
                pools.append([max_workers])

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *bounds):
                pools[-1].append(list(zip(*bounds)))
                return [fn(*b) for b in zip(*bounds)]

        monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", InlinePool)
        got = expected_fidelity_mc(9, WERNER_075, BACKUP, trials, seed=5, workers=workers)
        assert got == expected_fidelity_mc(9, WERNER_075, BACKUP, trials, seed=5)
        assert pools == ([] if chunks is None else [[len(chunks), chunks]])

    def test_failure_rate_counts_floor_runs(self):
        stats = expected_fidelity_mc(4, WERNER_075, NO_BACKUP, trials=50_000, seed=17)
        # a run fails only when both first-round steps fail: (5/18)^2
        assert stats.failure_rate == pytest.approx((5 / 18) ** 2, abs=0.005)

    def test_pinned_trial_stats(self):
        # Captured from the implementation that drew the whole (trials, n)
        # matrix at once.  Between them the cases start trials at all four
        # lanes of a four-double Philox output.
        relaxed = IterationPolicy(stop_at_two_without_backup=False)
        cases = {
            (7, 0.75, 3, BACKUP, 80_000):
                (0.8463635069329812, 0.00022782002145522483, 0.0),
            (12, 0.55, 0, NO_BACKUP, 50_000):
                (0.5650250356653865, 0.00017526103740514407, 0.242),
            (10, 0.95, 5, DROP_ONE, 60_000):
                (0.9982362436287153, 2.482533843370072e-05, 0.0),
            (6, 0.75, 11, relaxed, 100_000):
                (0.8064686819082206, 0.0004485514935388824, 0.15847),
            (5001, 0.52, 1, BACKUP, 150):
                (0.6760088692405675, 0.0044565952232071175, 0.0),
            (8193, 0.505, 2, NO_BACKUP, 100):
                (0.5367726518942318, 0.0020775775881142896, 0.22),
        }
        lanes = {_effective_n(n, policy) % 4 for n, _, _, policy, _ in cases}
        assert lanes == {0, 1, 2, 3}
        for (n, a0, seed, policy, trials), pinned in cases.items():
            for workers in (1, 4):
                stats = expected_fidelity_mc(
                    n, werner(a0), policy, trials, seed, workers=workers
                )
                assert stats == TrialStats(trials, *pinned), (n, seed, workers)

    def test_uniform_memory_is_bounded(self):
        # the whole (trials, n) matrix would take 131 MB
        tracemalloc.start()
        try:
            expected_fidelity_mc(8192, werner(0.55), BACKUP, trials=2000, seed=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20

    def test_uniform_memory_is_bounded_at_any_n(self):
        # one trial's row of uniforms alone would take 32 MiB
        tracemalloc.start()
        try:
            expected_fidelity_mc(2**22, werner(0.55), BACKUP, 2, 0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20

    def test_philox_stream_twins_are_bit_identical(self):
        # trial t reads doubles t*n .. t*n + n - 1 of Philox(key=seed); the
        # n cover every trial-start lane n % 4, the seeds both key words
        seeds = (0, 3, 2**64 - 1, 2**64 + 5, 2**127 + 3)
        for seed, n, first in itertools.product(
            seeds, (1, 2, 3, 4, 5, 7, 12, 33, 512, 513), (0, 1, 7)
        ):
            k0, k1 = np.random.Philox(key=seed).state["state"]["key"]
            fid, psucc = _depth_tables(WERNER_075, n)
            trials = 64 if n < 100 else 16
            rng = np.random.Generator(np.random.Philox(key=seed))
            u = rng.random((first + trials, n))[first:]
            for backup_enabled, stop_at_two, failure_fidelity in itertools.product(
                (True, False), (True, False), (0.5, 0.37)
            ):
                flags = (backup_enabled, stop_at_two, failure_fidelity)
                results = []
                for impl in (simulate_philox, simulate, _trajectory_py.simulate):
                    out = np.empty(trials)
                    failed = np.zeros(trials, dtype=np.uint8)
                    if impl is simulate_philox:
                        impl(k0, k1, first, n, psucc, fid, *flags, out, failed)
                    else:
                        impl(u, n, psucc, fid, *flags, out, failed)
                    results.append((out, failed))
                case = (seed, n, first, *flags)
                for out, failed in results[1:]:
                    assert np.array_equal(out, results[0][0]), case
                    assert np.array_equal(failed, results[0][1]), case

    def test_kernel_twins_are_bit_identical(self):
        for n in (1, 2, 3, 4, 7, 12, 33, 512):
            fid, psucc = _depth_tables(WERNER_075, n)
            trials = 2_000 if n < 100 else 200
            u = np.random.Generator(np.random.Philox(key=99)).random((trials, n))
            for backup_enabled, stop_at_two in itertools.product((True, False), repeat=2):
                for failure_fidelity in (0.5, 0.37):
                    results = []
                    for impl in (simulate, _trajectory_py.simulate):
                        out = np.empty(trials)
                        failed = np.zeros(trials, dtype=np.uint8)
                        impl(u, n, psucc, fid, backup_enabled, stop_at_two,
                             failure_fidelity, out, failed)
                        results.append((out, failed))
                    case = (n, backup_enabled, stop_at_two, failure_fidelity)
                    assert np.array_equal(results[0][0], results[1][0]), case
                    assert np.array_equal(results[0][1], results[1][1]), case

    def test_compiled_kernel_rejects_bad_buffers(self):
        from belldistil import _trajectory_c

        n, trials = 7, 10
        fid, psucc = _depth_tables(WERNER_075, n)
        u = np.random.default_rng(0).random((trials, n))
        # out and failed are views between sentinels, so a stray write shows
        out_base = np.full(trials + 2, -1.0)
        failed_base = np.full(trials + 2, 7, dtype=np.uint8)
        out, failed = out_base[1:-1], failed_base[1:-1]
        read_only = np.empty(trials)
        read_only.flags.writeable = False
        bad = {
            "float32 u": dict(u=u.astype(np.float32)),
            "float64 failed": dict(failed=np.zeros(trials)),
            "non-contiguous u": dict(u=np.repeat(u, 2, axis=1)[:, ::2]),
            "read-only out": dict(out=read_only),
            "1-d u": dict(u=u.ravel()),
            "u narrower than n0": dict(u=u[:, :-1].copy()),
            "tables shorter than the depth": dict(fid=fid[:2].copy()),
            "out shorter than u": dict(out=out[:-1]),
        }
        for name, override in bad.items():
            args = dict(u=u, n0=n, psucc=psucc, fid=fid, backup_enabled=True,
                        stop_at_two=True, failure_fidelity=0.5, out=out,
                        failed=failed)
            args.update(override)
            with pytest.raises(ValueError):
                _trajectory_c.simulate(**args)
            assert (out_base == -1.0).all() and (failed_base == 7).all(), name
        _trajectory_c.simulate(u, n, psucc, fid, True, True, 0.5, out, failed)
        assert out_base[0] == out_base[-1] == -1.0
        assert failed_base[0] == failed_base[-1] == 7

    def test_compiled_philox_kernel_rejects_bad_input(self):
        from belldistil import _trajectory_c

        n, trials = 7, 10
        fid, psucc = _depth_tables(WERNER_075, n)
        # out and failed are views between sentinels, so a stray write shows
        out_base = np.full(trials + 2, -1.0)
        failed_base = np.full(trials + 2, 7, dtype=np.uint8)
        out, failed = out_base[1:-1], failed_base[1:-1]
        read_only = np.empty(trials)
        read_only.flags.writeable = False
        # the largest first trial whose last double still has a 64-bit index
        top = (2**64 - 1) // n - trials
        bad = {
            "tables shorter than the depth": (ValueError, dict(psucc=psucc[:2].copy())),
            "out shorter than failed": (ValueError, dict(out=out[:-1])),
            "failed shorter than out": (ValueError, dict(failed=failed[:-1])),
            "read-only out": (ValueError, dict(out=read_only)),
            "float64 failed": (ValueError, dict(failed=np.zeros(trials))),
            "index beyond 64 bits": (ValueError, dict(first_trial=top + 1)),
            "negative first trial": (ValueError, dict(first_trial=-1)),
            "key word beyond 64 bits": (OverflowError, dict(k1=2**64)),
        }
        for name, (error, override) in bad.items():
            args = dict(k0=5, k1=1, first_trial=0, n0=n, psucc=psucc, fid=fid,
                        backup_enabled=True, stop_at_two=True,
                        failure_fidelity=0.5, out=out, failed=failed)
            args.update(override)
            with pytest.raises(error):
                _trajectory_c.simulate_philox(**args)
            assert (out_base == -1.0).all() and (failed_base == 7).all(), name
        # the top of the index range matches the reference loop on the same
        # doubles drawn by numpy (the counter advances once per four doubles)
        _trajectory_c.simulate_philox(5, 1, top, n, psucc, fid, True, True, 0.5,
                                      out, failed)
        assert out_base[0] == out_base[-1] == -1.0
        assert failed_base[0] == failed_base[-1] == 7
        counter, skip = divmod(top * n, 4)
        rng = np.random.Generator(np.random.Philox(key=5 | 1 << 64, counter=counter))
        rng.random(skip)
        ref_out = np.empty(trials)
        ref_failed = np.zeros(trials, dtype=np.uint8)
        _trajectory_py.simulate(rng.random((trials, n)), n, psucc, fid, True, True,
                                0.5, ref_out, ref_failed)
        assert np.array_equal(out, ref_out) and np.array_equal(failed, ref_failed)

    def test_missing_kernel_fails_at_import(self):
        # a fresh interpreter in which the compiled module cannot be imported
        code = (
            "import sys\n"
            "sys.modules['belldistil._trajectory_c'] = None\n"
            "import belldistil\n"
        )
        src = str(Path(__file__).resolve().parents[1] / "src")
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": src}, timeout=60,
        )
        assert proc.returncode != 0
        last = proc.stderr.splitlines()[-1]
        assert last.startswith("ImportError: ")
        assert "belldistil._trajectory_c" in last
        assert "build_ext --inplace" in last


def test_every_public_name_resolves():
    import belldistil

    for name in belldistil.__all__:
        assert getattr(belldistil, name, None) is not None, name


class TestSweeps:
    def test_sweep_over_n_rows(self):
        rows = sweep_over_n(WERNER_075, [5], BACKUP)
        assert rows[0][0] == 5
        assert rows[0][1] == pytest.approx(E5, abs=1e-14)
        # one table serves every count: rows equal the per-N calls bit for bit
        counts = [7, 3, 12, 1, 2, 128]
        relaxed = IterationPolicy(stop_at_two_without_backup=False)
        for policy in (BACKUP, NO_BACKUP, DROP_ONE, relaxed):
            rows = sweep_over_n(WERNER_075, counts, policy)
            assert rows == [
                (
                    n,
                    expected_fidelity_exact(n, WERNER_075, policy),
                    fully_successful_fidelity(WERNER_075, n),
                )
                for n in counts
            ], policy
        assert sweep_over_n(WERNER_075, range(5, 3), BACKUP) == []
        with pytest.raises(ValueError):
            sweep_over_n(WERNER_075, [0, 5], BACKUP)
        with pytest.raises(ResourceCapError):
            sweep_over_n(WERNER_075, [5000, 0], BACKUP)

    def test_fully_successful_reference(self):
        assert fully_successful_fidelity(WERNER_075, 4) == pytest.approx(
            841 / 932, abs=1e-12
        )
        rows = sweep_over_n(WERNER_075, range(3, 21), BACKUP)
        for _, value, reference in rows:
            assert reference >= value - 1e-12


#: SHA-256 over ``float.hex`` of the 50,460 values and references of
#: ``exact_pin_sweeps``, one per line; taken before the exact table's state
#: axis moved to the front.
EXACT_SHA256 = "31f42a96952a5f693ab98a5e3707858bed6e6cbde587bc0965510daf8d6aaf0b"


def exact_pin_sweeps():
    """Sweeps over every policy shape: single Werner states up to the cap,
    the ``fig3`` grid and 40 random states at small counts and at 700, and
    30 Werner states at the cap."""
    counts = list(range(1, 300)) + [512, 1000, 1023, 1024, 2047, 2048, 3001, 4095, 4096]
    grid = _werner_stack(_a_grid(0.505, 0.995, 0.002))
    spread = _werner_stack(_a_grid(0.55, 0.95, 0.4 / 29))
    rand = np.random.default_rng(16).dirichlet(np.ones(4), size=40).T
    for policy in (BACKUP, NO_BACKUP, DROP_ONE,
                   IterationPolicy(stop_at_two_without_backup=False),
                   IterationPolicy(failure_fidelity=0.37)):
        for a0 in (0.3, 0.51, 0.55, 0.6, 0.75, 0.9, 0.99):
            yield sweep_over_n(werner(a0), counts, policy)
        for stacked in (grid, rand):
            yield sweep_over_n(stacked, [1, 2, 3, 4, 5, 6, 12, 33, 128], policy)
            yield sweep_over_n(stacked, [700], policy)
        yield sweep_over_n(spread, [4096], policy)


def test_exact_outputs_keep_their_bits():
    digest, count = hashlib.sha256(), 0
    for rows in exact_pin_sweeps():
        for _, values, refs in rows:
            for x in np.ravel([values, refs]).tolist():
                digest.update(float.hex(x).encode() + b"\n")
                count += 1
    assert count == 50_460
    assert digest.hexdigest() == EXACT_SHA256
