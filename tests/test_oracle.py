import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest

from belldistil import BellDiagonalState, NotBellDiagonalError, distill_step, werner
from belldistil import oracle
from belldistil.bell_core import StepOutcome
from belldistil.oracle import (
    BELL_BASIS,
    ComparisonReport,
    apply_rotation_pair,
    bell_coefficients,
    compare_with_closed_form,
    dejmps_step_full,
    embed,
    validate_density_matrix,
    verify_rotation_choice,
)

WERNER_075 = werner(0.75)


# float.hex() of every ComparisonReport field, taken from the per-sample
# oracle before it ran on stacks: (max_p, max_success, max_failure, worst_state).
COMPARISON_PINS = {
    (1, 0): (
        '0x1.4000000000000p-51', '0x1.0000000000000p-53', '0x1.8000000000000p-53',
        ('0x1.946b569756074p-2', '0x1.2f399b2d59a0cp-1',
         '0x1.78fcf8d5b528ap-7', '0x1.598b47490df4dp-10'),
    ),
    (15, 0): (
        '0x1.4000000000000p-51', '0x1.4000000000000p-53', '0x1.8000000000000p-53',
        ('0x1.946b569756074p-2', '0x1.2f399b2d59a0cp-1',
         '0x1.78fcf8d5b528ap-7', '0x1.598b47490df4dp-10'),
    ),
    (16, 0): (
        '0x1.4000000000000p-51', '0x1.4000000000000p-53', '0x1.8000000000000p-53',
        ('0x1.946b569756074p-2', '0x1.2f399b2d59a0cp-1',
         '0x1.78fcf8d5b528ap-7', '0x1.598b47490df4dp-10'),
    ),
    (17, 0): (
        '0x1.4000000000000p-51', '0x1.4000000000000p-53', '0x1.8000000000000p-53',
        ('0x1.946b569756074p-2', '0x1.2f399b2d59a0cp-1',
         '0x1.78fcf8d5b528ap-7', '0x1.598b47490df4dp-10'),
    ),
    (33, 0): (
        '0x1.4000000000000p-51', '0x1.4000000000000p-53', '0x1.8000000000000p-53',
        ('0x1.946b569756074p-2', '0x1.2f399b2d59a0cp-1',
         '0x1.78fcf8d5b528ap-7', '0x1.598b47490df4dp-10'),
    ),
    (400, 0): (
        '0x1.8000000000000p-51', '0x1.0000000000000p-52', '0x1.8000000000000p-52',
        ('0x1.0318fa56acd54p-3', '0x1.a03a173c0b6ecp-6',
         '0x1.b985ed841d0c6p-3', '0x1.43d6754f6d2c2p-1'),
    ),
    (1000, 0): (
        '0x1.8000000000000p-51', '0x1.0000000000000p-52', '0x1.0000000000000p-50',
        ('0x1.d7aaaf8c102cep-8', '0x1.d5ccdc34c0f79p-7',
         '0x1.02d00a0b44a44p-3', '0x1.b44574ad43b2cp-1'),
    ),
    (1, 5): (
        '0x1.8000000000000p-52', '0x1.0000000000000p-53', '0x1.0000000000000p-54',
        ('0x1.bd6202f87e4b4p-2', '0x1.505d412e5b1afp-3',
         '0x1.23beae03a4723p-2', '0x1.dac2b9b2bed45p-4'),
    ),
    (15, 5): (
        '0x1.8000000000000p-52', '0x1.0000000000000p-53', '0x1.0000000000000p-53',
        ('0x1.bd6202f87e4b4p-2', '0x1.505d412e5b1afp-3',
         '0x1.23beae03a4723p-2', '0x1.dac2b9b2bed45p-4'),
    ),
    (16, 5): (
        '0x1.8000000000000p-52', '0x1.0000000000000p-53', '0x1.0000000000000p-53',
        ('0x1.bd6202f87e4b4p-2', '0x1.505d412e5b1afp-3',
         '0x1.23beae03a4723p-2', '0x1.dac2b9b2bed45p-4'),
    ),
    (17, 5): (
        '0x1.8000000000000p-52', '0x1.0000000000000p-53', '0x1.0000000000000p-53',
        ('0x1.bd6202f87e4b4p-2', '0x1.505d412e5b1afp-3',
         '0x1.23beae03a4723p-2', '0x1.dac2b9b2bed45p-4'),
    ),
    (33, 5): (
        '0x1.0000000000000p-51', '0x1.0000000000000p-52', '0x1.2000000000000p-51',
        ('0x1.2a3cd6cf25ac0p-2', '0x1.658ddc57047f2p-1',
         '0x1.36ac424df8eb6p-7', '0x1.e41ce0c31cd50p-11'),
    ),
    (400, 5): (
        '0x1.8000000000000p-51', '0x1.0000000000000p-52', '0x1.2000000000000p-51',
        ('0x1.663484741ef3dp-7', '0x1.934e2e12e07efp-9',
         '0x1.8335256a7b145p-1', '0x1.d67ae956863d8p-3'),
    ),
    (1000, 5): (
        '0x1.8000000000000p-51', '0x1.8000000000000p-52', '0x1.2000000000000p-51',
        ('0x1.663484741ef3dp-7', '0x1.934e2e12e07efp-9',
         '0x1.8335256a7b145p-1', '0x1.d67ae956863d8p-3'),
    ),
    (1, 58): (
        '0x1.0000000000000p-52', '0x1.8000000000000p-54', '0x1.0000000000000p-55',
        ('0x1.dfffe4e0d5102p-3', '0x1.035cc590e72b7p-2',
         '0x1.57e67385c2f6ap-2', '0x1.6979a8f1d6abep-3'),
    ),
    (15, 58): (
        '0x1.0000000000000p-51', '0x1.0000000000000p-52', '0x1.0000000000000p-53',
        ('0x1.24331104dd550p-1', '0x1.a6189dcdd88c9p-5',
         '0x1.4e4fbacffca49p-4', '0x1.2f42db888b1b4p-2'),
    ),
    (16, 58): (
        '0x1.0000000000000p-51', '0x1.0000000000000p-52', '0x1.0000000000000p-53',
        ('0x1.24331104dd550p-1', '0x1.a6189dcdd88c9p-5',
         '0x1.4e4fbacffca49p-4', '0x1.2f42db888b1b4p-2'),
    ),
    (17, 58): (
        '0x1.0000000000000p-51', '0x1.0000000000000p-52', '0x1.0000000000000p-53',
        ('0x1.24331104dd550p-1', '0x1.a6189dcdd88c9p-5',
         '0x1.4e4fbacffca49p-4', '0x1.2f42db888b1b4p-2'),
    ),
    (33, 58): (
        '0x1.8000000000000p-51', '0x1.0000000000000p-52', '0x1.0000000000000p-53',
        ('0x1.b4b3a58a98525p-8', '0x1.25e8c37caa5f3p-5',
         '0x1.c4ecd60fb88bdp-1', '0x1.2a59b36b3cecdp-4'),
    ),
    (400, 58): (
        '0x1.8000000000000p-51', '0x1.4000000000000p-52', '0x1.e000000000000p-51',
        ('0x1.a5bd40dc4caacp-6', '0x1.b917e659a634ep-10',
         '0x1.c83604b32dea1p-1', '0x1.4dfc2a9616ec0p-4'),
    ),
    (1000, 58): (
        '0x1.8000000000000p-51', '0x1.4000000000000p-52', '0x1.e000000000000p-51',
        ('0x1.a5bd40dc4caacp-6', '0x1.b917e659a634ep-10',
         '0x1.c83604b32dea1p-1', '0x1.4dfc2a9616ec0p-4'),
    ),
}

# RotationReport.max_deviation.hex(); both angle signs gave the same bits.
ROTATION_PINS = {
    (1, 0): '0x1.2400000000000p-56',
    (15, 0): '0x1.0000000000000p-53',
    (16, 0): '0x1.0000000000000p-53',
    (17, 0): '0x1.0000000000000p-53',
    (33, 0): '0x1.0000000000000p-53',
    (400, 0): '0x1.0000000000000p-52',
    (1000, 0): '0x1.0000000000000p-52',
    (1, 5): '0x1.0000000000000p-54',
    (15, 5): '0x1.0000000000000p-53',
    (16, 5): '0x1.0000000000000p-53',
    (17, 5): '0x1.0000000000000p-53',
    (33, 5): '0x1.0000000000000p-53',
    (400, 5): '0x1.0000000000000p-52',
    (1000, 5): '0x1.0000000000000p-52',
    (1, 58): '0x1.0000000000000p-53',
    (15, 58): '0x1.0000000000000p-53',
    (16, 58): '0x1.0000000000000p-53',
    (17, 58): '0x1.0000000000000p-53',
    (33, 58): '0x1.0000000000000p-53',
    (400, 58): '0x1.0000000000000p-52',
    (1000, 58): '0x1.0000000000000p-52',
}


class TestBellBasis:
    def test_orthonormal(self):
        gram = BELL_BASIS.conj() @ BELL_BASIS.T
        assert np.max(np.abs(gram - np.eye(4))) < 1e-14


class TestEmbed:
    def test_pure_target_projector(self):
        m = embed(BellDiagonalState(1, 0, 0, 0))
        vec = np.array([1, 0, 0, 1]) / np.sqrt(2)
        assert np.allclose(m, np.outer(vec, vec), atol=1e-15)

    def test_maximally_mixed(self):
        m = embed(BellDiagonalState(0.25, 0.25, 0.25, 0.25))
        assert np.allclose(m, np.eye(4) / 4, atol=1e-15)

    def test_werner_075_matrix(self):
        m = embed(WERNER_075)
        assert np.allclose(np.diag(m).real, [5 / 12, 1 / 12, 1 / 12, 5 / 12], atol=1e-14)
        assert m[0, 3] == pytest.approx(1 / 3, abs=1e-14)
        assert m[3, 0] == pytest.approx(1 / 3, abs=1e-14)
        validate_density_matrix(m)


class TestBellCoefficients:
    def test_round_trip(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            s = BellDiagonalState(*rng.dirichlet(np.ones(4)))
            got = bell_coefficients(embed(s))
            assert got.as_tuple() == pytest.approx(s.as_tuple(), abs=1e-14)

    def test_identity_over_four(self):
        got = bell_coefficients(np.eye(4, dtype=complex) / 4)
        assert got.as_tuple() == pytest.approx((0.25,) * 4, abs=1e-15)

    def test_rejects_non_bell_diagonal(self):
        m = np.zeros((4, 4), dtype=complex)
        m[0, 0] = 1.0  # |00><00| mixes Phi+ and Phi-
        with pytest.raises(NotBellDiagonalError, match="off-diagonal"):
            bell_coefficients(m)


class TestValidateDensityMatrix:
    def test_rejects_non_hermitian(self):
        m = np.eye(4, dtype=complex) / 4
        m[0, 1] = 0.1
        with pytest.raises(ValueError, match="Hermitian"):
            validate_density_matrix(m)

    def test_rejects_wrong_trace(self):
        with pytest.raises(ValueError, match="trace"):
            validate_density_matrix(np.eye(4, dtype=complex))

    def test_rejects_negative_eigenvalue(self):
        m = np.diag([1.1, -0.1, 0.0, 0.0]).astype(complex)
        with pytest.raises(ValueError, match="positive"):
            validate_density_matrix(m)


class TestRotationChoice:
    def test_swaps_b_and_d(self):
        s = BellDiagonalState(0.7, 0.2, 0.05, 0.05)
        rotated = bell_coefficients(apply_rotation_pair(embed(s)))
        assert rotated.as_tuple() == pytest.approx((0.7, 0.05, 0.05, 0.2), abs=1e-14)

    def test_invariant_when_b_equals_d(self):
        s = BellDiagonalState(0.6, 0.15, 0.1, 0.15)
        rotated = bell_coefficients(apply_rotation_pair(embed(s)))
        assert rotated.as_tuple() == pytest.approx(s.as_tuple(), abs=1e-14)

    def test_randomized_report(self):
        report = verify_rotation_choice(samples=1000, seed=2)
        assert report.passed
        assert report.max_deviation < 1e-12

    def test_both_angle_conventions_work(self):
        # the swap is its own inverse, so the mirrored convention passes too
        assert verify_rotation_choice(samples=100, seed=3, angle_sign=-1).passed

    @pytest.mark.parametrize("samples", [0, -3])
    def test_rejects_no_samples(self, samples):
        with pytest.raises(ValueError, match=f"must be >= 1, got {samples}"):
            verify_rotation_choice(samples=samples)


class TestFullStep:
    def test_pure_target_fixed_point(self):
        m = embed(BellDiagonalState(1, 0, 0, 0))
        out = dejmps_step_full(m)
        assert out.p_success == pytest.approx(1.0, abs=1e-13)
        assert np.allclose(out.success_m, m, atol=1e-13)
        assert not out.failure_reachable

    def test_maximally_mixed(self):
        out = dejmps_step_full(np.eye(4, dtype=complex) / 4)
        assert out.p_success == pytest.approx(0.5, abs=1e-14)
        assert np.allclose(out.success_m, np.eye(4) / 4, atol=1e-13)
        assert np.allclose(out.failure_m, np.eye(4) / 4, atol=1e-13)

    def test_werner_075_reproduces_closed_form(self):
        out = dejmps_step_full(embed(WERNER_075))
        assert out.p_success == pytest.approx(13 / 18, abs=1e-12)
        coeffs = bell_coefficients(out.success_m)
        assert coeffs.as_tuple() == pytest.approx(
            (41 / 52, 1 / 52, 1 / 52, 9 / 52), abs=1e-12
        )

    def test_branches_are_bell_diagonal_and_physical(self):
        rng = np.random.default_rng(4)
        for _ in range(100):
            s = BellDiagonalState(*rng.dirichlet(np.ones(4)))
            out = dejmps_step_full(embed(s))
            bell_coefficients(out.success_m)  # raises if not Bell-diagonal
            bell_coefficients(out.failure_m)
            total = out.p_success * out.success_m + (1 - out.p_success) * out.failure_m
            validate_density_matrix(total)


class TestOracleConstants:
    @pytest.mark.parametrize("sign", [1, -1])
    def test_cached_constants_are_read_only_and_fresh(self, sign):
        fresh_u = oracle._pair_rotation.__wrapped__(sign)
        fresh_gate = (oracle._cnot_16(0, 2) @ oracle._cnot_16(1, 3)
                      @ np.kron(fresh_u, fresh_u))
        cached = [oracle._pair_rotation(sign), oracle._step_gate(sign),
                  *oracle._measurement_projectors()]
        fresh = [fresh_u, fresh_gate, *oracle._measurement_projectors.__wrapped__()]
        for got, want in zip(cached, fresh):
            assert got.flags.writeable is False
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes()
        with pytest.raises(ValueError):
            cached[1][0, 0] = 0.0

    @pytest.mark.parametrize("sign", [1, -1])
    def test_repeated_steps_give_the_same_bits(self, sign):
        # the first call builds the constants, the second reuses them
        rng = np.random.default_rng(6)
        for _ in range(20):
            m = embed(BellDiagonalState(*rng.dirichlet(np.ones(4))))
            for built in (oracle._pair_rotation, oracle._step_gate,
                          oracle._measurement_projectors):
                built.cache_clear()
            first, second = (dejmps_step_full(m, sign) for _ in range(2))
            assert first.p_success == second.p_success
            assert first.failure_reachable == second.failure_reachable
            assert first.success_m.tobytes() == second.success_m.tobytes()
            assert first.failure_m.tobytes() == second.failure_m.tobytes()


class TestClosedFormComparison:
    def test_equivalence_over_random_states(self):
        report = compare_with_closed_form(samples=300, seed=5)
        assert report.max_deviation < 1e-10

    def test_negative_control_detects_corruption(self):
        def corrupted(s):
            out = distill_step(s)
            broken = BellDiagonalState(out.success_state.b, out.success_state.a,
                                       out.success_state.c, out.success_state.d)
            return type(out)(out.p_success, broken, out.failure_state,
                             out.failure_reachable)

        report = compare_with_closed_form(samples=20, seed=6, step_fn=corrupted)
        assert isinstance(report, ComparisonReport)
        assert report.max_deviation > 1e-3


class TestPinnedBits:
    @pytest.mark.parametrize("samples, seed", sorted(COMPARISON_PINS))
    def test_comparison_report(self, samples, seed):
        report = compare_with_closed_form(samples, seed)
        got = (report.max_p_deviation.hex(), report.max_success_deviation.hex(),
               report.max_failure_deviation.hex(),
               tuple(float(x).hex() for x in report.worst_state))
        assert report.samples == samples
        assert got == COMPARISON_PINS[samples, seed]

    @pytest.mark.parametrize("samples, seed", sorted(ROTATION_PINS))
    @pytest.mark.parametrize("sign", [1, -1])
    def test_rotation_report(self, samples, seed, sign):
        report = verify_rotation_choice(samples, seed, sign)
        assert report.passed and report.samples == samples
        assert float(report.max_deviation).hex() == ROTATION_PINS[samples, seed]


def _random_stack(seed: int, k: int = 16) -> list[BellDiagonalState]:
    rng = np.random.default_rng(seed)
    return [BellDiagonalState(*row) for row in rng.dirichlet(np.ones(4), size=k)]


class TestStacks:
    @pytest.mark.parametrize("sign", [1, -1])
    def test_stack_equals_single_calls_bytewise(self, sign):
        states = _random_stack(10)
        states[3] = states[11] = BellDiagonalState(1, 0, 0, 0)  # failure unreachable
        stack = embed(states)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            stacked = dejmps_step_full(stack, sign)
        assert list(stacked.failure_reachable).count(False) == 2
        for i, s in enumerate(states):
            m = embed(s)
            assert stack[i].tobytes() == m.tobytes()
            single = dejmps_step_full(m, sign)
            assert stacked.p_success[i].hex() == single.p_success.hex()
            assert stacked.failure_reachable[i] == single.failure_reachable
            assert stacked.success_m[i].tobytes() == single.success_m.tobytes()
            assert stacked.failure_m[i].tobytes() == single.failure_m.tobytes()
        for got, m in zip(bell_coefficients(stacked.success_m), stacked.success_m):
            assert got == bell_coefficients(m)

    def test_bad_trace_in_a_stack_raises_the_single_message(self):
        stack = embed(_random_stack(11))
        stack[5] *= 1.1
        stack[9] *= 0.9
        with pytest.raises(ValueError) as single:
            validate_density_matrix(stack[5])
        assert str(single.value).startswith("trace is ")
        with pytest.raises(ValueError) as stacked:
            dejmps_step_full(stack)
        assert str(stacked.value) == str(single.value)

    def test_non_bell_diagonal_in_a_stack_raises_the_single_message(self):
        stack = embed(_random_stack(12))
        stack[7, 0, 0] += 0.01
        stack[7, 3, 3] -= 0.01
        with pytest.raises(NotBellDiagonalError) as single:
            bell_coefficients(stack[7])
        with pytest.raises(NotBellDiagonalError) as stacked:
            bell_coefficients(stack)
        assert str(stacked.value) == str(single.value)

    def test_memory_does_not_grow_with_samples(self):
        compare_with_closed_form(20, 0)  # builds the cached gates
        peaks = []
        for samples in (400, 4000):
            tracemalloc.start()
            try:
                compare_with_closed_form(samples, 0)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] < 2**20
        assert peaks[1] < 1.5 * peaks[0]


def reference_branch(rho, proj):
    """The projector form that ``oracle._branch`` replaced: conditioned state
    ``proj @ rho @ proj``, its trace, and a partial trace of the 5-D view."""
    conditioned = proj @ rho @ proj
    weight = np.trace(conditioned, axis1=1, axis2=2).real
    reachable = weight >= oracle.UNREACHABLE_TRACE_ATOL
    reduced = conditioned.reshape(-1, 4, 4, 4, 4).trace(axis1=2, axis2=4)
    reduced /= np.where(reachable, weight, 1.0)[:, None, None]
    reduced[~reachable] = embed(BellDiagonalState(0.5, 0.5, 0.0, 0.0))
    return weight, reduced, reachable


class TestSlicedBranch:
    @pytest.mark.parametrize("seed", range(24))
    @pytest.mark.parametrize("k", [1, 16])
    @pytest.mark.parametrize("sign", [1, -1])
    def test_matches_the_projector_form_bytewise(self, seed, k, sign):
        states = _random_stack(100 + seed, k)
        if seed % 3 == 0:  # failure unreachable in some rows
            states[0] = BellDiagonalState(1, 0, 0, 0)
            states[k // 2] = BellDiagonalState(1, 0, 0, 0)
        gate = oracle._step_gate(sign)
        rho = gate @ oracle._kron_with_itself(embed(states)) @ gate.conj().T
        for proj in oracle._measurement_projectors():
            got = oracle._branch(rho, proj)
            want = reference_branch(rho, proj)
            assert [x.dtype for x in got] == [x.dtype for x in want]
            assert [x.tobytes() for x in got] == [x.tobytes() for x in want]
        if seed % 3 == 0:  # the failure branch is the second
            assert (~got[2]).sum() == len({0, k // 2})


def _counting_step(change):
    """``distill_step`` that records each state and lets ``change`` edit the
    outcome of call i; returns the step and the list of states seen."""
    seen = []

    def step(s):
        seen.append(s.as_tuple())
        return change(len(seen) - 1, distill_step(s))

    return step, seen


def _oracle_step(s):
    """The oracle's own step on one state, as a closed-form outcome."""
    full = dejmps_step_full(embed(s))
    return StepOutcome(full.p_success, bell_coefficients(full.success_m),
                       bell_coefficients(full.failure_m), full.failure_reachable)


class TestDeviationScan:
    """What the per-sample loop did, pinned before the scan replaced it."""

    @pytest.mark.parametrize("tied", [(3, 9), (3, 20), (17, 40)])
    def test_tie_at_the_maximum_keeps_the_earlier_state(self, tied):
        def change(i, out):
            return replace(out, p_success=1e300) if i in tied else out

        step, seen = _counting_step(change)
        report = compare_with_closed_form(48, 7, step_fn=step)
        assert len(seen) == 48
        assert report.max_p_deviation == 1e300
        assert report.worst_state == seen[tied[0]]
        assert [type(x) for x in report.worst_state] == [float] * 4

    def test_flipped_reachability_is_infinite(self):
        step, seen = _counting_step(
            lambda i, out: replace(out, failure_reachable=not out.failure_reachable)
            if i == 21 else out)
        report = compare_with_closed_form(40, 2, step_fn=step)
        assert report.max_failure_deviation == np.inf
        assert report.worst_state == seen[21]
        assert report.max_p_deviation < 1e-14 and report.max_success_deviation < 1e-14

    def test_flipped_reachability_exits_one(self, capsys, monkeypatch):
        from belldistil import cli

        step, seen = _counting_step(
            lambda i, out: replace(out, failure_reachable=not out.failure_reachable)
            if i == 5 else out)
        monkeypatch.setattr(oracle, "compare_with_closed_form",
                            lambda samples, seed: compare_with_closed_form(
                                samples, seed, step_fn=step))
        assert cli.main(["verify-oracle", "--samples", "20"]) == 1
        out = capsys.readouterr().out
        assert "max failure deviation inf\n" in out
        assert f"verdict               FAIL (worst state {seen[5]})\n" in out

    def test_zero_deviation_keeps_the_default_worst_state(self):
        report = compare_with_closed_form(40, 3, step_fn=_oracle_step)
        assert report.max_deviation == 0.0
        assert report.worst_state == (1.0, 0.0, 0.0, 0.0)
