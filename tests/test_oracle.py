import numpy as np
import pytest

from belldistil import BellDiagonalState, NotBellDiagonalError, distill_step, werner
from belldistil import oracle
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
