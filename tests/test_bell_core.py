import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from belldistil import (
    BellDiagonalState,
    InvalidStateError,
    avg_fidelity_single_conditional,
    avg_fidelity_single_locc,
    distill_step,
    fidelity,
    is_distillable,
    iterate_map,
    success_probability,
    werner,
)

WERNER_075 = werner(0.75)


def simplex_states(count, seed=0):
    rng = np.random.default_rng(seed)
    return [BellDiagonalState(*row) for row in rng.dirichlet(np.ones(4), size=count)]


@st.composite
def simplex_state(draw):
    raw = [draw(st.floats(1e-9, 1.0)) for _ in range(4)]
    total = sum(raw)
    return BellDiagonalState(*(x / total for x in raw))


class TestStateValidation:
    def test_clamps_cancellation_residue(self):
        s = BellDiagonalState(1.0, -1e-16, 0.0, 1e-16)
        assert s.b == 0.0
        assert math.isclose(sum(s.as_tuple()), 1.0, abs_tol=1e-15)

    def test_rejects_real_negatives(self):
        with pytest.raises(InvalidStateError):
            BellDiagonalState(1.0 + 1e-13, -1e-13, 0.0, 0.0)

    def test_rejects_bad_normalization(self):
        with pytest.raises(InvalidStateError):
            BellDiagonalState(0.5, 0.3, 0.1, 0.2)

    @pytest.mark.parametrize("coeffs", [
        (math.nan, 0.0, 0.0, 0.0),
        (0.5, 0.5, math.nan, 0.0),
        (1.0, 0.0, 0.0, math.nan),
        (math.inf, 0.0, 0.0, 0.0),
        (1.0, math.inf, 0.0, 0.0),
        (1.0, -math.inf, 0.0, 0.0),
        (math.inf, -math.inf, 1.0, 0.0),
    ])
    def test_rejects_nan_and_inf(self, coeffs):
        with pytest.raises(InvalidStateError):
            BellDiagonalState(*coeffs)

    def test_werner_rejects_nan(self):
        with pytest.raises(InvalidStateError):
            werner(math.nan)


class TestFidelityAndWerner:
    def test_pure_target(self):
        assert fidelity(BellDiagonalState(1, 0, 0, 0)) == 1.0

    def test_maximally_mixed(self):
        assert fidelity(BellDiagonalState(0.25, 0.25, 0.25, 0.25)) == 0.25

    def test_werner_reads_off_a(self):
        assert fidelity(WERNER_075) == 0.75

    def test_werner_construction(self):
        assert werner(1.0).as_tuple() == (1.0, 0.0, 0.0, 0.0)
        assert werner(0.25).as_tuple() == (0.25, 0.25, 0.25, 0.25)
        assert werner(0.75).as_tuple() == pytest.approx((0.75, 1 / 12, 1 / 12, 1 / 12))

    def test_werner_domain(self):
        with pytest.raises(InvalidStateError):
            werner(1.5)
        with pytest.raises(InvalidStateError):
            werner(-0.1)


class TestDistillable:
    def test_werner(self):
        assert is_distillable(WERNER_075)

    def test_maximally_mixed(self):
        assert not is_distillable(BellDiagonalState(0.25, 0.25, 0.25, 0.25))

    def test_boundary_is_excluded(self):
        assert not is_distillable(BellDiagonalState(0.5, 0.5, 0.0, 0.0))


class TestSuccessProbability:
    def test_pure(self):
        assert success_probability(BellDiagonalState(1, 0, 0, 0)) == 1.0

    def test_maximally_mixed(self):
        assert success_probability(BellDiagonalState(0.25, 0.25, 0.25, 0.25)) == 0.5

    def test_werner(self):
        # (5/6)^2 + (1/6)^2 = 13/18
        assert success_probability(WERNER_075) == pytest.approx(13 / 18, abs=1e-15)


class TestDistillStep:
    def test_pure_fixed_point(self):
        out = distill_step(BellDiagonalState(1, 0, 0, 0))
        assert out.p_success == 1.0
        assert out.success_state.as_tuple() == (1.0, 0.0, 0.0, 0.0)
        assert not out.failure_reachable
        assert out.failure_state.as_tuple() == (0.5, 0.5, 0.0, 0.0)

    def test_maximally_mixed_fixed_point(self):
        out = distill_step(BellDiagonalState(0.25, 0.25, 0.25, 0.25))
        assert out.p_success == pytest.approx(0.5, abs=1e-15)
        assert out.success_state.as_tuple() == pytest.approx((0.25,) * 4, abs=1e-15)
        assert out.failure_state.as_tuple() == pytest.approx((0.25,) * 4, abs=1e-15)

    def test_werner_075(self):
        out = distill_step(WERNER_075)
        assert out.p_success == pytest.approx(13 / 18, abs=1e-14)
        assert out.success_state.as_tuple() == pytest.approx(
            (41 / 52, 1 / 52, 1 / 52, 9 / 52), abs=1e-14
        )
        assert out.failure_state.as_tuple() == pytest.approx((0.25,) * 4, abs=1e-14)

    @given(simplex_state())
    @settings(max_examples=300)
    def test_branches_stay_normalized(self, s):
        out = distill_step(s)
        assert abs(sum(out.success_state.as_tuple()) - 1.0) < 1e-12
        assert abs(sum(out.failure_state.as_tuple()) - 1.0) < 1e-12

    @given(simplex_state())
    @settings(max_examples=300)
    def test_failure_state_structure(self, s):
        out = distill_step(s)
        if out.failure_reachable:
            f = out.failure_state
            assert f.c == pytest.approx(f.a, abs=1e-12)
            assert f.d == pytest.approx(f.b, abs=1e-12)

    def test_normalization_bulk(self):
        for s in simplex_states(10_000, seed=3):
            out = distill_step(s)
            assert abs(sum(out.success_state.as_tuple()) - 1.0) < 1e-12
            assert abs(sum(out.failure_state.as_tuple()) - 1.0) < 1e-12

    def test_failure_ceiling(self):
        for s in simplex_states(10_000, seed=4):
            assert distill_step(s).failure_state.a <= 0.5 + 1e-12

    def test_fidelity_gain_for_werner(self):
        for a in np.linspace(0.5001, 0.9999, 200):
            s = werner(float(a))
            assert distill_step(s).success_state.a > s.a

    def test_known_counterexample_to_unrestricted_gain(self):
        # With a > 1/2 but b comparable to a, a step can LOWER the fidelity:
        # the gain guarantee needs a to dominate, not merely exceed 1/2.
        # Recorded here so the restriction in the property tests is explicit.
        s = BellDiagonalState(0.6, 0.4, 0.0, 0.0)
        out = distill_step(s)
        assert out.success_state.a == pytest.approx(0.52, abs=1e-12)
        assert out.success_state.a < s.a


class TestAverageFidelities:
    def test_locc_examples(self):
        assert avg_fidelity_single_locc(BellDiagonalState(1, 0, 0, 0)) == 1.0
        assert avg_fidelity_single_locc(WERNER_075) == pytest.approx(
            0.75 + (1 / 12) * (1 - 1.5), abs=1e-14
        )
        s = BellDiagonalState(0.7, 0.0, 0.2, 0.1)
        assert avg_fidelity_single_locc(s) == pytest.approx(0.7, abs=1e-14)

    def test_conditional_examples(self):
        assert avg_fidelity_single_conditional(BellDiagonalState(1, 0, 0, 0)) == 1.0
        assert avg_fidelity_single_conditional(WERNER_075) == pytest.approx(
            23 / 36, abs=1e-14
        )
        mixed = BellDiagonalState(0.25, 0.25, 0.25, 0.25)
        assert avg_fidelity_single_conditional(mixed) == pytest.approx(0.25, abs=1e-14)

    def test_decomposition_identities(self):
        for s in simplex_states(10_000, seed=5):
            out = distill_step(s)
            p, f_s = out.p_success, out.success_state.a
            assert avg_fidelity_single_locc(s) == pytest.approx(
                p * f_s + (1 - p) * 0.5, abs=1e-12
            )
            if out.failure_reachable:
                assert avg_fidelity_single_conditional(s) == pytest.approx(
                    p * f_s + (1 - p) * out.failure_state.a, abs=1e-12
                )

    def test_no_average_gain_above_half(self):
        # The LOCC bound applies in the operating regime a > 1/2; below it
        # the closed forms can exceed a (see the counterexample test).
        rng = np.random.default_rng(6)
        checked = 0
        while checked < 10_000:
            s = BellDiagonalState(*rng.dirichlet(np.ones(4)))
            if s.a <= 0.5:
                continue
            assert avg_fidelity_single_locc(s) <= s.a + 1e-12
            assert avg_fidelity_single_conditional(s) <= s.a + 1e-12
            checked += 1

    def test_average_gain_possible_below_half(self):
        # Companion record to the restriction above.
        s = BellDiagonalState(0.2, 0.5, 0.2, 0.1)
        assert avg_fidelity_single_locc(s) > s.a


class TestIterateMap:
    def test_identity_at_zero(self):
        assert iterate_map(WERNER_075, 0) == WERNER_075

    def test_single_application(self):
        # the same arithmetic as the success branch of distill_step, bit for bit
        for s in [WERNER_075] + simplex_states(50, seed=3):
            assert iterate_map(s, 1) == distill_step(s).success_state
            assert iterate_map(s, 3) == distill_step(
                distill_step(distill_step(s).success_state).success_state
            ).success_state

    def test_two_applications(self):
        assert iterate_map(WERNER_075, 2).a == pytest.approx(841 / 932, abs=1e-12)

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError):
            iterate_map(WERNER_075, -1)

    def test_monotone_convergence_for_werner(self):
        s = werner(0.75)
        previous = s.a
        for k in range(1, 11):
            current = iterate_map(s, k).a
            assert current > previous
            previous = current
        assert previous > 0.99
