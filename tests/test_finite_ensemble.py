import math

import numpy as np
import pytest

from belldistil import (
    BellDiagonalState,
    NotDistillableError,
    UnsuccessfulConvention,
    avg_fidelity_one_round,
    n_min,
    round_up_even,
    survivor_pmf,
    werner,
)
from belldistil.finite_ensemble import binomial_pmf, unsuccessful_fidelity

from enumeration import pattern_pmf

LOCC = UnsuccessfulConvention.LOCC_FLOOR
COND = UnsuccessfulConvention.CONDITIONAL
WERNER_075 = werner(0.75)


class TestSurvivorPmf:
    def test_two_pairs_is_a_bernoulli_trial(self):
        stats = survivor_pmf(2, WERNER_075)
        assert stats.pmf == pytest.approx([5 / 18, 13 / 18], abs=1e-15)

    def test_four_pairs_werner(self):
        stats = survivor_pmf(4, WERNER_075)
        assert stats.pmf == pytest.approx(
            [25 / 324, 130 / 324, 169 / 324], abs=1e-14
        )
        assert math.fsum(stats.pmf) == pytest.approx(1.0, abs=1e-12)

    def test_pure_state_always_survives(self):
        stats = survivor_pmf(4, BellDiagonalState(1, 0, 0, 0))
        assert stats.pmf == pytest.approx([0.0, 0.0, 1.0], abs=1e-15)

    def test_rejects_odd_or_small_n(self):
        for n in (0, 1, 3, -2):
            with pytest.raises(ValueError):
                survivor_pmf(n, WERNER_075)

    def test_matches_pattern_enumeration(self):
        rng = np.random.default_rng(11)
        for n in (2, 4, 6, 8, 10, 12):
            s = BellDiagonalState(*rng.dirichlet(np.ones(4)))
            assert survivor_pmf(n, s).pmf == pytest.approx(
                pattern_pmf(n, s), abs=1e-12
            )

    def test_lgamma_branch_matches_exact_combinatorics(self):
        m, p = 501, 0.3
        approx = binomial_pmf(m, p)
        exact = [math.comb(m, j) * p**j * (1 - p) ** (m - j) for j in range(m + 1)]
        assert np.allclose(approx, exact, rtol=1e-10, atol=1e-300)
        # Past m = 1029 the float form above overflows, so the lgamma branch
        # is the only one left; check it against integer-exact weights.
        m = 1100
        with pytest.raises(OverflowError):
            [math.comb(m, j) * p**j * (1 - p) ** (m - j) for j in range(m + 1)]
        pn, den = p.as_integer_ratio()
        qn, scale = den - pn, den**m
        exact = [math.comb(m, j) * pn**j * qn ** (m - j) / scale for j in range(m + 1)]
        assert np.allclose(binomial_pmf(m, p), exact, rtol=1e-10, atol=1e-300)


class TestAvgFidelityOneRound:
    def test_unsuccessful_term_vanishes_for_large_n(self):
        f_s = 41 / 52
        assert avg_fidelity_one_round(40, WERNER_075, LOCC) == pytest.approx(
            f_s, abs=1e-10
        )

    def test_four_pairs_locc(self):
        assert avg_fidelity_one_round(4, WERNER_075, LOCC) == pytest.approx(
            4303 / 5616, abs=1e-14
        )

    def test_pure_state_either_convention(self):
        pure = BellDiagonalState(1, 0, 0, 0)
        assert avg_fidelity_one_round(2, pure, LOCC) == 1.0
        assert avg_fidelity_one_round(2, pure, COND) == 1.0

    def test_conditional_uses_failure_fidelity(self):
        expected = (5 / 18) * 0.25 + (13 / 18) * (41 / 52)
        assert avg_fidelity_one_round(2, WERNER_075, COND) == pytest.approx(
            expected, abs=1e-14
        )
        assert unsuccessful_fidelity(WERNER_075, COND) == pytest.approx(0.25, abs=1e-14)


class TestNMin:
    def test_werner_075_locc(self):
        value = n_min(WERNER_075, LOCC)
        assert value == pytest.approx(3.14599, abs=1e-4)
        assert 2 < value < 4
        # n = 4 pairs suffice: one round does not lose fidelity on average.
        assert avg_fidelity_one_round(4, WERNER_075, LOCC) >= 0.75

    def test_approaches_two_near_purity(self):
        assert n_min(werner(0.9999), LOCC) == pytest.approx(2.0, abs=0.2)

    def test_conditional_dominates_locc(self):
        assert n_min(werner(0.51), COND) > n_min(werner(0.51), LOCC)

    def test_not_distillable(self):
        with pytest.raises(NotDistillableError):
            n_min(werner(0.4), LOCC)
        # a > 1/2 alone does not guarantee a fidelity gain either
        with pytest.raises(NotDistillableError):
            n_min(BellDiagonalState(0.6, 0.4, 0.0, 0.0), LOCC)

    def test_bracketing_on_even_sample_sizes(self):
        for a in np.linspace(0.56, 0.94, 20):
            s = werner(float(a))
            value = n_min(s, LOCC)
            ceil_even = round_up_even(value)
            floor_even = ceil_even - 2
            assert avg_fidelity_one_round(ceil_even, s, LOCC) >= s.a - 1e-12
            if floor_even >= 2:
                assert avg_fidelity_one_round(floor_even, s, LOCC) < s.a

    def test_divergence_ordering_with_growing_gap(self):
        grid = [0.55 + 0.05 * i for i in range(8)]  # 0.55 .. 0.90
        gaps = [n_min(werner(a), COND) - n_min(werner(a), LOCC) for a in grid]
        assert all(g > 0 for g in gaps)
        # the conditional penalty grows as the input approaches the boundary
        assert all(g1 > g2 for g1, g2 in zip(gaps, gaps[1:]))


class TestRoundUpEven:
    @pytest.mark.parametrize(
        "x,expected",
        [(3.146, 4), (4.0, 4), (4.0001, 6), (2.0, 2), (1.2, 2), (-3.0, 2), (5.0, 6)],
    )
    def test_values(self, x, expected):
        assert round_up_even(x) == expected
