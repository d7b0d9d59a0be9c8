import math
import re
import sys

import numpy as np
import pytest

from belldistil import (
    BellDiagonalState,
    NotDistillableError,
    ResourceCapError,
    UnsuccessfulConvention,
    avg_fidelity_one_round,
    n_min,
    round_up_even,
    survivor_pmf,
    werner,
)
from belldistil import finite_ensemble
from belldistil._kernels import log_each
from belldistil.bell_core import _failure_coeffs
from belldistil.finite_ensemble import (
    _fallback_fidelity,
    binomial_pmf,
    unsuccessful_fidelity,
)
from belldistil.iterative_scheme import EXACT_N_CAP

from enumeration import pattern_pmf

LOCC = UnsuccessfulConvention.LOCC_FLOOR
COND = UnsuccessfulConvention.CONDITIONAL
WERNER_075 = werner(0.75)


@pytest.mark.parametrize(
    "call, args",
    [(survivor_pmf, (WERNER_075,)), (avg_fidelity_one_round, (WERNER_075, LOCC))],
    ids=["survivor_pmf", "avg_fidelity_one_round"],
)
def test_sample_size_is_an_integer(call, args):
    # repr shows the bits of each float and any numpy scalar type
    want = repr(call(4, *args))
    for kind in (np.int64, np.int32, np.uint64):
        assert repr(call(kind(4), *args)) == want, kind
    for bad in (4.0, np.float64(4), "4", None):
        with pytest.raises(TypeError):
            call(bad, *args)


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

    def test_capped_at_the_exact_cap(self, monkeypatch):
        assert math.fsum(survivor_pmf(EXACT_N_CAP, WERNER_075).pmf) == pytest.approx(
            1.0, abs=1e-12)

        def reached(*args):
            raise AssertionError("the distribution was computed")

        monkeypatch.setattr(finite_ensemble, "binomial_pmf", reached)
        with pytest.raises(ValueError, match="positive even count"):
            survivor_pmf(EXACT_N_CAP + 1, WERNER_075)
        with pytest.raises(ResourceCapError) as exc:
            survivor_pmf(EXACT_N_CAP + 2, WERNER_075)
        assert str(exc.value) == f"survivor distribution capped at n = {EXACT_N_CAP}"

    @pytest.mark.parametrize("m", [3, 600])
    def test_binomial_pmf_rejects_p_outside_the_unit_interval(self, m):
        for p in (-0.1, 1.5, math.nan):
            with pytest.raises(ValueError, match="probability p must be in"):
                binomial_pmf(m, p)
        assert binomial_pmf(m, 0.0) == [1.0] + [0.0] * m
        assert binomial_pmf(m, 1.0) == [0.0] * m + [1.0]

    def test_matches_pattern_enumeration(self):
        rng = np.random.default_rng(11)
        for n in (2, 4, 6, 8, 10, 12):
            s = BellDiagonalState(*rng.dirichlet(np.ones(4)))
            assert survivor_pmf(n, s).pmf == pytest.approx(
                pattern_pmf(n, s), abs=1e-12
            )

    @pytest.mark.parametrize("m", [1, 100, 500, 501, 2048])
    @pytest.mark.parametrize("p", [2**-10, 0.5, 1 - 2**-10])
    def test_matches_exact_combinatorics(self, m, p):
        # weight j is comb(m, j) * pn**j * qn**(m - j) / den**m, and 1 - p
        # is exact in floats for these p
        pn, den = p.as_integer_ratio()
        qn, scale = den - pn, den**m
        floor_n, floor_d = sys.float_info.min.as_integer_ratio()
        q_powers = [1]
        for _ in range(m):
            q_powers.append(q_powers[-1] * qn)
        p_power, checked = 1, 0
        for j, got in enumerate(binomial_pmf(m, p)):
            exact = math.comb(m, j) * p_power * q_powers[m - j]
            p_power *= pn
            if exact * floor_d <= floor_n * scale:  # at most DBL_MIN
                continue
            # each of the m passes costs at most two roundings:
            # |got - exact| <= m * 2**-52 * exact, in integers
            got_n, got_d = got.as_integer_ratio()
            assert abs(got_n * scale - exact * got_d) << 52 <= m * exact * got_d, j
            checked += 1
        assert checked >= min(m + 1, 100)


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
        message = "fidelity {} cannot be increased by a distillation step"
        with pytest.raises(NotDistillableError,
                           match=re.escape(message.format("0.4000000000000001"))):
            n_min(werner(0.4), LOCC)
        # a > 1/2 alone does not guarantee a fidelity gain either
        with pytest.raises(NotDistillableError, match=re.escape(message.format("0.6"))):
            n_min(BellDiagonalState(0.6, 0.4, 0.0, 0.0), LOCC)

    def test_fallback_fidelity_is_at_most_one_half(self):
        # F_u = a'/(((a' + b') + c') + d') with c' == a' bit for bit, so the
        # total is at least 2a' in floating point too: F_u <= 1/2 < a for
        # every state that n_min accepts, and its fallback never meets the
        # target
        rng = np.random.default_rng(22)
        near_half = rng.random((4, 100_000)) * [[1e-6], [1e-8], [0.0], [1e-8]]
        near_half[0] += 0.5
        near_half[2] = 1.0 - near_half[0] - near_half[1] - near_half[3]
        stacks = [rng.dirichlet(np.full(4, alpha), size=100_000).T
                  for alpha in (1.0, 0.05, 5.0)] + [near_half]
        for stack in stacks:
            assert _fallback_fidelity(stack, COND).max() <= 0.5
            assert _fallback_fidelity(stack, LOCC) == 0.5
        # no Psi- or Phi- weight: the failure state is an even mix of Phi+
        # and Psi+; an unreachable failure reads the LOCC floor
        a = np.linspace(0.0, 1.0, 1001)
        zero = np.zeros_like(a)
        even_mix = np.array([a, zero, 1.0 - a, zero])
        assert (_fallback_fidelity(even_mix, COND) == 0.5).all()
        for unreachable in [(1, 0, 0, 0), (0.6, 0.4, 0, 0), (0, 0, 0.3, 0.7)]:
            assert not _failure_coeffs(*unreachable)[1]
            assert unsuccessful_fidelity(BellDiagonalState(*unreachable), COND) == 0.5

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


class TestLogEach:
    """``n_min`` takes its logarithms with ``log_each``, which must give the
    bits of ``math.log`` and raise where it does."""

    def test_bits_of_math_log(self):
        rng = np.random.default_rng(26)
        # bit patterns of positive finite doubles, subnormals among them
        x = np.concatenate([
            rng.integers(1, 0x7FF0000000000000, 100_000, dtype=np.uint64).view(np.float64),
            rng.integers(1, 2**52, 1_000, dtype=np.uint64).view(np.float64),
            [5e-324, 2.225073858507201e-308, 2.2250738585072014e-308, 1.0,
             np.nextafter(1.0, 0.0), np.nextafter(1.0, 2.0), 1.7976931348623157e308,
             math.inf],
        ])
        out = np.empty_like(x)
        log_each(x, out)
        assert out.tobytes() == np.array([math.log(v) for v in x.tolist()]).tobytes()

    @pytest.mark.parametrize("bad", [0.0, -0.0, -5e-324, -1.0, -math.inf])
    def test_raises_where_math_log_does(self, bad):
        with pytest.raises(ValueError):
            math.log(bad)
        out = np.full(3, 7.0)
        with pytest.raises(ValueError, match="^math domain error$"):
            log_each(np.array([2.0, bad, 3.0]), out)
        assert (out == 7.0).all()

    def test_nan_passes_through(self):
        out = np.empty(3)
        log_each(np.array([1.0, math.nan, math.e]), out)
        assert out[0] == 0.0 and math.isnan(out[1]) and out[2] == math.log(math.e)

    def test_rejects_bad_input(self):
        x = np.array([1.0, 2.0, 3.0])
        # out is a view between sentinels, so a stray write shows
        out_base = np.full(5, -1.0)
        out = out_base[1:-1]
        read_only = np.empty(3)
        read_only.flags.writeable = False
        bad = {
            "float32 x": (ValueError, dict(x=x.astype(np.float32))),
            "int64 x": (ValueError, dict(x=x.astype(np.int64))),
            "2-d x": (ValueError, dict(x=x[None])),
            "non-contiguous x": (ValueError, dict(x=np.arange(1.0, 7.0)[::2])),
            "a list as x": (TypeError, dict(x=x.tolist())),
            "float32 out": (ValueError, dict(out=np.empty(3, dtype=np.float32))),
            "2-d out": (ValueError, dict(out=np.empty((1, 3)))),
            "non-contiguous out": (ValueError, dict(out=np.empty(6)[::2])),
            "read-only out": (ValueError, dict(out=read_only)),
            "out shorter than x": (ValueError, dict(out=out_base[1:-2])),
            "out longer than x": (ValueError, dict(out=out_base[1:])),
        }
        for name, (error, override) in bad.items():
            args = dict(x=x, out=out)
            args.update(override)
            with pytest.raises(error):
                log_each(**args)
            assert (out_base == -1.0).all(), name
        shared = np.arange(1.0, 6.0)
        with pytest.raises(ValueError, match="overlap"):
            log_each(shared[:3], shared[1:4])
        assert (shared == np.arange(1.0, 6.0)).all()


class TestRoundUpEven:
    @pytest.mark.parametrize(
        "x,expected",
        [(3.146, 4), (4.0, 4), (4.0001, 6), (2.0, 2), (1.2, 2), (-3.0, 2), (5.0, 6)],
    )
    def test_values(self, x, expected):
        assert round_up_even(x) == expected
