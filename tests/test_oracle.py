import json
import tracemalloc
import warnings
from dataclasses import asdict, replace

import numpy as np
import pytest

from belldistil import BellDiagonalState, NotBellDiagonalError, distill_step, werner
from belldistil import oracle
from belldistil.bell_core import LOCC_FLOOR_COEFFS, StepOutcome
from belldistil.oracle import (
    BELL_BASIS,
    ComparisonReport,
    apply_rotation_pair,
    bell_coefficients,
    compare_with_closed_form,
    dejmps_step_full,
    embed,
    validate_density_matrix,
)
from per_state import per_state

WERNER_075 = werner(0.75)

#: A matrix on the Bell diagonal whose coefficients fail the state check:
#: one lies below ``CLAMP_FLOOR``.
BELOW_FLOOR = oracle._embed(np.array([[0.5, 0.5 + 1e-9, 0.0, -1e-9]]))[0]


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

# RotationReport.max_deviation.hex(); the mirrored convention gives the same bits.
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


def _pair_rotation(sign: int) -> np.ndarray:
    """The pair pre-rotation built from scratch: x-rotation by sign * pi/2
    for Alice and the opposite for Bob; the oracle's convention is +1."""
    def rx(theta):
        c, s = np.cos(theta / 2.0), np.sin(theta / 2.0)
        return np.array([[c, -1j * s], [-1j * s, c]], dtype=complex)

    theta = sign * np.pi / 2.0
    return np.kron(rx(theta), rx(-theta))


def _step_gate(u: np.ndarray) -> np.ndarray:
    """Pre-rotation ``u`` on both pairs followed by the two bilateral CNOTs."""
    return oracle._cnot_16(0, 2) @ oracle._cnot_16(1, 3) @ np.kron(u, u)


def _projectors() -> tuple[np.ndarray, np.ndarray]:
    """Projectors onto equal/unequal outcomes of qubits 2_A, 2_B."""
    equal = np.zeros((4, 4), dtype=complex)
    unequal = np.zeros((4, 4), dtype=complex)
    for b in range(4):
        (equal if b in (0b00, 0b11) else unequal)[b, b] = 1.0
    eye4 = np.eye(4, dtype=complex)
    return np.kron(eye4, equal), np.kron(eye4, unequal)


def _use_convention(monkeypatch, sign: int) -> None:
    """Run the oracle with Alice's rotation angle at sign * pi/2: its own
    gates for +1, the mirrored ones built here for -1.  The swap of b and d
    is its own inverse, so both conventions must pass every check."""
    if sign == -1:
        u = _pair_rotation(-1)
        monkeypatch.setattr(oracle, "_PAIR_ROTATION", u)
        monkeypatch.setattr(oracle, "_STEP_GATE", _step_gate(u))


def _count_eigvalsh(monkeypatch) -> list[int]:
    """Route ``np.linalg.eigvalsh`` through a wrapper that appends the
    stack size of each call to the list returned."""
    calls = []
    eigvalsh = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh",
                        lambda m: calls.append(len(oracle._stacked(m))) or eigvalsh(m))
    return calls


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

    @pytest.mark.parametrize("check", [validate_density_matrix, dejmps_step_full])
    def test_rejects_nan_by_a_named_check(self, check):
        # NaN compares false, so a check written with > would let it through
        # to eigvalsh, which fails with "Eigenvalues did not converge"
        with pytest.raises(ValueError, match="^matrix is not Hermitian$"):
            check(np.full((4, 4), np.nan, dtype=complex))

    @pytest.mark.parametrize("check", [validate_density_matrix, dejmps_step_full])
    def test_rejects_one_nan_sample_in_a_stack(self, check):
        stack = embed(_random_stack(17))
        stack[9, 2, 2] = np.nan
        with pytest.raises(ValueError, match="^matrix is not Hermitian$"):
            check(stack)

    def test_bell_diagonal_stacks_never_reach_the_eigensolver(self, monkeypatch):
        # every embedding passes the disc test: row 0 reaches down to
        # (a + d)/2 - |a - d|/2 = min(a, d) >= 0
        def eigvalsh(m):
            raise AssertionError("eigvalsh called")

        monkeypatch.setattr(np.linalg, "eigvalsh", eigvalsh)
        states = _random_stack(18, 300)
        states[0] = BellDiagonalState(1, 0, 0, 0)
        states[1] = BellDiagonalState(0, 0, 0, 1)
        dejmps_step_full(embed(states))
        assert compare_with_closed_form(400, 0).max_deviation < 1e-10

    def test_crossing_discs_go_to_the_eigensolver(self, monkeypatch):
        # a pure state with every entry 1/4: each disc reaches down to -1/2
        calls = _count_eigvalsh(monkeypatch)
        validate_density_matrix(np.full((4, 4), 0.25, dtype=complex))
        assert calls == [1]

    @pytest.mark.parametrize("low, accepted", [(-2e-10, False), (-5e-11, True)])
    def test_tolerance_edge_on_both_paths(self, low, accepted, monkeypatch):
        calls = _count_eigvalsh(monkeypatch)
        diagonal = np.diag([1.0 - low, low, 0.0, 0.0]).astype(complex)
        # every entry of the unitary is +-1/2, so every disc of the rotated
        # matrix reaches down to about -1/2 and the eigensolver decides
        hadamard = np.kron([[1, 1], [1, -1]], [[1, 1], [1, -1]]) / 2.0
        dense = hadamard @ diagonal @ hadamard
        for m, eigensolver in ((diagonal, not accepted), (dense, True)):
            calls.clear()
            if accepted:
                validate_density_matrix(m)
            else:
                with pytest.raises(ValueError, match="^matrix is not positive semidefinite$"):
                    validate_density_matrix(m)
            assert calls == ([1] if eigensolver else [])

    @pytest.mark.parametrize("shape", [(16, 16), (2, 16, 16), (4,), (2, 2, 4, 4)])
    def test_rejects_other_shapes(self, shape):
        m = np.zeros(shape, dtype=complex)
        with pytest.raises(ValueError) as err:
            validate_density_matrix(m)
        assert str(err.value) == (
            f"expected a 4x4 matrix or a stack of them, got shape {shape}")


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
        report = compare_with_closed_form(samples=1000, seed=2).rotation
        assert report.passed
        assert report.max_deviation < 1e-12

    def test_both_angle_conventions_work(self, monkeypatch):
        # the swap is its own inverse, so the mirrored convention passes too
        _use_convention(monkeypatch, -1)
        assert compare_with_closed_form(samples=100, seed=3).rotation.passed

    def test_report_of_a_numpy_count_dumps_to_json(self):
        report = compare_with_closed_form(np.int64(5))
        assert json.loads(json.dumps(asdict(report)))["samples"] == 5


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
        fresh_u = _pair_rotation(sign)
        # the module holds one convention, Alice at +pi/2, and not its mirror
        assert (oracle._PAIR_ROTATION.tobytes() == fresh_u.tobytes()) is (sign == 1)
        assert (oracle._STEP_GATE.tobytes()
                == _step_gate(fresh_u).tobytes()) is (sign == 1)
        if sign == -1:
            return
        equal, unequal = _projectors()
        assert BELL_BASIS.flags.writeable is False  # its values: TestBellBasis
        built = {
            "_OFF_DIAGONAL": 1.0 - np.eye(4),
            "_BELL_BASIS_CONJ": BELL_BASIS.conj(),
            "_LOCC_FLOOR": embed(BellDiagonalState(0.5, 0.5, 0.0, 0.0)),
            "_PAIR_ROTATION": fresh_u,
            "_STEP_GATE": _step_gate(fresh_u),
            "_KEEP_EQUAL": equal.diagonal().copy(),
            "_KEEP_UNEQUAL": unequal.diagonal().copy(),
        }
        for name, want in built.items():
            got = getattr(oracle, name)
            assert got.flags.writeable is False, name
            assert got.dtype == want.dtype and got.shape == want.shape, name
            assert got.tobytes() == want.tobytes(), name
        with pytest.raises(ValueError):
            oracle._STEP_GATE[0, 0] = 0.0

    @pytest.mark.parametrize("sign", [1, -1])
    def test_repeated_steps_give_the_same_bits(self, sign, monkeypatch):
        # a step leaves the shared gates as it found them
        _use_convention(monkeypatch, sign)
        rng = np.random.default_rng(6)
        for _ in range(20):
            m = embed(BellDiagonalState(*rng.dirichlet(np.ones(4))))
            first, second = (dejmps_step_full(m) for _ in range(2))
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

        report = compare_with_closed_form(samples=20, seed=6, step_fn=per_state(corrupted))
        assert isinstance(report, ComparisonReport)
        assert report.max_deviation > 1e-3


class TestPinnedBits:
    @pytest.mark.parametrize("samples, seed", sorted(COMPARISON_PINS))
    def test_comparison_report(self, samples, seed):
        report = compare_with_closed_form(samples, seed)
        assert report.samples == samples
        assert _comparison_bits(report) == COMPARISON_PINS[samples, seed]

    @pytest.mark.parametrize("samples, seed", sorted(ROTATION_PINS))
    @pytest.mark.parametrize("sign", [1, -1])
    def test_rotation_report(self, samples, seed, sign, monkeypatch):
        # the rotation is checked in the comparison's pass: both keep their
        # bits under both conventions
        _use_convention(monkeypatch, sign)
        comparison = compare_with_closed_form(samples, seed)
        report = comparison.rotation
        assert report.passed and report.samples == samples
        assert float(report.max_deviation).hex() == ROTATION_PINS[samples, seed]
        assert _comparison_bits(comparison) == COMPARISON_PINS[samples, seed]

    def test_rotation_cut_inside_a_stack(self, monkeypatch):
        # at 1009 samples the cut at 1000 falls inside a stack, not at its end
        stack = oracle._ORACLE_STACK
        whole, cut = divmod(oracle._ROTATION_SAMPLES, stack)
        assert 0 < cut
        sizes = []
        rotate = oracle.apply_rotation_pair
        monkeypatch.setattr(oracle, "apply_rotation_pair",
                            lambda m: sizes.append(len(m)) or rotate(m))
        report = compare_with_closed_form(1009, 3).rotation
        assert sizes == [stack] * whole + [cut]
        assert report.samples == 1000
        assert report == compare_with_closed_form(1000, 3).rotation

    def test_report_does_not_depend_on_the_stack_size(self, monkeypatch):
        reports = []
        for stack in (1, 7, 16, 64, 1009):
            monkeypatch.setattr(oracle, "_ORACLE_STACK", stack)
            report = compare_with_closed_form(1009, 3)
            reports.append((_comparison_bits(report), report.rotation.passed,
                            report.rotation.max_deviation.hex(), report.rotation.samples))
        assert reports == [reports[0]] * 5

    def test_step_does_not_depend_on_the_sub_stack_size(self, monkeypatch):
        # 1009 is prime: every size below it leaves a partial last sub-stack
        states = _random_stack(17, 1009)
        states[0] = states[1008] = BellDiagonalState(1, 0, 0, 0)  # failure unreachable
        stack = embed(states)
        outcomes, reports = [], []
        for step_stack in (1, 7, 32, 1009):
            monkeypatch.setattr(oracle, "_STEP_STACK", step_stack)
            full = dejmps_step_full(stack)
            outcomes.append([(x.dtype, x.shape, x.tobytes()) for x in (
                full.p_success, full.success_m, full.failure_m, full.failure_reachable)])
            report = compare_with_closed_form(1009, 3)
            reports.append((_comparison_bits(report), report.rotation.max_deviation.hex()))
        assert outcomes == [outcomes[0]] * 4
        assert reports == [reports[0]] * 4
        assert list(full.failure_reachable).count(False) == 2

    def test_single_matrix_and_empty_stack(self):
        single = dejmps_step_full(embed(WERNER_075))
        assert type(single.p_success) is float
        assert type(single.failure_reachable) is bool
        assert single.success_m.shape == single.failure_m.shape == (4, 4)
        empty = dejmps_step_full(np.zeros((0, 4, 4), dtype=complex))
        assert [(x.dtype, x.shape) for x in (empty.p_success, empty.success_m,
                                             empty.failure_m, empty.failure_reachable)] == [
            (np.float64, (0,)), (complex, (0, 4, 4)), (complex, (0, 4, 4)), (bool, (0,))]


def _comparison_bits(report: ComparisonReport) -> tuple:
    """float.hex() of the fields that COMPARISON_PINS holds."""
    return (report.max_p_deviation.hex(), report.max_success_deviation.hex(),
            report.max_failure_deviation.hex(),
            tuple(float(x).hex() for x in report.worst_state))


def _random_stack(seed: int, k: int = 16) -> list[BellDiagonalState]:
    rng = np.random.default_rng(seed)
    return [BellDiagonalState(*row) for row in rng.dirichlet(np.ones(4), size=k)]


class TestStacks:
    @pytest.mark.parametrize("sign", [1, -1])
    def test_stack_equals_single_calls_bytewise(self, sign, monkeypatch):
        _use_convention(monkeypatch, sign)
        states = _random_stack(10)
        states[3] = states[11] = BellDiagonalState(1, 0, 0, 0)  # failure unreachable
        stack = embed(states)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            stacked = dejmps_step_full(stack)
        assert list(stacked.failure_reachable).count(False) == 2
        for i, s in enumerate(states):
            m = embed(s)
            assert stack[i].tobytes() == m.tobytes()
            single = dejmps_step_full(m)
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

    def test_plain_numbers_in_messages(self):
        # Python numbers, not numpy reprs, for one matrix and for a stack
        phi_plus = np.outer(BELL_BASIS[0], BELL_BASIS[0].conj())
        single_trace = np.eye(4, dtype=complex)
        single_off = np.zeros((4, 4), dtype=complex)
        single_off[0, 0] = 1.0  # |00><00| mixes Phi+ and Phi-
        single_imag = embed(WERNER_075) + 1e-6j * phi_plus
        single_state = embed(WERNER_075) * 1.1  # on the diagonal, no state
        stack_trace, stack_off, stack_imag, stack_state = (
            embed(_random_stack(seed)) for seed in (11, 12, 13, 15))
        stack_trace[5] *= 1.1
        stack_off[7, 0, 0] += 0.01
        stack_off[7, 3, 3] -= 0.01
        stack_imag[4] += 2.5e-9j * phi_plus
        phi_minus = np.outer(BELL_BASIS[3], BELL_BASIS[3].conj())
        stack_state[6] = (1 + 1e-9) * phi_plus - 1e-9 * phi_minus
        stack_state[10] *= 1.1
        cases = [
            (validate_density_matrix, single_trace, "trace is (4+0j), expected 1"),
            (validate_density_matrix, stack_trace,
             "trace is (1.0999999999999999+0j), expected 1"),
            (bell_coefficients, single_off,
             "off-diagonal Bell element (0.4999999999999999+0j) at (0, 3) exceeds 1e-10"),
            (bell_coefficients, stack_off,
             "off-diagonal Bell element (0.010000000000000016+0j) at (0, 3) exceeds 1e-10"),
            (bell_coefficients, single_imag,
             "imaginary residue 9.999999999999995e-07 in Bell coefficients"),
            (bell_coefficients, stack_imag,
             "imaginary residue 2.4999999999999992e-09 in Bell coefficients"),
            (bell_coefficients, single_state,
             "coefficients sum to 1.0999999999999996, expected 1"),
            (bell_coefficients, stack_state,
             "negative coefficient -1.0000000393228505e-09 in "
             "(1.0000000009999996, 0.0, 0.0, -1.0000000393228505e-09)"),
        ]
        for check, m, message in cases:
            with pytest.raises(ValueError) as err:
                check(m)
            assert str(err.value) == message

    def test_plain_numbers_in_results(self):
        m = embed(WERNER_075)
        for state in (bell_coefficients(m), *bell_coefficients(embed(_random_stack(16)))):
            assert [type(x) for x in state.as_tuple()] == [float] * 4
        full = dejmps_step_full(m)
        assert type(full.p_success) is float
        assert type(full.failure_reachable) is bool

    def test_comparison_report_dumps_to_json(self):
        report = compare_with_closed_form(20, 0)
        deviations = [report.max_p_deviation, report.max_success_deviation,
                      report.max_failure_deviation, report.rotation.max_deviation]
        assert [type(x) for x in deviations] == [float] * 4
        assert type(report.rotation.passed) is bool
        dumped = json.loads(json.dumps(asdict(report)))
        assert dumped["max_p_deviation"] == report.max_p_deviation
        assert dumped["rotation"] == asdict(report.rotation)

    def test_memory_does_not_grow_with_samples(self):
        compare_with_closed_form(20, 0)  # warms up numpy
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


def reference_sandwich(left, m, right):
    """The stacked matmul that ``oracle._sandwich`` replaced."""
    return left @ m @ right


class TestSandwich:
    @pytest.mark.parametrize("k", [0, 1, 7, 256])
    @pytest.mark.parametrize("sign", [1, -1])
    def test_matches_the_stacked_matmul_bytewise(self, k, sign, monkeypatch):
        _use_convention(monkeypatch, sign)
        rng = np.random.default_rng(k)
        dense = rng.normal(size=(k, 4, 4)) + 1j * rng.normal(size=(k, 4, 4))
        bell = embed(_random_stack(k, k)) if k else np.zeros((0, 4, 4), dtype=complex)
        u = oracle._PAIR_ROTATION
        pairs = ((u, u.conj().T), (oracle._BELL_BASIS_CONJ, BELL_BASIS.T))
        for m in (dense, bell, apply_rotation_pair(bell)):
            for left, right in pairs:
                got = oracle._sandwich(left, m, right)
                want = reference_sandwich(left, m, right)
                assert (got.dtype, got.shape) == (want.dtype, want.shape)
                assert got.tobytes() == want.tobytes()
        if k:
            single = apply_rotation_pair(bell[0])
            assert single.shape == (4, 4)
            assert single.tobytes() == reference_sandwich(u, bell[0], u.conj().T).tobytes()


class TestSlicedBranch:
    @pytest.mark.parametrize("seed", range(24))
    @pytest.mark.parametrize("k", [1, 16])
    @pytest.mark.parametrize("sign", [1, -1])
    def test_matches_the_projector_form_bytewise(self, seed, k, sign, monkeypatch):
        _use_convention(monkeypatch, sign)
        states = _random_stack(100 + seed, k)
        if seed % 3 == 0:  # failure unreachable in some rows
            states[0] = BellDiagonalState(1, 0, 0, 0)
            states[k // 2] = BellDiagonalState(1, 0, 0, 0)
        gate = oracle._STEP_GATE
        rho = gate @ oracle._kron_with_itself(embed(states)) @ gate.conj().T
        for keep, proj in zip((oracle._KEEP_EQUAL, oracle._KEEP_UNEQUAL), _projectors()):
            got = oracle._branch(rho, keep)
            want = reference_branch(rho, proj)
            assert [x.dtype for x in got] == [x.dtype for x in want]
            assert [x.tobytes() for x in got] == [x.tobytes() for x in want]
        if seed % 3 == 0:  # the failure branch is the second
            assert (~got[2]).sum() == len({0, k // 2})


def _counting_step(change):
    """``distill_step`` that records each state and lets ``change`` edit the
    outcome of call i; returns its stack form and the list of states seen."""
    seen = []

    def step(s):
        seen.append(s.as_tuple())
        return change(len(seen) - 1, distill_step(s))

    return per_state(step), seen


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

    def test_off_diagonal_read_is_infinite_in_its_row_only(self, monkeypatch):
        states = _random_stack(14)
        stack = embed(states)
        stack[9, 0, 0] += 0.01  # off the Bell diagonal, trace kept
        stack[9, 3, 3] -= 0.01
        dev = oracle._deviation(stack, [s.as_tuple() for s in states])
        assert dev[9] == np.inf
        assert np.delete(dev, 9).max() < 1e-15

        step_full = oracle.dejmps_step_full

        def corrupted(m):
            full = step_full(m)
            success_m = full.success_m.copy()
            success_m[9] = stack[9]
            return replace(full, success_m=success_m)

        monkeypatch.setattr(oracle, "dejmps_step_full", corrupted)
        step, seen = _counting_step(lambda i, out: out)
        report = compare_with_closed_form(16, 4, step_fn=step)
        assert report.max_success_deviation == np.inf
        assert report.worst_state == seen[9]
        assert report.max_p_deviation < 1e-14 and report.max_failure_deviation < 1e-14

    @pytest.mark.parametrize("read", ["sum 1.1", "below the clamp floor", "NaN", "zero"])
    def test_read_that_is_no_state_is_infinite_in_its_row_only(self, read):
        states = _random_stack(14)
        stack = embed(states)
        stack[9] = {
            "sum 1.1": 1.1 * stack[9],
            "below the clamp floor": BELOW_FLOOR,
            "NaN": np.nan,
            "zero": 0.0,
        }[read]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            dev = oracle._deviation(stack, [s.as_tuple() for s in states])
        assert dev[9] == np.inf
        assert np.delete(dev, 9).max() < 1e-15

    @pytest.mark.parametrize("branch", ["success_m", "failure_m"])
    def test_read_that_is_no_state_exits_one(self, capsys, monkeypatch, branch):
        from belldistil import cli

        step_full = oracle.dejmps_step_full

        def corrupted(m):
            full = step_full(m)
            read = getattr(full, branch).copy()
            if len(read) > 9:  # sample 9, in the first stack
                read[9] = 1.1 * read[9] if branch == "success_m" else BELOW_FLOOR
            return replace(full, **{branch: read})

        step, seen = _counting_step(lambda i, out: out)
        monkeypatch.setattr(oracle, "dejmps_step_full", corrupted)
        monkeypatch.setattr(oracle, "compare_with_closed_form",
                            lambda samples, seed: compare_with_closed_form(
                                samples, seed, step_fn=step))
        assert cli.main(["verify-oracle", "--samples", "20"]) == 1
        out = capsys.readouterr().out
        assert f"max {branch[:-2]} deviation inf\n" in out
        assert out.endswith(f"verdict               FAIL (worst state {seen[9]})\n")

    def test_failure_unreachable_on_both_sides_reads_the_locc_floor(self, monkeypatch):
        coeffs = np.tile(LOCC_FLOOR_COEFFS, (16, 1))  # q = 2(a+b)(c+d) = 0
        assert not distill_step(BellDiagonalState(*LOCC_FLOOR_COEFFS)).failure_reachable
        assert not dejmps_step_full(oracle._embed(coeffs)).failure_reachable.any()
        monkeypatch.setattr(oracle, "_random_states",
                            lambda samples, seed: iter([(coeffs, oracle._embed(coeffs))]))
        report = compare_with_closed_form(16, 0)
        floor = oracle._deviation(oracle._LOCC_FLOOR, LOCC_FLOOR_COEFFS)[0]
        assert report.max_failure_deviation == floor < 1e-15

    def test_wrong_pre_rotation_exits_one(self, capsys, monkeypatch):
        from belldistil import cli

        # Alice and Bob at +-pi/4: the step and the rotation leave the Bell diagonal
        u = np.kron(oracle._rx(np.pi / 4.0), oracle._rx(-np.pi / 4.0))
        monkeypatch.setattr(oracle, "_PAIR_ROTATION", u)
        monkeypatch.setattr(oracle, "_STEP_GATE", _step_gate(u))
        assert cli.main(["verify-oracle", "--samples", "20"]) == 1
        out = capsys.readouterr().out
        worst = compare_with_closed_form(20, 0).worst_state
        assert out.startswith("rotation convention   FAIL (max deviation inf)\n")
        assert "max success deviation inf\n" in out
        assert out.endswith(f"verdict               FAIL (worst state {worst})\n")

    def test_zero_deviation_keeps_the_default_worst_state(self):
        report = compare_with_closed_form(40, 3, step_fn=per_state(_oracle_step))
        assert report.max_deviation == 0.0
        assert report.worst_state == (1.0, 0.0, 0.0, 0.0)
