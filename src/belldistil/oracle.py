"""First-principles verification of the closed-form step maps.

Two pairs are simulated as an explicit 16x16 density operator through the
full protocol step: local pre-rotations on all four qubits, bilateral
CNOTs, projective measurement of the target pair, and post-selection.  The
recovered success probability and branch states must reproduce the
coefficient maps of :mod:`belldistil.bell_core` exactly; nothing in this
module reuses those maps.

Qubit ordering in the 16-dimensional space is (1_A, 1_B, 2_A, 2_B); each
pair is Alice-major (A, B) with computational basis order 00, 01, 10, 11.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bell_core import BellDiagonalState
from .errors import NotBellDiagonalError

HERMITIAN_ATOL = 1e-12
TRACE_ATOL = 1e-12
PSD_ATOL = 1e-10
BELL_OFFDIAG_ATOL = 1e-10
IMAG_RESIDUE_ATOL = 1e-12
UNREACHABLE_TRACE_ATOL = 1e-14

_SQRT_HALF = 1.0 / np.sqrt(2.0)

#: Bell vectors as rows, in the global coefficient order (Phi+, Psi-, Psi+, Phi-).
BELL_BASIS = np.array(
    [
        [_SQRT_HALF, 0.0, 0.0, _SQRT_HALF],
        [0.0, _SQRT_HALF, -_SQRT_HALF, 0.0],
        [0.0, _SQRT_HALF, _SQRT_HALF, 0.0],
        [_SQRT_HALF, 0.0, 0.0, -_SQRT_HALF],
    ],
    dtype=complex,
)


def validate_density_matrix(m: np.ndarray) -> None:
    """Check Hermiticity, unit trace and positive semidefiniteness."""
    if m.shape not in {(4, 4), (16, 16)}:
        raise ValueError(f"expected a 4x4 or 16x16 matrix, got shape {m.shape}")
    if np.max(np.abs(m - m.conj().T)) > HERMITIAN_ATOL:
        raise ValueError("matrix is not Hermitian")
    if abs(np.trace(m) - 1.0) > TRACE_ATOL:
        raise ValueError(f"trace is {np.trace(m)!r}, expected 1")
    if np.linalg.eigvalsh(m).min() < -PSD_ATOL:
        raise ValueError("matrix is not positive semidefinite")


def embed(s: BellDiagonalState) -> np.ndarray:
    """Bell-diagonal 4x4 density matrix with the coefficients of ``s``."""
    m = np.zeros((4, 4), dtype=complex)
    for coeff, vec in zip(s.as_tuple(), BELL_BASIS):
        m += coeff * np.outer(vec, vec.conj())
    return m


def bell_coefficients(m: np.ndarray) -> BellDiagonalState:
    """Inverse of :func:`embed`: read the four Bell-projector coefficients.

    Rejects matrices with Bell-basis off-diagonal elements above
    ``BELL_OFFDIAG_ATOL`` or with non-negligible imaginary diagonal parts.
    """
    in_bell = BELL_BASIS.conj() @ m @ BELL_BASIS.T
    off = in_bell - np.diag(np.diag(in_bell))
    worst = np.unravel_index(np.argmax(np.abs(off)), off.shape)
    if np.abs(off[worst]) > BELL_OFFDIAG_ATOL:
        raise NotBellDiagonalError(
            f"off-diagonal Bell element {off[worst]!r} at {worst} "
            f"exceeds {BELL_OFFDIAG_ATOL}"
        )
    diag = np.diag(in_bell)
    if np.max(np.abs(diag.imag)) > IMAG_RESIDUE_ATOL:
        raise NotBellDiagonalError(
            f"imaginary residue {np.max(np.abs(diag.imag))!r} in Bell coefficients"
        )
    return BellDiagonalState(*diag.real)


def _pair_rotation(angle_sign: int) -> np.ndarray:
    """Pair pre-rotation: x-rotation by +pi/2 * sign for Alice, the opposite for Bob."""
    def rx(theta: float) -> np.ndarray:
        c, s = np.cos(theta / 2.0), np.sin(theta / 2.0)
        return np.array([[c, -1j * s], [-1j * s, c]], dtype=complex)

    theta = angle_sign * np.pi / 2.0
    return np.kron(rx(theta), rx(-theta))


def _cnot_16(control: int, target: int) -> np.ndarray:
    """CNOT between two of the four qubits, as a 16x16 permutation matrix."""
    gate = np.zeros((16, 16), dtype=complex)
    for idx in range(16):
        bits = [(idx >> (3 - q)) & 1 for q in range(4)]
        bits[target] ^= bits[control]
        dst = sum(bit << (3 - q) for q, bit in enumerate(bits))
        gate[dst, idx] = 1.0
    return gate


def _measurement_projectors() -> tuple[np.ndarray, np.ndarray]:
    """Projectors onto equal/unequal computational outcomes of qubits 2_A, 2_B."""
    equal = np.zeros((4, 4), dtype=complex)
    unequal = np.zeros((4, 4), dtype=complex)
    for b in range(4):
        (equal if b in (0b00, 0b11) else unequal)[b, b] = 1.0
    eye4 = np.eye(4, dtype=complex)
    return np.kron(eye4, equal), np.kron(eye4, unequal)


def _trace_out_pair2(m16: np.ndarray) -> np.ndarray:
    """Partial trace over qubits 2_A, 2_B (the trailing 4-dim factor)."""
    return m16.reshape(4, 4, 4, 4).trace(axis1=1, axis2=3)


@dataclass(frozen=True)
class FullStepOutcome:
    """Density-matrix analogue of :class:`belldistil.bell_core.StepOutcome`."""

    p_success: float
    success_m: np.ndarray
    failure_m: np.ndarray
    failure_reachable: bool = True


def dejmps_step_full(m: np.ndarray, angle_sign: int = 1) -> FullStepOutcome:
    """One full protocol step on two copies of the 4x4 state ``m``.

    ``angle_sign`` selects the rotation convention; either sign is
    admissible as long as :func:`verify_rotation_choice` passes for it.
    """
    validate_density_matrix(m)
    u = _pair_rotation(angle_sign)
    rot16 = np.kron(u, u)
    gate = _cnot_16(0, 2) @ _cnot_16(1, 3) @ rot16
    rho = gate @ np.kron(m, m) @ gate.conj().T

    proj_equal, proj_unequal = _measurement_projectors()
    branches = []
    for proj in (proj_equal, proj_unequal):
        conditioned = proj @ rho @ proj
        weight = np.trace(conditioned).real
        reachable = weight >= UNREACHABLE_TRACE_ATOL
        if reachable:
            reduced = _trace_out_pair2(conditioned) / weight
        else:
            reduced = embed(BellDiagonalState(0.5, 0.5, 0.0, 0.0))
        branches.append((weight, reduced, reachable))

    (p, success_m, _), (_, failure_m, failure_ok) = branches
    return FullStepOutcome(p, success_m, failure_m, failure_ok)


@dataclass(frozen=True)
class RotationReport:
    """Outcome of the behavioural check of the pre-rotation convention."""

    passed: bool
    max_deviation: float
    angle_sign: int
    samples: int


def apply_rotation_pair(m: np.ndarray, angle_sign: int = 1) -> np.ndarray:
    """The step pre-rotation acting on a single 4x4 pair state."""
    u = _pair_rotation(angle_sign)
    return u @ m @ u.conj().T


def verify_rotation_choice(
    samples: int = 1000, seed: int = 0, angle_sign: int = 1
) -> RotationReport:
    """Check that the pre-rotation swaps the Psi- and Phi- coefficients.

    Applies the rotation pair to random Bell-diagonal states and compares
    the resulting coefficients against (a, d, c, b).  Failures are
    reported, not raised.
    """
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(samples):
        s = BellDiagonalState(*rng.dirichlet(np.ones(4)))
        rotated = apply_rotation_pair(embed(s), angle_sign)
        try:
            got = bell_coefficients(rotated)
        except NotBellDiagonalError:
            return RotationReport(False, np.inf, angle_sign, samples)
        expect = (s.a, s.d, s.c, s.b)
        worst = max(worst, max(abs(g - e) for g, e in zip(got.as_tuple(), expect)))
    return RotationReport(worst < 1e-12, worst, angle_sign, samples)


@dataclass(frozen=True)
class ComparisonReport:
    """Worst-case deviations between the oracle and the closed-form step."""

    samples: int
    max_p_deviation: float
    max_success_deviation: float
    max_failure_deviation: float
    worst_state: tuple[float, float, float, float]

    @property
    def max_deviation(self) -> float:
        return max(
            self.max_p_deviation,
            self.max_success_deviation,
            self.max_failure_deviation,
        )


def compare_with_closed_form(
    samples: int = 1000, seed: int = 0, step_fn=None
) -> ComparisonReport:
    """Run the oracle against the closed-form step on random states.

    ``step_fn`` defaults to :func:`belldistil.bell_core.distill_step`; it is
    injectable so a deliberately corrupted map can serve as a negative
    control.
    """
    from .bell_core import distill_step

    if samples < 1:
        raise ValueError(f"sample count must be >= 1, got {samples}")
    if step_fn is None:
        step_fn = distill_step
    rng = np.random.default_rng(seed)
    dev_p = dev_s = dev_f = 0.0
    worst_state = (1.0, 0.0, 0.0, 0.0)
    for _ in range(samples):
        s = BellDiagonalState(*rng.dirichlet(np.ones(4)))
        closed = step_fn(s)
        full = dejmps_step_full(embed(s))
        dp = abs(full.p_success - closed.p_success)
        ds = max(
            abs(x - y)
            for x, y in zip(
                bell_coefficients(full.success_m).as_tuple(),
                closed.success_state.as_tuple(),
            )
        )
        if full.failure_reachable and closed.failure_reachable:
            df = max(
                abs(x - y)
                for x, y in zip(
                    bell_coefficients(full.failure_m).as_tuple(),
                    closed.failure_state.as_tuple(),
                )
            )
        else:
            df = 0.0 if full.failure_reachable == closed.failure_reachable else np.inf
        if max(dp, ds, df) > max(dev_p, dev_s, dev_f):
            worst_state = s.as_tuple()
        dev_p, dev_s, dev_f = max(dev_p, dp), max(dev_s, ds), max(dev_f, df)
    return ComparisonReport(samples, dev_p, dev_s, dev_f, worst_state)
