"""First-principles verification of the closed-form step maps.

Two pairs are simulated as an explicit 16x16 density operator through the
full protocol step: local pre-rotations on all four qubits, bilateral
CNOTs, projective measurement of the target pair, and post-selection.  The
recovered success probability and branch states must reproduce the
coefficient maps of :mod:`belldistil.bell_core` exactly; nothing in this
module reuses those maps.  A branch is sliced out of the 16x16 matrix by
the kept outcomes.  The randomized checks call the closed form once per
state and the oracle once per stack of states, and scan deviations per stack.

Qubit ordering in the 16-dimensional space is (1_A, 1_B, 2_A, 2_B); each
pair is Alice-major (A, B) with computational basis order 00, 01, 10, 11.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from functools import cache

import numpy as np

from .bell_core import BellDiagonalState, _normalized, _state
from .errors import NotBellDiagonalError, ResourceCapError

HERMITIAN_ATOL = 1e-12
TRACE_ATOL = 1e-12
PSD_ATOL = 1e-10
BELL_OFFDIAG_ATOL = 1e-10
IMAG_RESIDUE_ATOL = 1e-12
UNREACHABLE_TRACE_ATOL = 1e-14

#: Samples per numpy call in the randomized checks.  It bounds their memory
#: at any sample count; the results do not depend on it.
_ORACLE_STACK = 16

#: Most samples a randomized check may draw: about a minute of the oracle.
_ORACLE_SAMPLE_CAP = 1_000_000

_SQRT_HALF = 1.0 / np.sqrt(2.0)

#: 1 off the diagonal of a 4x4 matrix and 0 on it.
_OFF_DIAGONAL = 1.0 - np.eye(4)

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


def _stacked(m: np.ndarray) -> np.ndarray:
    """View a single matrix as a stack of one; a stack is returned as is."""
    return m[np.newaxis] if m.ndim == 2 else m


def _first(failed: np.ndarray) -> int | None:
    """Index of the first sample flagged in ``failed``, or None."""
    return int(np.argmax(failed)) if failed.any() else None


def validate_density_matrix(m: np.ndarray) -> None:
    """Check Hermiticity, unit trace and positive semidefiniteness.

    ``m`` is one 4x4 or 16x16 matrix or a stack of them along a leading
    axis.  Each check runs over the whole stack, in the order above, and
    reports the first sample that fails it.
    """
    if m.ndim not in (2, 3) or m.shape[-2:] not in {(4, 4), (16, 16)}:
        raise ValueError(f"expected a 4x4 or 16x16 matrix, got shape {m.shape}")
    ms = _stacked(m)
    asymmetry = np.abs(ms - ms.conj().transpose(0, 2, 1)).max(axis=(1, 2))
    if (asymmetry > HERMITIAN_ATOL).any():
        raise ValueError("matrix is not Hermitian")
    trace = np.trace(ms, axis1=1, axis2=2)
    i = _first(abs(trace - 1.0) > TRACE_ATOL)
    if i is not None:
        raise ValueError(f"trace is {trace[i]!r}, expected 1")
    if (np.linalg.eigvalsh(ms).min(axis=1) < -PSD_ATOL).any():
        raise ValueError("matrix is not positive semidefinite")


def embed(s: BellDiagonalState | Sequence[BellDiagonalState]) -> np.ndarray:
    """Bell-diagonal 4x4 density matrix with the coefficients of ``s``.

    A sequence of states gives the stack of their matrices.
    """
    single = isinstance(s, BellDiagonalState)
    m = _embed(np.array([x.as_tuple() for x in ([s] if single else s)]))
    return m[0] if single else m


def _embed(coeffs: np.ndarray) -> np.ndarray:
    """The stack of :func:`embed` for a ``(k, 4)`` coefficient array."""
    m = np.zeros((len(coeffs), 4, 4), dtype=complex)
    for coeff, vec, vec_conj in zip(coeffs.T, BELL_BASIS, _bell_basis_conj()):
        m += coeff[:, np.newaxis, np.newaxis] * np.outer(vec, vec_conj)
    return m


def _bell_diagonal(m: np.ndarray) -> np.ndarray:
    """Real Bell-basis diagonals, ``(k, 4)``, after the checks of
    :func:`bell_coefficients`."""
    in_bell = _bell_basis_conj() @ _stacked(m) @ BELL_BASIS.T
    diag = np.diagonal(in_bell, axis1=1, axis2=2)
    # a NaN or infinite diagonal element gives NaN, not 0: the coefficient
    # passes here and the state rejects it
    off = np.abs(in_bell)
    off *= _OFF_DIAGONAL
    i = _first(off.max(axis=(1, 2)) > BELL_OFFDIAG_ATOL)
    if i is not None:
        worst = np.unravel_index(np.argmax(off[i]), (4, 4))
        raise NotBellDiagonalError(
            f"off-diagonal Bell element {in_bell[i][worst]!r} at {worst} "
            f"exceeds {BELL_OFFDIAG_ATOL}"
        )
    residue = np.abs(diag.imag).max(axis=1)
    i = _first(residue > IMAG_RESIDUE_ATOL)
    if i is not None:
        raise NotBellDiagonalError(
            f"imaginary residue {residue[i]!r} in Bell coefficients"
        )
    return diag.real


def bell_coefficients(
    m: np.ndarray,
) -> BellDiagonalState | list[BellDiagonalState]:
    """Inverse of :func:`embed`: read the four Bell-projector coefficients.

    Rejects matrices with Bell-basis off-diagonal elements above
    ``BELL_OFFDIAG_ATOL`` or with non-negligible imaginary diagonal parts;
    in a stack, each check reports the first sample that fails it.  A
    stack of matrices gives the list of their states.
    """
    states = [BellDiagonalState(*row) for row in _bell_diagonal(m)]
    return states[0] if m.ndim == 2 else states


def _coefficient_rows(x: np.ndarray) -> np.ndarray:
    """Each row of ``x`` with the bits of ``BellDiagonalState(*row)``."""
    return np.stack(_normalized(*x.T), axis=1)


def _read_only(m: np.ndarray) -> np.ndarray:
    m.flags.writeable = False
    return m


# The matrices below do not depend on the state, so each is built on first
# use and shared read-only.


@cache
def _bell_basis_conj() -> np.ndarray:
    return _read_only(BELL_BASIS.conj())


@cache
def _locc_floor() -> np.ndarray:
    """The LOCC floor (1/2, 1/2, 0, 0), reported by an unreachable branch."""
    return _read_only(embed(BellDiagonalState(0.5, 0.5, 0.0, 0.0)))


@cache
def _pair_rotation(angle_sign: int) -> np.ndarray:
    """Pair pre-rotation: x-rotation by +pi/2 * sign for Alice, the opposite for Bob."""
    def rx(theta: float) -> np.ndarray:
        c, s = np.cos(theta / 2.0), np.sin(theta / 2.0)
        return np.array([[c, -1j * s], [-1j * s, c]], dtype=complex)

    theta = angle_sign * np.pi / 2.0
    return _read_only(np.kron(rx(theta), rx(-theta)))


def _cnot_16(control: int, target: int) -> np.ndarray:
    """CNOT between two of the four qubits, as a 16x16 permutation matrix."""
    gate = np.zeros((16, 16), dtype=complex)
    for idx in range(16):
        bits = [(idx >> (3 - q)) & 1 for q in range(4)]
        bits[target] ^= bits[control]
        dst = sum(bit << (3 - q) for q, bit in enumerate(bits))
        gate[dst, idx] = 1.0
    return gate


@cache
def _step_gate(angle_sign: int) -> np.ndarray:
    """Pre-rotations on both pairs followed by the two bilateral CNOTs."""
    u = _pair_rotation(angle_sign)
    return _read_only(_cnot_16(0, 2) @ _cnot_16(1, 3) @ np.kron(u, u))


@cache
def _measurement_projectors() -> tuple[np.ndarray, np.ndarray]:
    """Projectors onto equal/unequal computational outcomes of qubits 2_A, 2_B."""
    equal = np.zeros((4, 4), dtype=complex)
    unequal = np.zeros((4, 4), dtype=complex)
    for b in range(4):
        (equal if b in (0b00, 0b11) else unequal)[b, b] = 1.0
    eye4 = np.eye(4, dtype=complex)
    return _read_only(np.kron(eye4, equal)), _read_only(np.kron(eye4, unequal))


@dataclass(frozen=True)
class FullStepOutcome:
    """Density-matrix analogue of :class:`belldistil.bell_core.StepOutcome`.

    For a stack of inputs every field holds one entry per sample.
    """

    p_success: float | np.ndarray
    success_m: np.ndarray
    failure_m: np.ndarray
    failure_reachable: bool | np.ndarray = True


def _kron_with_itself(ms: np.ndarray) -> np.ndarray:
    """``np.kron(m, m)`` for every matrix ``m`` of a stack."""
    return (ms[:, :, None, :, None] * ms[:, None, :, None, :]).reshape(-1, 16, 16)


def _branch(rho: np.ndarray, proj: np.ndarray) -> tuple[np.ndarray, ...]:
    """Weight, normalized pair-1 state and reachability of one outcome.

    ``proj`` keeps outcomes b0, b1 of qubits 2_A, 2_B: the weight sums the
    kept diagonal of ``rho`` and the state its (b0, b0) and (b1, b1)
    blocks, with the bits of ``proj @ rho @ proj`` and its partial trace.
    """
    keep = proj.diagonal()  # complex, so the product below does not cast
    weight = (rho.diagonal(axis1=1, axis2=2) * keep).sum(axis=1).real
    reachable = weight >= UNREACHABLE_TRACE_ATOL
    b0, b1 = np.flatnonzero(keep[:4])
    r4 = rho.reshape(-1, 4, 4, 4, 4)
    reduced = r4[:, :, b0, :, b0] + r4[:, :, b1, :, b1]
    reduced /= np.where(reachable, weight, 1.0)[:, None, None]
    reduced[~reachable] = _locc_floor()
    return weight, reduced, reachable


def dejmps_step_full(m: np.ndarray, angle_sign: int = 1) -> FullStepOutcome:
    """One full protocol step on two copies of the 4x4 state ``m``.

    ``m`` may also be a ``(k, 4, 4)`` stack; each sample is stepped on its
    own and the outcome holds arrays over the stack.  ``angle_sign``
    selects the rotation convention; either sign is admissible as long as
    :func:`verify_rotation_choice` passes for it.
    """
    validate_density_matrix(m)
    ms = _stacked(m)
    gate = _step_gate(angle_sign)
    rho = gate @ _kron_with_itself(ms) @ gate.conj().T
    (p, success_m, _), (_, failure_m, failure_ok) = (
        _branch(rho, proj) for proj in _measurement_projectors()
    )
    if m.ndim == 2:
        return FullStepOutcome(p[0], success_m[0], failure_m[0], failure_ok[0])
    return FullStepOutcome(p, success_m, failure_m, failure_ok)


@dataclass(frozen=True)
class RotationReport:
    """Outcome of the behavioural check of the pre-rotation convention."""

    passed: bool
    max_deviation: float
    angle_sign: int
    samples: int


def apply_rotation_pair(m: np.ndarray, angle_sign: int = 1) -> np.ndarray:
    """The step pre-rotation acting on a 4x4 pair state or a stack of them."""
    u = _pair_rotation(angle_sign)
    return u @ m @ u.conj().T


def _random_states(samples: int, seed: int):
    """Coefficients of random Bell-diagonal states, ``(k, 4)`` stacks with
    k at most ``_ORACLE_STACK``; the sample count is checked before any draw.

    numpy draws ``dirichlet(alpha, size=k)`` as k single draws in a row,
    so the states do not depend on the stack size.
    """
    if samples < 1:
        raise ValueError(f"sample count must be >= 1, got {samples}")
    if samples > _ORACLE_SAMPLE_CAP:
        raise ResourceCapError(
            f"oracle capped at {_ORACLE_SAMPLE_CAP} samples; "
            "use fewer samples or several seeds"
        )
    rng = np.random.default_rng(seed)
    for lo in range(0, samples, _ORACLE_STACK):
        draws = rng.dirichlet(np.ones(4), size=min(_ORACLE_STACK, samples - lo))
        yield _coefficient_rows(draws)


def verify_rotation_choice(
    samples: int = 1000, seed: int = 0, angle_sign: int = 1
) -> RotationReport:
    """Check that the pre-rotation swaps the Psi- and Phi- coefficients.

    Applies the rotation pair to random Bell-diagonal states and compares
    the resulting coefficients against (a, d, c, b).  Failures are
    reported, not raised.
    """
    worst = 0.0
    for coeffs in _random_states(samples, seed):
        rotated = apply_rotation_pair(_embed(coeffs), angle_sign)
        try:
            got = _coefficient_rows(_bell_diagonal(rotated))
        except NotBellDiagonalError:
            return RotationReport(False, np.inf, angle_sign, samples)
        worst = max(worst, np.abs(got - coeffs[:, [0, 3, 2, 1]]).max())
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
    control.  The closed form is called once per state, the oracle once per
    stack of ``_ORACLE_STACK`` states, whose deviations are scanned as
    arrays.  A failure branch reachable on one side only deviates by
    infinity; the worst state is the first with the largest deviation.
    """
    from .bell_core import distill_step

    if step_fn is None:
        step_fn = distill_step
    dev_p = dev_s = dev_f = 0.0
    worst_state = (1.0, 0.0, 0.0, 0.0)
    for coeffs in _random_states(samples, seed):
        closed = [step_fn(_state(row)) for row in coeffs.tolist()]
        full = dejmps_step_full(_embed(coeffs))
        dp = abs(full.p_success - np.array([c.p_success for c in closed]))
        ds = _deviation(full.success_m, [c.success_state for c in closed])
        reachable = np.array([c.failure_reachable for c in closed])
        both = full.failure_reachable & reachable
        df = np.where(full.failure_reachable == reachable, 0.0, np.inf)
        df[both] = _deviation(full.failure_m[both],
                              [c.failure_state for c, b in zip(closed, both) if b])
        deviation = np.maximum(np.maximum(dp, ds), df)
        i = int(np.argmax(deviation))
        if deviation[i] > max(dev_p, dev_s, dev_f):
            worst_state = tuple(coeffs[i].tolist())
        dev_p, dev_s, dev_f = max(dev_p, dp.max()), max(dev_s, ds.max()), max(dev_f, df.max())
    return ComparisonReport(samples, dev_p, dev_s, dev_f, worst_state)


def _deviation(m: np.ndarray, states: list[BellDiagonalState]) -> np.ndarray:
    """Largest coefficient deviation of each oracle matrix from its state."""
    closed = np.array([s.as_tuple() for s in states]).reshape(-1, 4)
    return np.abs(_coefficient_rows(_bell_diagonal(m)) - closed).max(axis=1)
