"""First-principles verification of the closed-form step maps.

Two pairs are simulated as an explicit 16x16 density operator through the
full protocol step: local pre-rotations on all four qubits, bilateral
CNOTs, projective measurement of the target pair, and post-selection.  The
recovered success probability and branch states must reproduce the
coefficient maps of :mod:`belldistil.bell_core` exactly; nothing in this
module reuses those maps.  The pre-rotation has one convention, the one
those maps encode: Alice rotates by +pi/2 about x and Bob by -pi/2.  A
branch is sliced out of the 16x16 matrix by the kept outcomes.  One
randomized pass draws each state once, checks the step on it and, on the
first states, the pre-rotation, and scans deviations per stack.

Qubit ordering in the 16-dimensional space is (1_A, 1_B, 2_A, 2_B); each
pair is Alice-major (A, B) with computational basis order 00, 01, 10, 11.
"""

from __future__ import annotations

import operator
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .bell_core import (
    BellDiagonalState,
    _checked_count,
    _first,
    _normalized,
    _normalized_rows,
    _state,
    _step_coeffs,
)
from .errors import NotBellDiagonalError, ResourceCapError

HERMITIAN_ATOL = 1e-12
TRACE_ATOL = 1e-12
PSD_ATOL = 1e-10
BELL_OFFDIAG_ATOL = 1e-10
IMAG_RESIDUE_ATOL = 1e-12
UNREACHABLE_TRACE_ATOL = 1e-14

#: Samples per numpy call in the 4x4 stages of the randomized checks: the
#: draws, the embeddings, the state checks and the closed form.  It bounds
#: their memory at any sample count; the results do not depend on it.
_ORACLE_STACK = 256

#: Samples per 16x16 product in :func:`dejmps_step_full`.  A stack of
#: products takes 4 KiB a sample, so this bounds the step's memory: a
#: 4,000-sample comparison peaks at 0.85 MB of traced memory at 32, and at
#: 0.98 MB at 64.  At 256 the step ran 15% slower per sample than at 32 (on
#: an x86-64 host with 2 MiB of L2 cache per core); the results do not
#: depend on it.
_STEP_STACK = 32

#: Most samples a randomized check may draw: about 8 s of the oracle.
_ORACLE_SAMPLE_CAP = 1_000_000

#: Samples, from the first, on which the comparison also checks the rotation.
_ROTATION_SAMPLES = 1000


def _read_only(m: np.ndarray) -> np.ndarray:
    m.flags.writeable = False
    return m


# The matrices that do not depend on the state are built once, at import,
# and shared read-only.

_SQRT_HALF = 1.0 / np.sqrt(2.0)

#: 1 off the diagonal of a 4x4 matrix and 0 on it.
_OFF_DIAGONAL = _read_only(1.0 - np.eye(4))

#: Bell vectors as rows, in the global coefficient order (Phi+, Psi-, Psi+, Phi-).
BELL_BASIS = _read_only(np.array(
    [
        [_SQRT_HALF, 0.0, 0.0, _SQRT_HALF],
        [0.0, _SQRT_HALF, -_SQRT_HALF, 0.0],
        [0.0, _SQRT_HALF, _SQRT_HALF, 0.0],
        [_SQRT_HALF, 0.0, 0.0, -_SQRT_HALF],
    ],
    dtype=complex,
))
_BELL_BASIS_CONJ = _read_only(BELL_BASIS.conj())


def _stacked(m: np.ndarray) -> np.ndarray:
    """View a single matrix as a stack of one; a stack is returned as is."""
    return m[np.newaxis] if m.ndim == 2 else m


def _sandwich(left: np.ndarray, m: np.ndarray, right: np.ndarray) -> np.ndarray:
    """``left @ m @ right`` for one 4x4 matrix ``m`` or a stack of them.

    numpy's stacked matmul makes one BLAS call per matrix; this makes two
    for the stack, each a ``(4k, 4)`` by 4x4 product.  The transposes of
    the k matrices, stacked, times ``left.T`` give those of ``left @ m``;
    one transposed copy turns them back for the product with ``right``.
    The left product still comes first, and every entry has the bits of
    ``left @ m @ right``.
    """
    ms = _stacked(m)
    k = len(ms)
    left_m = (ms.transpose(0, 2, 1).reshape(4 * k, 4) @ left.T).reshape(k, 4, 4)
    product = left_m.transpose(0, 2, 1).reshape(4 * k, 4) @ right
    return product.reshape(m.shape)


def validate_density_matrix(m: np.ndarray) -> None:
    """Check Hermiticity, unit trace and positive semidefiniteness.

    ``m`` is one 4x4 matrix or a stack of them along a leading axis.  Each
    check runs over the whole stack, in the order above; the first two
    report the first sample that fails them.  A stack whose Gershgorin
    discs all lie at or above ``-PSD_ATOL`` is positive semidefinite
    without an eigensolver, which decides any other stack.
    """
    if m.ndim not in (2, 3) or m.shape[-2:] != (4, 4):
        raise ValueError(f"expected a 4x4 matrix or a stack of them, got shape {m.shape}")
    ms = _stacked(m)
    # each check is written to fail on NaN, which compares false
    asymmetry = np.abs(ms - ms.conj().transpose(0, 2, 1)).max(axis=(1, 2))
    if not (asymmetry <= HERMITIAN_ATOL).all():
        raise ValueError("matrix is not Hermitian")
    trace = np.trace(ms, axis1=1, axis2=2)
    if (i := _first(~(abs(trace - 1.0) <= TRACE_ATOL))) is not None:
        raise ValueError(f"trace is {complex(trace[i])}, expected 1")
    # every eigenvalue lies in a disc about some Re(m_ii) of radius
    # sum_{j != i} |m_ij|; those of a Bell-diagonal embedding reach down
    # to min(a, d) and min(b, c), so every state passes here
    radius = (np.abs(ms) * _OFF_DIAGONAL).sum(axis=2)
    if (ms.diagonal(axis1=1, axis2=2).real - radius >= -PSD_ATOL).all():
        return
    if not (np.linalg.eigvalsh(ms).min(axis=1) >= -PSD_ATOL).all():
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
    for coeff, vec, vec_conj in zip(coeffs.T, BELL_BASIS, _BELL_BASIS_CONJ):
        m += coeff[:, np.newaxis, np.newaxis] * np.outer(vec, vec_conj)
    return m


def _bell_diagonal(m: np.ndarray) -> tuple[np.ndarray, np.ndarray, Exception | None]:
    """Real Bell-basis diagonals, ``(k, 4)``, the mask of samples that fail a
    check of :func:`bell_coefficients`, and the error it raises for them."""
    in_bell = _sandwich(_BELL_BASIS_CONJ, _stacked(m), BELL_BASIS.T)
    diag = np.diagonal(in_bell, axis1=1, axis2=2)
    # a NaN or infinite diagonal element gives NaN, not 0: the coefficient
    # passes here and the state rejects it
    off = np.abs(in_bell)
    off *= _OFF_DIAGONAL
    off_diagonal = off.max(axis=(1, 2)) > BELL_OFFDIAG_ATOL
    residue = np.abs(diag.imag).max(axis=1)
    imaginary = residue > IMAG_RESIDUE_ATOL
    error = None
    if (i := _first(off_diagonal)) is not None:
        row, col = np.unravel_index(np.argmax(off[i]), (4, 4))
        error = NotBellDiagonalError(
            f"off-diagonal Bell element {complex(in_bell[i, row, col])} at "
            f"({row}, {col}) exceeds {BELL_OFFDIAG_ATOL}")
    elif (i := _first(imaginary)) is not None:
        error = NotBellDiagonalError(
            f"imaginary residue {float(residue[i])} in Bell coefficients")
    return diag.real, off_diagonal | imaginary, error


def bell_coefficients(
    m: np.ndarray,
) -> BellDiagonalState | list[BellDiagonalState]:
    """Inverse of :func:`embed`: read the four Bell-projector coefficients.

    Rejects matrices with Bell-basis off-diagonal elements above
    ``BELL_OFFDIAG_ATOL``, non-negligible imaginary diagonal parts or
    coefficients that are no state; in a stack, each check reports the
    first sample that fails it.  A stack gives the list of its states.
    """
    diag, _, error = _bell_diagonal(m)
    if error is not None:
        raise error
    states = [_state(row) for row in np.stack(_normalized(*diag.T), axis=1).tolist()]
    return states[0] if m.ndim == 2 else states


def _rx(theta: float) -> np.ndarray:
    """Single-qubit rotation by ``theta`` about x."""
    c, s = np.cos(theta / 2.0), np.sin(theta / 2.0)
    return np.array([[c, -1j * s], [-1j * s, c]], dtype=complex)


def _cnot_16(control: int, target: int) -> np.ndarray:
    """CNOT between two of the four qubits, as a 16x16 permutation matrix."""
    gate = np.zeros((16, 16), dtype=complex)
    for idx in range(16):
        bits = [(idx >> (3 - q)) & 1 for q in range(4)]
        bits[target] ^= bits[control]
        dst = sum(bit << (3 - q) for q, bit in enumerate(bits))
        gate[dst, idx] = 1.0
    return gate


#: The LOCC floor (1/2, 1/2, 0, 0), reported by an unreachable branch.
_LOCC_FLOOR = _read_only(embed(BellDiagonalState(0.5, 0.5, 0.0, 0.0)))

#: Pair pre-rotation: x-rotation by +pi/2 for Alice, by -pi/2 for Bob.
_PAIR_ROTATION = _read_only(np.kron(_rx(np.pi / 2.0), _rx(-np.pi / 2.0)))

#: Pre-rotations on both pairs followed by the two bilateral CNOTs.
_STEP_GATE = _read_only(
    _cnot_16(0, 2) @ _cnot_16(1, 3) @ np.kron(_PAIR_ROTATION, _PAIR_ROTATION)
)

#: Diagonals of the projectors onto equal (00, 11) and unequal (01, 10)
#: outcomes of qubits 2_A, 2_B; complex, so that masking does not cast.
_KEEP_EQUAL = _read_only(np.tile(np.array([1, 0, 0, 1], dtype=complex), 4))
_KEEP_UNEQUAL = _read_only(np.tile(np.array([0, 1, 1, 0], dtype=complex), 4))


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


def _branch(rho: np.ndarray, keep: np.ndarray) -> tuple[np.ndarray, ...]:
    """Weight, normalized pair-1 state and reachability of one outcome.

    ``keep`` is the diagonal of the projector ``proj`` onto outcomes b0, b1
    of qubits 2_A, 2_B: the weight sums the kept diagonal of ``rho`` and the
    state its (b0, b0) and (b1, b1) blocks, with the bits of
    ``proj @ rho @ proj`` and its partial trace.
    """
    weight = (rho.diagonal(axis1=1, axis2=2) * keep).sum(axis=1).real
    reachable = weight >= UNREACHABLE_TRACE_ATOL
    b0, b1 = np.flatnonzero(keep[:4])
    r4 = rho.reshape(-1, 4, 4, 4, 4)
    reduced = r4[:, :, b0, :, b0] + r4[:, :, b1, :, b1]
    reduced /= np.where(reachable, weight, 1.0)[:, None, None]
    reduced[~reachable] = _LOCC_FLOOR
    return weight, reduced, reachable


def dejmps_step_full(m: np.ndarray) -> FullStepOutcome:
    """One full protocol step on two copies of the 4x4 state ``m``.

    ``m`` may also be a ``(k, 4, 4)`` stack; each sample is stepped on its
    own and the outcome holds arrays over the stack.  The stack is checked
    whole and stepped in sub-stacks of ``_STEP_STACK`` samples.
    """
    validate_density_matrix(m)
    ms = _stacked(m)
    k = len(ms)
    p, failure_ok = np.empty(k), np.empty(k, dtype=bool)
    success_m, failure_m = (np.empty((k, 4, 4), dtype=complex) for _ in range(2))
    gate_h = _STEP_GATE.conj().T
    for lo in range(0, k, _STEP_STACK):
        part = slice(lo, lo + _STEP_STACK)
        rho = _STEP_GATE @ _kron_with_itself(ms[part]) @ gate_h
        p[part], success_m[part], _ = _branch(rho, _KEEP_EQUAL)
        _, failure_m[part], failure_ok[part] = _branch(rho, _KEEP_UNEQUAL)
        del rho  # freed before the next sub-stack's products are allocated
    if m.ndim == 2:
        return FullStepOutcome(float(p[0]), success_m[0], failure_m[0], bool(failure_ok[0]))
    return FullStepOutcome(p, success_m, failure_m, failure_ok)


@dataclass(frozen=True)
class RotationReport:
    """Outcome of the behavioural check of the pre-rotation convention."""

    passed: bool
    max_deviation: float
    samples: int


def apply_rotation_pair(m: np.ndarray) -> np.ndarray:
    """The step pre-rotation acting on a 4x4 pair state or a stack of them."""
    return _sandwich(_PAIR_ROTATION, m, _PAIR_ROTATION.conj().T)


def _random_states(samples: int, seed: int):
    """Coefficients of random Bell-diagonal states, ``(k, 4)`` stacks with k
    at most ``_ORACLE_STACK``, and their embeddings; the cap is checked first.

    numpy draws ``dirichlet(alpha, size=k)`` as k single draws in a row,
    so the states do not depend on the stack size.
    """
    if samples > _ORACLE_SAMPLE_CAP:
        raise ResourceCapError(
            f"oracle capped at {_ORACLE_SAMPLE_CAP} samples; "
            "use fewer samples or several seeds"
        )
    rng = np.random.default_rng(operator.index(seed))
    for lo in range(0, samples, _ORACLE_STACK):
        draws = rng.dirichlet(np.ones(4), size=min(_ORACLE_STACK, samples - lo))
        coeffs = np.stack(_normalized(*draws.T), axis=1)
        yield coeffs, _embed(coeffs)


@dataclass(frozen=True)
class ComparisonReport:
    """Worst-case deviations between the oracle and the closed-form step."""

    samples: int
    max_p_deviation: float
    max_success_deviation: float
    max_failure_deviation: float
    worst_state: tuple[float, float, float, float]
    rotation: RotationReport

    @property
    def max_deviation(self) -> float:
        return max(
            self.max_p_deviation,
            self.max_success_deviation,
            self.max_failure_deviation,
        )


def compare_with_closed_form(
    samples: int = 1000, seed: int = 0, step_fn=_step_coeffs
) -> ComparisonReport:
    """Run the oracle against the closed-form step on random states.

    ``step_fn`` is the closed form of
    :func:`belldistil.bell_core.distill_step` on a coefficient stack: it
    takes the four coefficient arrays of k states and returns the k success
    weights, the success and the failure coefficients (four arrays each)
    and the k failure reachabilities.  It is injectable so a deliberately
    corrupted map can serve as a negative control.  The closed form and the
    oracle each run once per stack of ``_ORACLE_STACK`` states, on the same
    stack, whose deviations are scanned as arrays; the oracle's 16x16
    products run in sub-stacks of ``_STEP_STACK`` states.  Neither size
    moves a bit: every state gets the bits of its own ``distill_step`` and
    :func:`dejmps_step_full` call.  Each branch is read by
    :func:`_deviation`; a failure branch reachable on one side only also
    deviates by infinity.  The worst state is the first with the largest
    deviation.  ``rotation`` checks that the pre-rotation swaps Psi- and
    Phi- in the first ``_ROTATION_SAMPLES``.
    """
    samples = _checked_count(samples, "sample count", 1)
    dev_p = dev_s = dev_f = dev_r = 0.0
    worst_state = (1.0, 0.0, 0.0, 0.0)
    for j, (coeffs, m) in enumerate(_random_states(samples, seed)):
        p, success, failure, reachable = step_fn(*coeffs.T)
        full = dejmps_step_full(m)
        dp = abs(full.p_success - p)
        ds = _deviation(full.success_m, np.stack(success, axis=1))
        df = _deviation(full.failure_m, np.stack(failure, axis=1))
        df[full.failure_reachable != reachable] = np.inf
        deviation = np.maximum(np.maximum(dp, ds), df)
        i = int(np.argmax(deviation))
        if deviation[i] > max(dev_p, dev_s, dev_f):
            worst_state = tuple(coeffs[i].tolist())
        dev_p = max(dev_p, float(dp.max()))
        dev_s = max(dev_s, float(ds.max()))
        dev_f = max(dev_f, float(df.max()))
        if (k := min(len(coeffs), _ROTATION_SAMPLES - j * _ORACLE_STACK)) > 0:
            rotated = apply_rotation_pair(m[:k])  # (a, b, c, d) -> (a, d, c, b)
            dev_r = max(dev_r, float(_deviation(rotated, coeffs[:k, [0, 3, 2, 1]]).max()))
    rotation = RotationReport(dev_r < 1e-12, dev_r, min(samples, _ROTATION_SAMPLES))
    return ComparisonReport(samples, dev_p, dev_s, dev_f, worst_state, rotation)


def _deviation(m: np.ndarray, expected) -> np.ndarray:
    """Largest coefficient deviation of each oracle matrix from its row of
    ``expected``; infinite where :func:`bell_coefficients` would reject it."""
    diag, failed, _ = _bell_diagonal(m)
    got, ok = _normalized_rows(*diag.T)
    dev = np.abs(np.stack(got, axis=1) - np.reshape(expected, (-1, 4))).max(axis=1)
    dev[failed | ~ok] = np.inf
    return dev
