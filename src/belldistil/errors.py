"""Exception types shared across the package."""


class InvalidStateError(ValueError):
    """A Bell-diagonal coefficient vector violates the simplex constraints."""


class NotDistillableError(ValueError):
    """A step cannot gain fidelity: the input fidelity is at or below 1/2,
    or the successful branch does not raise it."""


class NotBellDiagonalError(ValueError):
    """A density matrix has significant off-diagonal Bell-basis elements."""


class ResourceCapError(RuntimeError):
    """Exact evaluation was requested beyond the supported problem size."""
