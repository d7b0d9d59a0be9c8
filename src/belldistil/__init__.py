"""Iterative CNOT entanglement distillation for finite samples of qubit pairs."""

from .bell_core import (
    BellDiagonalState,
    StepOutcome,
    avg_fidelity_single_conditional,
    avg_fidelity_single_locc,
    distill_step,
    fidelity,
    is_distillable,
    iterate_map,
    success_probability,
    werner,
)
from .errors import (
    InvalidStateError,
    NotBellDiagonalError,
    NotDistillableError,
    ResourceCapError,
)
from .finite_ensemble import (
    RoundStats,
    UnsuccessfulConvention,
    avg_fidelity_one_round,
    n_min,
    round_up_even,
    survivor_pmf,
)
from .iterative_scheme import (
    BACKUP,
    DROP_ONE,
    NO_BACKUP,
    IterationPolicy,
    TrialStats,
    expected_fidelity_exact,
    expected_fidelity_mc,
    fully_successful_fidelity,
    sweep_over_n,
)

__all__ = [
    "BACKUP",
    "DROP_ONE",
    "NO_BACKUP",
    "BellDiagonalState",
    "InvalidStateError",
    "IterationPolicy",
    "NotBellDiagonalError",
    "NotDistillableError",
    "ResourceCapError",
    "RoundStats",
    "StepOutcome",
    "TrialStats",
    "UnsuccessfulConvention",
    "avg_fidelity_one_round",
    "avg_fidelity_single_conditional",
    "avg_fidelity_single_locc",
    "distill_step",
    "expected_fidelity_exact",
    "expected_fidelity_mc",
    "fidelity",
    "fully_successful_fidelity",
    "is_distillable",
    "iterate_map",
    "n_min",
    "round_up_even",
    "success_probability",
    "survivor_pmf",
    "sweep_over_n",
    "werner",
]

__version__ = "0.1.0"
