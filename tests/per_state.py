"""The stack ``step_fn`` of :func:`belldistil.oracle.compare_with_closed_form`
built from a step on one state, for tests that edit or record single calls."""

import numpy as np

from belldistil.bell_core import _state


def per_state(step):
    """The stack form of ``step``, a map from one state to a ``StepOutcome``:
    it calls ``step`` on the state of each column in turn and stacks the
    fields of the outcomes."""

    def stacked(*coeffs):
        outs = [step(_state(column)) for column in zip(*(x.tolist() for x in coeffs))]
        return (
            np.array([out.p_success for out in outs]),
            np.array([out.success_state.as_tuple() for out in outs]).T,
            np.array([out.failure_state.as_tuple() for out in outs]).T,
            np.array([out.failure_reachable for out in outs]),
        )

    return stacked
