"""Library input checks raise the typed InputError.

InputError is a ValueError, so callers that catch ValueError keep working;
the CLI maps it to exit code 2.
"""

import numpy as np
import pytest

import spinline as sl
from spinline.errors import InputError
from spinline.hamiltonian import ChainSpec
from spinline.probing import ProbeState

CHAIN = ChainSpec.uniform(9)  # four bulk bonds

CASES = {
    "sample_line_params one chain": lambda: sl.sample_line_params(CHAIN, 7.0, 0.05, n_chains=1),
    "werner_robustness no controls": lambda: sl.werner_robustness(
        sl.line_params_at(sl.diagonalize(CHAIN), 7.0), {}),
    "apply_disorder delta outside [-1, 1]": lambda: sl.apply_disorder(
        CHAIN, 0.1, np.array([0.0, 1.5, 0.0, 0.0])),
    "werner_target p outside [0, 1]": lambda: sl.werner_target(1.2),
    "discrepancy zero-norm target": lambda: sl.discrepancy(np.eye(4), np.zeros((4, 4))),
    "to_sender_state unknown kind": lambda: ProbeState("bogus", (1,)).to_sender_state(),
}


@pytest.mark.parametrize("call", CASES.values(), ids=CASES.keys())
def test_library_input_checks_raise_input_error(call):
    with pytest.raises(InputError):
        call()
