"""Library input checks raise the typed InputError.

InputError is a ValueError, so callers that catch ValueError keep working;
the CLI maps it to exit code 2.
"""

import csv

import numpy as np
import pytest

import spinline as sl
from spinline.errors import InputError, NumericalError, check_tolerance, malformed
from spinline.hamiltonian import ChainSpec
from spinline.probing import ProbeState

CHAIN = ChainSpec.uniform(9)  # four bulk bonds

CASES = {
    "sample_line_params one chain": lambda: sl.sample_line_params(CHAIN, 7.0, 0.05, n_chains=1),
    "werner_robustness no controls": lambda: sl.werner_robustness(
        sl.line_params_at(sl.diagonalize(CHAIN), 7.0), np.empty(0), np.empty((0, 11))),
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


@pytest.mark.parametrize("dev, chain", [(np.nan, None), (np.array([0.0, np.nan, 1.0]), 1),
                                        (np.array([0.0, 1.0, np.nan]), 1)])
def test_tolerance_gate_fails_on_nan(dev, chain):
    # dev > tol is False for NaN, so the gate is written not dev <= tol
    with pytest.raises(NumericalError) as info:
        check_tolerance(dev, 1e-10, "off by")
    assert info.value.chain == chain


@pytest.mark.parametrize("raise_, detail", [
    (lambda: {}["re"], "KeyError: 're'"),
    (lambda: float(None), "TypeError: float() argument"),
    (lambda: float("x"), "ValueError: could not convert string to float: 'x'"),
    (lambda: next(csv.reader(['"a"b"'], strict=True)), "Error: ','"),
])
def test_malformed_names_the_input_and_the_parse_failure(raise_, detail):
    with pytest.raises(InputError, match="^chain.json is not a chain spec \\(") as info:
        with malformed("chain.json is not a chain spec"):
            raise_()
    assert detail in str(info.value)


def test_malformed_lets_file_errors_pass(tmp_path):
    with pytest.raises(FileNotFoundError):
        with malformed("no such table"):
            open(tmp_path / "missing.csv")
