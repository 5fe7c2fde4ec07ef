"""Library input checks raise the typed InputError or SizeMismatchError.

Both are ValueErrors, so callers that catch ValueError keep working; the
CLI maps them to exit code 2.
"""

import csv
import warnings

import numpy as np
import pytest

import spinline as sl
from spinline import chainopt, inverse
from spinline.disorder import MAX_CHAINS
from spinline.errors import (
    InputError,
    NumericalError,
    SizeMismatchError,
    check_tolerance,
    malformed,
)
from spinline.hamiltonian import ChainSpec
from spinline.probing import ProbeState

CHAIN = ChainSpec.uniform(9)  # four bulk bonds

CASES = {
    "sample_line_params one chain": lambda: sl.sample_line_params(CHAIN, 7.0, 0.05, n_chains=1),
    "sample_line_params above MAX_CHAINS": lambda: sl.sample_line_params(
        CHAIN, 7.0, 0.05, n_chains=MAX_CHAINS + 1),
    "sample_line_params 10^14 chains": lambda: sl.sample_line_params(
        CHAIN, 7.0, 0.05, n_chains=10**14),
    "werner_robustness no controls": lambda: sl.werner_robustness(
        sl.line_params_at(sl.diagonalize(CHAIN), 7.0), np.empty(0), np.empty((0, 11))),
    "apply_disorder delta outside [-1, 1]": lambda: sl.apply_disorder(
        CHAIN, 0.1, np.array([0.0, 1.5, 0.0, 0.0])),
    "werner_target p outside [0, 1]": lambda: sl.werner_target(1.2),
    "solve_werner no p": lambda: sl.solve_werner(
        sl.line_params_at(sl.diagonalize(CHAIN), 7.0), []),
    "solve_werner p of two axes": lambda: sl.solve_werner(
        sl.line_params_at(sl.diagonalize(CHAIN), 7.0), [[0.1, 0.2]]),
    "discrepancy zero-norm target": lambda: sl.discrepancy(np.eye(4), np.zeros((4, 4))),
    "probe controls unknown kind": lambda: ProbeState("bogus", (1,)).controls(),
    # counts below the minimum the command line's schemas already enforce
    "solve_werner no start": lambda: sl.solve_werner(
        sl.line_params_at(sl.diagonalize(CHAIN), 7.0), 0.4, n_starts=0),
    "solve_general no start": lambda: sl.solve_general(
        sl.line_params_at(sl.diagonalize(CHAIN), 7.0), sl.werner_target(0.4), n_starts=0),
    "feasibility_scan no start": lambda: sl.feasibility_scan(
        sl.line_params_at(sl.diagonalize(CHAIN), 7.0), [0.1, 0.2], n_starts=0),
    "line_params_at no sender": lambda: sl.line_params_at(sl.diagonalize(CHAIN), 7.0, 0),
    "line_params_at one-node sender": lambda: sl.line_params_at(sl.diagonalize(CHAIN), 7.0, 1),
    "sample_line_params no sender": lambda: sl.sample_line_params(CHAIN, 7.0, 0.05, n_sender=0),
    "sample_line_params one-node sender": lambda: sl.sample_line_params(
        CHAIN, 7.0, 0.05, n_sender=1),
    # a 7-node sender fits the chain, but its table is above the bound
    "line_params_at sender above bound": lambda: sl.line_params_at(
        sl.diagonalize(CHAIN), 7.0, 7),
    "sample_line_params sender above bound": lambda: sl.sample_line_params(
        CHAIN, 7.0, 0.05, n_sender=7),
}


@pytest.mark.parametrize("call", CASES.values(), ids=CASES.keys())
def test_library_input_checks_raise_input_error(call):
    with pytest.raises(InputError):
        call()


# samples of the tuned n = 20 line that are no stack of at least 2 chains
SAMPLES = {
    "single set": lambda params: params,
    "one-chain stack": lambda params: params[None],
    "stack of two axes": lambda params: params[None][[[0, 0], [0, 0]]],
}


@pytest.mark.parametrize("reduce", ["param_statistics", "werner_robustness"])
@pytest.mark.parametrize("make", SAMPLES.values(), ids=SAMPLES.keys())
def test_disorder_reductions_refuse_a_sample_of_fewer_than_two_chains(tuned20_params, make,
                                                                      reduce):
    # these ended in an IndexError, a TypeError, or NaN with two warnings
    sample = make(tuned20_params)
    x = sl.solve_werner(tuned20_params, 0.4).x
    calls = {"param_statistics": lambda: sl.param_statistics(tuned20_params, sample),
             "werner_robustness": lambda: sl.werner_robustness(sample, [0.4], x)}
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises((InputError, SizeMismatchError), match="chains"):
            calls[reduce]()


# calls that take one chain or parameter set, given a stack of them
STACKED = {
    "first_maximum": lambda params: sl.first_maximum(
        sl.diagonalize(ChainSpec(20, np.array([0.5, 0.55]), np.array([0.8, 0.817])))),
    "solve_werner": lambda params: sl.solve_werner(params, 0.4),
    "solve_general": lambda params: sl.solve_general(params, sl.werner_target(0.4)),
    "feasibility_scan": lambda params: sl.feasibility_scan(params, [0.1, 0.2]),
}


@pytest.mark.parametrize("call", STACKED.values(), ids=STACKED.keys())
def test_stacked_input_where_one_set_is_meant_raises_size_mismatch(monkeypatch, call):
    # these ended in a raw ValueError from an unpacking or a concatenation;
    # classify_families and export_params_csv share the check (test_receiver.py)
    sample = sl.sample_line_params(ChainSpec(20, 0.55, 0.817), 26.4, 0.05, n_chains=4)

    def work(*args, **kwargs):
        raise AssertionError("work began before the stack was refused")

    for module, name in [(chainopt, "_time_grid"), (inverse, "receiver_operator"),
                         (inverse, "werner_bounds")]:
        monkeypatch.setattr(module, name, work)
    with pytest.raises(SizeMismatchError, match=r"one (chain|parameter set), not a stack "
                                                r"of \((2|4),\)"):
        call(sample)


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
