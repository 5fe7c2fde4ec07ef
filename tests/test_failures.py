"""Every failure ends in a typed error and its documented exit code.

Each SpinlineError class carries its exit code and stderr label, and
``cli.main`` reports them all through one handler.  Four inputs that once
ended in a traceback or in a NaN table are pinned here, and a derandomized
fuzz of the input files and ``--t0`` with extreme finite values checks
that no input ends in a traceback, a numpy RuntimeWarning, a UserWarning
or an artifact holding NaN or Infinity.
"""

import json
import re

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from spinline import cli, errors
from spinline.cli import main
from spinline.inverse import werner_target
from spinline.receiver import table_labels

# the exit code and stderr label the README documents for each error type
DOCUMENTED = {
    "SpinlineError": (2, "invalid input"),
    "ChainLengthError": (2, "invalid input"),
    "SizeMismatchError": (2, "invalid input"),
    "InputError": (2, "invalid input"),
    "ConfigError": (2, "invalid config"),
    "ConditioningError": (2, "invalid input"),
    "ExtractionError": (2, "invalid input"),
    "NumericalError": (1, "numerical check failed"),
    "NoArrivalError": (4, "infeasible"),
    "InfeasibleTargetError": (4, "infeasible"),
}
# constructor arguments of the types that take more than a message
ARGS = {"ExtractionError": ([("p_N", (1,), "re")],), "InfeasibleTargetError": (0.5,)}


def _error_types(cls=errors.SpinlineError):
    """``cls`` and every spinline subclass of it, found recursively."""
    return [cls, *(sub for child in cls.__subclasses__() if child.__module__.startswith("spinline")
                   for sub in _error_types(child))]


@pytest.mark.parametrize("kind", _error_types(), ids=lambda kind: kind.__name__)
def test_every_error_type_exits_with_its_documented_code(monkeypatch, capsys, kind):
    exc = kind(*ARGS.get(kind.__name__, ("boom",)))

    def fail(config):
        raise exc

    monkeypatch.setattr(cli, "run_config", fail)
    code, label = DOCUMENTED[kind.__name__]
    assert main(["reproduce-paper", "--fast"]) == code
    err = capsys.readouterr().err
    assert err == f"{label}: {exc}\n"
    assert "Traceback" not in err


def test_every_error_type_is_documented():
    assert sorted(kind.__name__ for kind in _error_types()) == sorted(DOCUMENTED)


def test_file_error_exits_3(tmp_path, capsys):
    assert main(["feasibility", "--params", str(tmp_path / "missing.csv")]) == 3
    err = capsys.readouterr().err
    assert err.startswith("file error: [Errno 2] No such file or directory")
    assert "Traceback" not in err


# a 12-node chain tuned near its optimum, read out at its arrival time: the
# fuzz's starting point, on which Werner p = 0.4 is creatable with two starts
CHAIN = {"n": 12, "delta1": 0.6237, "delta2": 0.865, "bulk": [1.0] * 7}
T0 = 17.086
LABELS = [f"{kind};{idx}" for kind, idx, _fam in zip(*table_labels(4))]
EXTREMES = [1e308, -1e308, 1e248, 1e200, -1e200, 7.0, 1e-300, 5e-324, -5e-324, 0.0, -0.0]
NON_FINITE = re.compile(r"\b(nan|inf|infinity)\b", re.IGNORECASE)


@pytest.fixture(scope="module")
def base(tmp_path_factory):
    """The parameter table of ``CHAIN`` at ``T0``."""
    root = tmp_path_factory.mktemp("base")
    (root / "chain.json").write_text(json.dumps(CHAIN))
    table = root / "params.csv"
    assert main(["compute-params", "--chain", str(root / "chain.json"), "--t0", str(T0),
                 "--out", str(table)]) == 0
    return table.read_text()


def _mutated_table(text, label, part, value):
    """``text`` with the ``part`` (2 re, 3 im) of entry ``label`` set to ``value``."""
    kind, idx = label.split(";", 1)
    lines = text.split("\n")
    row = next(i for i, line in enumerate(lines) if line.startswith(f"{kind},{idx},"))
    cells = lines[row].split(",")
    cells[part] = repr(value)
    lines[row] = ",".join(cells)
    return "\n".join(lines)


def _inputs(case, base, work):
    """The files {name: text} in the directory ``work``, and the argv, of a
    fuzz case; its artifacts are named out.*."""
    kind, where, value, t0 = case
    chain, params, target, out_csv, out_json = (
        str(work / name) for name in ("chain.json", "params.csv", "target.json", "out.csv",
                                      "out.json"))
    if kind == "chain":  # one coupling of the chain, and the registration time
        spec = {**CHAIN, "bulk": list(CHAIN["bulk"])}
        if where.startswith("bulk"):
            spec["bulk"][int(where[4:])] = value
        else:
            spec[where] = value
        return ({"chain.json": json.dumps(spec)},
                ["compute-params", "--chain", chain, f"--t0={t0!r}", "--out", out_csv])
    if kind == "t0":  # a uniform chain of ``where`` nodes at the time t0
        return {}, ["compute-params", "--n", str(where), f"--t0={t0!r}", "--out", out_csv]
    if kind == "params":  # one part of one entry of the table
        label, part = where
        return ({"params.csv": _mutated_table(base, label, part, value)},
                ["create-state", "--target", "werner", "--p", "0.4", "--params", params,
                 "--starts", "2", "--out", out_json])
    # one entry of a Werner target, and its mirror if ``mirror``
    i, j, mirror = where
    m = werner_target(0.4)
    m[i, j] = value
    if mirror:
        m[j, i] = value
    return ({"params.csv": base, "target.json": json.dumps({"re": m.real.tolist(),
                                                              "im": m.imag.tolist()})},
            ["create-state", "--target", f"file:{target}", "--params", params,
             "--starts", "2", "--out", out_json])


extreme = st.sampled_from(EXTREMES)
CASES = st.one_of(
    st.tuples(st.just("chain"),
              st.sampled_from(["delta1", "delta2"] + [f"bulk{i}" for i in range(7)]),
              extreme, st.one_of(st.just(T0), extreme)),
    st.tuples(st.just("t0"), st.integers(4, 12), st.none(), extreme),
    st.tuples(st.just("params"), st.tuples(st.sampled_from(LABELS), st.sampled_from([2, 3])),
              extreme, st.none()),
    st.tuples(st.just("target"), st.tuples(st.integers(0, 3), st.integers(0, 3), st.booleans()),
              extreme, st.none()),
)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.filterwarnings("error::UserWarning")
# the four inputs that ended in a NaN table or a LinAlgError traceback
@example(case=("chain", "delta1", 7.0, 1e308))
@example(case=("chain", "bulk0", 1e248, T0))
@example(case=("params", ("p_Nm1;1", 2), 1e308, None))
@example(case=("target", (1, 2, True), -1e308, None))
@given(case=CASES)
def test_extreme_finite_inputs_end_in_an_exit_code(tmp_path_factory, base, case):
    work = tmp_path_factory.mktemp("fuzz")
    files, argv = _inputs(case, base, work)
    for name, text in files.items():
        (work / name).write_text(text)
    rc = main(argv)
    assert rc in {0, 1, 2, 3, 4}
    artifacts = sorted(work.glob("out.*"))
    if rc:
        assert not artifacts
    for path in artifacts:
        assert not NON_FINITE.search(path.read_text()), path.name


# a 20-node chain with delta1 = 7 overflows its phases at t0 = 1e308: once a
# NaN table, then numpy warnings before the typed error
NAN_CHAIN = {"n": 20, "delta1": 7.0, "delta2": 1.0, "bulk": [1.0] * 15}
BIG_TARGET = werner_target(0.4)
BIG_TARGET[1, 2] = BIG_TARGET[2, 1] = -1e308


@pytest.mark.parametrize("files, argv, code, message", [
    pytest.param({"chain.json": json.dumps(NAN_CHAIN)},
                 ["compute-params", "--chain", "chain.json", "--t0", "1e308", "--out", "out.csv"],
                 1, "numerical check failed: phase lambda t overflows at t = 1e+308",
                 id="nan-table"),
    pytest.param({"chain.json": json.dumps({"n": 12, "delta1": 0.55, "delta2": 0.817,
                                            "bulk": [1e248] + [1] * 6})},
                 ["compute-params", "--chain", "chain.json", "--t0", "5", "--out", "out.csv"],
                 1, "numerical check failed: eigendecomposition reconstruction error",
                 id="eigh-fails"),
    pytest.param({"target.json": json.dumps({"re": BIG_TARGET.real.tolist(),
                                             "im": BIG_TARGET.imag.tolist()})},
                 ["create-state", "--target", "file:target.json", "--params", "params.csv",
                  "--out", "out.json"],
                 2, "invalid input: target.json: not a density matrix "
                    "(an entry of magnitude 1.0e+308)",
                 id="target-entry-1e308"),
    pytest.param({"params.csv": lambda tuned: _mutated_table(tuned, "p_Nm1;1", 2, 1e308)},
                 ["create-state", "--target", "werner", "--p", "0.4", "--params", "params.csv",
                  "--out", "out.json"],
                 2, "params.csv: entry p_Nm1;1 = (1e+308", id="table-entry-1e308"),
    # sizes that once ended in a MemoryError traceback with exit 1, refused
    # before any allocation
    pytest.param({}, ["compute-params", "--n", "10000000000000", "--t0", "1", "--out", "out.csv"],
                 2, "invalid input: chain may have at most 1000 nodes", id="n-1e13"),
    pytest.param({}, ["compute-params", "--n", "1001", "--t0", "1", "--out", "out.csv"],
                 2, "invalid input: chain may have at most 1000 nodes", id="n-1001"),
    pytest.param({"chain.json": json.dumps({"n": 10**13, "delta1": 1.0, "delta2": 1.0,
                                            "bulk": None})},
                 ["compute-params", "--chain", "chain.json", "--t0", "1", "--out", "out.csv"],
                 2, "chain may have at most 1000 nodes", id="chain-file-n-1e13"),
    pytest.param({}, ["create-state", "--target", "werner", "--p", "0.4", "--params", "params.csv",
                      "--starts", "1000000000000", "--out", "out.json"],
                 2, "invalid config: 1000000000000 is greater than the maximum of 10000",
                 id="create-state-starts-1e12"),
    pytest.param({}, ["create-state", "--target", "werner", "--p", "0.4", "--params", "params.csv",
                      "--starts", "10001", "--out", "out.json"],
                 2, "invalid config: 10001 is greater than the maximum of 10000",
                 id="create-state-starts-10001"),
    pytest.param({}, ["feasibility", "--params", "params.csv", "--starts", "1000000000000",
                      "--out", "out.json"],
                 2, "invalid config: 1000000000000 is greater than the maximum of 10000",
                 id="feasibility-starts-1e12"),
    pytest.param({}, ["disorder-study", "--n", "20", "--tuned", "--epsilon", "0.05", "--chains",
                      "100000000000000", "--seed", "1", "--out", "out.json"],
                 2, "invalid config: 100000000000000 is greater than the maximum of 100000",
                 id="disorder-chains-1e14"),
    # the report samples a fixed number of chains: a config file that sets
    # one is refused before the report prints its first section
    pytest.param({"rp.json": json.dumps({"command": "reproduce-paper", "chains": 100})},
                 ["run", "--config", "rp.json"],
                 2, "invalid config: Additional properties are not allowed ('chains' was "
                    "unexpected)", id="reproduce-chains-config"),
    # refused before the time grid, whose step count the default window
    # of a chain this long would exceed
    pytest.param({}, ["optimize-chain", "--n", "10000000000000", "--out", "out.json"],
                 2, "invalid input: chain may have at most 1000 nodes, got 10000000000000",
                 id="optimize-chain-n-1e13"),
])
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_once_unhandled_input_exits_typed(tmp_path, monkeypatch, capsys, files, argv, code,
                                          message):
    monkeypatch.chdir(tmp_path)
    assert main(["compute-params", "--n", "20", "--tuned", "--out", "params.csv"]) == 0
    tuned = (tmp_path / "params.csv").read_text()
    for name, text in files.items():
        (tmp_path / name).write_text(text(tuned) if callable(text) else text)
    capsys.readouterr()
    assert main(argv) == code
    out, err = capsys.readouterr()
    assert message in err
    assert "Traceback" not in err
    assert not out and not list(tmp_path.glob("out.*"))
