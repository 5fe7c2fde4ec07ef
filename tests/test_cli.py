import json
import math
import sys

import jsonschema
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spinline import benchmarks as bm
from spinline import cli
from spinline import disorder, dynamics, inverse, receiver, verification
from spinline.cli import EXIT_OK, EXIT_REPORT_FAILED, main
from spinline.errors import InputError
from spinline.inverse import werner_target
from spinline.probing import probe_outputs_to_json, probe_set, simulate_probes
from spinline.receiver import assemble_rho, import_params_csv
from spinline.verification import tuned_line_params

# the exit codes are asserted as the README documents them: 2 for an invalid
# config or input, 4 for an infeasible target


@pytest.fixture()
def workdir(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    return tmp_path


@pytest.fixture(scope="module")
def params_csv(tmp_path_factory):
    path = tmp_path_factory.mktemp("params") / "params.csv"
    rc = main(["compute-params", "--n", "20", "--tuned", "--out", str(path)])
    assert rc == EXIT_OK
    return path


def test_optimize_chain_artifact(workdir, capsys):
    rc = main(["optimize-chain", "--n", "7", "--grid-step", "0.05",
               "--out", "opt.json"])
    assert rc == EXIT_OK
    artifact = json.loads((workdir / "opt.json").read_text())
    assert artifact["config"]["command"] == "optimize-chain"
    result = artifact["result"]
    assert set(result) == {"n", "delta1", "delta2", "t0", "amplitude", "coarse_amplitude"}
    assert result["amplitude"] > 0.9
    assert result["amplitude"] >= result["coarse_amplitude"] > 0.9


@pytest.mark.parametrize("args, message", [
    pytest.param(["--delta1-range", box], "invalid input", id=box)
    for box in ("0.9,0.5", "0.5", "0.5,x")
] + [
    # refused before np.arange asks for ~9 GiB of lattice
    pytest.param(["--grid-step", "1e-9", "--delta1-range", "0.5,0.5000001"],
                 "less than the minimum of 0.0001", id="grid-step-1e-9"),
    # refused before scoring 1.44e8 lattice points, about three hours
    pytest.param(["--grid-step", "0.0001"], "lattice points, more than 1000000",
                 id="grid-step-1e-4"),
])
def test_optimize_chain_bad_search_box_exit_code(workdir, args, message, capsys):
    rc = main(["optimize-chain", "--n", "7", *args, "--out", "opt.json"])
    assert rc == 2
    assert message in capsys.readouterr().err
    assert not (workdir / "opt.json").exists()


def test_optimize_chain_config_range_needs_two_values(workdir, capsys):
    for values, message in (([0.5], "too short"), ([0.5, 0.6, 0.7], "too long")):
        (workdir / "cfg.json").write_text(json.dumps({
            "command": "optimize-chain", "n": 7, "delta1_range": values,
        }))
        assert main(["run", "--config", "cfg.json"]) == 2
        assert message in capsys.readouterr().err


def test_compute_params_matches_reference(params_csv):
    params = import_params_csv(params_csv)
    assert params.n_entries == 170
    assert params.t0 == bm.TUNED_CHAINS[20]["t0"]
    for key, per_n in bm.FAMILY_I_REFERENCE.items():
        assert abs(params.get(*key) - complex(per_n[20])) < 1e-4


def test_probe_params_from_external_outputs(workdir, params_csv):
    params = import_params_csv(params_csv)
    (workdir / "outputs.json").write_text(
        probe_outputs_to_json(simulate_probes(params))
    )
    rc = main(["probe-params", "--outputs", "outputs.json", "--t0", repr(params.t0),
               "--out", "probed.csv"])
    assert rc == EXIT_OK
    probed = import_params_csv(workdir / "probed.csv")
    assert np.max(np.abs(probed.entries - params.entries)) < 1e-9
    assert probed.t0 == params.t0


def test_probe_params_records_chain_t0(workdir):
    assert main(["probe-params", "--n", "20", "--tuned", "--out", "probed.csv"]) == EXIT_OK
    assert "# t0: 26.441" in (workdir / "probed.csv").read_text()
    assert import_params_csv(workdir / "probed.csv").t0 == bm.TUNED_CHAINS[20]["t0"]


def test_nan_t0_params_csv_rejected(workdir, params_csv, capsys):
    text = params_csv.read_text()
    t0_line = next(line for line in text.splitlines() if line.startswith("# t0:"))
    (workdir / "nan.csv").write_text(text.replace(t0_line, "# t0: nan"))
    with pytest.raises(InputError, match="not finite"):
        import_params_csv(workdir / "nan.csv")
    rc = main(["create-state", "--target", "werner", "--p", "0.4", "--params", "nan.csv"])
    assert rc == 2


def test_nan_entry_params_csv_rejected(workdir, params_csv, capsys):
    # a nan entry would reach the solver's eigh and end in a LinAlgError
    lines = params_csv.read_text().splitlines()
    row = next(i for i, line in enumerate(lines) if line.startswith("p_Nm1,3,"))
    lines[row] = "p_Nm1,3,nan,0.0,III"
    (workdir / "nan.csv").write_text("\n".join(lines) + "\n")
    with pytest.raises(InputError, match="entry p_Nm1;3 is not finite"):
        import_params_csv(workdir / "nan.csv")
    rc = main(["create-state", "--target", "werner", "--p", "0.5", "--params", "nan.csv"])
    assert rc == 2
    assert "p_Nm1;3 is not finite" in capsys.readouterr().err


@pytest.mark.parametrize("repeat, message", [
    ("row", "repeated entry p_N;1"),
    ("t0", "repeated '# t0' line"),
])
def test_repeated_params_csv_line_rejected(workdir, params_csv, repeat, message, capsys):
    # a second copy must not win silently: with p_N;1 read as 0.5 the
    # Werner solve would run on a wrong line and exit 4, infeasible
    lines = params_csv.read_text().splitlines()
    if repeat == "row":
        kind, idx, _re, *rest = next(line for line in lines if line.startswith("p_N,1,")).split(",")
        lines.append(",".join([kind, idx, "0.5", *rest]))
    else:
        lines.insert(0, "# t0: 30.0")
    (workdir / "repeated.csv").write_text("\n".join(lines) + "\n")
    with pytest.raises(InputError, match=message):
        import_params_csv(workdir / "repeated.csv")
    rc = main(["create-state", "--target", "werner", "--p", "0.5", "--params", "repeated.csv"])
    assert rc == 2
    assert message in capsys.readouterr().err


# option -> the command line that reads the file in.bin through it
NOT_UTF8 = {
    "params": ["feasibility", "--params", "in.bin"],
    "chain": ["compute-params", "--chain", "in.bin", "--t0", "1", "--out", "out.csv"],
    "outputs": ["probe-params", "--outputs", "in.bin", "--t0", "1", "--out", "out.csv"],
    "config": ["run", "--config", "in.bin"],
    "target": ["create-state", "--target", "file:in.bin", "--params", "params.csv"],
}


@pytest.mark.parametrize("option", sorted(NOT_UTF8))
def test_input_file_not_utf8_exit_code(workdir, params_csv, option, capsys):
    # a byte-order mark of UTF-16 is no UTF-8 text: the reader names the file
    (workdir / "params.csv").write_bytes(params_csv.read_bytes())
    (workdir / "in.bin").write_bytes(b"\xff\xfe")
    assert main(NOT_UTF8[option]) == 2
    err = capsys.readouterr().err
    assert "in.bin" in err and "'utf-8' codec can't decode byte 0xff" in err


@pytest.mark.parametrize("option", ["chain", "config", "outputs", "target"])
def test_input_file_nested_too_deep_exit_code(workdir, params_csv, option, capsys):
    # the JSON decoder recurses once a level, so this nesting ends in a
    # RecursionError: each JSON option names the file and exits 2
    (workdir / "params.csv").write_bytes(params_csv.read_bytes())
    (workdir / "in.bin").write_text("[" * 100000 + "]" * 100000)
    assert main(NOT_UTF8[option]) == 2
    out, err = capsys.readouterr()
    assert "in.bin" in err and "RecursionError" in err
    assert out == "" and not (workdir / "out.csv").exists()


def test_params_csv_cell_over_field_limit_rejected(workdir, params_csv, capsys):
    # the csv module refuses a cell longer than csv.field_size_limit()
    lines = params_csv.read_text().splitlines()
    lines.append("p_N,1," + "1" * 131073 + ",0.0,I")
    (workdir / "long.csv").write_text("\n".join(lines) + "\n")
    with pytest.raises(InputError, match="field larger than field limit"):
        import_params_csv(workdir / "long.csv")
    assert main(["feasibility", "--params", "long.csv"]) == 2
    assert "long.csv: malformed parameter table" in capsys.readouterr().err


def test_create_state_werner(workdir, params_csv):
    rc = main(["create-state", "--target", "werner", "--p", "0.4",
               "--params", str(params_csv), "--out", "sol.json"])
    assert rc == EXIT_OK
    artifact = json.loads((workdir / "sol.json").read_text())
    assert artifact["result"]["residual"] < 1e-10
    assert set(artifact["result"]["controls"]) == {
        "a_12", "a_13", "a_14", "a_23", "a_24", "a_34"
    }


def test_create_state_reruns_identically(workdir, params_csv):
    args = ["create-state", "--target", "werner", "--p", "0.2",
            "--params", str(params_csv), "--out", "a.json"]
    assert main(args) == EXIT_OK
    first = (workdir / "a.json").read_bytes()
    assert main(args) == EXIT_OK
    assert (workdir / "a.json").read_bytes() == first


def test_create_state_general_target(workdir, params_csv):
    target = np.diag([1.0, 0, 0, 0]).astype(complex)
    (workdir / "target.json").write_text(
        json.dumps({"re": target.real.tolist(), "im": target.imag.tolist()})
    )
    rc = main(["create-state", "--target", "file:target.json",
               "--params", str(params_csv), "--starts", "4", "--out", "sol.json"])
    assert rc == EXIT_OK
    artifact = json.loads((workdir / "sol.json").read_text())
    assert artifact["result"]["residual"] < 1e-6


def test_create_state_nonphysical_target_exit_code(workdir, params_csv, capsys):
    zeros = np.zeros((4, 4)).tolist()
    targets = {
        "not a density matrix": json.dumps(
            {"re": np.diag([0.5, 0.5, 0.5, -0.5]).tolist(), "im": zeros}),
        "JSONDecodeError": "{'re': [[1]]",
        "KeyError": json.dumps({"re": np.diag([1.0, 0, 0, 0]).tolist()}),
        "must be 4x4": json.dumps({"re": [[1.0]], "im": [[0.0]]}),
        "ValueError": json.dumps({"re": [["a"] * 4] * 4, "im": zeros}),
        "TypeError": json.dumps([1, 2]),
        # numpy read "0.25" and true as numbers, and an unknown key was ignored
        "target.json: must hold JSON {'re': 4x4, 'im': 4x4} numbers (ValueError: re: '0.25' "
        "is not of type 'number')": json.dumps(
            {"re": [["0.25", 0, 0, 0], [0, 0.25, 0, 0], [0, 0, 0.25, 0], [0, 0, 0, 0.25]],
             "im": zeros}),
        "im: True is not of type 'number'": json.dumps(
            {"re": np.diag([1.0, 0, 0, 0]).tolist(), "im": [[True, 0, 0, 0]] + zeros[1:]}),
        "unknown key 'Re', not one of im, re": json.dumps(
            {"re": np.diag([1.0, 0, 0, 0]).tolist(), "Re": zeros, "im": zeros}),
        # an integer beyond the float range ended in an OverflowError traceback
        "OverflowError": json.dumps({"re": np.diag([10**400, 0, 0, 0]).tolist(), "im": zeros}),
        # nan compares false, so only an explicit check refuses it
        "non-finite": json.dumps({"re": np.diag([float("nan"), 0.5, 0.5, 0.0]).tolist(),
                                  "im": zeros}),
    }
    for message, text in targets.items():
        (workdir / "target.json").write_text(text)
        rc = main(["create-state", "--target", "file:target.json",
                   "--params", str(params_csv)])
        assert rc == 2, message
        assert message in capsys.readouterr().err


def test_probe_params_unsupported_sender_exit_code(workdir, monkeypatch, capsys):
    def no_work(*args, **kwargs):
        raise AssertionError("the line was computed before the sender was checked")

    monkeypatch.setattr(cli, "diagonalize", no_work)
    rc = main(["probe-params", "--n", "20", "--tuned", "--sender", "3", "--out", "p.csv"])
    assert rc == 2
    assert "n_sender=4" in capsys.readouterr().err
    assert not (workdir / "p.csv").exists()


def test_cached_parser_matches_a_fresh_one(tmp_path, monkeypatch, capsys):
    runs = [["optimize-chain", "--n", "7", "--grid-step", "0.2", "--out", "opt.json"],
            ["compute-params", "--n", "20", "--tuned", "--out", "params.csv"]]

    def artifacts_and_help(folder):
        monkeypatch.chdir(tmp_path / folder)
        for argv in runs:  # back to back, in this one process
            assert main(argv) == EXIT_OK
        helps = []
        for argv in (["--help"], ["optimize-chain", "--help"], ["run", "--help"]):
            with pytest.raises(SystemExit):
                main(argv)
            helps.append(capsys.readouterr().out)
        return [(tmp_path / folder / argv[-1]).read_bytes() for argv in runs], helps

    for folder in ("cached", "fresh"):
        (tmp_path / folder).mkdir()
    assert cli.build_parser() is cli.build_parser()
    cached = artifacts_and_help("cached")
    monkeypatch.setattr(cli, "build_parser", cli.build_parser.__wrapped__)
    assert cli.build_parser() is not cli.build_parser()
    assert artifacts_and_help("fresh") == cached


def test_create_state_infeasible_exit_code(params_csv):
    rc = main(["create-state", "--target", "werner", "--p", "0.95",
               "--params", str(params_csv)])
    assert rc == 4


@pytest.mark.parametrize("argv", [
    "compute-params --n 4 --t0 1",
    "compute-params --n 20 --tuned --sender 19",
    # a 7-node sender fits the chain, but its table is above the bound
    "compute-params --n 20 --tuned --sender 7",
    "disorder-study --n 20 --tuned --epsilon 0.05 --chains 2 --seed 1 --sender 7",
    "probe-params --n 5 --t0 1",
    "disorder-study --n 5 --t0 1 --epsilon 0.1 --chains 2 --seed 1",
    # a perturbed bulk is a non-uniform profile, which needs 7 nodes
    "disorder-study --n 6 --t0 3 --epsilon 0.05 --seed 0 --sender 3",
])
def test_sender_too_long_exit_code(workdir, argv, capsys):
    assert main(argv.split() + ["--out", "out"]) == 2
    assert "invalid input" in capsys.readouterr().err
    assert not (workdir / "out").exists()


def test_table_naming_sender_above_bound_exit_code(workdir, params_csv, capsys):
    # p_N rows naming node 7 fix a 7-node sender, above receiver.MAX_SENDER
    text = params_csv.read_text()
    (workdir / "big.csv").write_text(text.replace("\np_N,1,", "\np_N,7,", 1))
    assert main(["create-state", "--target", "werner", "--p", "0.4",
                 "--params", "big.csv", "--out", "out.json"]) == 2
    assert "big.csv: p_N entries name a 7-node sender, more than 6 nodes" in (
        capsys.readouterr().err)
    assert not (workdir / "out.json").exists()


def test_create_state_werner_five_node_sender(workdir):
    assert main(["compute-params", "--n", "20", "--tuned", "--sender", "5",
                 "--out", "s5.csv"]) == EXIT_OK
    rc = main(["create-state", "--target", "werner", "--p", "0.4",
               "--params", "s5.csv", "--out", "sol.json"])
    assert rc == EXIT_OK
    result = json.loads((workdir / "sol.json").read_text())["result"]
    assert result["residual"] <= 1e-10
    params = import_params_csv(workdir / "s5.csv")
    controls = [result["controls"][f"a_{n}{m}"] for n, m in params.pairs]
    rho = assemble_rho(params, np.r_[np.zeros(6), controls])  # a0 = a_i = 0 on five nodes
    assert np.max(np.abs(rho - werner_target(0.4))) <= 1e-10
    rc = main(["create-state", "--target", "werner", "--p", "0.9", "--params", "s5.csv"])
    assert rc == 4


def test_feasibility_smoke(workdir, params_csv, capsys):
    rc = main(["feasibility", "--params", str(params_csv),
               "--grid", "0.8:0.92:0.04", "--starts", "32", "--out", "f.json"])
    assert rc == EXIT_OK
    artifact = json.loads((workdir / "f.json").read_text())
    assert 0.85 < artifact["result"]["boundary"] < 0.92


@pytest.mark.parametrize("grid", ["0.5:0.5:0.1", "0.5:x:0.1", "0.9:0.8:-0.1",
                                  "1.1:1.2:0.05", "-0.2:0.1:0.1", "0.95:1.05:0.05",
                                  # refused before np.arange asks for ~73 TiB of grid
                                  "0:1:1e-13", "0:1:1e-300"])
def test_feasibility_bad_grid_exit_code(params_csv, grid, capsys):
    rc = main(["feasibility", "--params", str(params_csv), f"--grid={grid}"])
    assert rc == 2
    assert "invalid input" in capsys.readouterr().err


def test_feasibility_grid_stops_at_hi(workdir, params_csv):
    # the grid is 0.2, 0.6: the next point, 1.0, lies past hi
    rc = main(["feasibility", "--params", str(params_csv),
               "--grid", "0.2:0.86:0.4", "--out", "f.json"])
    assert rc == EXIT_OK
    result = json.loads((workdir / "f.json").read_text())["result"]
    assert result["boundary"] == 0.6
    assert result["resolution"] == pytest.approx(0.4, abs=1e-15)


def test_feasibility_grid_ending_at_one(workdir, params_csv):
    # lo + 20 step of 0.8:1.0:0.01 is 1 + 2e-16 before rounding
    rc = main(["feasibility", "--params", str(params_csv),
               "--grid", "0.8:1.0:0.01", "--out", "f.json"])
    assert rc == EXIT_OK
    result = json.loads((workdir / "f.json").read_text())["result"]
    assert result["boundary"] == pytest.approx(bm.WERNER_FEASIBLE_MAX, abs=0.002)
    assert result["resolution"] <= 5e-4


@pytest.mark.parametrize("drop", ["P_mm,", "# t0:"])
def test_incomplete_params_csv_exit_code(workdir, params_csv, drop, capsys):
    lines = params_csv.read_text().splitlines(keepends=True)
    kept = [line for line in lines if not line.startswith(drop)]
    assert len(kept) < len(lines)
    (workdir / "bad.csv").write_text("".join(kept))
    with pytest.raises(InputError):
        import_params_csv(workdir / "bad.csv")
    rc = main(["create-state", "--target", "werner", "--p", "0.4",
               "--params", "bad.csv"])
    assert rc == 2
    assert "invalid input" in capsys.readouterr().err


def test_disorder_study_diagonalizes_each_chain_once(workdir, monkeypatch):
    calls, diagonalize = [], dynamics.diagonalize

    def counted(spec, *args, **kwargs):
        calls.append(int(np.prod(spec.bulk.shape[:-1])))  # chains in the stack
        return diagonalize(spec, *args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.startswith("spinline") and getattr(module, "diagonalize", None) is not None:
            monkeypatch.setattr(module, "diagonalize", counted)
    assert main(["disorder-study", "--n", "20", "--tuned", "--epsilon", "0.05",
                 "--chains", "5", "--seed", "7", "--out", "study.json"]) == EXIT_OK
    assert sorted(calls) == [1, 5]  # the base chain and one stack of five sampled chains


def test_disorder_study_artifacts(workdir):
    args = ["disorder-study", "--n", "20", "--tuned", "--epsilon", "0.05",
            "--chains", "5", "--seed", "7", "--out", "study.json",
            "--params-csv", "stats.csv", "--robustness-csv", "rob.csv"]
    assert main(args) == EXIT_OK
    artifact = json.loads((workdir / "study.json").read_text())
    assert artifact["config"]["seed"] == 7
    assert len(artifact["result"]["param_stats"]) == 170
    assert len(artifact["result"]["werner_robustness"]) == 9
    assert artifact["result"]["werner_skipped_p"] == []
    assert (workdir / "stats.csv").exists() and (workdir / "rob.csv").exists()
    # reruns are byte-identical
    first = (workdir / "study.json").read_bytes()
    assert main(args) == EXIT_OK
    assert (workdir / "study.json").read_bytes() == first


def test_disorder_study_stops_at_first_infeasible_werner_p(workdir):
    # the tuned 60-node line creates Werner states up to p = 0.7 only
    assert main(["disorder-study", "--n", "60", "--tuned", "--epsilon", "0.05",
                 "--chains", "2", "--seed", "7", "--out", "study.json",
                 "--robustness-csv", "rob.csv"]) == EXIT_OK
    result = json.loads((workdir / "study.json").read_text())["result"]
    feasible = [round(0.1 * k, 1) for k in range(8)]
    assert [pt["p"] for pt in result["werner_robustness"]] == feasible
    assert result["werner_skipped_p"] == [0.8]
    rows = (workdir / "rob.csv").read_text().splitlines()
    assert [float(row.split(",")[0]) for row in rows if row[0].isdigit()] == feasible


def _canonical(path):
    """The text of a JSON artifact, checked to be one sorted-key line."""
    text = path.read_text()
    assert text.endswith("\n") and text.count("\n") == 1
    assert text == json.dumps(json.loads(text), sort_keys=True) + "\n"
    return text


# the commands whose artifact goes to stdout without --out
ARTIFACTS = {
    "optimize-chain": ["optimize-chain", "--n", "7", "--grid-step", "0.2"],
    "create-state-werner": ["create-state", "--target", "werner", "--p", "0.4",
                            "--params", "params.csv"],
    "create-state-file": ["create-state", "--target", "file:target.json",
                          "--params", "params.csv", "--starts", "4"],
    "feasibility": ["feasibility", "--params", "params.csv", "--grid", "0.3:0.5:0.1",
                    "--starts", "4"],
}


@pytest.mark.parametrize("case", sorted(ARTIFACTS))
def test_json_artifact_is_one_canonical_line(workdir, params_csv, case, capsys):
    (workdir / "params.csv").write_bytes(params_csv.read_bytes())
    target = werner_target(0.4)
    (workdir / "target.json").write_text(
        json.dumps({"re": target.real.tolist(), "im": target.imag.tolist()}))
    assert main(ARTIFACTS[case] + ["--out", "a.json"]) == EXIT_OK
    artifact = json.loads(_canonical(workdir / "a.json"))
    # without --out, the same line less the config's "out"
    del artifact["config"]["out"]
    capsys.readouterr()
    assert main(ARTIFACTS[case]) == EXIT_OK
    assert capsys.readouterr().out == json.dumps(artifact, sort_keys=True) + "\n"


def test_dumped_probe_outputs_are_one_canonical_line(workdir):
    assert main(["probe-params", "--n", "20", "--tuned", "--dump-outputs", "outputs.json",
                 "--out", "p.csv"]) == EXIT_OK
    _canonical(workdir / "outputs.json")


def test_disorder_study_artifact_holds_the_library_values(workdir):
    assert main(["disorder-study", "--n", "20", "--tuned", "--epsilon", "0.05",
                 "--chains", "5", "--seed", "7", "--out", "study.json"]) == EXIT_OK
    result = json.loads(_canonical(workdir / "study.json"))["result"]
    params = verification.tuned_line_params(20)
    sample = disorder.sample_line_params(verification.tuned_spec(20), params.t0, 0.05,
                                         n_chains=5, seed=7)
    study = disorder.param_statistics(params, sample)
    controls = inverse.solve_werner(params, inverse.WERNER_P, seed=7)
    robustness = disorder.werner_robustness(sample, controls.p, controls.x)
    stats = [result["param_stats"][f"{kind};{indices}"]
             for kind, indices, _family in zip(*receiver.table_labels(4))]
    assert [complex(*s["mean"]) for s in stats] == study.mean.tolist()
    assert [s["std"] for s in stats] == study.std.tolist()
    assert [complex(*s["shift"]) for s in stats] == study.shift.tolist()
    assert [[row[k] for k in ("p", "mean_delta", "std_delta", "sem")]
            for row in result["werner_robustness"]] == np.column_stack(robustness).tolist()


def test_numerical_check_exit_code(workdir, monkeypatch, capsys):
    monkeypatch.setattr(receiver, "SYMMETRY_TOL", -1.0)
    rc = main(["compute-params", "--n", "20", "--tuned", "--out", "params.csv"])
    assert rc == EXIT_REPORT_FAILED
    err = capsys.readouterr().err
    assert err.startswith("numerical check failed: P_mm Hermitian symmetry")
    assert "Traceback" not in err
    assert not (workdir / "params.csv").exists()


@pytest.mark.parametrize("fault, message", [
    ("symmetry", "P_mm Hermitian symmetry"),
    ("stacked eigh", "chain 1: eigendecomposition reconstruction error"),
])
def test_disorder_study_numerical_check_exit_code(workdir, monkeypatch, capsys, fault, message):
    if fault == "symmetry":
        monkeypatch.setattr(receiver, "SYMMETRY_TOL", -1.0)
    else:
        svd = np.linalg.svd

        def faulty(m):
            u, s, wt = svd(m)
            if m.ndim == 3:  # the sampled stack fails, the base chain passes
                s[1, 0] += 1e-6
            return u, s, wt

        monkeypatch.setattr(np.linalg, "svd", faulty)
    rc = main(["disorder-study", "--n", "20", "--tuned", "--epsilon", "0.05",
               "--chains", "3", "--seed", "7", "--out", "study.json",
               "--params-csv", "stats.csv", "--robustness-csv", "rob.csv"])
    assert rc == EXIT_REPORT_FAILED
    err = capsys.readouterr().err
    assert err.startswith(f"numerical check failed: {message}")
    assert "Traceback" not in err
    assert list(workdir.iterdir()) == []


@pytest.mark.parametrize("seed", ["1", "2"])
def test_disorder_study_epsilon_of_one_or_more_exit_code(workdir, seed, capsys):
    # seed 2 draws couplings that all stay positive at eps 1.05, seed 1 does
    # not; both are refused before any chain is sampled
    for eps in ("1.05", "1"):
        rc = main(["disorder-study", "--n", "20", "--tuned", "--epsilon", eps,
                   "--chains", "2", "--seed", seed, "--out", "study.json"])
        assert rc == 2
        assert "maximum of 1" in capsys.readouterr().err
    assert not (workdir / "study.json").exists()


def test_zero_valued_options_survive(workdir, params_csv):
    # 0 must not be treated like an unset flag
    rc = main(["create-state", "--target", "werner", "--p", "0.0",
               "--params", str(params_csv), "--seed", "0", "--out", "p0.json"])
    assert rc == EXIT_OK
    artifact = json.loads((workdir / "p0.json").read_text())
    assert artifact["config"]["p"] == 0.0
    assert artifact["config"]["seed"] == 0
    assert artifact["result"]["residual"] < 1e-10


def test_disorder_study_bare_n_uses_tuned_chain(workdir):
    rc = main(["disorder-study", "--n", "20", "--epsilon", "0.05",
               "--chains", "3", "--seed", "1", "--out", "s.json"])
    assert rc == EXIT_OK
    assert json.loads((workdir / "s.json").read_text())["result"]["epsilon"] == 0.05


def test_disorder_study_requires_seed(capsys):
    with pytest.raises(SystemExit) as err:
        main(["disorder-study", "--n", "20", "--tuned", "--epsilon", "0.05",
              "--out", "study.json"])
    assert err.value.code == 2


def test_invalid_config_exit_code_and_no_artifact(workdir, capsys):
    rc = main(["compute-params", "--n", "20", "--out", "params.csv"])
    assert rc == 2  # --t0 or --tuned missing
    assert not (workdir / "params.csv").exists()


@pytest.mark.parametrize("command", ["create-state", "feasibility"])
def test_solver_starts_bounded_above(command):
    # checked by the schema before the params file is read or a start drawn
    config = {"command": command, "params": "missing.csv"}
    if command == "create-state":
        config["target"] = "werner"
    assert cli.validate_config({**config, "starts": cli.MAX_STARTS})["starts"] == 10**4
    with pytest.raises(cli.ConfigError, match="^10001 is greater than the maximum of 10000$"):
        cli.validate_config({**config, "starts": cli.MAX_STARTS + 1})


def test_run_config_file(workdir, capsys):
    (workdir / "cfg.json").write_text(json.dumps({
        "command": "compute-params", "n": 20, "tuned": True, "out": "p.csv",
    }))
    assert main(["run", "--config", "cfg.json"]) == EXIT_OK
    assert (workdir / "p.csv").exists()


def test_run_config_rejects_unknown_keys(workdir, capsys):
    (workdir / "cfg.json").write_text(json.dumps({
        "command": "compute-params", "n": 20, "tuned": True, "bogus": 1,
    }))
    assert main(["run", "--config", "cfg.json"]) == 2


def _probe_outputs(drop_last=False):
    records = json.loads(probe_outputs_to_json(simulate_probes(tuned_line_params(20))))
    return json.dumps(records[:-1] if drop_last else records)


def _nan_probe_outputs():
    # JSON readers take NaN; one would spread to 79 of the 170 extracted entries
    records = json.loads(_probe_outputs())
    records[0]["rho"]["re"][0][1] = float("nan")
    return json.dumps(records)


def _probe_outputs_with(kind, indices):
    # the full probe set and one more record, which carries the first record's rho
    records = json.loads(_probe_outputs())
    records.append({"probe": {"kind": kind, "indices": indices}, "rho": records[0]["rho"]})
    return json.dumps(records)


def _probe_outputs_edited(edit):
    records = json.loads(_probe_outputs())
    edit(records)
    return json.dumps(records)


def _zero_probe_outputs():
    zero = {"re": np.zeros((4, 4)).tolist(), "im": np.zeros((4, 4)).tolist()}
    return json.dumps([{"probe": {"kind": p.kind, "indices": list(p.indices)}, "rho": zero}
                       for p in probe_set()])


_CHAIN = ["compute-params", "--chain", "in.json", "--t0", "1", "--out", "out.csv"]
_OUTPUTS = ["probe-params", "--outputs", "in.json", "--t0", "1", "--out", "out.csv"]
_SPEC = {"n": 20, "delta1": 0.55, "delta2": 0.817, "bulk": None}

# case -> (content of in.json, or a callable making it; command line; words on stderr)
OUTSIDE_JSON = {
    "config-not-json": ("{command: compute-params", ["run", "--config", "in.json"],
                        "not JSON"),
    "config-not-object": ("[1]", ["run", "--config", "in.json"], "JSON object"),
    "chain-not-json": ("n=20", _CHAIN, "JSONDecodeError"),
    "chain-missing-key": ({"n": 20, "delta2": 0.8}, _CHAIN, "'delta1'"),
    "chain-nonpositive": ({**_SPEC, "delta1": -0.5}, _CHAIN, "strictly positive"),
    "chain-too-short": ({**_SPEC, "n": 3}, _CHAIN, "at least 4 nodes"),
    "chain-nan": ({**_SPEC, "delta1": float("nan")}, _CHAIN, "must be finite"),
    "chain-infinity": ({**_SPEC, "delta2": float("inf")}, _CHAIN, "must be finite"),
    "chain-stacked-delta": ({**_SPEC, "delta1": [0.55, 0.6]}, _CHAIN, "stack of chains"),
    "chain-stacked-bulk": ({**_SPEC, "bulk": [[1.0] * 15] * 2}, _CHAIN, "stack of chains"),
    "config-nan": ({"command": "compute-params", "n": 20, "tuned": True,
                    "t0": float("nan"), "out": "out.csv"},
                   ["run", "--config", "in.json"], "must be finite"),
    "config-negative-t0": ({"command": "compute-params", "n": 20, "t0": -1.0,
                            "out": "out.csv"},
                           ["run", "--config", "in.json"], "-1.0 is less than the minimum of 0"),
    "config-float-n": ({"command": "compute-params", "n": 20.0, "tuned": True,
                        "out": "out.csv"},
                       ["run", "--config", "in.json"], "is not of type 'integer'"),
    "config-n-not-in-enum": ({"command": "reproduce-paper", "n": 21},
                             ["run", "--config", "in.json"], "21 is not one of [20, 60]"),
    # several errors: the first in validate_config's order is reported
    "config-required-first": ({"command": "optimize-chain", "bogus": float("nan")},
                              ["run", "--config", "in.json"], "'n' is a required property"),
    "config-unknown-key-next": ({"command": "compute-params", "n": "20", "bogus": 1},
                                ["run", "--config", "in.json"], "('bogus' was unexpected)"),
    "config-schema-order": ({"command": "compute-params", "t0": "1", "n": "20"},
                            ["run", "--config", "in.json"], "'20' is not of type 'integer'"),
    "config-finite-first": ({"command": "compute-params", "n": float("inf")},
                            ["run", "--config", "in.json"], "n must be finite, got inf"),
    "config-t-max": ({"command": "optimize-chain", "n": 7, "t_max": 5.0, "out": "out.csv"},
                     ["run", "--config", "in.json"],
                     "Additional properties are not allowed ('t_max' was unexpected)"),
    "config-first-item": ({"command": "optimize-chain", "n": 7, "delta1_range": ["a", "b"]},
                          ["run", "--config", "in.json"], "'a' is not of type 'number'"),
    "outputs-missing-probe": ([{"rho": {"re": [], "im": []}}], _OUTPUTS, "'probe'"),
    "outputs-not-4x4": ([{"probe": {"kind": "single", "indices": [1]},
                          "rho": {"re": [[1.0]], "im": [[0.0]]}}], _OUTPUTS, "4x4"),
    "outputs-incomplete": (lambda: _probe_outputs(drop_last=True), _OUTPUTS,
                           "incomplete probe set"),
    "outputs-degenerate": (_zero_probe_outputs, _OUTPUTS, "magnitude 0.0e+00"),
    "outputs-nan": (_nan_probe_outputs, _OUTPUTS,
                    "probe single (1,): rho has a non-finite entry"),
    "outputs-duplicate": (lambda: _probe_outputs_with("single", [1]), _OUTPUTS,
                          "probe single (1,) appears twice"),
    "outputs-unknown-kind": (lambda: _probe_outputs_with("bogus", [1]), _OUTPUTS,
                             "probe bogus (1,) is not in the probe set"),
    "outputs-index-out-of-range": (lambda: _probe_outputs_with("single", [9]), _OUTPUTS,
                                   "probe single (9,) is not in the probe set"),
    "outputs-index-not-integer": (lambda: _probe_outputs_with("single", [[1]]), _OUTPUTS,
                                  "probe indices must be integers"),
    # JSON values numpy would have read as numbers, and keys that would
    # have been ignored: each names the file and the key
    "chain-string-coupling": ({**_SPEC, "delta1": "0.55"}, _CHAIN,
                              "in.json: not a chain spec (ValueError: delta1: '0.55' is not of "
                              "type 'number')"),
    "chain-bool-coupling": ({**_SPEC, "delta2": True}, _CHAIN,
                            "delta2: True is not of type 'number'"),
    "chain-string-bulk": ({**_SPEC, "bulk": ["1.0"] * 15}, _CHAIN,
                          "bulk: '1.0' is not of type 'number'"),
    "chain-float-n": ({**_SPEC, "n": 20.0}, _CHAIN, "n: 20.0 is not of type 'integer'"),
    # an integer beyond the float range ended in an OverflowError traceback
    "chain-huge-integer": ({**_SPEC, "delta1": 10**400}, _CHAIN,
                           "OverflowError: int too large to convert to float"),
    "chain-misspelled-bulk": ({"n": 20, "delta1": 0.55, "delta2": 0.817, "Bulk": [2.0] * 15},
                              _CHAIN, "in.json: not a chain spec (ValueError: unknown key "
                              "'Bulk', not one of bulk, delta1, delta2, n)"),
    "outputs-string-entry": (lambda: _probe_outputs_edited(
        lambda records: records[3]["rho"]["re"][0].__setitem__(1, "0.1")), _OUTPUTS,
        "in.json: malformed probe outputs (ValueError: record 3 rho.re: '0.1' is not of "
        "type 'number')"),
    "outputs-unknown-record-key": (lambda: _probe_outputs_edited(
        lambda records: records[3].update(extra=1)), _OUTPUTS,
        "record 3: unknown key 'extra', not one of probe, rho"),
    "outputs-unknown-probe-key": (lambda: _probe_outputs_edited(
        lambda records: records[3]["probe"].update(phase=0.0)), _OUTPUTS,
        "record 3 probe: unknown key 'phase', not one of indices, kind"),
    "outputs-unknown-rho-key": (lambda: _probe_outputs_edited(
        lambda records: records[3]["rho"].update(Im=records[3]["rho"]["im"])), _OUTPUTS,
        "record 3 rho: unknown key 'Im', not one of im, re"),
    "outputs-without-t0": (_probe_outputs,
                           ["probe-params", "--outputs", "in.json", "--out", "out.csv"],
                           "--t0 is required"),
}


@pytest.mark.parametrize("case", sorted(OUTSIDE_JSON))
def test_malformed_outside_json_exit_code(workdir, case, capsys):
    content, argv, message = OUTSIDE_JSON[case]
    if callable(content):
        content = content()
    elif not isinstance(content, str):
        content = json.dumps(content)
    (workdir / "in.json").write_text(content)
    assert main(argv) == 2
    assert message in capsys.readouterr().err
    assert not (workdir / "out.csv").exists()


@pytest.mark.parametrize("argv", [
    ["compute-params", "--n", "20", "--t0", "nan"],
    ["probe-params", "--n", "20", "--t0", "inf"],
    ["create-state", "--target", "werner", "--p", "nan", "--params", "PARAMS"],
    ["feasibility", "--params", "PARAMS", "--grid", "0.8:nan:0.05"],
    ["optimize-chain", "--n", "7", "--grid-step", "nan"],
    ["disorder-study", "--n", "20", "--epsilon", "nan", "--seed", "1"],
    ["disorder-study", "--n", "20", "--epsilon", "inf", "--seed", "1"],
], ids=["compute-t0-nan", "probe-t0-inf", "create-p-nan", "feasibility-grid-nan",
        "optimize-grid-step-nan", "disorder-epsilon-nan",
        "disorder-epsilon-inf"])
def test_non_finite_flag_exit_code(workdir, params_csv, argv, capsys):
    argv = [str(params_csv) if a == "PARAMS" else a for a in argv]
    assert main(argv + ["--out", "out"]) == 2
    assert "finite" in capsys.readouterr().err
    assert not (workdir / "out").exists()


@pytest.mark.parametrize("argv", [
    ["compute-params", "--n", "20", "--t0=-1"],
    ["probe-params", "--n", "20", "--tuned", "--t0=-5e-324"],
    ["disorder-study", "--n", "20", "--tuned", "--t0=-26.441", "--epsilon", "0.05",
     "--seed", "1"],
], ids=["compute", "probe", "disorder"])
@pytest.mark.filterwarnings("error::UserWarning")
def test_negative_t0_exit_code(workdir, argv, capsys):
    # once a table evolved backwards in time, announced by a raw UserWarning
    assert main(argv + ["--out", "out"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("invalid config: ") and "is less than the minimum of 0" in err
    assert "Warning" not in err and "Traceback" not in err
    assert not (workdir / "out").exists()


def _keywords(schema):
    """Every keyword of a schema and of the schemas of its properties and items."""
    inner = list(schema.get("properties", {}).values())
    if "items" in schema:
        inner.append(schema["items"])
    return set(schema).union(*map(_keywords, inner))


def test_schemas_are_valid():
    for schema in cli.SCHEMAS.values():
        jsonschema.validators.validator_for(schema).check_schema(schema)
        # validate_config would ignore a keyword it does not implement
        assert _keywords(schema) <= cli.KEYWORDS


def test_report_shows_rounding_level_deviations_by_their_tolerance():
    # their digits, and the sign of a zero part, move with the BLAS thread count
    assert verification._below("x", 1.7e-15, 1e-10, "dev").line() == "PASS  x: dev below 1e-10"
    assert verification._below("x", 2e-10, 1e-10, "dev").line() == \
        "FAIL  x: dev 2.00e-10, not below 1e-10"
    assert not verification._below("x", np.nan, 1e-10, "dev").passed
    assert verification._complex5(complex(-1e-17, 0.967434)) == "0.00000+0.96743j"
    assert verification._complex5(complex(0.963606, -1e-17)) == "0.96361+0.00000j"
    assert verification._complex5(-0.08929j) == "0.00000-0.08929j"


def test_reproduce_fast_n60(capsys):
    rc = main(["reproduce-paper", "--n", "60", "--fast"])
    out = capsys.readouterr().out
    assert rc == EXIT_OK
    assert "ALL CHECKS PASSED" in out
    assert "family I values (n=60)" in out


def test_config_file_takes_the_schema_defaults(workdir, monkeypatch):
    # a config file may leave out what a flag may leave out, and the runner
    # sees the same resolved config either way
    seen = []
    monkeypatch.setitem(cli.RUNNERS, "reproduce-paper",
                        lambda config: seen.append(config) or EXIT_OK)
    (workdir / "cfg.json").write_text(json.dumps({"command": "reproduce-paper", "fast": True}))
    assert main(["run", "--config", "cfg.json"]) == EXIT_OK
    assert main(["reproduce-paper", "--fast"]) == EXIT_OK
    assert seen == 2 * [{"command": "reproduce-paper", "fast": True, "n": 20}]


def test_report_runs_the_acceptance_configuration(monkeypatch, capsys):
    # the report's seeded sections print the lines of the checks the
    # acceptance suite calls, on the same draws; the oracle section is slow
    # and draws from its own seed
    monkeypatch.setattr(cli, "check_oracle_equivalence", lambda: [])
    assert main(["reproduce-paper", "--n", "20", "--fast"]) == EXIT_OK
    report = capsys.readouterr().out.splitlines()
    for title, check in [("probe-protocol closure", verification.check_probe_closure),
                         ("werner creation", verification.check_werner),
                         ("disorder robustness", verification.check_disorder)]:
        start = report.index(f"== {title}") + 1
        lines = [result.line() for result in check()]
        assert report[start:start + len(lines)] == lines
        assert report[start + len(lines)].startswith("== ")  # and the section has no more


@pytest.mark.parametrize("option", ["--seed", "--chains"])
def test_report_takes_no_seed_or_chain_count(capsys, option):
    with pytest.raises(SystemExit) as err:
        main(["reproduce-paper", "--fast", option, "1"])
    assert err.value.code == 2
    stderr = capsys.readouterr().err
    assert f"unrecognized arguments: {option} 1" in stderr and "Traceback" not in stderr


def test_arrival_window_is_no_option(workdir, capsys):
    # the first-maximum scan always covers 3N
    with pytest.raises(SystemExit) as err:
        main(["optimize-chain", "--n", "7", "--t-max", "5", "--out", "opt.json"])
    assert err.value.code == 2
    stderr = capsys.readouterr().err
    assert "unrecognized arguments: --t-max 5" in stderr and "Traceback" not in stderr
    assert not (workdir / "opt.json").exists()


def _argv(config):
    """The command line of a config: --key=value per option, a bare flag per true one."""
    argv = [config["command"]]
    for key, value in config.items():
        flag = "--" + key.replace("_", "-")
        if value is True:
            argv.append(flag)
        elif isinstance(value, list):
            argv.append(f"{flag}={value[0]!r},{value[1]!r}")
        elif key != "command":
            argv.append(f"{flag}={value}")
    return argv


# per command, options at small sizes; "PARAMS" stands for a parameter table
PARITY = {
    "optimize-chain": {"n": 7, "grid_step": 0.2, "delta1_range": [0.4, 1.0], "out": "a.json"},
    "compute-params": {"n": 20, "tuned": True, "out": "a.csv"},
    "probe-params": {"n": 20, "tuned": True, "dump_outputs": "probes.json", "out": "a.csv"},
    "create-state": {"target": "werner", "p": 0.4, "params": "PARAMS", "out": "a.json"},
    "feasibility": {"params": "PARAMS", "grid": "0.8:0.92:0.04", "starts": 4,
                    "out": "a.json"},
    "disorder-study": {"n": 20, "tuned": True, "epsilon": 0.05, "chains": 3, "seed": 7,
                       "out": "a.json", "params_csv": "s.csv", "robustness_csv": "r.csv"},
    "reproduce-paper": {"n": 60, "fast": True},
}


@pytest.mark.parametrize("command", sorted(PARITY))
def test_flags_and_config_file_write_the_same_artifacts(tmp_path, monkeypatch, params_csv,
                                                        command, capsys):
    config = {"command": command, **{key: str(params_csv) if value == "PARAMS" else value
                                     for key, value in PARITY[command].items()}}
    (tmp_path / "cfg.json").write_text(json.dumps(config))
    written = {}
    for way, argv in (("flags", _argv(config)),
                      ("config", ["run", "--config", str(tmp_path / "cfg.json")])):
        (tmp_path / way).mkdir()
        monkeypatch.chdir(tmp_path / way)
        assert main(argv) == EXIT_OK
        written[way] = {path.name: path.read_bytes() for path in (tmp_path / way).iterdir()}
        written[way]["stdout"] = capsys.readouterr().out
    assert written["config"] == written["flags"]
    assert len(written["flags"]) == 1 + sum(key in config for key in
                                            ("out", "dump_outputs", "params_csv",
                                             "robustness_csv"))
    if command == "feasibility":
        recorded = json.loads(written["config"]["a.json"])["config"]
        assert (recorded["seed"], recorded["starts"]) == (0, 4)


def _option_values(field):
    """Values of one schema option that have a command-line form."""
    if "enum" in field:
        return st.sampled_from(field["enum"])
    kind = field["type"]
    if kind == "boolean":
        return st.just(True)  # false is the unset flag
    if kind == "integer":
        return st.integers(min_value=field.get("minimum"), max_value=field.get("maximum"))
    if kind == "number":
        bounds = {}
        for bound, inclusive, exclusive in (("min", "minimum", "exclusiveMinimum"),
                                            ("max", "maximum", "exclusiveMaximum")):
            if inclusive in field or exclusive in field:
                bounds[f"{bound}_value"] = field.get(inclusive, field.get(exclusive))
                bounds[f"exclude_{bound}"] = exclusive in field
        return st.floats(allow_nan=False, allow_infinity=False, **bounds)
    if kind == "array":
        return st.lists(st.floats(allow_nan=False, allow_infinity=False),
                        min_size=field["minItems"], max_size=field["maxItems"])
    return st.text()  # a string, or a string or null, whose null has no flag


@st.composite
def _flag_configs(draw):
    command = draw(st.sampled_from(sorted(cli.SCHEMAS)))
    schema = cli.SCHEMAS[command]
    config = {"command": command}
    for key, field in schema["properties"].items():
        if key != "command" and (key in schema["required"] or draw(st.booleans())):
            config[key] = draw(_option_values(field))
    return config


# jsonschema, the oracle of validate_config: every number finite, then Draft
# 2020-12 with an int-only integer
_ORACLE = jsonschema.validators.extend(
    jsonschema.Draft202012Validator,
    type_checker=jsonschema.Draft202012Validator.TYPE_CHECKER.redefine(
        "integer", lambda _checker, value: type(value) is int),
)
_ORACLES = {command: _ORACLE(schema) for command, schema in cli.SCHEMAS.items()}


def _finite(value):
    if isinstance(value, float):
        return math.isfinite(value)
    if isinstance(value, list):
        return all(_finite(v) for v in value)
    return True


def _oracle_errors(config):
    """The message of every error the oracle finds in a config of a known command."""
    return ([f"{key} must be finite, got {value!r}"
             for key, value in config.items() if not _finite(value)]
            + [error.message for error in _ORACLES[config["command"]].iter_errors(config)])


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(_flag_configs())
def test_schema_valid_config_survives_the_command_line(config):
    parsed = cli._config_from_args(cli.build_parser().parse_args(_argv(config)))
    expected = cli.validate_config(config)
    assert _oracle_errors(config) == []
    assert json.dumps(cli.validate_config(parsed), sort_keys=True) == json.dumps(
        expected, sort_keys=True)
    assert expected == {**{key: field["default"]
                           for key, field in cli.SCHEMAS[config["command"]]["properties"].items()
                           if "default" in field}, **config}


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(), inner, max_size=3),
    max_leaves=6,
)
_KEYS = sorted({key for schema in cli.SCHEMAS.values() for key in schema["properties"]})


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(st.dictionaries(st.sampled_from(_KEYS), _JSON),
       st.sampled_from([*sorted(cli.SCHEMAS), None]))
def test_any_json_config_is_accepted_or_refused_as_config_error(config, command):
    if command is not None:
        config["command"] = command
    if isinstance(config.get("command"), str) and config["command"] in cli.SCHEMAS:
        errors = _oracle_errors(config)
    else:
        errors = [f"unknown command {config.get('command')!r}"]
    try:
        resolved = cli.validate_config(config)
    except InputError as exc:  # a ConfigError is an InputError, and a SpinlineError
        assert isinstance(exc, cli.ConfigError)
        # the oracle's message where it finds one error, one of theirs where several
        assert str(exc) in errors
        return
    assert errors == []
    assert resolved.items() >= config.items()
    for key, field in cli.SCHEMAS[resolved["command"]]["properties"].items():
        if field.get("type") == "integer" and key in resolved:
            assert type(resolved[key]) is int, key
