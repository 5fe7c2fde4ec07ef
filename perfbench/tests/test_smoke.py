"""Smoke profile: one op of each kind per workload, with the output checks on.

    python3 -m pytest -q perfbench/tests

A change that breaks a workload's command fails here in well under a
minute.  The two heavy ops run lighter variants of the same command: a
0.05 boundary grid (criterion 1 still holds after the Nelder-Mead refine)
and the default feasibility scan with 8 starts per Werner solve.
"""

import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import reference  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
from spinline import cli  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SMOKE_ARGS = {"tune": ["--grid-step", "0.05"], "feasibility": ["--starts", "8"]}


def smoke_ops(workload):
    """The first op of each kind the workload runs, its traced run included."""
    seen = set()
    for op in workload.traced_ops():
        if op.kind not in seen:
            seen.add(op.kind)
            op.argv += SMOKE_ARGS.get(op.kind, [])
            yield op


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_one_op_of_each_kind_passes_its_checks(name, tmp_path):
    workload = WORKLOADS[name](seed=3, work=tmp_path)
    runner = run.Runner(cli)
    workload.setup(runner.setup_op)
    for op in smoke_ops(workload):
        runner.timed(op)
    assert runner.failures == []
    assert set(runner.latencies) >= set(workload.fixed)


def test_each_op_is_divided_by_the_references_around_it():
    for workload in WORKLOADS.values():
        assert reference.Reference(workload.reference)() > 0.0
    assert run.reference_ratios([2.0, 6.0], [1.0, 3.0, 1.0]) == [1.0, 3.0]


def test_a_table_for_another_chain_fails_its_check(tmp_path):
    workload = WORKLOADS["line-n60"](seed=3, work=tmp_path)
    runner = run.Runner(cli)
    ops = workload.schedule()
    tuned, disordered = next(ops), next(ops)
    chain = tuned.argv[tuned.argv.index("--chain") + 1]
    disordered.argv[disordered.argv.index("--chain") + 1] = chain  # bulk disorder ignored
    runner.timed(disordered)
    assert (runner.attempted, runner.failed) == (1, 1)
    assert "transfer amplitudes" in runner.failures[0]


def test_tracer_records_spans_and_restores_bindings(tmp_path, monkeypatch):
    monkeypatch.setattr(tracing, "LAYERS", tracing.LAYERS + ("dynamics.removed_name",))
    originals = (cli.main, cli.diagonalize, sys.modules["spinline.disorder"].diagonalize)
    workload = WORKLOADS["line-n60"](seed=3, work=tmp_path)
    with tracing.Tracer() as tracer:
        workload.setup(run.Runner(cli).setup_op)
    assert (cli.main, cli.diagonalize,
            sys.modules["spinline.disorder"].diagonalize) == originals
    assert tracer.absent == ["dynamics.removed_name"]
    totals = tracer.layer_totals()
    assert totals["cli.main"]["calls"] == 1
    assert totals["dynamics.diagonalize"]["calls"] == 1
    assert tracer.calls_under("dynamics.diagonalize", "cli.main") == 1
    main = totals["cli.main"]
    assert 0.0 <= main["self_s"] <= main["total_s"]


def test_without_the_program_the_benchmark_fails_without_a_result(tmp_path):
    shutil.copytree(BENCH, tmp_path / BENCH.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, f"{BENCH.name}/run.py", "--workload", "tune-n20",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert not [line for line in proc.stdout.splitlines() if line.startswith("{")]
