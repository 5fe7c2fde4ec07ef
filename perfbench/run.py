"""spinline benchmark: four CLI workloads timed end to end, per-layer
times from a separate traced run.

    python3 perfbench/run.py --workload line-n60 --seed 1 --seconds 15 --trace 0

Every op goes through the documented entry point ``spinline.cli.main(argv)``
in this one process (schema validation, solvers and artifact writing, as
from the shell), with BLAS pinned to one thread.  Outputs are checked
against the paper's reference values outside the timed interval.

``--trace 0`` runs the workload's ops for ``--seconds`` (at least its fixed
op set) and reports the end-to-end metrics:

    setup_s      process start to the first timed op: the fastest of several
                 fresh-process imports of spinline.cli, plus the fastest of
                 several repetitions of input generation and the warm-up op,
                 sampled before the first op and spread over the run
    peak_rss_mb  peak resident set of this process
    op_ref_ratio median over the workload's headline ops of the op's latency
                 divided by the mean time of a fixed reference computation
                 (reference.py) run just before and just after it

The headline ops of a workload have distinct inputs of near-equal cost.  A
shared host's speed swings by up to 2x over seconds to minutes, in phases
that can cover whole runs, so raw latencies of the same code spread by
tens of percent from run to run; the reference slows with the op, and the
ratio does not.  The raw latencies are printed beside it (fastest, median
and, where ten samples lie beyond it, p90) with their sample counts, but
are not part of the result.

``--trace 1`` runs one set-up and the traced op set, each step once untraced
and once with span tracing installed (see tracing.py), and reports
per-layer calls and self times of the traced steps plus the tracing
overhead.  Spans go to
``.bench_out/<workload>-seed<seed>-trace1/spans.csv``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
give every metric by name, unit and sample count, and a provenance record.
Without an importable ``src/spinline`` the benchmark exits with code 2 and
prints no result.
"""

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".bench_out"

# pinned before numpy is first imported
BLAS_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
SETUP_REPS = 5
# no new op starts after this many seconds of timed work, so a run that has
# become much slower still ends well inside the 180 s limit; and no more
# than this many ops, so one that has become much faster stays small
OP_START_CAP_S = 100.0
OP_COUNT_CAP = 1000

# printed names of each op kind's median and tail latency
KIND_NAMES = {
    "tune": ("tune_p50_s", None),
    "params": ("params_p50_s", None),
    "werner": ("create_p50_s", "create_p90_s"),
    "general": ("general_p50_s", None),
    "infeasible": ("infeasible_scan_p50_s", None),
    "feasibility": ("feasibility_s", None),
    "study": ("study_p50_s", None),
}

PER_LAYER = (
    "hamiltonian.build_blocks.self_s",
    "dynamics.diagonalize.self_s",
    "dynamics.diagonalize.calls",
    "receiver.line_params_at.self_s",
    "receiver.assemble_rho.calls",
    "receiver.assemble_rho.self_s",
    "receiver.export_params_csv.self_s",
    "receiver.import_params_csv.self_s",
    "chainopt.optimize_boundary.self_s",
    "chainopt.first_maximum.calls",
    "chainopt.first_maximum.self_s",
    "inverse.solve_werner.calls",
    "inverse.solve_werner.infeasible",
    "inverse.solve_werner.self_s",
    "inverse.solve_werner.infeasible_s",
    "inverse.least_squares.calls",
    "inverse.starts_per_werner_solve",
    "inverse.feasibility_scan.werner_solves",
    "inverse.solve_general.self_s",
    "disorder.sample_chain.calls",
    "disorder.param_statistics.self_s",
    "disorder.werner_robustness.self_s",
    "probing.simulate_probes.self_s",
    "probing.extract_params.self_s",
    "cli.validate_config.self_s",
    "cli.main.self_s",
    "trace_overhead_s",
)


def parse_args(argv):
    parser = argparse.ArgumentParser(description="spinline benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


class Runner:
    """Runs CLI ops in-process, times them and checks their outputs."""

    def __init__(self, cli):
        self.cli = cli
        self.latencies = {}  # kind -> [s]
        self.refs = []  # reference times around the headline ops, in order
        self.attempted = 0
        self.failed = 0
        self.failures = []

    def call(self, argv):
        """One CLI op with its stdout swallowed; returns the exit code."""
        with contextlib.redirect_stdout(io.StringIO()):
            return self.cli.main(argv)  # looked up per call, so tracing sees it

    def setup_op(self, argv):
        rc = self.call(argv)
        if rc != 0:
            raise RuntimeError(f"set-up op {argv[0]} exited with code {rc}")

    def timed(self, op):
        start = time.perf_counter()
        try:
            rc = self.call(op.argv)
        except Exception:  # an op failure must not end the run
            rc = None
            traceback.print_exc(file=sys.stderr)
        elapsed = time.perf_counter() - start
        try:
            fails = op.check() if rc == 0 else [f"exit code {rc}"]
        except Exception as exc:  # unreadable or malformed output
            fails = [f"output check raised {type(exc).__name__}: {exc}"]
        self.attempted += 1
        self.failed += bool(fails)
        self.latencies.setdefault(op.kind, []).append(elapsed)
        for msg in fails:
            self.failures.append(f"{op.kind} {' '.join(op.argv)}: {msg}")
            print(f"FAILED {op.kind}: {msg}", file=sys.stderr)
        return elapsed


class SetupSampler:
    """Set-up samples: a fresh interpreter importing spinline.cli, then the
    workload's input generation and warm-up op in this process.  setup_s is
    the fastest import plus the fastest set-up; the samples are spread over
    the run, so one slow phase of a shared host does not cover them all."""

    def __init__(self, workload, runner):
        self.workload = workload
        self.runner = runner
        self.imports = []
        self.setups = []

    def __call__(self):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import spinline.cli"], cwd=ROOT,
                       env={**os.environ, "PYTHONPATH": str(ROOT / "src")}, check=True)
        self.imports.append(time.perf_counter() - start)
        start = time.perf_counter()
        self.workload.setup(self.runner.setup_op)
        self.setups.append(time.perf_counter() - start)

    def setup_s(self):
        return min(self.imports) + min(self.setups)


def run_untraced(workload, runner, seconds, sample_setup, reference):
    """Timed ops until ``seconds`` of them have passed and the fixed op set
    is covered.  ``reference`` is timed before each headline op and once
    after the last; that time counts towards ``seconds``.  ``sample_setup``
    runs before the first op and again after each further
    ``seconds / SETUP_REPS`` of timed work, SETUP_REPS times in all; its
    time does not count towards ``seconds``."""
    sample_setup()
    reference()  # first-call costs, untimed
    samples, paused = 1, 0.0
    begin = time.perf_counter()
    done = Counter()
    for op in workload.schedule():
        elapsed = time.perf_counter() - begin - paused
        covered = all(done[k] >= n for k, n in workload.fixed.items())
        if ((covered and (elapsed >= seconds or runner.attempted >= OP_COUNT_CAP))
                or elapsed >= OP_START_CAP_S):
            break
        if samples < SETUP_REPS and elapsed >= samples * seconds / SETUP_REPS:
            start = time.perf_counter()
            sample_setup()
            paused += time.perf_counter() - start
            samples += 1
        if op.kind == workload.headline:
            runner.refs.append(reference())
        runner.timed(op)
        done[op.kind] += 1
    runner.refs.append(reference())
    for _ in range(samples, SETUP_REPS):
        sample_setup()


def reference_ratios(latencies, refs):
    """Each op's latency over the mean of the reference times taken just
    before and just after it; ``refs`` has one entry more than
    ``latencies``."""
    return [op / (0.5 * (before + after))
            for op, before, after in zip(latencies, refs, refs[1:])]


def end_to_end(workload, runner, setup_s):
    ratios = reference_ratios(runner.latencies[workload.headline], runner.refs)
    return {
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "op_ref_ratio": (statistics.median(ratios), "ratio"),
    }


def latency_report(latencies):
    """Per-kind median and tail latencies with their sample counts."""
    lines = []
    for kind, values in latencies.items():
        p50_name, tail_name = KIND_NAMES[kind]
        lines.append((p50_name, statistics.median(values), "s", f"n={len(values)}"))
        if tail_name:
            cut = statistics.quantiles(values, n=10)[8] if len(values) > 1 else values[0]
            beyond = sum(v > cut for v in values)
            if beyond >= 10:
                lines.append((tail_name, cut, "s", f"n={len(values)}, {beyond} beyond"))
            else:
                lines.append((tail_name, None, "s",
                              f"n={len(values)}: only {beyond} beyond, not reported"))
    return lines


def per_layer(tracer, overhead_s):
    totals = tracer.layer_totals()
    werner = totals["inverse.solve_werner"]
    starts = tracer.counts["inverse.least_squares", "inverse.solve_werner"]
    infeasible_s = sum(e - s for name, s, e, _p, err in tracer.spans
                       if name == "inverse.solve_werner" and err == "InfeasibleTargetError")
    values = {
        "inverse.solve_werner.infeasible": werner["errors"]["InfeasibleTargetError"],
        "inverse.solve_werner.infeasible_s": infeasible_s,
        "inverse.least_squares.calls": sum(
            n for (name, _), n in tracer.counts.items() if name == "inverse.least_squares"),
        "inverse.starts_per_werner_solve": starts / werner["calls"] if werner["calls"] else 0.0,
        "inverse.feasibility_scan.werner_solves": tracer.calls_under(
            "inverse.solve_werner", "inverse.feasibility_scan"),
        "trace_overhead_s": overhead_s,
    }
    for layer, t in totals.items():
        values[f"{layer}.calls"] = t["calls"]
        values[f"{layer}.self_s"] = t["self_s"]
    units = {"calls": "count", "infeasible": "count", "werner_solves": "count",
             "starts_per_werner_solve": "1/solve"}
    return {name: (values[name], units.get(name.rsplit(".", 1)[-1], "s"))
            for name in PER_LAYER}, totals


def dominant_layers(totals, traced_s, metrics, top=3):
    """Self-time shares of the traced steps held by the busiest layers, and
    the share of feasibility-scan time spent in infeasible Werner solves."""
    busiest = sorted(totals.items(), key=lambda kv: -kv[1]["self_s"])[:top]
    shares = {f"share.{layer}.self_s": t["self_s"] / traced_s for layer, t in busiest}
    scan_s = totals["inverse.feasibility_scan"]["total_s"]
    if scan_s:
        shares["share.feasibility_scan.infeasible_solves"] = (
            metrics["inverse.solve_werner.infeasible_s"][0] / scan_s)
    return shares


def run_traced(workload, runner, tracing):
    """One set-up and the traced op set, each step run untraced and traced.

    The two runs of a step are adjacent, in alternating order, so drift in
    machine speed and warm caches fall evenly on both sides of the overhead.
    """
    tracer = tracing.Tracer()
    passes = {False: 0.0, True: 0.0}  # traced? -> seconds
    untraced_ops = {}  # kind -> untraced latencies

    def both(step, traced_first, kind=None):
        for traced in (traced_first, not traced_first):
            with tracer if traced else contextlib.nullcontext():
                start = time.perf_counter()
                step()
                elapsed = time.perf_counter() - start
            passes[traced] += elapsed
            if kind and not traced:
                untraced_ops.setdefault(kind, []).append(elapsed)

    both(lambda: workload.setup(runner.setup_op), False)
    ops = list(workload.traced_ops())  # writes the inputs, outside the timing
    for i, op in enumerate(ops):
        both(lambda op=op: runner.timed(op), i % 2 == 0, op.kind)
    return tracer, passes[False], passes[True], untraced_ops


def _blas_version(module):
    try:
        return module.show_config(mode="dicts")["Build Dependencies"]["blas"]["version"]
    except (AttributeError, KeyError, TypeError):
        return None


def _git_commit():
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)}
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True)
    except OSError:
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def _source_sha256():
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def provenance(args):
    import numpy
    import scipy

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "openblas_numpy": _blas_version(numpy),
        "openblas_scipy": _blas_version(scipy),
        "blas_threads": {k: os.environ.get(k) for k in BLAS_THREADS},
        "git_commit": _git_commit(),
        "src_sha256": _source_sha256(),
    }


def _fmt(value):
    return "n/a" if value is None else f"{value:.6g}"


def main(argv=None):
    args = parse_args(argv)
    os.environ.update(BLAS_THREADS)
    sys.path.insert(0, str(ROOT / "src"))
    try:
        from spinline import cli
    except ImportError as exc:
        print(f"cannot import spinline from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    if not Path(cli.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"spinline imported from {cli.__file__}, not from {ROOT / 'src'}",
              file=sys.stderr)
        return 2

    import reference
    import tracing
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    run_dir = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work = run_dir / "work"
    shutil.rmtree(run_dir, ignore_errors=True)
    work.mkdir(parents=True)
    workload = WORKLOADS[args.workload](args.seed, work)
    runner = Runner(cli)
    record = {"provenance": provenance(args)}

    if args.trace:
        tracer, untraced_s, traced_s, untraced_ops = run_traced(workload, runner, tracing)
        metrics, totals = per_layer(tracer, traced_s - untraced_s)
        record["spans"] = tracer.write_spans(run_dir / "spans.csv")
        record["absent_layers"] = tracer.absent
        record["layers"] = {k: {**v, "errors": dict(v["errors"])} for k, v in totals.items()}
        record["untraced_s"], record["traced_s"] = untraced_s, traced_s
        report = [(name, v, u, "") for name, (v, u) in metrics.items()]
        report.append(("untraced_s", untraced_s, "s", "same set-up and ops, tracing off"))
        report.append(("traced_s", traced_s, "s", ""))
        report += [(name, v, u, f"{note}, untraced pass")
                   for name, v, u, note in latency_report(untraced_ops)]
        shares = dominant_layers(totals, traced_s, metrics)
        record["shares"] = shares
        report += [(name, v, "ratio", "") for name, v in shares.items()]
        for layer in tracer.absent:
            report.append((layer, None, "", "absent from this source tree"))
    else:
        sampler = SetupSampler(workload, runner)
        run_untraced(workload, runner, args.seconds, sampler,
                     reference.Reference(workload.reference))
        metrics = end_to_end(workload, runner, sampler.setup_s())
        record["import_reps_s"], record["setup_reps_s"] = sampler.imports, sampler.setups
        record["reference_s"] = runner.refs
        headline = runner.latencies[workload.headline]
        recipe = " + ".join(f"{n} x{r}" for n, r in workload.reference.items())
        notes = {
            "setup_s": f"fastest of {SETUP_REPS} imports {min(sampler.imports):.3f} s "
                       f"+ fastest of {SETUP_REPS} set-ups {min(sampler.setups):.3f} s",
            "op_ref_ratio": f"median of n={len(headline)} {workload.headline} ops "
                            f"over reference {recipe}",
        }
        report = [(name, v, u, notes.get(name, "")) for name, (v, u) in metrics.items()]
        report.append(("op_min_s", min(headline), "s",
                       f"fastest {workload.headline} op, not in the result"))
        report.append(("reference_p50_s", statistics.median(runner.refs), "s",
                       f"n={len(runner.refs)}, not in the result"))
        report += latency_report(runner.latencies)
        report.append(("error_rate", runner.failed / runner.attempted, "ratio",
                       f"{runner.failed} failed of {runner.attempted} ops"))

    record["latencies_s"] = runner.latencies
    record["failures"] = runner.failures
    result = {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }
    record["result"] = result
    shutil.rmtree(work, ignore_errors=True)
    with open(run_dir / "result.json", "w") as fh:
        json.dump(record, fh, indent=1)

    print(f"# {args.workload} seed={args.seed} trace={args.trace}")
    for name, value, unit, note in report:
        print(f"{name:42s} {_fmt(value):>12s} {unit:8s} {note}")
    print("provenance " + json.dumps(record["provenance"], sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
