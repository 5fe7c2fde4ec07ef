"""The four benchmark workloads: generated inputs, op schedules and checks.

Each workload owns a work directory.  ``setup`` writes the fixed inputs
and runs one cheap warm-up op; ``schedule`` yields the timed ops in a
fixed order drawn from the seed, writing each op's inputs just before it
is yielded (outside the timed interval).  The program only ever sees
generated files and numbers on its command line.

``fixed`` is the op set every untraced run holds at least; the run goes on
through the schedule until ``--seconds`` have passed.  The traced run
replays exactly the first ``traced`` ops of the schedule (``fixed`` unless
set) and any op a workload adds to it, so its counts repeat for a given
seed.
"""

import itertools
import json
from dataclasses import dataclass
from typing import Callable

import numpy as np

import checks
from spinline import benchmarks as bm

N60 = bm.TUNED_CHAINS[60]


@dataclass
class Op:
    kind: str
    argv: list
    check: Callable[[], list]  # failure messages, run after the op


class Workload:
    name = ""
    fixed = {}  # kind -> ops of that kind every untraced run holds at least
    traced = None  # kind -> ops of the traced run, when not ``fixed``
    headline = ""  # kind whose latency over the reference time is op_ref_ratio
    reference = {}  # reference.py kernel -> repetitions, timed around each headline op

    def __init__(self, seed, work):
        self.seed = seed
        self.work = work

    def path(self, name):
        return str(self.work / name)

    def setup(self, run):
        """Write the fixed inputs and run the warm-up op.

        ``run(argv)`` runs one CLI op and raises unless it exits with 0.
        """
        raise NotImplementedError

    def schedule(self):
        raise NotImplementedError

    def traced_ops(self):
        """The first ops of the schedule that make up ``traced``."""
        need = dict(self.traced or self.fixed)
        for op in self.schedule():
            if need.get(op.kind, 0) > 0:
                need[op.kind] -= 1
                yield op
            if not any(need.values()):
                return


class TuneN20(Workload):
    """optimize-chain --n 20 at the default 0.01 grid, on seeded sub-boxes
    of the default box that contain the reference optimum."""

    name = "tune-n20"
    fixed = {"tune": 10}
    headline = "tune"
    reference = {"eigh_small": 2, "eigh_medium": 2}
    box = 24  # grid steps per side: 25 x 25 points, 1/23 of the default box
    margin = 4  # grid steps kept between the reference optimum and the edge

    def setup(self, run):
        run(["optimize-chain", "--n", "20", "--grid-step", "0.2",
             "--out", self.path("warmup.json")])

    def _corners(self, rng):
        """Distinct lower corners on the default 0.01 lattice of (0.05, 1.25)."""
        ref = bm.TUNED_CHAINS[20]
        spans = [range(round((d - 0.05) / 0.01) - self.box + self.margin,
                       round((d - 0.05) / 0.01) - self.margin + 1)
                 for d in (ref["delta1"], ref["delta2"])]
        cells = [(a, b) for a in spans[0] for b in spans[1]]
        for k in rng.permutation(len(cells)):
            yield cells[k]

    def schedule(self):
        rng = np.random.default_rng([self.seed, 0])
        for i, corner in enumerate(self._corners(rng)):
            lo1, lo2 = (round(0.05 + 0.01 * c, 2) for c in corner)
            hi1, hi2 = (round(lo + 0.01 * self.box, 2) for lo in (lo1, lo2))
            out = self.path(f"tune-{i}.json")
            yield Op("tune",
                     ["optimize-chain", "--n", "20", "--delta1-range", f"{lo1},{hi1}",
                      "--delta2-range", f"{lo2},{hi2}", "--out", out],
                     lambda out=out: checks.check_tune(out))


class LineN60(Workload):
    """compute-params --chain on 60-node chains: op 0 is the tuned chain,
    later ops draw bulk couplings 1 + 0.05 U(-1, 1) from the seed."""

    name = "line-n60"
    fixed = {"params": 8}
    headline = "params"
    reference = {"eigh_large": 2}
    states_per_check = 4

    def _chain(self, i, bulk):
        path = self.path(f"chain-{i}.json")
        spec = {"n": 60, "delta1": N60["delta1"], "delta2": N60["delta2"],
                "bulk": None if bulk is None else bulk.tolist()}
        with open(path, "w") as fh:
            json.dump(spec, fh)
        return path, spec

    def setup(self, run):
        run(["compute-params", "--n", "20", "--tuned", "--out", self.path("warmup.csv")])

    def schedule(self):
        rng = np.random.default_rng([self.seed, 1])
        i = 0
        while True:
            bulk = None if i == 0 else 1.0 + 0.05 * rng.uniform(-1.0, 1.0, 55)
            (chain, spec), out = self._chain(i, bulk), self.path(f"params-{i}.csv")
            check_rng = np.random.default_rng([self.seed, 2, i])
            yield Op(
                "params",
                ["compute-params", "--chain", chain, "--t0", repr(N60["t0"]), "--out", out],
                lambda out=out, r=check_rng, spec=spec, ref=60 if i == 0 else None:
                    checks.check_line_table(out, r, self.states_per_check, spec,
                                            N60["t0"], ref),
            )
            i += 1


class InverseN20(Workload):
    """Werner and general creates and short infeasible scans against the
    probed 20-node line.  The headline is the infeasible path of the Werner
    multi-start: a two-point ``feasibility`` scan above the boundary, where
    every start runs to its evaluation cap.  The default 11-solve scan runs
    in the traced run only."""

    name = "inverse-n20"
    fixed = {"general": 1, "infeasible": 40, "werner": 24}
    traced = {"general": 1, "infeasible": 2, "werner": 10}
    headline = "infeasible"
    reference = {"fit": 5}
    werners_between = 2  # Werner creates after each infeasible scan
    p_max = 0.85  # Werner creates: p ~ U(0, p_max)
    infeasible_lo = (0.89, 0.94)  # infeasible scans: first point ~ U(lo, hi)
    infeasible_step = 0.01
    infeasible_starts = 2  # per point; each start costs the same 400 evaluations

    def setup(self, run):
        self.params = self.path("line.csv")
        run(["probe-params", "--n", "20", "--tuned", "--out", self.params])
        self.table = checks.LineTable(self.params)
        run(["create-state", "--target", "werner", "--p", "0.5",
             "--params", self.params, "--out", self.path("warmup.json")])

    def _werner(self, i, rng):
        p = float(rng.uniform(0.0, self.p_max))
        out = self.path(f"werner-{i}.json")
        return Op("werner",
                  ["create-state", "--target", "werner", "--p", repr(p),
                   "--params", self.params, "--out", out],
                  lambda: checks.check_werner(out, self.table, p))

    def _general(self, i, rng):
        target = self.table.rho(*checks.random_sender(rng))
        target_path, out = self.path(f"target-{i}.json"), self.path(f"general-{i}.json")
        with open(target_path, "w") as fh:
            json.dump({"re": target.real.tolist(), "im": target.imag.tolist()}, fh)
        return Op("general",
                  ["create-state", "--target", f"file:{target_path}",
                   "--params", self.params, "--out", out],
                  lambda: checks.check_general(out, self.table, target))

    def _infeasible(self, i, rng):
        lo, step = float(rng.uniform(*self.infeasible_lo)), self.infeasible_step
        out = self.path(f"infeasible-{i}.json")
        return Op("infeasible",
                  ["feasibility", "--params", self.params,
                   "--grid", f"{lo!r}:{lo + step!r}:{step!r}",
                   "--starts", str(self.infeasible_starts),
                   "--seed", str(int(rng.integers(2**31 - 1))), "--out", out],
                  lambda: checks.check_infeasible_scan(out, lo, step))

    def _feasibility(self):
        out = self.path("feasibility.json")
        return Op("feasibility",
                  ["feasibility", "--params", self.params, "--grid", "0.80:0.95:0.05",
                   "--out", out],
                  lambda: checks.check_feasibility(out))

    def schedule(self):
        rng = np.random.default_rng([self.seed, 3])
        yield self._general(0, rng)
        for i in itertools.count(1):
            yield self._infeasible(i, rng)
            for j in range(self.werners_between):
                yield self._werner(i * (self.werners_between + 1) + j, rng)

    def traced_ops(self):
        yield from super().traced_ops()
        yield self._feasibility()


class DisorderN20(Workload):
    """disorder-study --n 20 --tuned --chains 100, epsilon alternating
    0.025 / 0.05, study seeds drawn from the seed."""

    name = "disorder-n20"
    fixed = {"study": 8}
    headline = "study"
    reference = {"python_loop": 2, "fit": 5}
    chains = 100

    def setup(self, run):
        run(["disorder-study", "--n", "20", "--tuned", "--epsilon", "0.05",
             "--chains", "2", "--seed", "0", "--out", self.path("warmup.json")])

    def schedule(self):
        rng = np.random.default_rng([self.seed, 4])
        i = 0
        while True:
            eps = (0.025, 0.05)[i % 2]
            out = self.path(f"study-{i}.json")
            yield Op("study",
                     ["disorder-study", "--n", "20", "--tuned", "--epsilon", str(eps),
                      "--chains", str(self.chains),
                      "--seed", str(int(rng.integers(2**31 - 1))), "--out", out],
                     lambda out=out, eps=eps: checks.check_disorder(out, eps, self.chains))
            i += 1


WORKLOADS = {w.name: w for w in (TuneN20, LineN60, InverseN20, DisorderN20)}
