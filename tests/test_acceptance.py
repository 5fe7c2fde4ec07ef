"""Acceptance suite: every release criterion at its stated tolerance.

One test per criterion; each prints a PASS/FAIL line (visible with -s or
in the captured output) plus the per-check details behind it.
"""

import json
import time

import pytest

from spinline import benchmarks as bm
from spinline import verification as verify
from spinline.cli import EXIT_OK, main


def _report(label, results):
    ok = all(r.passed for r in results)
    print(f"\nACCEPTANCE {label}: {'PASS' if ok else 'FAIL'}")
    for r in results:
        print("  " + r.line())
    assert ok, f"{label} failed:\n" + "\n".join(
        r.line() for r in results if not r.passed
    )


def _boundary_via_cli(n, tmp_path):
    out = tmp_path / f"opt{n}.json"
    started = time.time()
    rc = main(["optimize-chain", "--n", str(n), "--out", str(out)])
    elapsed = time.time() - started
    assert rc == EXIT_OK
    result = json.loads(out.read_text())["result"]
    ref = bm.TUNED_CHAINS[n]
    checks = [
        ("delta1", result["delta1"], ref["delta1"], verify.BOUNDARY_COUPLING_TOL),
        ("delta2", result["delta2"], ref["delta2"], verify.BOUNDARY_COUPLING_TOL),
        ("t0", result["t0"], ref["t0"], verify.BOUNDARY_T0_TOL[n]),
        ("amplitude", result["amplitude"], ref["amplitude"], verify.BOUNDARY_AMPLITUDE_TOL),
    ]
    results = [
        verify.CheckResult(
            f"optimize-chain --n {n} {name}",
            abs(got - expect) <= tol,
            f"got {got:.5f}, reference {expect:.5f} (tol {tol:g})",
        )
        for name, got, expect, tol in checks
    ]
    return results, elapsed


def test_criterion_1_boundary_optimization(tmp_path):
    results20, t20 = _boundary_via_cli(20, tmp_path)
    results60, t60 = _boundary_via_cli(60, tmp_path)
    results = results20 + results60
    results.append(verify.CheckResult(
        "runtime budget",
        t20 < 60.0 and t60 < 900.0,
        f"n=20 took {t20:.0f}s (< 60s), n=60 took {t60:.0f}s (< 900s)",
    ))
    _report("criterion 1 (boundary optimization)", results)


def test_criterion_2_family_i_tables():
    _report("criterion 2 (family I values, n=20 and n=60)",
            verify.check_family_i(20) + verify.check_family_i(60))


def test_criterion_3_family_ii_tables():
    _report("criterion 3 (family II values and magnitude windows)",
            verify.check_family_ii(20) + verify.check_family_ii(60))


def test_criterion_4_family_iii_table():
    _report("criterion 4 (family III values, census, symmetry)",
            verify.check_family_iii())


def test_criterion_5_oracle_equivalence():
    _report("criterion 5 (oracle equivalence)", verify.check_oracle_equivalence())


def test_criterion_6_probe_closure():
    _report("criterion 6 (probe-protocol closure)", verify.check_probe_closure())


def test_criterion_7_werner_creation():
    _report("criterion 7 (werner creation and feasibility)", verify.check_werner())


def test_criterion_8_disorder_robustness():
    _report("criterion 8 (disorder robustness, N_p=100)", verify.check_disorder())


def test_criterion_9_invariants():
    _report("criterion 9 (structural invariants)", verify.check_invariants())
