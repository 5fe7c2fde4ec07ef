"""Output checks at the paper's tolerances, independent of the timed code.

The checks read the artifacts the CLI wrote (JSON and CSV) and compare
them with the reference tables in ``spinline.benchmarks``.  Receiver
states are re-assembled here from the written parameter table with a
separate implementation of the quadratic form, so a fault in
``spinline.receiver`` cannot hide itself.  Every check returns a list of
failure messages; an empty list is a pass.
"""

import csv
import itertools
import json

import numpy as np

from spinline import benchmarks as bm

N_SENDER = 4
PAIRS = list(itertools.combinations(range(1, N_SENDER + 1), 2))
N_ENTRIES = 170

COUPLING_TOL = 0.005  # criterion 1
T0_TOL = 0.02
AMPLITUDE_TOL = 5e-4
TABLE_TOL = 1e-4  # criteria 2 and 3
AMPLITUDE_RECOMPUTE_TOL = 1e-10  # p_N, p_Nm1 against an independent eigh
HERMITIAN_TOL = 1e-12
STATE_TOL = 1e-10  # Hermiticity and trace of an assembled receiver state
PSD_TOL = 1e-9
WERNER_TOL = 1e-10  # criterion 7
GENERAL_TOL = 1e-8
FEASIBLE_TOL = 0.002


class LineTable:
    """The 170 parameters of a params CSV, as arrays indexed by sender pair."""

    def __init__(self, path):
        self.entries = {}
        with open(path, newline="") as fh:
            rows = [r for r in csv.reader(fh) if r and not r[0].startswith("#")]
        for kind, idx, re, im, _family in rows[1:]:
            key = (kind, tuple(int(i) for i in idx.split(";")))
            self.entries[key] = complex(float(re), float(im))
        e = self.entries.get
        nodes = range(1, N_SENDER + 1)
        self.p_N = np.array([e(("p_N", (k,)), np.nan) for k in nodes])
        self.p_Nm1 = np.array([e(("p_Nm1", (k,)), np.nan) for k in nodes])
        self.p_pair = np.array([e(("p_pair", p), np.nan) for p in PAIRS])
        self.P = {kind: np.array([[e((kind, (k, *p)), np.nan) for p in PAIRS] for k in nodes])
                  for kind in ("P_Nm1", "P_N")}
        for kind in ("P_mm", "P_mN", "P_NN"):
            self.P[kind] = np.array([[e((kind, (*p, *q)), np.nan) for q in PAIRS]
                                     for p in PAIRS])

    def rho(self, a0, a1, a2):
        """Receiver density matrix in the basis |0>, |N-1>, |N>, |(N-1)N>."""
        f_m, f_N, f_q = self.p_Nm1 @ a1, self.p_N @ a1, self.p_pair @ a2
        P, c2 = self.P, np.conj(a2)
        r = np.zeros((4, 4), complex)
        r[0, 1] = a0 * np.conj(f_m) + a1 @ P["P_Nm1"] @ c2
        r[0, 2] = a0 * np.conj(f_N) + a1 @ P["P_N"] @ c2
        r[0, 3] = a0 * np.conj(f_q)
        r[1, 1] = (abs(f_m) ** 2 + a2 @ P["P_mm"] @ c2).real
        r[1, 2] = f_m * np.conj(f_N) + a2 @ P["P_mN"] @ c2
        r[1, 3] = f_m * np.conj(f_q)
        r[2, 2] = (abs(f_N) ** 2 + a2 @ P["P_NN"] @ c2).real
        r[2, 3] = f_N * np.conj(f_q)
        r[3, 3] = abs(f_q) ** 2
        r[0, 0] = 1.0 - r[1, 1] - r[2, 2] - r[3, 3]
        upper = np.triu_indices(4, 1)
        r[upper[1], upper[0]] = np.conj(r[upper])
        return r


def random_sender(rng):
    """Normalized (a0, a_single, a_double) with a real a0."""
    z = rng.standard_normal(1 + 2 * N_SENDER + 2 * len(PAIRS))
    z /= np.linalg.norm(z)
    a1 = z[1:5] + 1j * z[5:9]
    a2 = z[9:15] + 1j * z[15:21]
    return z[0], a1, a2


def werner_matrix(p):
    m = np.zeros((4, 4), complex)
    m[0, 0] = m[3, 3] = (1.0 - p) / 4.0
    m[1, 1] = m[2, 2] = (1.0 + p) / 4.0
    m[1, 2] = m[2, 1] = -p / 2.0
    return m


def _result(path):
    with open(path) as fh:
        return json.load(fh)["result"]


def _physical(rho, tol=STATE_TOL):
    herm = np.max(np.abs(rho - rho.conj().T))
    trace = abs(np.trace(rho) - 1.0)
    low = np.min(np.linalg.eigvalsh(0.5 * (rho + rho.conj().T)))
    if herm > tol or trace > tol or low < -PSD_TOL:
        return f"herm {herm:.1e}, trace dev {trace:.1e}, min eig {low:.1e}"
    return None


# -- tune-n20 ----------------------------------------------------------------

def check_tune(path, n=20):
    """Criterion 1: tuned couplings, t0 and first-maximum amplitude."""
    got, ref = _result(path), bm.TUNED_CHAINS[n]
    fails = []
    for key, tol in (("delta1", COUPLING_TOL), ("delta2", COUPLING_TOL),
                     ("t0", T0_TOL), ("amplitude", AMPLITUDE_TOL)):
        if not abs(got[key] - ref[key]) <= tol:
            fails.append(f"{key} {got[key]:.5f} vs reference {ref[key]} (tol {tol:g})")
    return fails


# -- line-n60 ----------------------------------------------------------------

def transfer_amplitudes(spec, t0):
    """<N|exp(-i H1 t0)|k> and <N-1|exp(-i H1 t0)|k> for the sender nodes,
    from the one-excitation hopping matrix (J/2 off the diagonal) of a
    chain spec {n, delta1, delta2, bulk}."""
    n = spec["n"]
    bulk = np.ones(n - 5) if spec["bulk"] is None else np.asarray(spec["bulk"], float)
    J = np.concatenate([[spec["delta1"], spec["delta2"]], bulk,
                        [spec["delta2"], spec["delta1"]]])
    evals, evecs = np.linalg.eigh(np.diag(J / 2, 1) + np.diag(J / 2, -1))
    U = (evecs[-2:] * np.exp(-1j * evals * t0)) @ evecs[:N_SENDER].T
    return U[1], U[0]


def check_line_table(path, rng, n_states, spec, t0, reference_n=None):
    """170 entries, Hermitian P_mm / P_NN, physical states of random senders,
    and p_N / p_Nm1 equal to the transfer amplitudes of ``spec`` at ``t0``.

    With ``reference_n`` the family I and II tables of that chain length
    are compared too (criteria 2 and 3).
    """
    table = LineTable(path)
    fails = []
    if len(table.entries) != N_ENTRIES:
        fails.append(f"{len(table.entries)} entries, expected {N_ENTRIES}")
        return fails
    for kind in ("P_mm", "P_NN"):
        dev = np.max(np.abs(table.P[kind] - table.P[kind].conj().T))
        if not dev <= HERMITIAN_TOL:
            fails.append(f"{kind} Hermitian deviation {dev:.1e}")
    for kind, got, want in zip(("p_N", "p_Nm1"), (table.p_N, table.p_Nm1),
                               transfer_amplitudes(spec, t0)):
        dev = np.max(np.abs(got - want))
        if not dev <= AMPLITUDE_RECOMPUTE_TOL:
            fails.append(f"{kind} off the chain's transfer amplitudes by {dev:.1e}")
    for i in range(n_states):
        bad = _physical(table.rho(*random_sender(rng)))
        if bad:
            fails.append(f"random sender {i}: receiver state not physical ({bad})")
    if reference_n is not None:
        fails += _family_mismatches(table.entries, reference_n, "")
    return fails


def _family_mismatches(values, n, what):
    """Family I and II entries of ``values`` off their n-node tables."""
    fails = []
    for ref in (bm.FAMILY_I_REFERENCE, bm.FAMILY_II_REFERENCE):
        for key, per_n in ref.items():
            dev = abs(values[key] - complex(per_n[n]))
            if not dev <= TABLE_TOL:
                fails.append(f"{key}{what} off its n={n} table value by {dev:.1e}")
    return fails


# -- inverse-n20 -------------------------------------------------------------

def check_werner(path, table, p):
    """Residual <= 1e-10, and the state re-assembled from the written
    controls lies within 1e-10 (relative Frobenius) of the Werner target."""
    got = _result(path)
    fails = []
    if not got["residual"] <= WERNER_TOL:
        fails.append(f"werner p={p:.4f} residual {got['residual']:.2e}")
    a2 = np.array([got["controls"][f"a_{n}{m}"] for n, m in PAIRS], complex)
    target = werner_matrix(p)
    rho = table.rho(0.0, np.zeros(N_SENDER, complex), a2)
    delta = np.linalg.norm(rho - target) / np.linalg.norm(target)
    if not delta <= WERNER_TOL:
        fails.append(f"werner p={p:.4f} re-assembled discrepancy {delta:.2e}")
    return fails


def check_general(path, table, target):
    """Residual <= 1e-8, reported and recomputed from the written controls."""
    got = _result(path)
    c = got["controls"]
    a1 = np.array([complex(*z) for z in c["a_single"]])
    a2 = np.array([complex(*z) for z in c["a_double"]])
    worst = np.max(np.abs(table.rho(c["a0"], a1, a2) - target))
    fails = []
    if not got["residual"] <= GENERAL_TOL:
        fails.append(f"general residual {got['residual']:.2e}")
    if not worst <= GENERAL_TOL:
        fails.append(f"general re-assembled residual {worst:.2e}")
    return fails


def check_feasibility(path):
    got = _result(path)
    if not abs(got["boundary"] - bm.WERNER_FEASIBLE_MAX) <= FEASIBLE_TOL:
        return [f"feasibility boundary {got['boundary']:.4f} vs {bm.WERNER_FEASIBLE_MAX}"]
    return []


def check_infeasible_scan(path, lo, step):
    """A two-point scan above the reference boundary reports its first
    point as the boundary: no control reaches either Werner state."""
    got = _result(path)
    fails = []
    if not lo >= bm.WERNER_FEASIBLE_MAX + FEASIBLE_TOL:
        fails.append(f"scan start {lo:.4f} is not above the reference boundary")
    if not (abs(got["boundary"] - lo) <= 1e-12 and abs(got["resolution"] - step) <= 1e-9):
        fails.append(f"scan from {lo:.4f} found boundary {got['boundary']:.4f}, "
                     f"resolution {got['resolution']:.4f}: a point above "
                     f"{bm.WERNER_FEASIBLE_MAX} was solved")
    return fails


# -- disorder-n20 ------------------------------------------------------------

def check_disorder(path, epsilon, chains, n=20):
    """The echoed chain count, 170 parameter statistics whose unperturbed
    values (mean - shift) match the tuned family I and II tables, and
    criterion 8: mean discrepancy <= ceiling + 2 sem at every p."""
    got = _result(path)
    ceiling = bm.ROBUSTNESS_CEILING[epsilon]
    fails = []
    if got["chains"] != chains:
        fails.append(f"{got['chains']} chains echoed, expected {chains}")
    stats = got["param_stats"]
    if len(stats) != N_ENTRIES:
        fails.append(f"{len(stats)} parameter statistics, expected {N_ENTRIES}")
    else:
        unperturbed = {}
        for key, s in stats.items():
            kind, *idx = key.split(";")
            unperturbed[kind, tuple(map(int, idx))] = complex(*s["mean"]) - complex(*s["shift"])
        fails += _family_mismatches(unperturbed, n, " (mean - shift)")
    points = got["werner_robustness"]
    if len(points) != 9:
        fails.append(f"{len(points)} robustness points, expected 9")
    for pt in points:
        if not pt["mean_delta"] <= ceiling + 2.0 * pt["sem"]:
            fails.append(f"eps={epsilon} p={pt['p']}: mean {pt['mean_delta']:.4f} "
                         f"above ceiling {ceiling} + 2 sem")
    return fails
