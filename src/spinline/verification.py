"""End-to-end verification against the benchmark reference values.

Each check_* function exercises one slice of the pipeline at its stated
tolerance and returns CheckResult records; the CLI report and the
acceptance test suite both run through here.
"""

import functools
from dataclasses import dataclass

import numpy as np

from . import benchmarks as bm
from .basis import control_slices, random_controls, sender_pairs, sender_size
from .chainopt import lattice, optimize_boundary
from .disorder import DEFAULT_N_CHAINS, param_statistics, sample_line_params, werner_robustness
from .dynamics import diagonalize, one_excitation_columns
from .errors import NumericalError, SizeMismatchError
from .hamiltonian import ChainSpec, apply_disorder
from .inverse import (
    WERNER_P,
    discrepancy,
    feasibility_scan,
    solve_werner,
    werner_target,
    zero_family_iii,
)
from .probing import extract_params, simulate_probes
from .receiver import (
    SYMMETRY_TOL,
    assemble_rho,
    check_receiver,
    classify_families,
    entry_families,
    line_params_at,
)

TABLE_TOL = 1e-4
APPENDIX_TOL = 2e-5
ORACLE_TOL = 1e-10
FULL_SPACE_TOL = 1e-9
PROBE_TOL = 1e-9
DISORDER_SEED = 0  # draws the disordered chains of criteria 6 and 8

BOUNDARY_COUPLING_TOL = 0.005
BOUNDARY_T0_TOL = {20: 0.02, 60: 0.05}
BOUNDARY_AMPLITUDE_TOL = 5e-4


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str

    def line(self):
        return f"{'PASS' if self.passed else 'FAIL'}  {self.name}: {self.detail}"


def _result(name, passed, detail):
    return CheckResult(name=name, passed=bool(passed), detail=detail)


def _below(name, dev, tol, what):
    """The check dev < tol of a rounding-level deviation.  Its digits move with
    the BLAS thread count, so a line that passes shows the tolerance instead."""
    passed = dev < tol
    shown = "below" if passed else f"{dev:.2e}, not below"
    return _result(name, passed, f"{what} {shown} {tol:g}")


def _complex5(z):
    """z to five decimals, with no negative zero part (a sign that rounding
    noise decides)."""
    return f"{complex(round(z.real, 5) + 0.0, round(z.imag, 5) + 0.0):.5f}"


def tuned_spec(n):
    ref = bm.TUNED_CHAINS[n]
    return ChainSpec(n_nodes=n, delta1=ref["delta1"], delta2=ref["delta2"])


@functools.lru_cache(maxsize=4)
def tuned_line_params(n):
    """Parameter set of the tuned n-node chain at its registration time."""
    return line_params_at(diagonalize(tuned_spec(n)), bm.TUNED_CHAINS[n]["t0"], n_sender=4)


# --- criterion 1: boundary optimization -------------------------------------

def check_boundary_optimization(n):
    ref = bm.TUNED_CHAINS[n]
    opt = optimize_boundary(n)
    checks = [
        ("delta1", opt.delta1, ref["delta1"], BOUNDARY_COUPLING_TOL),
        ("delta2", opt.delta2, ref["delta2"], BOUNDARY_COUPLING_TOL),
        ("t0", opt.t0, ref["t0"], BOUNDARY_T0_TOL[n]),
        ("amplitude", opt.amplitude, ref["amplitude"], BOUNDARY_AMPLITUDE_TOL),
    ]
    out = []
    for name, got, expect, tol in checks:
        out.append(_result(
            f"optimize-chain n={n} {name}",
            abs(got - expect) <= tol,
            f"got {got:.5f}, reference {expect:.5f} (tol {tol:g})",
        ))
    return out


# --- criteria 2-4: parameter tables -----------------------------------------

def _compare_reference(params, reference, n, tol):
    out = []
    for key, per_n in reference.items():
        expect = complex(per_n[n])
        got = params.get(*key)
        dev = abs(got - expect)
        out.append(_result(
            f"n={n} {key[0]};{','.join(map(str, key[1]))}",
            dev <= tol,
            f"got {_complex5(got)}, reference {_complex5(expect)}, |dev| {dev:.2e}",
        ))
    return out


def check_family_i(n):
    return _compare_reference(tuned_line_params(n), bm.FAMILY_I_REFERENCE, n, TABLE_TOL)


def check_family_ii(n):
    params = tuned_line_params(n)
    out = _compare_reference(params, bm.FAMILY_II_REFERENCE, n, TABLE_TOL)
    ranges = classify_families(params)
    win = bm.FAMILY_MAGNITUDE_WINDOWS[n]
    for fam in ("I", "II"):
        lo, hi = ranges[fam]
        wlo, whi = win[fam]
        out.append(_result(
            f"n={n} family {fam} magnitude window",
            abs(lo - wlo) <= 5e-4 and abs(hi - whi) <= 5e-4,
            f"got ({lo:.4f}, {hi:.4f}), reference ({wlo}, {whi})",
        ))
    lo, hi = ranges["III"]
    out.append(_result(
        f"n={n} family III magnitude ceiling",
        hi < win["III"] + 5e-5,
        f"max |P| = {hi:.4f}, ceiling {win['III']}",
    ))
    return out


def check_family_iii():
    params = tuned_line_params(20)
    out = []
    worst = 0.0
    for line, key, expect in bm.FAMILY_III_REFERENCE_20:
        got = params.get(*key)
        dev = abs(got - complex(expect))
        worst = max(worst, dev)
        if dev > APPENDIX_TOL:
            out.append(_result(
                f"family III line {line} {key[0]};{','.join(map(str, key[1]))}",
                False,
                f"got {got:.3e}, reference {expect:.3e}, |dev| {dev:.2e}",
            ))
    out.insert(0, _result(
        "family III table (99 lines, 109 entries)",
        not out,
        f"worst |dev| {worst:.2e} (tol {APPENDIX_TOL:g})",
    ))
    families = entry_families(params.n_sender)
    counts = {fam: int(np.sum(families == fam)) for fam in ("I", "II", "III")}
    out.append(_result(
        "parameter census",
        counts == {"I": 13, "II": 14, "III": 143} and params.n_entries == 170,
        f"|I|={counts['I']} |II|={counts['II']} |III|={counts['III']} total={params.n_entries}",
    ))
    dev_mm = np.max(np.abs(params.P_mm - params.P_mm.conj().T))
    dev_nn = np.max(np.abs(params.P_NN - params.P_NN.conj().T))
    out.append(_below("pair-exchange conjugation symmetry", max(dev_mm, dev_nn), SYMMETRY_TOL,
                      "max deviation"))
    return out


# --- criterion 5: oracle equivalence ----------------------------------------

def sample_chain(base, epsilon, rng):
    """One chain with bulk couplings 1 + epsilon * uniform(-1, 1), 0 <= epsilon < 1,
    drawn on its own: the per-chain oracle of ``disorder.sample_line_params``,
    whose chains are those drawn one after another from ``default_rng(seed)``."""
    return apply_disorder(base, epsilon, rng.uniform(-1.0, 1.0, base.bulk.shape[-1]))


def _random_chain(n, rng, epsilon=0.1):
    base = ChainSpec(
        n_nodes=n,
        delta1=rng.uniform(0.4, 1.1),
        delta2=rng.uniform(0.4, 1.1),
    )
    return sample_chain(base, epsilon, rng)


def pair_block(spec):
    """Two-excitation block h2 of the XY Hamiltonian on the ordered-pair basis.

    Connects pairs that differ by moving one excitation across a single
    bond; moves onto an occupied node are excluded (no double occupancy).
    Rows and columns follow :func:`~spinline.basis.sender_pairs` of n.  The library
    never builds it: it is the oracle for the free-fermion identities
    (spectrum of pairwise sums, p2 as minors of p1).
    """
    n = spec.n_nodes
    J = spec.couplings()
    pairs = sender_pairs(n)
    idx = {pair: k for k, pair in enumerate(pairs)}
    h2 = np.zeros((len(pairs), len(pairs)))
    for i, (a, b) in enumerate(pairs):
        if a + 1 < b:
            h2[i, idx[(a + 1, b)]] = J[a - 1] / 2
        if a > 1:
            h2[i, idx[(a - 1, b)]] = J[a - 2] / 2
        if b < n:
            h2[i, idx[(a, b + 1)]] = J[b - 1] / 2
        if b - 1 > a:
            h2[i, idx[(a, b - 1)]] = J[b - 2] / 2
    return h2


def propagators(spectral, t):
    """The full one- and two-excitation propagators (p1, p2) at time t.

    p1 is N x N; p2 is on the pair basis ``sender_pairs(N)``,
    formed as the 2x2 minors p1[i,n] p1[j,m] - p1[i,m] p1[j,n].  Oracle
    only: the library needs just the receiver block of p1.
    """
    p1 = one_excitation_columns(spectral, t)
    i, j = np.array(sender_pairs(p1.shape[0])).T - 1
    p2 = p1[np.ix_(i, i)] * p1[np.ix_(j, j)] - p1[np.ix_(i, j)] * p1[np.ix_(j, i)]
    return p1, p2


def _oracle_controls(x, n):
    """``x`` as one complex control vector, and its sender size; raises
    SizeMismatchError unless x is one vector of a sender that leaves the
    receiver nodes of an n-node chain free."""
    x = np.asarray(x, complex)
    n_sender = sender_size(len(x)) if x.ndim == 1 else n
    if n_sender > n - 2:
        raise SizeMismatchError(f"controls of shape {x.shape} fit no sender of an {n}-node chain")
    return x, n_sender


def partial_trace_oracle(x, spectral, t):
    """Receiver matrix (4x4) of the control vector x by brute-force partial
    trace over nodes 1..N-2.

    Evolves the full state vector in the excitation basis with
    :func:`propagators` and sums |Psi><Psi| over the environment
    configurations.  Independent of the line parameters; this is the
    correctness oracle for :func:`~spinline.receiver.assemble_rho`.
    """
    n = spectral.evals1.shape[-1]
    x, n_sender = _oracle_controls(x, n)
    single, pair = control_slices(n_sender)
    p1, p2 = propagators(spectral, t)
    idx = {nm: k for k, nm in enumerate(sender_pairs(n))}
    f1 = p1[:, :n_sender] @ x[single]
    f2 = p2[:, [idx[nm] for nm in sender_pairs(n_sender)]] @ x[pair]
    env_pairs = [k for (i, j), k in idx.items() if j <= n - 2]
    C = np.zeros((4, n - 1 + len(env_pairs)), complex)
    C[0, 0] = x[0]
    C[0, 1 : n - 1] = f1[: n - 2]
    C[0, n - 1 :] = f2[env_pairs]
    C[1, 0] = f1[n - 2]
    C[2, 0] = f1[n - 1]
    C[1, 1 : n - 1] = f2[[idx[(i, n - 1)] for i in range(1, n - 1)]]
    C[2, 1 : n - 1] = f2[[idx[(i, n)] for i in range(1, n - 1)]]
    C[3, 0] = f2[idx[(n - 1, n)]]
    return C @ C.conj().T


def full_space_receiver(x, spec, t):
    """Receiver matrix of the control vector x from dense evolution of the
    full 2^N chain.

    Brute force in the unrestricted tensor-product space; usable up to
    N ~ 12 and completely independent of the excitation-basis machinery.
    """
    n = spec.n_nodes
    x, n_sender = _oracle_controls(x, n)
    dim = 2 ** n
    J = spec.couplings()
    H = np.zeros((dim, dim))
    states = np.arange(dim)
    for b in range(n - 1):
        # bond b flips the excitation between bits b and b + 1
        hop = states[(states >> b) & 3 == 1]
        H[hop ^ (3 << b), hop] = H[hop, hop ^ (3 << b)] = J[b] / 2
    # control i of x = (a0, a_single, a_double) is the amplitude of the
    # configuration whose bits are its excited nodes
    excited = [(), *((k,) for k in range(1, n_sender + 1)), *sender_pairs(n_sender)]
    psi = np.zeros(dim, complex)
    psi[[sum(1 << (k - 1) for k in nodes) for nodes in excited]] = x
    lam, V = np.linalg.eigh(H)
    psi = V @ (np.exp(-1j * lam * t) * (V.T @ psi))
    # the receiver nodes N-1, N are the two top bits: row c of C holds the
    # amplitudes of receiver state c (|0>, |N-1>, |N>, |(N-1)N>) over the
    # environment configurations.  rho = C C^H; einsum sums each entry in
    # environment order, so the oracle's bits do not depend on the BLAS
    C = psi.reshape(4, 2 ** (n - 2))
    return np.einsum("ie,je->ij", C, C.conj())


ORACLE_SEED = 2024
ORACLE_STATES = 36  # random control vectors per chain length, half on each chain


def check_oracle_equivalence():
    rng = np.random.default_rng(ORACLE_SEED)
    out = []
    worst = 0.0
    for n in (7, 10, 20):
        for spec in (ChainSpec.uniform(n), _random_chain(n, rng)):
            spectral = diagonalize(spec)
            t = rng.uniform(0.3, 2.0) * n
            params = line_params_at(spectral, t, n_sender=4)
            for _ in range(ORACLE_STATES // 2):
                x = random_controls(rng)
                direct = assemble_rho(params, x)
                oracle = partial_trace_oracle(x, spectral, t)
                worst = max(worst, float(np.linalg.norm(direct - oracle)))
    n_total = 6 * (ORACLE_STATES // 2)
    out.append(_below("assembled state vs partial-trace oracle", worst, ORACLE_TOL,
                      f"{n_total} random states on n=7,10,20; worst Frobenius dev"))
    worst_full = 0.0
    for n in (8, 10):
        for k in range(5):
            spec = _random_chain(n, rng) if k % 2 else ChainSpec.uniform(n)
            t = rng.uniform(0.5, 2.5) * n
            x = random_controls(rng)
            oracle = partial_trace_oracle(x, diagonalize(spec), t)
            dense = full_space_receiver(x, spec, t)
            worst_full = max(worst_full, float(np.max(np.abs(oracle - dense))))
    out.append(_below("partial-trace oracle vs dense 2^N evolution", worst_full, FULL_SPACE_TOL,
                      "10 instances on n=8,10; worst entry dev"))
    return out


# --- criterion 6: probe-protocol closure ------------------------------------

def check_probe_closure():
    out = []
    rng = np.random.default_rng(DISORDER_SEED)
    cases = [("unperturbed", tuned_spec(20))]
    cases.append(("disordered eps=0.05", sample_chain(tuned_spec(20), 0.05, rng)))
    t0 = bm.TUNED_CHAINS[20]["t0"]
    for label, spec in cases:
        params = line_params_at(diagonalize(spec), t0, n_sender=4)
        recovered = extract_params(simulate_probes(params), t0)
        dev = np.max(np.abs(recovered.entries - params.entries))
        out.append(_below(f"probe extraction round trip ({label})", dev, PROBE_TOL,
                          "worst entry dev"))
    return out


# --- criterion 7: Werner creation -------------------------------------------

def check_werner():
    params = tuned_line_params(20)
    out = []
    solved = solve_werner(params, WERNER_P)
    worst_res = solved.residual.max() if len(solved.p) == len(WERNER_P) else np.nan
    out.append(_below("werner solve residuals (p=0..0.8)", worst_res, 1e-10,
                      f"{len(solved.p)} of {len(WERNER_P)} p solved, worst residual"))
    limits = 10.0 * np.array([bm.WERNER_FULL_DISCREPANCY[p] for p in solved.p.tolist()])
    for p, delta, limit in zip(solved.p.tolist(), solved.discrepancy.tolist(), limits.tolist()):
        if delta > limit:
            out.append(_result(
                f"werner discrepancy p={p}",
                False,
                f"true-chain discrepancy {delta:.2e} exceeds 10x reference {limit:.2e}",
            ))
    out.append(_below("werner true-chain discrepancies within 10x reference",
                      np.max(solved.discrepancy / limits), 1.0, "worst ratio to limit"))
    boundary, res = feasibility_scan(params, lattice(0.80, 1.0, 0.01))
    out.append(_result(
        "werner feasibility boundary",
        abs(boundary - bm.WERNER_FEASIBLE_MAX) <= 0.002,
        f"got {boundary:.4f} +- {res:.1e}, reference {bm.WERNER_FEASIBLE_MAX}",
    ))
    # controls solved on the family-III-zeroed line, sent down the true one
    truncated = solve_werner(zero_family_iii(params), WERNER_P)
    rho = assemble_rho(params, truncated.x)
    deltas = dict(zip(truncated.p.tolist(),
                      discrepancy(rho, werner_target(truncated.p)).tolist()))
    unsolved = [p for p in bm.WERNER_TRUNCATED_DISCREPANCY if p not in deltas]
    worst = max(deltas.values())
    out.append(_result(
        "family-III-zeroed solving, true-chain discrepancy < 0.03",
        not unsolved and worst < 0.03,
        f"worst over p grid {worst:.3e}" + (f", p={unsolved} not solved" if unsolved else ""),
    ))
    p8_delta = deltas.get(0.8, np.nan)
    out.append(_result(
        "family-III-zeroed discrepancy bracket at p=0.8",
        5e-3 <= p8_delta <= 2e-2,
        f"got {p8_delta:.3e}, bracket [5e-3, 2e-2] around reference 9.600e-3",
    ))
    return out


# --- criterion 8: disorder robustness ---------------------------------------

def check_disorder():
    params = tuned_line_params(20)
    base = tuned_spec(20)
    t0 = bm.TUNED_CHAINS[20]["t0"]
    controls = solve_werner(params, WERNER_P)
    out = []
    mean = {}
    for eps in (0.025, 0.05):
        sample = sample_line_params(base, t0, eps, n_chains=DEFAULT_N_CHAINS, seed=DISORDER_SEED)
        robustness = werner_robustness(sample, controls.p, controls.x)
        mean[eps] = robustness.mean
        ceiling = bm.ROBUSTNESS_CEILING[eps]
        worst = np.max(robustness.mean - (ceiling + 2 * robustness.sem))
        out.append(_result(
            f"mean discrepancy ceiling eps={eps}",
            worst <= 0.0,
            f"max over p of mean - (ceiling + 2 sem) = {worst:.2e} "
            f"(ceiling {ceiling}, N_p={DEFAULT_N_CHAINS})",
        ))
    grows = np.all(mean[0.05] > mean[0.025])
    out.append(_result(
        "mean discrepancy grows with eps for every p",
        grows,
        "eps=0.05 above eps=0.025 at each p" if grows else "ordering violated",
    ))
    spread = mean[0.05]
    flat = (max(spread) - min(spread)) < 0.5 * max(spread)
    out.append(_result(
        "discrepancy depends only weakly on p",
        flat,
        f"mean range [{min(spread):.3e}, {max(spread):.3e}] at eps=0.05",
    ))
    return out


# --- criterion 9: structural invariants -------------------------------------

INVARIANTS_SEED = 5


def check_invariants():
    rng = np.random.default_rng(INVARIANTS_SEED)
    out = []
    n = 20
    p1, p2 = propagators(diagonalize(tuned_spec(n)), bm.TUNED_CHAINS[n]["t0"])
    dev1 = np.max(np.abs(p1.conj().T @ p1 - np.eye(n)))
    dev2 = np.max(np.abs(p2.conj().T @ p2 - np.eye(p2.shape[0])))
    out.append(_below("propagator unitarity", max(dev1, dev2), 1e-10,
                      "one- and two-excitation deviation"))
    absdev = np.max(np.abs(np.abs(p1) - np.abs(p1[::-1, ::-1])))
    out.append(_below("mirror symmetry of |p1|", absdev, 1e-10,
                      "max ||p1[i,k]| - |p1[N+1-i,N+1-k]||"))
    worst_ff = 0.0
    for _ in range(3):
        m = int(rng.integers(7, 9))
        spec = _random_chain(m, rng, epsilon=0.3)
        e1 = diagonalize(spec).evals1
        e2 = np.sort(np.linalg.eigvalsh(pair_block(spec)))
        sums = np.sort([e1[a] + e1[b] for a in range(m) for b in range(a + 1, m)])
        worst_ff = max(worst_ff, float(np.max(np.abs(e2 - sums))))
    out.append(_below("two-excitation spectrum = pairwise sums of one-excitation spectrum",
                      worst_ff, 1e-10, "random chains, n <= 8; worst deviation"))
    params = tuned_line_params(20)
    ok = True
    for _ in range(20):
        try:
            check_receiver(assemble_rho(params, random_controls(rng)))
        except NumericalError:
            ok = False
            break
    out.append(_result(
        "receiver state validity (trace, hermiticity, positivity)",
        ok,
        "20 random sender states on the tuned chain",
    ))
    base = tuned_spec(20)
    s1 = param_statistics(params, sample_line_params(base, params.t0, 0.05, n_chains=5, seed=3))
    s2 = param_statistics(params, sample_line_params(base, params.t0, 0.05, n_chains=5, seed=3))
    same = np.array_equal(s1.mean, s2.mean) and np.array_equal(s1.std, s2.std)
    out.append(_result(
        "seeded determinism of the disorder study",
        same,
        "identical seeds reproduce identical statistics",
    ))
    return out
