import json
import subprocess
import sys
import warnings
from dataclasses import replace

import numpy as np
import pytest
from scipy.optimize import least_squares

import spinline as sl
from spinline import benchmarks as bm
from spinline import inverse, verification
from spinline.basis import control_slices, random_controls
from spinline.errors import InfeasibleTargetError, InputError
from spinline.hamiltonian import ChainSpec
from spinline.inverse import check_target, discrepancy, werner_target, zero_family_iii
from spinline.receiver import FAMILY_I, FAMILY_II, param_index, receiver_operator


def test_werner_matrix_structure():
    m = werner_target(0.6)
    assert m[0, 0] == m[3, 3] == pytest.approx(0.1)
    assert m[1, 1] == m[2, 2] == pytest.approx(0.4)
    assert m[1, 2] == m[2, 1] == pytest.approx(-0.3)
    assert np.trace(m) == pytest.approx(1.0)
    assert check_target(m) is m


def test_werner_parameter_range():
    with pytest.raises(ValueError):
        werner_target(1.2)


def test_werner_target_takes_an_array_of_p():
    ps = np.array([[0.0, 0.4], [0.8, 1.0]])
    stacked = werner_target(ps)
    assert stacked.shape == (2, 2, 4, 4)
    for idx in np.ndindex(ps.shape):
        assert stacked[idx].tobytes() == werner_target(float(ps[idx])).tobytes()
    with pytest.raises(InputError, match="must lie in"):
        werner_target([0.2, np.nan])


def test_discrepancy_basics():
    a = np.diag([1.0, 0, 0, 0]).astype(complex)
    b = np.diag([0, 1.0, 0, 0]).astype(complex)
    assert discrepancy(a, a) == 0.0
    assert discrepancy(a, b) == pytest.approx(np.sqrt(2.0))
    with pytest.raises(ValueError):
        discrepancy(a, np.zeros((4, 4)))


def test_nonphysical_target_rejected():
    bad = np.diag([0.5, 0.5, 0.5, -0.5]).astype(complex)
    with pytest.raises(ValueError):
        check_target(bad)
    bad = np.diag([np.nan, 0.5, 0.5, 0.0]).astype(complex)
    with pytest.raises(InputError, match="non-finite"):
        check_target(bad)
    # a pair at -1e308 overflowed the Hermitian part, and eigvalsh ended in a
    # LinAlgError: no entry of a density matrix exceeds 1
    bad = werner_target(0.4)
    bad[1, 2] = bad[2, 1] = -1e308
    with pytest.raises(InputError, match=r"an entry of magnitude 1\.0e\+308"):
        check_target(bad)


@pytest.mark.parametrize("p", [0.0, 0.4, 0.8])
def test_solve_werner(tuned20_params, p):
    sol = sl.solve_werner(tuned20_params, [p])
    assert sol.p.tolist() == [p]
    (x,), (residual,), (delta,) = sol.x, sol.residual, sol.discrepancy
    assert residual < 1e-10
    assert delta < 1e-10
    # controls live on the pair sector only and are real
    single, pair = control_slices(tuned20_params.n_sender)
    assert x[0] == 0.0
    assert np.all(x[single] == 0.0)
    assert np.max(np.abs(x[pair].imag)) == 0.0
    rho = sl.assemble_rho(tuned20_params, x)
    assert discrepancy(rho, werner_target(p)) <= 10 * bm.WERNER_FULL_DISCREPANCY[p]


def test_solve_werner_infeasible(tuned20_params):
    with pytest.raises(InfeasibleTargetError) as err:
        sl.solve_werner(tuned20_params, 0.9)
    assert err.value.best_residual > 1e-8


@pytest.fixture(params=[4, 5], ids=lambda n: f"sender{n}")
def sender_params(request, tuned20):
    return sl.line_params_at(tuned20, bm.TUNED_CHAINS[20]["t0"], request.param)


def _forms_and_expected(kind, params, rng):
    """Forms Q and values c of a system, a random real point y and the
    residuals expected there from assemble_rho: the Werner rows, or every
    upper-triangle entry.

    y has components of variance 1/len(y), so |y|^2 is near 1, the scale
    the norm form pins, whatever the number of unknowns.
    """
    n_sender, K = params.n_sender, receiver_operator(params)
    if kind == "werner":
        Q, c = inverse._werner_system(K, n_sender, werner_target(0.3))
        y = rng.standard_normal(len(params.pairs)) / np.sqrt(len(params.pairs))
        _, pair = control_slices(n_sender)
        x = np.zeros(pair.stop)
        x[pair] = y
        d = sl.assemble_rho(params, x) - werner_target(0.3)
        entries = [d[3, 3].real, d[1, 1].real, d[2, 2].real, d[1, 2].real, d[1, 2].imag]
    else:
        target = sl.assemble_rho(params, random_controls(rng, n_sender))
        basis = inverse._general_basis(params)
        Q, c = inverse._quadratic_system(K, basis, target)
        y = rng.standard_normal(basis.shape[1]) / np.sqrt(basis.shape[1])
        upper = (sl.assemble_rho(params, basis @ y) - target)[np.triu_indices(4)]
        entries = [*upper.real, *upper.imag]
    return Q, c, y, entries + [y @ y - 1.0]


@pytest.mark.parametrize("kind", ["werner", "general"])
def test_forms_match_receiver(sender_params, kind):
    rng = np.random.default_rng(7)
    for _ in range(5):
        Q, c, y, expected = _forms_and_expected(kind, sender_params, rng)

        def fun(y):
            return inverse._forms(Q, y[None])[1][0] - c

        np.testing.assert_allclose(fun(y), expected, rtol=0, atol=1e-14)
        # the solver's Jacobian, 2 Q_k y, against central differences
        h = 1e-6
        central = np.column_stack([
            (fun(y + h * e) - fun(y - h * e)) / (2 * h) for e in np.eye(len(y))
        ])
        np.testing.assert_allclose(2.0 * inverse._forms(Q, y[None])[0][0], central,
                                   rtol=0, atol=1e-8)


@pytest.fixture()
def constructed(monkeypatch):
    """Runs a solve with the values of its equations moved onto one start.

    The values become the forms at that start, evaluated in the stack the
    solver evaluates it in (start 0 alone, the others as one batch), so its
    residual is exactly 0 at its first evaluation.  With a zero residual
    tolerance no other start can be exact: they reach rounding level at
    best.  ``None`` keeps the solve's own values.  Returns the record of
    the runs: the unit starts, the result, and the start count of each
    solver run.
    """
    record = {"batches": []}
    multistart, marquardt = inverse._multistart, inverse._levenberg_marquardt

    def counted(Q, c, y, problem, residual_tol):
        record["batches"].append(len(y))
        return marquardt(Q, c, y, problem, residual_tol)

    def run(solve, exact_start):
        def moved(Q, c, starts, residual_tol):
            y = starts / np.linalg.norm(starts, axis=1, keepdims=True)
            if exact_start == 0:
                c = inverse._forms(Q, y[:1])[1]
            elif exact_start is not None:
                c = inverse._forms(Q, y[1:])[1][exact_start - 1 : exact_start]
            record["y"] = y
            record["result"] = multistart(Q, c, starts, residual_tol)
            return record["result"]

        monkeypatch.setattr(inverse, "_multistart", moved)
        monkeypatch.setattr(inverse, "_levenberg_marquardt", counted)
        monkeypatch.setattr(inverse, "WERNER_RESIDUAL_TOL", 0.0)
        return solve()

    return record, run


@pytest.mark.parametrize("exact_start, n_starts", [(0, 64), (1, 64), (None, 3)])
def test_werner_multistart_stops_at_first_exact_start(constructed, tuned20_params,
                                                      exact_start, n_starts):
    # the Werner equations at p = 0.9, where no start is exact, with their
    # values moved onto one start: it alone is exact, it wins with its own
    # point, and nothing runs after it.  Without the move the start of
    # least violation is raised with
    record, run = constructed
    if exact_start is None:
        with pytest.raises(InfeasibleTargetError) as err:
            run(lambda: sl.solve_werner(tuned20_params, 0.9, n_starts=n_starts), None)
        assert record["batches"] == [1, n_starts - 1]
        assert err.value.best_residual == record["result"][0][0] > 1e-8
        assert err.value.best_controls.tobytes() == record["result"][1][0].tobytes()
        return
    sol = run(lambda: sl.solve_werner(tuned20_params, 0.9, n_starts=n_starts,
                                      residual_tol=0.0), exact_start)
    (residual,), (y,) = record["result"]
    assert residual == 0.0 and sol.residual[0] == 0.0
    assert y.tobytes() == record["y"][exact_start].tobytes()
    assert record["batches"] == ([1] if exact_start == 0 else [1, n_starts - 1])


def test_werner_starts_are_seeded(monkeypatch, tuned20_params):
    # start 0 is the neutral equal-amplitude vector, the rest standard
    # normal draws of the seed; the stacked solve of the nine p gives every
    # p the starts of its lone solve
    seen = []

    def spy(Q, c, starts, tol):
        seen.append((c, starts))
        return np.zeros(len(c)), np.repeat(starts[:1], len(c), axis=0)

    monkeypatch.setattr(inverse, "_multistart", spy)
    sl.solve_werner(tuned20_params, 0.4, n_starts=5, seed=3)
    draws = np.random.default_rng(3).standard_normal((4, 6))
    assert seen[0][1].tobytes() == np.vstack([np.ones(6), draws]).tobytes()
    sl.solve_werner(tuned20_params, inverse.WERNER_P, seed=3)
    draws = np.random.default_rng(3).standard_normal((63, 6))
    assert seen[1][1].tobytes() == np.vstack([np.ones(6), draws]).tobytes()
    assert len(seen[1][0]) == len(inverse.WERNER_P) == 9


@pytest.mark.parametrize("exact_start, n_starts", [(0, 32), (3, 32), (None, 3)])
def test_general_multistart_stops_at_first_exact_start(constructed, tuned20_params,
                                                       exact_start, n_starts):
    # the same stop rule as the Werner solve; with no exact start the one of
    # least violation is returned, not raised
    record, run = constructed
    basis = inverse._general_basis(tuned20_params)
    sol = run(lambda: sl.solve_general(tuned20_params, werner_target(0.9), n_starts=n_starts),
              exact_start)
    (residual,), (y,) = record["result"]
    if exact_start is None:
        assert record["batches"] == [1, n_starts - 1]
        assert residual > 1e-8 and sol.residual > 1e-8
        return
    assert residual == 0.0
    assert y.tobytes() == record["y"][exact_start].tobytes()
    assert record["batches"] == ([1] if exact_start == 0 else [1, n_starts - 1])
    np.testing.assert_array_equal(sol.x, basis @ record["y"][exact_start])


@pytest.fixture(scope="module")
def verdict_tables(tuned20, tuned20_params):
    return {"sender4": tuned20_params,
            "sender5": sl.line_params_at(tuned20, bm.TUNED_CHAINS[20]["t0"], 5),
            "zeroed": zero_family_iii(tuned20_params)}


def _minpack_exact(Q, c, starts):
    """MINPACK oracle: lmder through least_squares(method="lm") from each
    unit start in turn, to 400 evaluations; True once one is exact.

    lmder needs at least as many residuals as unknowns, so zero residuals
    pad the equations of a sender with more unknowns.
    """
    n = Q.shape[1]
    pad = np.zeros(max(n - len(c), 0))

    def fun(y):
        return np.concatenate([(Q @ y) @ y - c, pad])

    def jac(y):
        return np.vstack([2.0 * (Q @ y), np.zeros((len(pad), n))])

    for y0 in starts:
        fit = least_squares(fun, y0 / np.linalg.norm(y0), jac=jac, method="lm",
                            x_scale="jac", xtol=5e-16, ftol=5e-16, gtol=5e-16, max_nfev=400)
        if np.max(np.abs(fit.fun)) <= inverse.WERNER_RESIDUAL_TOL:
            return True
    return False


VERDICT_CASES = [(table, "werner", p) for table in ("sender4", "sender5", "zeroed")
                 for p in (0.0, 0.4, 0.8, 0.9, 0.95)]
VERDICT_CASES += [(table, "general", p) for table in ("sender4", "sender5") for p in (0.2, 0.9)]


@pytest.mark.parametrize("table, kind, p", VERDICT_CASES,
                         ids=[f"{t}-{k}-{p}" for t, k, p in VERDICT_CASES])
def test_multistart_matches_least_squares_lm(verdict_tables, table, kind, p):
    # MINPACK from the same seeded starts and the library agree on which
    # targets are feasible; the boundaries of the three tables lie at
    # 0.873-0.877
    params, n_starts = verdict_tables[table], 8
    K = receiver_operator(params)
    if kind == "werner":
        n = len(params.pairs)
        starts = [np.ones(n), *np.random.default_rng(0).standard_normal((n_starts - 1, n))]
        system = inverse._werner_system(K, params.n_sender, werner_target(p))
        try:
            sl.solve_werner(params, p, n_starts=n_starts)
            feasible = True
        except InfeasibleTargetError:
            feasible = False
    else:
        basis = inverse._general_basis(params)
        starts = np.random.default_rng(0).standard_normal((n_starts, basis.shape[1]))
        system = inverse._quadratic_system(K, basis, werner_target(p))
        sol = sl.solve_general(params, werner_target(p), n_starts=n_starts)
        feasible = sol.residual <= inverse.WERNER_RESIDUAL_TOL
    assert feasible == _minpack_exact(*system, starts) == (p < 0.85)


def _lone_werner_controls(params, seed):
    """The p of WERNER_P solved one at a time, up to the first infeasible one."""
    solutions = {}
    for p in inverse.WERNER_P:
        try:
            solutions[p] = sl.solve_werner(params, [p], seed=seed)
        except InfeasibleTargetError:
            break
    return solutions


@pytest.mark.parametrize("seed", [0, 3])
@pytest.mark.parametrize("table", ["sender4", "sender5", "zeroed", "n60"])
def test_werner_controls_match_lone_solves(monkeypatch, verdict_tables, tuned60_params, table,
                                           seed):
    # the stacked solve of the nine p finds each p's lone solution, and stops
    # where the lone solves stop: after p = 0.7 on the tuned 60-node line
    params = tuned60_params if table == "n60" else verdict_tables[table]

    def stacked_and_lone():
        stacked = sl.solve_werner(params, inverse.WERNER_P, seed=seed)
        lone = _lone_werner_controls(params, seed)
        assert stacked.p.tolist() == list(lone)
        assert stacked.p.tolist() == [p for p in inverse.WERNER_P if table != "n60" or p < 0.75]
        assert stacked.x.shape == (len(lone), 1 + params.n_sender + len(params.pairs))
        return stacked, lone

    stacked, lone = stacked_and_lone()
    for k, p in enumerate(stacked.p.tolist()):
        np.testing.assert_allclose(stacked.x[k], lone[p].x[0], rtol=0, atol=1e-12)
        assert stacked.residual[k] <= inverse.WERNER_RESIDUAL_TOL
        assert abs(stacked.residual[k] - lone[p].residual[0]) <= 1e-14
        assert abs(stacked.discrepancy[k] - lone[p].discrepancy[0]) <= 1e-14
    # the solves of a stack share nothing but the BLAS call of _forms, which
    # rounds a one-start stack (gemv) apart from a larger one (gemm): with
    # the forms evaluated start by start, every p finds its lone solve's
    # bits (the discrepancies, one stacked contraction of them, differ
    # within the 1e-14 above)
    forms = inverse._forms
    monkeypatch.setattr(inverse, "_forms", lambda Q, y: tuple(
        np.concatenate(parts) for parts in zip(*(forms(Q, row[None]) for row in y))))
    stacked, lone = stacked_and_lone()
    for k, p in enumerate(stacked.p.tolist()):
        assert stacked.x[k].tobytes() == lone[p].x[0].tobytes(), p
        assert stacked.residual[k].tobytes() == lone[p].residual[0].tobytes(), p


@pytest.mark.parametrize("table", ["sender4", "sender5"])
def test_werner_controls_discrepancy_is_that_of_the_assembled_state(verdict_tables, table):
    # the solver's own discrepancy is the one the report reads: it matches the
    # state assembled from each control vector alone against its Werner target
    params = verdict_tables[table]
    solved = sl.solve_werner(params, inverse.WERNER_P)
    assert solved.p.tolist() == list(inverse.WERNER_P)
    assert np.all(solved.x[:, :control_slices(params.n_sender)[1].start] == 0.0)  # pairs only
    for p, x, delta in zip(solved.p.tolist(), solved.x, solved.discrepancy.tolist()):
        rho = sl.assemble_rho(params, x)
        assert abs(delta - discrepancy(rho, werner_target(p))) <= 1e-14


def test_check_werner_fails_when_a_zeroed_p_is_unsolved(monkeypatch):
    # the family-III-zeroed line stops solving at p = 0.7 here: the check
    # names the unsolved p and fails, it does not judge the rest alone
    calls = []

    def truncated_line_stops(params, p, seed=0):
        calls.append(params)
        solved = inverse.solve_werner(params, p, seed=seed)
        return solved if len(calls) == 1 else inverse.WernerControls(
            *(column[solved.p < 0.65] for column in solved))

    monkeypatch.setattr(verification, "solve_werner", truncated_line_stops)
    monkeypatch.setattr(verification, "feasibility_scan",
                        lambda *args, **kwargs: (bm.WERNER_FEASIBLE_MAX, 1e-4))
    results = {r.name: r for r in verification.check_werner()}
    zeroed = results["family-III-zeroed solving, true-chain discrepancy < 0.03"]
    assert not zeroed.passed and "p=[0.7, 0.8] not solved" in zeroed.detail
    assert not results["family-III-zeroed discrepancy bracket at p=0.8"].passed
    assert results["werner solve residuals (p=0..0.8)"].passed


def test_exact_problem_leaves_the_others_running(tuned20_params):
    # problem 0 is exact at its first evaluation; problem 1 of the same
    # stack still runs to the point it reaches alone, not to its start
    Q, c = inverse._werner_system(receiver_operator(tuned20_params), 4, werner_target(0.4))
    y = np.full((2, Q.shape[1]), 1.0 / np.sqrt(Q.shape[1]))
    c = np.vstack([inverse._forms(Q, y)[1][0], c])  # the values at start 0, in this stack
    res, ys = inverse._levenberg_marquardt(Q, c, y, [0, 1], inverse.WERNER_RESIDUAL_TOL)
    alone = inverse._levenberg_marquardt(Q, c[1:], y[1:], [1], inverse.WERNER_RESIDUAL_TOL)
    assert res[0] == 0.0 and ys[0].tobytes() == y[0].tobytes()
    assert res[1] <= inverse.WERNER_RESIDUAL_TOL and alone[0][0] <= inverse.WERNER_RESIDUAL_TOL
    np.testing.assert_allclose(ys[1], alone[1][0], rtol=0, atol=1e-12)
    # within one problem the rule stands: an exact start stops the later ones
    res, ys = inverse._levenberg_marquardt(Q, c[[0, 0]], y, [0, 0], inverse.WERNER_RESIDUAL_TOL)
    assert res[0] == 0.0 and ys[1].tobytes() == y[1].tobytes()


def test_open_problem_falls_back_to_its_other_starts(monkeypatch):
    # (y1 + i y2)^2 = c in three unknowns: start 0 is the third axis, where
    # the forms and their Jacobian vanish, so it solves problem 0 (c = 0)
    # at once and cannot move for problem 1.  Only problem 1 runs starts
    # 1.., start 0 is not run again, and it wins with the start a lone
    # solve picks
    Q = np.array([np.diag([1.0, -1.0, 0.0]),
                  [[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 0.0]]])
    c = np.array([[0.0, 0.0], [0.3, 0.4]])
    starts = np.vstack([[0.0, 0.0, 1.0], np.random.default_rng(0).standard_normal((7, 3))])
    runs = []
    marquardt = inverse._levenberg_marquardt

    def recorded(Q, c, y, problem, residual_tol):
        out = marquardt(Q, c, y, problem, residual_tol)
        runs.append((y.copy(), list(problem), tuple(a.copy() for a in out)))
        return out

    monkeypatch.setattr(inverse, "_levenberg_marquardt", recorded)
    tol = inverse.WERNER_RESIDUAL_TOL
    res, ys = inverse._multistart(Q, c, starts, tol)
    (y0, problems0, out0), (y1, problems1, out1) = runs
    assert problems0 == [0, 1] and np.all(y0 == [0.0, 0.0, 1.0])
    assert out0[0][0] == 0.0 and out0[0][1] > tol
    assert problems1 == [1] * 7
    unit = starts / np.linalg.norm(starts, axis=1, keepdims=True)
    assert y1.tobytes() == unit[1:].tobytes()
    winner = 1 + int(np.flatnonzero(out1[0] <= tol)[0])
    assert ys[1].tobytes() == out1[1][winner - 1].tobytes() and res[1] <= tol
    runs.clear()
    lone = inverse._multistart(Q, c[1:], starts, tol)
    assert lone[0][0] == res[1] and lone[1][0].tobytes() == ys[1].tobytes()
    assert 1 + int(np.flatnonzero(runs[1][2][0] <= tol)[0]) == winner


DETERMINISM_SCRIPT = """
import json, sys
import numpy as np
junk = [np.ones(int(size)) for size in sys.argv[1:]]  # a different heap layout
from spinline.errors import InfeasibleTargetError
from spinline.inverse import solve_werner
from spinline.verification import tuned_line_params
params = tuned_line_params(20)
try:
    solve_werner(params, 0.9, n_starts=4)
except InfeasibleTargetError as err:
    infeasible = [err.best_residual.hex(), err.best_controls.tobytes().hex()]
sol = solve_werner(params, [0.8])
print(json.dumps(infeasible + [sol.residual[0].hex(), sol.x[0].tobytes().hex()]))
"""


def test_seeded_solves_repeat_bit_for_bit_across_processes(child_env):
    runs = [subprocess.run([sys.executable, "-c", DETERMINISM_SCRIPT, *sizes],
                           capture_output=True, text=True, check=True, env=child_env).stdout
            for sizes in (["1"], ["3", "1001", "77", "5"])]
    assert json.loads(runs[0]) == json.loads(runs[1])


def test_capped_starts_warn_nothing(tuned20_params):
    # infeasible starts stall at nonzero residuals; no step of the solver
    # may divide by zero or overflow on the way
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InfeasibleTargetError):
            sl.solve_werner(tuned20_params, 0.9, n_starts=2)
        sol = sl.solve_general(tuned20_params, werner_target(0.9), n_starts=2)
    assert sol.residual > 1e-8


def test_solution_self_consistency(tuned20_params):
    sol = sl.solve_werner(tuned20_params, [0.5])
    rho = sl.assemble_rho(tuned20_params, sol.x[0])
    worst = np.max(np.abs(rho - werner_target(0.5)))
    assert worst <= sol.residual[0] + 1e-12


def test_zeroed_family_iii_effect(tuned20_params):
    truncated = zero_family_iii(tuned20_params)
    lo, hi = sl.classify_families(truncated)["III"]
    assert hi == 0.0
    sol = sl.solve_werner(truncated, [0.8])
    assert sol.residual[0] < 1e-10
    rho = sl.assemble_rho(tuned20_params, sol.x[0])
    delta = discrepancy(rho, werner_target(0.8))
    assert 5e-3 <= delta <= 2e-2


@pytest.mark.parametrize("n_sender", [3, 4, 5])
def test_zero_family_iii_zeroes_exactly_family_iii(n_sender):
    # a stack of two sets whose every entry is nonzero
    shaped = sl.line_params_at(sl.diagonalize(ChainSpec.uniform(9)), 7.0, n_sender)
    rng = np.random.default_rng(n_sender)
    entries = rng.uniform(0.5, 1.0, (2, shaped.n_entries)) * np.exp(2j * np.pi * rng.random())
    params = replace(shaped, entries=entries)
    truncated = zero_family_iii(params)
    assert truncated.shape == (2,)
    assert np.array_equal(params.entries, entries)  # the input is left alone
    kept = set(FAMILY_I) | set(FAMILY_II)
    n_zeroed = 0
    for (kind, idx, old), (_, _, new) in zip(params.items(), truncated.items()):
        if (kind, idx) in kept:
            assert new.tobytes() == old.tobytes(), (kind, idx)
        else:
            assert np.all(new == 0.0), (kind, idx)
            n_zeroed += 1
    assert n_zeroed == len(param_index(n_sender)) - len(kept & set(param_index(n_sender)))
    if n_sender == 4:
        assert n_zeroed == 143


def test_solve_general_vacuum_target(tuned20_params):
    # many controls create diag(1,0,0,0): the vacuum, but also states whose
    # excitations sit entirely in the environment at t0; only the receiver
    # match is contractual
    target = np.diag([1.0, 0, 0, 0]).astype(complex)
    sol = sl.solve_general(tuned20_params, target, n_starts=8)
    assert sol.residual < 1e-8
    assert sol.discrepancy < 1e-8


def test_solve_general_self_target(tuned20_params, rng):
    target = sl.assemble_rho(tuned20_params, random_controls(rng))
    sol = sl.solve_general(tuned20_params, target, n_starts=16)
    assert sol.discrepancy < 1e-8


def test_solve_general_werner(tuned20_params):
    sol = sl.solve_general(tuned20_params, werner_target(0.2), n_starts=16)
    assert sol.discrepancy <= 1.532e-5


def test_feasibility_scan_quick(tuned20_params):
    boundary, res = sl.feasibility_scan(
        tuned20_params, np.arange(0.85, 0.921, 0.01), refine_tol=2e-3
    )
    assert boundary == pytest.approx(bm.WERNER_FEASIBLE_MAX, abs=0.002)
    assert res <= 2e-3


def _scan_every_point(feasible, grid, refine_tol):
    """The bracket and bisection of a scan that evaluates the whole grid."""
    flags = [feasible(p) for p in grid]
    if not flags[0]:
        return grid[0], grid[1] - grid[0]
    if all(flags):
        return grid[-1], grid[-1] - grid[-2]
    k = flags.index(False)
    lo, hi = grid[k - 1], grid[k]
    while hi - lo > refine_tol:
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if feasible(mid) else (lo, mid)
    return 0.5 * (lo + hi), 0.5 * (hi - lo)


@pytest.mark.parametrize("edge, n_feasible", [(0.8744, 8), (2.0, 21), (0.5, 0)])
def test_feasibility_scan_stops_at_first_infeasible_point(monkeypatch, edge, n_feasible):
    calls = []

    def solve_stub(params, ps, **kwargs):
        (p,) = ps  # the scan solves one p at a time
        calls.append(p)
        if p > edge:
            raise InfeasibleTargetError(0.1)

    monkeypatch.setattr(inverse, "solve_werner", solve_stub)
    grid = [float(p) for p in np.round(np.arange(0.80, 1.0001, 0.01), 10)]
    got = sl.feasibility_scan(None, grid, refine_tol=5e-4)
    n_grid = min(n_feasible + 1, len(grid))
    assert calls[:n_grid] == grid[:n_grid]
    bracket = calls[n_grid:]
    if 0 < n_feasible < len(grid):
        assert bracket and all(grid[n_feasible - 1] < p < grid[n_feasible] for p in bracket)
    else:
        assert bracket == []
    assert got == _scan_every_point(lambda p: p <= edge, grid, 5e-4)


@pytest.mark.parametrize("grid", [[0.5], [0.9, 0.8], [1.1, 1.15, 1.2],
                                  [-0.2, -0.1, 0.0, 0.1], [0.95, 1.0, 1.05]])
def test_feasibility_scan_rejects_bad_grid(monkeypatch, tuned20_params, grid):
    def solve_stub(*args, **kwargs):
        raise AssertionError("a bad grid must be rejected before any solve")

    monkeypatch.setattr(inverse, "solve_werner", solve_stub)
    with pytest.raises(InputError):
        sl.feasibility_scan(tuned20_params, grid)
