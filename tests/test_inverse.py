import warnings
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.optimize
from scipy.optimize import least_squares

import spinline as sl
from spinline import benchmarks as bm
from spinline import inverse
from spinline.basis import SenderState
from spinline.errors import InfeasibleTargetError, InputError
from spinline.inverse import TargetState, discrepancy, werner_target, zero_family_iii


def test_werner_matrix_structure():
    m = werner_target(0.6).matrix
    assert m[0, 0] == m[3, 3] == pytest.approx(0.1)
    assert m[1, 1] == m[2, 2] == pytest.approx(0.4)
    assert m[1, 2] == m[2, 1] == pytest.approx(-0.3)
    assert np.trace(m) == pytest.approx(1.0)
    TargetState(m).validate()


def test_werner_parameter_range():
    with pytest.raises(ValueError):
        werner_target(1.2)


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
        TargetState(bad).validate()
    TargetState(bad).validate(allow_nonphysical=True)


@pytest.mark.parametrize("p", [0.0, 0.4, 0.8])
def test_solve_werner(tuned20_params, p):
    sol = sl.solve_werner(tuned20_params, p)
    assert sol.residual < 1e-10
    assert sol.discrepancy < 1e-10
    # controls live on the pair sector only and are real
    assert sol.controls.a0 == 0.0
    assert np.all(sol.controls.a_single == 0.0)
    assert np.max(np.abs(sol.controls.a_double.imag)) == 0.0
    rho = sl.assemble_rho(tuned20_params, sol.controls)
    assert discrepancy(rho, werner_target(p)) <= 10 * bm.WERNER_FULL_DISCREPANCY[p]


def test_solve_werner_infeasible(tuned20_params):
    with pytest.raises(InfeasibleTargetError) as err:
        sl.solve_werner(tuned20_params, 0.9)
    assert err.value.best_residual > 1e-8


@pytest.fixture(params=[4, 5], ids=lambda n: f"sender{n}")
def sender_params(request, tuned20):
    return sl.line_params_at(tuned20, bm.TUNED_CHAINS[20]["t0"], request.param)


def _forms_and_expected(kind, params, rng):
    """A form system, a random real point y and the residuals expected there
    from assemble_rho: the Werner rows, or every upper-triangle entry.

    y has components of variance 1/len(y), so |y|^2 is near 1, the scale
    the norm form pins, whatever the number of unknowns.
    """
    n_sender = params.n_sender
    if kind == "werner":
        fun, jac = inverse._werner_system(params, 0.3)
        y = rng.standard_normal(len(params.pairs)) / np.sqrt(len(params.pairs))
        d = (sl.assemble_rho(params, SenderState.from_double(y, n_sender)).rho
             - werner_target(0.3).matrix)
        entries = [d[3, 3].real, d[1, 1].real, d[2, 2].real, d[1, 2].real, d[1, 2].imag]
    else:
        target = sl.assemble_rho(params, SenderState.random(rng, n_sender)).rho
        basis = inverse._general_basis(params)
        fun, jac = inverse._quadratic_system(params, basis, target)
        y = rng.standard_normal(basis.shape[1]) / np.sqrt(basis.shape[1])
        x = basis @ y
        state = SenderState(x[0].real, x[1 : 1 + n_sender], x[1 + n_sender :], n_sender)
        upper = (sl.assemble_rho(params, state).rho - target)[np.triu_indices(4)]
        entries = [*upper.real, *upper.imag]
    expected = entries + [y @ y - 1.0]
    # zero forms pad the stack up to the number of unknowns
    return fun, jac, y, expected + [0.0] * (len(y) - len(expected))


@pytest.mark.parametrize("kind", ["werner", "general"])
def test_forms_match_receiver(sender_params, kind):
    rng = np.random.default_rng(7)
    for _ in range(5):
        fun, jac, y, expected = _forms_and_expected(kind, sender_params, rng)
        np.testing.assert_allclose(fun(y), expected, rtol=0, atol=1e-14)
        h = 1e-6
        central = np.column_stack([
            (fun(y + h * e) - fun(y - h * e)) / (2 * h) for e in np.eye(len(y))
        ])
        np.testing.assert_allclose(jac(y), central, rtol=0, atol=1e-8)


@pytest.fixture()
def lm_runs(monkeypatch):
    """Every MINPACK run of a solve, in call order: its callbacks, start,
    end point, evaluation count and largest equation violation there."""
    runs, leastsq = [], scipy.optimize.leastsq

    def recorded(fun, y0, Dfun, **kwargs):
        assert kwargs["full_output"]
        out = leastsq(fun, y0, Dfun=Dfun, **kwargs)
        info = out[2]
        runs.append(SimpleNamespace(fun=fun, jac=Dfun, y0=y0, x=out[0], nfev=info["nfev"],
                                    residual=np.max(np.abs(info["fvec"]))))
        return out

    monkeypatch.setattr(scipy.optimize, "leastsq", recorded)
    return runs


def _exact_flags(runs):
    return [run.residual <= inverse.WERNER_RESIDUAL_TOL for run in runs]


@pytest.mark.parametrize("p, n_starts, winner", [(0.0, 64, 1), (0.4, 64, 0), (0.9, 3, None)])
def test_werner_multistart_stops_at_first_exact_start(lm_runs, tuned20_params,
                                                      p, n_starts, winner):
    if winner is None:
        with pytest.raises(InfeasibleTargetError):
            sl.solve_werner(tuned20_params, p, n_starts=n_starts)
    else:
        sl.solve_werner(tuned20_params, p, n_starts=n_starts)
    n_calls = n_starts if winner is None else winner + 1
    assert _exact_flags(lm_runs) == [False] * (n_calls - 1) + [winner is not None]


@pytest.mark.parametrize("p, n_starts, feasible", [(0.84, 32, True), (0.9, 3, False)])
def test_general_multistart_stops_at_first_exact_start(lm_runs, tuned20_params,
                                                       p, n_starts, feasible):
    # the same stop rule as the Werner solve; with no exact start the best
    # one is returned, not raised.  Which start is exact first is not pinned:
    # it moves with last-bit changes of the line parameters
    sol = sl.solve_general(tuned20_params, werner_target(p), n_starts=n_starts)
    flags = _exact_flags(lm_runs)
    if feasible:
        assert flags[-1] and not any(flags[:-1])
    else:
        assert flags == [False] * n_starts
    assert (sol.residual <= 1e-10) == feasible


@pytest.mark.parametrize("kind, p", [("werner", 0.4), ("werner", 0.9),
                                     ("general", 0.2), ("general", 0.9)])
def test_multistart_matches_least_squares_lm(lm_runs, sender_params, kind, p):
    # leastsq and least_squares(method="lm") drive the same MINPACK lmder;
    # with the same tolerances and cap every start ends on the same bits
    if kind == "werner" and p == 0.9:
        with pytest.raises(InfeasibleTargetError):
            sl.solve_werner(sender_params, p, n_starts=2)
    elif kind == "werner":
        sl.solve_werner(sender_params, p, n_starts=2)
    else:
        sl.solve_general(sender_params, werner_target(p), n_starts=2)
    assert lm_runs
    for run in lm_runs:
        ref = least_squares(run.fun, run.y0, jac=run.jac, method="lm", x_scale="jac",
                            xtol=5e-16, ftol=5e-16, gtol=5e-16, max_nfev=400)
        assert run.x.tobytes() == ref.x.tobytes()
        assert run.nfev == ref.nfev
        assert run.residual == np.max(np.abs(ref.fun))
    if kind == "werner" and p == 0.9:
        assert [run.nfev for run in lm_runs] == [400, 400]


def test_capped_starts_warn_nothing(tuned20_params):
    # an infeasible Werner start stops at the evaluation cap, which bare
    # leastsq reports as a RuntimeWarning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InfeasibleTargetError):
            sl.solve_werner(tuned20_params, 0.9, n_starts=2)
        sol = sl.solve_general(tuned20_params, werner_target(0.9), n_starts=2)
    assert sol.residual > 1e-8


def test_solution_self_consistency(tuned20_params):
    sol = sl.solve_werner(tuned20_params, 0.5)
    rho = sl.assemble_rho(tuned20_params, sol.controls).rho
    worst = np.max(np.abs(rho - werner_target(0.5).matrix))
    assert worst <= sol.residual + 1e-12


def test_zeroed_family_iii_effect(tuned20_params):
    truncated = zero_family_iii(tuned20_params)
    cls = sl.classify_families(truncated)
    lo, hi = cls.magnitude_ranges["III"]
    assert hi == 0.0
    sol = sl.solve_werner(truncated, 0.8)
    assert sol.residual < 1e-10
    rho = sl.assemble_rho(tuned20_params, sol.controls)
    delta = discrepancy(rho, werner_target(0.8))
    assert 5e-3 <= delta <= 2e-2


def test_solve_general_vacuum_target(tuned20_params):
    # many controls create diag(1,0,0,0): the vacuum, but also states whose
    # excitations sit entirely in the environment at t0; only the receiver
    # match is contractual
    target = TargetState(np.diag([1.0, 0, 0, 0]).astype(complex))
    sol = sl.solve_general(tuned20_params, target, n_starts=8)
    assert sol.residual < 1e-8
    assert sol.discrepancy < 1e-8


def test_solve_general_self_target(tuned20_params, rng):
    state = SenderState.random(rng)
    target = TargetState(sl.assemble_rho(tuned20_params, state).rho)
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

    def solve_stub(params, p, **kwargs):
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
