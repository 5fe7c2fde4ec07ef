"""Inverse problem: control amplitudes that create a target receiver state.

The receiver matrix is quadratic in the controls, so creation amounts to
solving real quadratic forms, contracted from the receiver operator, under
the normalization constraint: for Werner targets in the real pair
amplitudes, for general targets in all real control parts.  Both run one
seeded multi-start of MINPACK's Levenberg-Marquardt ``lmder``, called
through ``leastsq`` with the analytic Jacobian: solutions are particular,
not unique, and reproducibility of our chosen solution is what matters.
"""

from dataclasses import dataclass, field, replace

import numpy as np

from .basis import SenderState
from .errors import InfeasibleTargetError, InputError
from .receiver import KINDS, assemble_rho, classify_families, param_index, receiver_operator

WERNER_RESIDUAL_TOL = 1e-10
FEASIBILITY_RESIDUAL_TOL = 1e-8
UPPER = np.triu_indices(4)  # receiver-matrix entries a <= b, row by row


@dataclass(frozen=True)
class TargetState:
    """Desired 4x4 receiver density matrix."""

    matrix: np.ndarray = field(repr=False)

    def validate(self, tol=1e-8, allow_nonphysical=False):
        m = self.matrix
        if m.shape != (4, 4):
            raise InputError(f"target must be 4x4, got {m.shape}")
        herm = np.max(np.abs(m - m.conj().T))
        tr = abs(np.trace(m) - 1.0)
        lo = np.min(np.linalg.eigvalsh(0.5 * (m + m.conj().T)))
        if not allow_nonphysical and (herm > tol or tr > tol or lo < -tol):
            raise InputError(
                f"not a density matrix (hermiticity {herm:.1e}, trace dev {tr:.1e}, "
                f"min eigenvalue {lo:.1e})"
            )
        return self


def werner_target(p):
    """Two-qubit Werner state with mixing parameter p in [0, 1]."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"werner parameter must lie in [0, 1], got {p}")
    m = np.zeros((4, 4), complex)
    m[0, 0] = m[3, 3] = (1.0 - p) / 4.0
    m[1, 1] = m[2, 2] = (1.0 + p) / 4.0
    m[1, 2] = m[2, 1] = -p / 2.0
    return TargetState(matrix=m)


@dataclass(frozen=True)
class InverseSolution:
    """Controls found for a target, with honest quality numbers.

    ``residual`` is the largest violation of the defining equations;
    ``discrepancy`` is the normalized Frobenius distance between the state
    assembled from the same parameters and the exact target.
    """

    controls: SenderState
    residual: float
    discrepancy: float


def discrepancy(rho, target):
    """Frobenius-norm distance ||rho - A|| / ||A||, over the last two axes."""
    a = target.matrix if isinstance(target, TargetState) else np.asarray(target)
    r = rho.rho if hasattr(rho, "rho") else np.asarray(rho)
    norm_a = np.linalg.norm(a, axis=(-2, -1))
    if np.any(norm_a == 0.0):
        raise ValueError("target matrix has zero norm")
    return np.linalg.norm(r - a, axis=(-2, -1)) / norm_a


def _quadratic_system(params, basis, target, rows=slice(None)):
    """Equations ``y^T Q[k] y = c[k]`` and Jacobian in real controls y, x = basis @ y.

    The forms are the real, then the imaginary parts of
    ``basis^T K[a, b] conj(basis)`` over the upper triangle a <= b of the
    receiver operator K, then the norm; ``rows`` picks among them.  Zero
    forms pad the stack to the number of unknowns, as MINPACK requires.
    """
    forms = basis.T @ receiver_operator(params)[UPPER] @ basis.conj()
    norm = (basis.T @ basis.conj()).real
    Q = np.concatenate([forms.real, forms.imag, norm[None]])[rows]
    Q = 0.5 * (Q + Q.transpose(0, 2, 1))
    t = np.asarray(target)[UPPER]
    c = np.concatenate([t.real, t.imag, [1.0]])[rows]
    pad = max(basis.shape[1] - len(c), 0)
    Q = np.concatenate([Q, np.zeros((pad, *Q.shape[1:]))])
    c = np.concatenate([c, np.zeros(pad)])

    def fun(y):
        return (Q @ y) @ y - c

    def jac(y):
        return 2.0 * (Q @ y)

    return fun, jac


def _werner_system(params, p):
    """The Werner equations in the real pair amplitudes (a0 = a_i = 0): the
    rows rho33, rho11, rho22, Re rho12, Im rho12 and the norm."""
    first_pair = 1 + params.n_sender
    basis = np.eye(first_pair + len(params.pairs))[:, first_pair:]
    return _quadratic_system(params, basis, werner_target(p).matrix, [9, 4, 7, 5, 15, 20])


def _general_basis(params):
    """Real controls (a0, Re x_1.., Im x_1..) with a0 real: d x (2d - 1)."""
    eye = np.eye(1 + params.n_sender + len(params.pairs))
    return np.hstack([eye, 1j * eye[:, 1:]])


def _multistart(fun, jac, starts, residual_tol):
    """Best (residual, y) over the starts, each scaled to unit norm.

    Each start runs MINPACK's ``lmder`` with its defaults (step bound
    factor 100, variables scaled by the Jacobian's column norms) for at most
    400 evaluations, and the loop stops at the first whose largest equation
    violation is within ``residual_tol``, so ties go to the lowest start.
    ``leastsq`` passes ``fun`` and ``jac`` to ``lmder`` unwrapped;
    ``full_output`` keeps it from warning when a start reaches the cap.
    """
    # imported here: scipy.optimize doubles the start-up time of the CLI
    from scipy.optimize import leastsq

    best = None
    for y0 in starts:
        y, _, info, _, _ = leastsq(
            fun, y0 / np.linalg.norm(y0), Dfun=jac, full_output=True,
            xtol=5e-16, ftol=5e-16, gtol=5e-16, maxfev=400,
        )
        res = float(np.max(np.abs(info["fvec"])))
        if best is None or res < best[0]:
            best = (res, y)
        if res <= residual_tol:
            break
    return best


def solve_werner(params, p, n_starts=64, seed=0, residual_tol=WERNER_RESIDUAL_TOL):
    """Real pair-amplitude controls creating the Werner state.

    Zero entries of the Werner matrix force a0 = a_i = 0, and particular
    solutions exist with real pair amplitudes, leaving 6 real equations in
    the n_pairs real pair amplitudes (6 for a four-node sender).  Start 0
    is the neutral equal-amplitude vector, the rest seeded random vectors.
    Where the solution manifold is degenerate (truncated parameter sets),
    start 0 selects a reproducible branch instead of an arbitrary manifold
    point.  Start 0 converges across the feasible range of the tuned n=20
    line except at p = 0, where start 1 reaches another exact solution.

    Raises
    ------
    ValueError
        If p lies outside [0, 1] (from :func:`werner_target`).
    InfeasibleTargetError
        If no start reaches ``residual_tol`` (expected for p beyond the
        feasibility boundary).
    """
    fun, jac = _werner_system(params, p)
    n_pairs = len(params.pairs)
    rng = np.random.default_rng(seed)
    starts = [np.ones(n_pairs), *rng.standard_normal((n_starts - 1, n_pairs))]
    res, x = _multistart(fun, jac, starts, residual_tol)
    if res > residual_tol:
        raise InfeasibleTargetError(res, best_controls=x)
    state = SenderState.from_double(x, params.n_sender)
    rho = assemble_rho(params, state)
    return InverseSolution(
        controls=state,
        residual=res,
        discrepancy=discrepancy(rho, werner_target(p)),
    )


def solve_general(params, target, n_starts=32, seed=0):
    """Best-found controls for an arbitrary 4x4 target.

    Solves the upper triangle of the receiver matrix (20 real equations)
    and the norm in the 2d - 1 real controls (a0 real; 21 for a four-node
    sender) from seeded random starts.  Always returns the best solution
    found, normalized, with its honest residual; no feasibility claim is
    made.
    """
    a = target.matrix if isinstance(target, TargetState) else np.asarray(target)
    basis = _general_basis(params)
    fun, jac = _quadratic_system(params, basis, a)
    starts = np.random.default_rng(seed).standard_normal((n_starts, basis.shape[1]))
    _, y = _multistart(fun, jac, starts, WERNER_RESIDUAL_TOL)
    x = basis @ (y / np.linalg.norm(y))
    n_sender = params.n_sender
    state = SenderState(x[0].real, x[1 : 1 + n_sender], x[1 + n_sender :], n_sender)
    rho = assemble_rho(params, state)
    return InverseSolution(
        controls=state,
        residual=float(np.max(np.abs(rho.rho - a))),
        discrepancy=discrepancy(rho, TargetState(matrix=a)),
    )


def feasibility_scan(params, p_grid, n_starts=64, seed=0,
                     residual_tol=FEASIBILITY_RESIDUAL_TOL, refine_tol=5e-4):
    """Largest Werner parameter p for which controls exist.

    Walks the monotone grid up to its first infeasible point to bracket the
    boundary, then bisects the bracket down to ``refine_tol``.  Returns
    (boundary, resolution).

    Raises
    ------
    InputError
        If the grid has fewer than two points, is not strictly increasing or
        leaves [0, 1].
    """
    p_grid = np.asarray(p_grid, float)
    if p_grid.ndim != 1 or p_grid.size < 2:
        raise InputError(f"p_grid needs at least two points, got {p_grid.size}")
    if np.any(np.diff(p_grid) <= 0):
        raise InputError("p_grid must be strictly increasing")
    if p_grid[0] < 0.0 or p_grid[-1] > 1.0:
        raise InputError(f"p_grid must lie in [0, 1], got {p_grid[0]}..{p_grid[-1]}")

    def feasible(p):
        try:
            solve_werner(params, p, n_starts=n_starts, seed=seed,
                         residual_tol=residual_tol)
            return True
        except InfeasibleTargetError:
            return False

    hi_idx = next((i for i, p in enumerate(p_grid) if not feasible(p)), None)
    if hi_idx == 0:
        return float(p_grid[0]), float(p_grid[1] - p_grid[0])
    if hi_idx is None:
        return float(p_grid[-1]), float(p_grid[-1] - p_grid[-2])
    lo, hi = float(p_grid[hi_idx - 1]), float(p_grid[hi_idx])
    while hi - lo > refine_tol:
        mid = 0.5 * (lo + hi)
        if feasible(mid):
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi), 0.5 * (hi - lo)


def zero_family_iii(params):
    """Copy of the parameter set with every family-III entry set to zero.

    The small-magnitude approximation used when solving the inverse problem
    against a simplified line description.
    """
    tags = classify_families(params).tags
    arrays = {kind: getattr(params, kind).copy() for kind in KINDS}
    for kind, idx, pos in param_index(params.n_sender):
        if tags[(kind, idx)] == "III":
            arrays[kind][pos] = 0.0
    return replace(params, **arrays)
