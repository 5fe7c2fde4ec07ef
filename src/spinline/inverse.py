"""Inverse problem: control amplitudes that create a target receiver state.

The receiver matrix is quadratic in the controls, so creation amounts to
solving a system of real quadratic equations under the normalization
constraint.  Werner targets reduce to 6 real quadratic forms in the 6
real pair amplitudes, solved by MINPACK's Levenberg-Marquardt
(``least_squares(method="lm")``, compiled code); general targets go
through projected nonlinear least squares (``trf``) over the full
20-parameter control vector, which ``lm`` cannot take since it has fewer
residuals than unknowns.  Both use seeded multi-start: solutions are
particular, not unique, and reproducibility of our chosen solution is what
matters.
"""

from dataclasses import dataclass, field, replace

import numpy as np
from scipy.optimize import least_squares

from .basis import SenderState
from .errors import InfeasibleTargetError, InputError
from .receiver import KINDS, assemble_rho, classify_families, param_index

WERNER_RESIDUAL_TOL = 1e-10
FEASIBILITY_RESIDUAL_TOL = 1e-8


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
    """Frobenius-norm distance ||rho - A|| / ||A||."""
    a = target.matrix if isinstance(target, TargetState) else np.asarray(target)
    r = rho.rho if hasattr(rho, "rho") else np.asarray(rho)
    norm_a = np.linalg.norm(a)
    if norm_a == 0.0:
        raise ValueError("target matrix has zero norm")
    return float(np.linalg.norm(r - a) / norm_a)


def _werner_system(params, p):
    """Equations and Jacobian for the 6 real pair controls x.

    Every equation is a real quadratic form minus its target value,
    ``x^T Q[k] x = c[k]``: the receiver-pair population, the two
    single-excitation populations, the real and imaginary parts of their
    coherence, and the norm.
    """
    q = params.p_pair
    Q = np.stack([
        (np.conj(q)[:, None] * q).real,
        params.P_mm.real,
        params.P_NN.real,
        params.P_mN.real,
        params.P_mN.imag,
        np.eye(len(q)),
    ])
    Q = 0.5 * (Q + Q.transpose(0, 2, 1))
    c = np.array([(1.0 - p) / 4.0, (1.0 + p) / 4.0, (1.0 + p) / 4.0, -p / 2.0, 0.0, 1.0])

    def fun(x):
        return (Q @ x) @ x - c

    def jac(x):
        return 2.0 * (Q @ x)

    return fun, jac


def solve_werner(params, p, n_starts=64, seed=0, residual_tol=WERNER_RESIDUAL_TOL):
    """Real pair-amplitude controls creating the Werner state.

    Zero entries of the Werner matrix force a0 = a_i = 0, and particular
    solutions exist with real pair amplitudes, leaving 6 real equations in
    6 unknowns.  Each start runs MINPACK's Levenberg-Marquardt for at
    most 400 evaluations; residuals below ``residual_tol`` count as exact,
    so ties go to the lowest start index.  Start 0 is the neutral
    equal-amplitude vector, the rest are seeded random unit vectors.  Where
    the solution manifold is degenerate (truncated parameter sets), start 0
    selects a reproducible branch instead of an arbitrary manifold point.
    Start 0 converges across the feasible range of the tuned n=20 line except at
    p = 0, where start 1 reaches another exact solution.

    Raises
    ------
    InfeasibleTargetError
        If no start reaches ``residual_tol`` (expected for p beyond the
        feasibility boundary).
    """
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"werner parameter must lie in [0, 1], got {p}")
    fun, jac = _werner_system(params, p)
    rng = np.random.default_rng(seed)
    starts = [np.full(6, 1.0 / np.sqrt(6.0))]
    while len(starts) < n_starts:
        x0 = rng.standard_normal(6)
        starts.append(x0 / np.linalg.norm(x0))
    best = None
    for start, x0 in enumerate(starts):
        # x_scale explicit: scipy 1.16 changed the lm default
        sol = least_squares(
            fun, x0, jac=jac, method="lm", x_scale="jac",
            xtol=5e-16, ftol=5e-16, gtol=5e-16, max_nfev=400,
        )
        res = float(np.max(np.abs(fun(sol.x))))
        if res <= residual_tol:
            best = (res, sol.x.copy(), start)
            break
        if best is None or res < best[0]:
            best = (res, sol.x.copy(), start)
    res, x, _ = best
    if res > residual_tol:
        raise InfeasibleTargetError(res, best_controls=x)
    state = SenderState.from_double(x, params.n_sender)
    rho = assemble_rho(params, state)
    return InverseSolution(
        controls=state,
        residual=res,
        discrepancy=discrepancy(rho, werner_target(p)),
    )


def _unpack_controls(x, n_sender, n_pairs):
    x = x / np.linalg.norm(x)
    a0 = x[0]
    a1 = x[1 : 1 + n_sender] + 1j * x[1 + n_sender : 1 + 2 * n_sender]
    rest = x[1 + 2 * n_sender :]
    a2 = rest[:n_pairs] + 1j * rest[n_pairs:]
    return SenderState(a0, a1, a2, n_sender)


def solve_general(params, target, n_starts=32, seed=0):
    """Best-found controls for an arbitrary 4x4 target.

    Minimizes the summed squared entry mismatch of the assembled receiver
    matrix over the normalized 21-component control vector (20 free real
    parameters).  Always returns the best solution found, with its honest
    residual; no feasibility claim is made.
    """
    a = target.matrix if isinstance(target, TargetState) else np.asarray(target)
    n_sender = params.n_sender
    n_pairs = len(params.pairs)
    dim = 1 + 2 * n_sender + 2 * n_pairs

    def residual_vector(x):
        state = _unpack_controls(x, n_sender, n_pairs)
        d = assemble_rho(params, state).rho - a
        iu = np.triu_indices(4)
        return np.concatenate([d[iu].real, d[iu].imag])

    rng = np.random.default_rng(seed)
    best = None
    for start in range(n_starts):
        x0 = rng.standard_normal(dim)
        x0 /= np.linalg.norm(x0)
        sol = least_squares(
            residual_vector, x0, method="trf",
            xtol=5e-16, ftol=5e-16, gtol=5e-16, max_nfev=600,
        )
        state = _unpack_controls(sol.x, n_sender, n_pairs)
        res = float(np.max(np.abs(assemble_rho(params, state).rho - a)))
        if best is None or res < best[0]:
            best = (res, state, start)
    res, state, _ = best
    return InverseSolution(
        controls=state,
        residual=res,
        discrepancy=discrepancy(assemble_rho(params, state), TargetState(matrix=a)),
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
        If the grid has fewer than two points or is not strictly increasing.
    """
    p_grid = np.asarray(p_grid, float)
    if p_grid.ndim != 1 or p_grid.size < 2:
        raise InputError(f"p_grid needs at least two points, got {p_grid.size}")
    if np.any(np.diff(p_grid) <= 0):
        raise InputError("p_grid must be strictly increasing")

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
