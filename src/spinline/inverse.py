"""Inverse problem: control amplitudes that create a target receiver state.

A target is a plain 4x4 complex array (:func:`check_target`,
:func:`werner_target`); the controls found are a plain complex vector
x = (a0, a_single, a_double), laid out by
:func:`~spinline.basis.control_slices`: a row of ``WernerControls.x``, or
``InverseSolution.x``.  The receiver matrix is quadratic in x, so creation
amounts to solving real quadratic forms, contracted from the receiver
operator, under the normalization constraint: for Werner targets in the
real pair amplitudes, for general targets in all real control parts.  Both
run one seeded multi-start of a Levenberg-Marquardt that advances a stack
of starts in numpy (:func:`_levenberg_marquardt`): solutions are
particular, not unique, and reproducibility of our chosen solution is what
matters.
The solver takes the same steps in any process, so a seeded solve gives
the same bits wherever it runs.

:func:`solve_werner` is the one Werner solve: the equations of different p
share their forms and differ only in their values, so it solves one p or a
list of them (:data:`WERNER_P`, the paper's imperfection study) as one
stack and returns one tuple of arrays, :class:`WernerControls`: the p, the
(P, d) control vectors and each one's residual and discrepancy, over the
leading p the line can create.  :func:`solve_general` returns an
:class:`InverseSolution`.

:func:`zero_family_iii` truncates a parameter set to its families I and II
with one mask over its ``entries``
(:func:`~spinline.receiver.entry_families`).
"""

import math
from collections import namedtuple
from dataclasses import dataclass, replace

import numpy as np

from .basis import control_slices
from .errors import InfeasibleTargetError, InputError
from .receiver import density_deviations, entry_families, receiver_operator, receiver_rho

WERNER_RESIDUAL_TOL = 1e-10
FEASIBILITY_RESIDUAL_TOL = 1e-8
TARGET_TOL = 1e-8  # Hermiticity, trace and positivity of a target matrix
UPPER = np.triu_indices(4)  # receiver-matrix entries a <= b, row by row


def check_target(m):
    """Raise InputError unless ``m`` is a 4x4 density matrix to TARGET_TOL
    (Hermiticity, trace and least eigenvalue).  Returns ``m``."""
    if m.shape != (4, 4):
        raise InputError(f"target must be 4x4, got {m.shape}")
    if not np.isfinite(m).all():
        raise InputError("target has a non-finite entry")
    if not (peak := np.abs(m).max()) <= 1 + TARGET_TOL:  # |m_ij| <= 1 in a density matrix
        raise InputError(f"not a density matrix (an entry of magnitude {peak:.1e})")
    herm, tr, lo = density_deviations(m)
    if not np.max((herm, tr, -lo)) <= TARGET_TOL:
        raise InputError(
            f"not a density matrix (hermiticity {herm:.1e}, trace dev {tr:.1e}, "
            f"min eigenvalue {lo:.1e})"
        )
    return m


def werner_target(p):
    """Two-qubit Werner matrix (..., 4, 4) of each mixing parameter p in [0, 1]."""
    p = np.asarray(p, float)
    if not np.all((0.0 <= p) & (p <= 1.0)):
        raise InputError(f"werner parameter must lie in [0, 1], got {p}")
    m = np.zeros(p.shape + (4, 4), complex)
    m[..., 0, 0] = m[..., 3, 3] = (1.0 - p) / 4.0
    m[..., 1, 1] = m[..., 2, 2] = (1.0 + p) / 4.0
    m[..., 1, 2] = m[..., 2, 1] = -p / 2.0
    return m


@dataclass(frozen=True)
class InverseSolution:
    """Controls :func:`solve_general` found for a target, with honest quality
    numbers: the control vector ``x`` (d,), ``residual``, the largest
    violation of the defining equations, and ``discrepancy``, the normalized
    Frobenius distance between the state assembled from the same parameters
    and the exact target."""

    x: np.ndarray
    residual: float
    discrepancy: float


# the Werner parameters solve_werner solved: p (P,), the control vectors
# x (P, d) with a0 = a_i = 0, and each one's residual and discrepancy (P,)
WernerControls = namedtuple("WernerControls", "p x residual discrepancy")


def discrepancy(rho, target):
    """Frobenius-norm distance ||rho - A|| / ||A|| of the arrays rho and
    A = ``target``, over their last two axes."""
    norm_a = np.linalg.norm(target, axis=(-2, -1))
    if np.any(norm_a == 0.0):
        raise InputError("target matrix has zero norm")
    return np.linalg.norm(rho - target, axis=(-2, -1)) / norm_a


def _quadratic_system(K, basis, target, rows=slice(None)):
    """Forms Q (m, n, n) and values c (..., m) of the equations
    ``y^T Q[k] y = c[k]`` in real controls y, x = basis @ y, for targets
    (..., 4, 4).

    The forms are the real, then the imaginary parts of
    ``basis^T K[a, b] conj(basis)`` over the upper triangle a <= b of the
    receiver operator K (:func:`~spinline.receiver.receiver_operator`),
    then the norm; ``rows`` picks among them.
    """
    forms = basis.T @ K[UPPER] @ basis.conj()
    norm = (basis.T @ basis.conj()).real
    Q = np.concatenate([forms.real, forms.imag, norm[None]])[rows]
    t = np.asarray(target)[..., UPPER[0], UPPER[1]]
    c = np.concatenate([t.real, t.imag, np.ones(t.shape[:-1] + (1,))], axis=-1)[..., rows]
    return 0.5 * (Q + Q.transpose(0, 2, 1)), c


def _forms(Q, y):
    """Q_k y (S, m, n) and the form values y^T Q_k y (S, m) at the stacked points y (S, n)."""
    m, n, _ = Q.shape
    Qy = (y @ Q.reshape(m * n, n).T).reshape(len(y), m, n)
    return Qy, (Qy @ y[..., None])[..., 0]


def _werner_system(K, n_sender, targets):
    """The Werner equations in the real pair amplitudes (a0 = a_i = 0) of
    the receiver operator K of an ``n_sender``-node sender, for the target
    matrices (P, 4, 4): the forms Q shared by all P, and one row of values
    c (P, 6) each, for rho33, rho11, rho22, Re rho12, Im rho12 and the
    norm."""
    return _quadratic_system(K, np.eye(K.shape[-1])[:, control_slices(n_sender)[1]], targets,
                             [9, 4, 7, 5, 15, 20])


def _general_basis(params):
    """Real controls (a0, Re x_1.., Im x_1..) with a0 real: d x (2d - 1)."""
    eye = np.eye(control_slices(params.n_sender)[1].stop)
    return np.hstack([eye, 1j * eye[:, 1:]])


MAX_EVALUATIONS = 400  # per start
STEP_BOUND = 100.0  # initial trust radius over |D y0|, as in MINPACK
XTOL = 5e-16  # trust radius, relative to |D y|, at which a start has converged
STALL_STEPS = 5  # accepted steps without progress that freeze a start
STALL_GAIN = 1e-3  # relative fall of the best violation that counts as progress
ACCELERATION_BOUND = 0.75  # largest |a| / |v| of an accepted geodesic correction
EPS = np.finfo(float).eps
ROUNDING = 16 * EPS  # a violation of the O(1) form values no step can lower


def _levenberg_parameter(w, b, delta):
    """More's damping lam >= 0 for one start, and the diagonal of (A + lam)^-1.

    A = V diag(w) V^T is the scaled J^T J and b = V^T J_s^T r; the step is
    u = b / (w + lam) in that eigenbasis, and eigenvalues at rounding level
    of the largest take no step.  lam = 0 when the Gauss-Newton step is at
    most 1.1 delta long; otherwise up to ten Newton steps on 1/|u(lam)| -
    1/delta from lam = 0 bring |u| within 10% of delta (More 1978).
    Returns lam, 1 / (w + lam), |u|^2 and b . u.
    """
    cutoff = len(w) * EPS * max(w)
    ranked = [(wi, bi * bi) for wi, bi in zip(w, b) if wi > cutoff]
    lam, newton = 0.0, 0
    while True:
        uu = curve = slope = 0.0
        for wi, bb in ranked:
            t = 1.0 / (wi + lam)
            slope += bb * t
            uu += bb * t * t
            curve += bb * t * t * t
        if uu <= 1.21 * delta * delta or newton == 10:
            return lam, [1.0 / (wi + lam) if wi > cutoff else 0.0 for wi in w], uu, slope
        lam += (math.sqrt(uu) - delta) / delta * uu / curve
        newton += 1


@dataclass
class _Start:
    """Scalar state of one start: the problem it solves, More's trust radius,
    |r|^2 at the current point, and the best largest violation with the
    stall bookkeeping."""

    index: int
    problem: int
    delta: float
    xnorm: float  # |D y| at the start, the scale of XTOL
    f2: float
    best: float
    ref: float  # best violation when the start last made progress
    stale: int = 0  # steps since then

    def step(self, f2_new, viol, lam, uu, slope, first, residual_tol):
        """Take or reject a trial point; returns (accepted, new best, done).

        More's update, with reductions in units of |r|^2: the actual one,
        and the one the linear model predicts for the velocity, slope +
        lam |u|^2 with slope = b . u.
        """
        exact = self.best <= residual_tol
        pnorm = math.sqrt(uu)
        if first:
            self.delta = min(self.delta, pnorm)
        actual = self.f2 - f2_new
        ratio = actual / (slope + lam * uu) if slope > 0.0 else 0.0
        if ratio <= 0.25:
            shrink = 0.5 if actual >= 0.0 else 0.5 * slope / (slope - 0.5 * actual)
            self.delta = max(shrink, 0.1) * min(self.delta, 10.0 * pnorm)
        elif lam == 0.0 or ratio >= 0.75:
            self.delta = 2.0 * pnorm
        accepted = ratio >= 1e-4
        better = accepted and viol < self.best
        if accepted:
            self.f2 = f2_new
        if better:
            self.best = viol
        if self.best < (1.0 - STALL_GAIN) * self.ref:
            self.ref, self.stale = self.best, 0
        elif accepted or exact:
            self.stale += 1
        done = (self.best <= ROUNDING or self.stale >= (1 if exact else STALL_STEPS)
                or self.delta <= XTOL * self.xnorm)
        return accepted, better, done


def _levenberg_marquardt(Q, c, y, problem, residual_tol):
    """Best largest violation (S,) and its point (S, n) for each start of y.

    Start k solves ``y^T Q[i] y = c[k, i]``: the starts share the forms Q
    and each has its own row of values in c (S, m).  ``problem`` (S,) names
    the problem of each start; starts of one problem share their values.
    All starts advance together as one stack.  Each step follows More's
    Levenberg-Marquardt: variables scaled by D, the running maximum of the
    Jacobian's column norms, and a trust radius that grows or shrinks with
    the ratio of actual to predicted reduction.  The residuals are exactly
    quadratic, r(y + v) = r + J v + q(v) with q_k(v) = v^T Q_k v, so the
    geodesic acceleration a = -(J^T J + lam D^2)^-1 J^T 2q(v) of a
    velocity step v is exact and costs one more product with Q; the step
    taken is v + a/2 whenever |D a| <= 0.75 |D v| (Transtrum and Sethna
    2012).  The linear algebra runs on the stack; the trust radius of each
    start is scalar bookkeeping in Python (:class:`_Start`), as a numpy
    call on a handful of numbers costs more than the arithmetic.

    A start stops at the evaluation cap; when its best violation has not
    fallen by a relative ``STALL_GAIN`` over ``STALL_STEPS`` accepted steps,
    which a stuck infeasible start meets within a few dozen evaluations and
    a start crawling along a valley does not; within ``residual_tol``, at
    its first step, accepted or not, without that gain, as it has then
    converged quadratically; at a violation of ``ROUNDING``; or when its
    trust radius falls below ``XTOL`` times its first |D y| (D only grows,
    and the norm equation holds |y| near 1).  Once a start is within
    ``residual_tol`` the later starts of its problem stop, as they cannot
    win; starts of other problems run on.
    """
    out_res, out_y = np.empty(len(y)), np.empty_like(y)
    y = y.copy()
    Qy, r = _forms(Q, y)
    r -= c
    J = 2.0 * Qy
    D = np.sqrt((J * J).sum(axis=1))
    D[D == 0.0] = 1.0
    best_y = y.copy()
    starts = [_Start(k, g, STEP_BOUND * (dy or 1.0), dy, f2, best, best)
              for k, (g, dy, f2, best) in enumerate(zip(
                  np.asarray(problem).tolist(), np.sqrt(((D * y) ** 2).sum(axis=1)).tolist(),
                  (r * r).sum(axis=1).tolist(), np.abs(r).max(axis=1).tolist()))]
    done = [False] * len(y)
    for evaluation in range(1, MAX_EVALUATIONS):
        solved = set()
        for k, s in enumerate(starts):
            if s.problem in solved:
                done[k] = True
            elif s.best <= residual_tol:
                solved.add(s.problem)
        if any(done):
            for s, d, yk in zip(starts, done, best_y):
                if d:
                    out_res[s.index], out_y[s.index] = s.best, yk
            keep = np.logical_not(done)
            y, r, J, D, best_y, c = y[keep], r[keep], J[keep], D[keep], best_y[keep], c[keep]
            starts = [s for s, d in zip(starts, done) if not d]
            if not starts:
                return out_res, out_y
        Js = J / D[:, None, :]
        JsT = Js.transpose(0, 2, 1)
        w, V = np.linalg.eigh(JsT @ Js)
        G = V.transpose(0, 2, 1) @ JsT  # rows of V^T Js^T
        b = (G @ r[..., None])[..., 0]
        lam, inv, uu, slope = zip(*map(_levenberg_parameter, w.tolist(), b.tolist(),
                                       [s.delta for s in starts]))
        inv = np.array(inv)
        u = inv * b
        x = (V @ u[..., None])[..., 0] / D  # the velocity is v = -x, and q(v) = q(x)
        ua = inv * (G @ _forms(Q, x)[1][..., None])[..., 0]  # a/2 = -V ua / D
        for k, aa in enumerate((ua * ua).sum(axis=1).tolist()):
            if aa > (0.5 * ACCELERATION_BOUND) ** 2 * uu[k]:
                ua[k] = 0.0
        y_new = y - x - (V @ ua[..., None])[..., 0] / D
        Qy, r_new = _forms(Q, y_new)
        r_new -= c
        accepted, better, done = map(list, zip(*(
            s.step(f2_new, viol, lam[k], uu[k], slope[k], evaluation == 1, residual_tol)
            for k, (s, f2_new, viol) in enumerate(zip(
                starts, (r_new * r_new).sum(axis=1).tolist(), np.abs(r_new).max(axis=1).tolist())))))
        if all(accepted):
            y, r, J = y_new, r_new, 2.0 * Qy
        elif any(accepted):
            mask = np.array(accepted)[:, None]
            np.copyto(y, y_new, where=mask)
            np.copyto(r, r_new, where=mask)
            np.copyto(J, 2.0 * Qy, where=mask[..., None])
        if any(accepted):
            D = np.maximum(D, np.sqrt((J * J).sum(axis=1)))
        if any(better):
            np.copyto(best_y, y, where=np.array(better)[:, None])
    for s, yk in zip(starts, best_y):
        out_res[s.index], out_y[s.index] = s.best, yk
    return out_res, out_y


def _multistart(Q, c, starts, residual_tol):
    """Best residuals (P,) and points (P, n) of the P problems ``y^T Q[i] y =
    c[p, i]`` (c is (P, m)), each solved from the same starts, scaled to
    unit norm.

    Start 0 of every problem runs first, as one stack, so a problem it
    settles costs one start; the other starts of the problems it leaves
    open then run as one batch.  The winner of a problem is its
    lowest-index start within ``residual_tol``, else its start of least
    violation.
    """
    y = starts / np.linalg.norm(starts, axis=1, keepdims=True)
    every = np.arange(len(c))
    res, ys = _levenberg_marquardt(Q, c, np.repeat(y[:1], len(c), axis=0), every, residual_tol)
    open_ = every[res > residual_tol]
    if open_.size and len(y) > 1:
        problem = np.repeat(open_, len(y) - 1)
        rest_res, rest_y = _levenberg_marquardt(Q, c[problem], np.tile(y[1:], (open_.size, 1)),
                                                problem, residual_tol)
        for p, r, yp in zip(open_.tolist(), rest_res.reshape(open_.size, -1),
                            rest_y.reshape(open_.size, len(y) - 1, -1)):
            exact = r <= residual_tol
            k = int(np.argmax(exact)) if exact.any() else int(np.argmin(r))
            if exact[k] or r[k] < res[p]:  # start 0 wins ties
                res[p], ys[p] = r[k], yp[k]
    return res, ys


WERNER_P = tuple(round(0.1 * k, 1) for k in range(9))  # the paper's imperfection study


def solve_werner(params, p, n_starts=64, seed=0, residual_tol=WERNER_RESIDUAL_TOL):
    """Real pair-amplitude controls creating the Werner state of each p in
    ``p`` (one p or a 1-D sequence), as :class:`WernerControls` arrays over
    the leading p that reach ``residual_tol``; one p gives arrays of length 1.

    Zero entries of the Werner matrix force a0 = a_i = 0, and particular
    solutions exist with real pair amplitudes, leaving 6 real equations in
    the n_pairs real pair amplitudes (6 for a four-node sender).  All p
    share their forms and run the same starts, as one stacked multi-start
    (:func:`_multistart`): the neutral equal-amplitude vector, then
    ``n_starts - 1`` standard normal draws of ``seed``.  Where the solution
    manifold is degenerate (truncated parameter sets), start 0 selects a
    reproducible branch instead of an arbitrary manifold point.  Start 0
    converges across the feasible range of the tuned n=20 line, so those
    solutions do not depend on the seed.  One receiver operator gives the
    forms and the discrepancies of all solved p.

    Raises
    ------
    InputError
        If a p lies outside [0, 1] (from :func:`werner_target`), or ``p`` is
        empty or has more than one axis.
    InfeasibleTargetError
        If no start of the first p reaches ``residual_tol`` (expected beyond
        the feasibility boundary); it carries the best pair amplitudes found.
    """
    ps = np.array(p, float, ndmin=1)
    if ps.ndim != 1 or not ps.size:
        raise InputError(f"werner p must be one p or a 1-D sequence, got shape {ps.shape}")
    n_pairs = len(params.pairs)
    rng = np.random.default_rng(seed)
    starts = np.vstack([np.ones(n_pairs), rng.standard_normal((n_starts - 1, n_pairs))])
    targets = werner_target(ps)
    K = receiver_operator(params)
    res, ys = _multistart(*_werner_system(K, params.n_sender, targets), starts, residual_tol)
    unsolved = res > residual_tol
    n_solved = int(np.argmax(unsolved)) if unsolved.any() else len(res)
    if n_solved == 0:
        raise InfeasibleTargetError(res[0], best_controls=ys[0])
    x = np.zeros((n_solved, K.shape[-1]), complex)
    x[:, control_slices(params.n_sender)[1]] = ys[:n_solved]
    return WernerControls(ps[:n_solved], x, res[:n_solved],
                          discrepancy(receiver_rho(K, x), targets[:n_solved]))


def solve_general(params, target, n_starts=32, seed=0):
    """Best-found controls for an arbitrary 4x4 target matrix.

    Solves the upper triangle of the receiver matrix (20 real equations)
    and the norm in the 2d - 1 real controls (a0 real; 21 for a four-node
    sender) from seeded random starts.  Always returns the best solution
    found, normalized, with its honest residual; no feasibility claim is
    made.
    """
    basis = _general_basis(params)
    starts = np.random.default_rng(seed).standard_normal((n_starts, basis.shape[1]))
    K = receiver_operator(params)
    Q, c = _quadratic_system(K, basis, target)
    _, (y,) = _multistart(Q, c[None], starts, WERNER_RESIDUAL_TOL)
    x = basis @ (y / np.linalg.norm(y))
    rho = receiver_rho(K, x)
    return InverseSolution(
        x=x,
        residual=float(np.max(np.abs(rho - target))),
        discrepancy=discrepancy(rho, target),
    )


def feasibility_scan(params, p_grid, n_starts=64, seed=0, refine_tol=5e-4):
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
            solve_werner(params, [p], n_starts=n_starts, seed=seed,
                         residual_tol=FEASIBILITY_RESIDUAL_TOL)
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
    against a simplified line description.  A stacked set is truncated
    chain by chain.
    """
    return replace(params, entries=np.where(entry_families(params.n_sender) == "III", 0.0,
                                            params.entries))
