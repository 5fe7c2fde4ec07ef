"""Boundary-coupling optimization for end-to-end transfer.

The two outermost bond pairs (delta1, delta2) are tuned to maximize the
first maximum of the end-to-end single-excitation amplitude |p_{N;1}(t)|;
the time of that maximum is the registration time t0 at which the receiver
state is read out.

:func:`optimize_boundary` scores every point of the :func:`lattice` of step
``grid_step`` (0.05 by default) inside the search box, as stacked chains
through :func:`diagonalize` in blocks sized by memory
(:func:`~spinline.dynamics.chain_blocks`, whose budget the disorder sampler
shares), and refines the best one by trust-region Newton, which resolves
the optimum far below the lattice step from any point in its basin.  The
default box holds 625 points at the default step; a finer step costs time
in proportion to its points, up to ``MAX_POINTS`` (10^6).

The refinement works on the first-maximum amplitude A(delta1, delta2) =
|p_{N;1}(t0)|, the envelope of |p_{N;1}(t)| over t.  Its gradient and its
exact Hessian follow from the eigendecomposition H = V diag(lambda) V^T by the
first and second Daleckii-Krein divided differences of exp(-i lambda t0)
(:func:`_amplitude_derivatives`), and each step solves the trust-region
subproblem exactly (Moré and Sorensen, SIAM J. Sci. Stat. Comput. 4, 553,
1983); a step is taken only if the amplitude rises.  From the best lattice
point it takes about four evaluations, each one ``diagonalize``, one
:func:`first_maximum`, which refines the grid peak by Newton's method on
d|p|^2/dt = 0, and one :func:`_amplitude_derivatives`.

The grid search and :func:`first_maximum` share one kernel, :func:`_first_arrival`.
h1 is hopping on a bipartite chain, so its spectrum is +-paired: in the
ascending order of :func:`diagonalize`, which builds the pairs from one
singular value decomposition and so pairs them exactly, mode N-1-k has
eigenvalue -lambda_k and weight W_{N-1-k} = (-1)^(N-1) W_k, where
W_k = V[N-1, k] V[0, k]; the kernel still checks the pairing to
``PAIRING_TOL``, as a guard on spectra from elsewhere.  So p_{N;1}(t) =
sum_k W_k exp(-i lambda_k t) equals -2i sum_{lambda>0} W sin(lambda t) for
even N and W_0 + 2 sum_{lambda>0} W cos(lambda t) for odd N (W_0: the zero
mode), a real sum over half the modes.  The kernel scans
the time grid in a fixed partition of blocks of ``_BLOCK`` (128) steps, each with
one neighbour on either side for the local-maximum test, and drops a chain at its
first hit: tuned chains arrive near t = 1.3N, well short of the default 3N window.
The grid must be uniform (``np.arange(0, t_max + dt, dt)``), so that every block
has the same offsets tau_j = ts[j] - ts[0]: one table of cos(lambda tau_j) and
sin(lambda tau_j) per chain serves every block, which then costs one sin and one
cos of lambda t_start per mode and one matrix-vector product by angle addition,
sin(a + tau) = sin a cos tau + cos a sin tau and cos(a + tau) = cos a cos tau -
sin a sin tau.  The partition depends on the grid alone, never on the stack, so
a chain's amplitudes do not depend on the chains it is scored with.
"""

import math
from dataclasses import asdict, dataclass

import numpy as np

from .dynamics import SOLVE_BYTES, chain_blocks, diagonalize
from .errors import (ChainLengthError, InputError, NoArrivalError, NumericalError, check_single,
                     check_tolerance)
from .hamiltonian import MIN_PROFILE_NODES, ChainSpec, check_chain_length

# detection floor rejecting the tiny ripples that precede the main arrival
AMPLITUDE_FLOOR = 0.2
DEFAULT_DT = 0.05
TIME_TOL = 1e-12  # Newton step in t at which a first maximum is final
COUPLING_TOL = 1e-4  # finest lattice step of the boundary search
PAIRING_TOL = 1e-10
_BLOCK = 128  # candidate time steps per scan block
MAX_STEPS = 10**6  # largest time grid a scan allocates
MAX_POINTS = 10**6  # largest stepped scan, and largest boundary search box
_NEWTON_ITERATIONS = 100  # bound on the Newton-bisection steps of a peak time
_STEP_TOL = 1e-8  # trust-region step at which the refinement stops
_REFINE_STEPS = 100  # bound on the accepted steps of one refinement


@dataclass(frozen=True)
class BoundaryOptimum:
    """Result of the boundary-coupling search."""

    n_nodes: int
    delta1: float
    delta2: float
    t0: float
    amplitude: float
    coarse_amplitude: float = None

    def as_dict(self):
        d = asdict(self)
        return {"n": d.pop("n_nodes"), **d}


def default_t_max(n_nodes):
    """Arrival scales linearly with N; 3N covers the first maximum amply."""
    return 3.0 * n_nodes


def _time_grid(t_max):
    """The grid 0, dt, ... up to t_max at dt = ``DEFAULT_DT``, checked before it is allocated.

    An exact ``np.arange``, not a :func:`lattice`: :func:`_first_arrival`
    reuses the first block's offsets ts[j] - ts[0] for every block."""
    if not t_max > DEFAULT_DT:
        raise InputError(f"need t_max > dt = {DEFAULT_DT:g}, got t_max={t_max:g}")
    if t_max / DEFAULT_DT > MAX_STEPS:
        raise InputError(f"time window t_max={t_max:g} at dt={DEFAULT_DT:g} "
                         f"holds more than {MAX_STEPS} steps")
    return np.arange(0.0, t_max + DEFAULT_DT, DEFAULT_DT)


def _first_arrival(evals, weights, ts, floor):
    """First local maximum of |p_{N;1}(t)| above ``floor`` on the grid ``ts``.

    ``evals`` (B, N) is a stack of ascending one-excitation spectra
    and ``weights`` (B, N) their end-to-end weights W_k = V[N-1, k] V[0, k].
    ``ts`` is a uniform grid of at most ``MAX_STEPS`` steps (see
    :func:`_time_grid`); every block of it reuses one table of the first
    block's offsets.  Returns, per chain, the amplitude at the first hit and
    its index into ``ts`` (0 and -1 without a hit).  Raises NumericalError
    unless every spectrum is +-lambda paired.
    """
    n_chains, n = evals.shape
    half = n // 2
    check_tolerance(np.max(np.abs(evals + evals[:, ::-1])), PAIRING_TOL,
                    "one-excitation spectrum not +-paired, off by")
    lam, w = evals[:, n - half:], 2.0 * weights[:, n - half:]
    w0 = weights[:, half] * (n % 2)  # the zero mode of odd N
    # table[:, :half] = cos(lambda tau), table[:, half:] = sin(lambda tau)
    table = np.empty((n_chains, 2 * half, min(_BLOCK + 2, ts.size)))
    np.multiply(lam[:, :, None], ts[: table.shape[2]] - ts[0], out=table[:, :half])
    np.sin(table[:, :half], out=table[:, half:])
    np.cos(table[:, :half], out=table[:, :half])
    amplitude, index, live = np.zeros(n_chains), np.full(n_chains, -1), np.arange(n_chains)
    for start in range(1, ts.size - 1, _BLOCK):  # candidates start .. start+_BLOCK-1
        phase = lam * ts[start - 1]
        ws, wc = w * np.sin(phase), w * np.cos(phase)
        coeff = np.concatenate((wc, -ws) if n % 2 else (ws, wc), axis=1)
        width = min(table.shape[2], ts.size - start + 1)
        amp = np.abs(w0[:, None] + (coeff[:, None, :] @ table[:, :, :width])[:, 0])
        inner = amp[:, 1:-1]
        local = (inner >= amp[:, :-2]) & (inner >= amp[:, 2:]) & (inner > floor)
        hit = local.any(axis=1)
        if not hit.any():
            continue
        first = local.argmax(axis=1)[hit]
        amplitude[live[hit]] = inner[hit, first]
        index[live[hit]] = start + first
        if hit.all():
            break
        keep = ~hit
        lam, w, w0, table, live = lam[keep], w[keep], w0[keep], table[keep], live[keep]
    return amplitude, index


def first_maximum(spectral, t_max=None):
    """Locate the first local maximum of |p_{N;1}(t)| above ``AMPLITUDE_FLOOR``.

    Scans [0, t_max] (3N by default) at steps of ``DEFAULT_DT`` for the first
    grid peak k, then solves d|p|^2/dt = 2 Re(conj(p) p') = 0 by Newton's
    method inside [ts[k-1], ts[k+1]], bisecting the bracket where a Newton step
    would leave it, until the step falls below ``TIME_TOL`` (1e-12).  p, p'
    and p'' share one exp(-i lambda t) per step.  Returns (t0, amplitude).

    Raises
    ------
    SizeMismatchError
        If ``spectral`` is a stack of chains.
    InputError
        Unless t_max > ``DEFAULT_DT``, or if the window holds more than
        ``MAX_STEPS`` (10^6) grid steps.
    NoArrivalError
        If no local maximum above the floor occurs in the window.
    """
    check_single(spectral.evals1.shape[:-1], "a first maximum is of one chain")
    n = spectral.evals1.shape[0]
    if t_max is None:
        t_max = default_t_max(n)
    ts = _time_grid(t_max)
    lam, w = spectral.evals1, spectral.evecs1[n - 1] * spectral.evecs1[0]
    _, (k,) = _first_arrival(lam[None], w[None], ts, AMPLITUDE_FLOOR)
    if k < 0:
        raise NoArrivalError(f"no transfer maximum above {AMPLITUDE_FLOOR} within t <= {t_max:g}")
    rate = -1j * lam
    series = np.stack([w, rate * w, rate**2 * w], axis=1)  # p, p' and p'' at once
    lo, hi, t = ts[k - 1], ts[k + 1], ts[k]
    for _ in range(_NEWTON_ITERATIONS):
        p, dp, ddp = np.exp(rate * t) @ series
        slope = (p.conjugate() * dp).real
        curvature = abs(dp) ** 2 + (p.conjugate() * ddp).real
        if slope > 0:
            lo = t
        else:
            hi = t
        step = -slope / curvature if curvature < 0 else math.inf
        if abs(step) <= TIME_TOL or hi - lo <= TIME_TOL:
            return t, abs(p)
        t = t + step if lo < t + step < hi else 0.5 * (lo + hi)
    raise NumericalError(f"first-maximum time not resolved to {TIME_TOL:g} "
                         f"in {_NEWTON_ITERATIONS} Newton steps")


def _score_points(n_nodes, delta1, delta2, ts):
    """Grid first-maximum amplitudes of the chains with boundary pairs (delta1, delta2).

    One stacked :class:`ChainSpec`, :func:`diagonalize` and arrival scan per
    block of :func:`~spinline.dynamics.chain_blocks`, a chain counting its
    solve and its arrival table of N x (``_BLOCK`` + 2) floats, so memory
    stays bounded however many points are scored and however long the chain;
    a chain's amplitude does not depend on its block.  Grid peaks
    underestimate the true maxima, which is fine for ranking candidates.
    """
    amplitude = np.zeros(delta1.size)
    for block in chain_blocks(delta1.size, (SOLVE_BYTES * n_nodes + 8 * (_BLOCK + 2)) * n_nodes):
        spectral = diagonalize(ChainSpec(n_nodes, delta1[block], delta2[block]))
        lam, V = spectral.evals1, spectral.evecs1
        amplitude[block], _ = _first_arrival(lam, V[:, -1] * V[:, 0], ts, AMPLITUDE_FLOOR)
    return amplitude


def lattice(lo, hi, step):
    """The points lo + step k of [lo, hi], k = 0, 1, ..., rounded to 12 digits.

    The one builder of a stepped scan (search box axes, Werner p grids).  A hi
    within 1e-9 steps of a lattice point is the last point, so (hi - lo) / step
    rounding below a whole number loses no point, and no point passes hi.
    Raises InputError for ends that are not finite or a step that is not
    positive and finite, and, before allocating, above ``MAX_POINTS`` (10^6)
    points.
    """
    if not (math.isfinite(lo) and math.isfinite(hi) and 0 < step < math.inf):
        raise InputError(f"scan {lo:g}:{hi:g}:{step:g} needs finite ends and a positive, "
                         f"finite step")
    span = (hi - lo) / step + 1e-9
    if not span < MAX_POINTS:
        raise InputError(f"scan {lo:g}:{hi:g}:{step:g} holds more than {MAX_POINTS} points")
    return np.minimum(np.round(lo + step * np.arange(math.floor(span) + 1), 12), hi)


def _amplitude_derivatives(spectral, t0):
    """Gradient and Hessian of the first-maximum amplitude in (delta1, delta2).

    The amplitude is the envelope A(delta) = max_t g(t, delta) of g = |p_{N;1}|,
    so at its first maximum t0 (g_t = 0) the gradient is g_delta and the
    Hessian g_dd - g_dt g_dt^T / g_tt, the peak time following delta.  With
    H = V diag(lambda) V^T, f(lambda) = e^{-i lambda t0}, u = V[N-1] and
    w = V[0], p = sum_k u_k f_k w_k.  delta1 drives bonds 0 and N-2, delta2
    bonds 1 and N-3; E^i = sum of D^b over the bonds of delta_i, where D^b =
    (V_b V_{b+1}^T + V_{b+1} V_b^T) / 2 is bond b in the eigenbasis (V_b: row
    b of V; J/2 convention).  By Daleckii-Krein, dp/d delta_i =
    sum_kl u_k E^i_kl F_kl w_l with the first divided difference F_kl =
    f[lambda_k, lambda_l], evaluated as -i t0 e^{-i (lambda_k + lambda_l) t0 / 2}
    sinc((lambda_l - lambda_k) t0 / 2), exact for close eigenvalues;
    d^2p/d delta_i d delta_j = sum_klm u_k (E^i_kl E^j_lm + E^j_kl E^i_lm)
    G_klm w_m with the second divided difference G_klm = (F_kl - F_lm) /
    (lambda_k - lambda_m), G_klk = (F_kk - F_kl) / (lambda_k - lambda_l) and
    G_kkk = -t0^2 f_k / 2; d/dt F_kl = -i (f_l + lambda_k F_kl).  The k != m
    terms contract as sum R o [(A^i o F) B^j - A^i (B^j o F)] with R_km =
    1 / (lambda_k - lambda_m) off the diagonal, A^i = u o E^i and B^j = E^j o w
    (o: elementwise), one stacked matmul.  Returns (gradient, Hessian); the
    Hessian is zero where g_tt >= 0, since t0 is then no proper maximum.
    """
    lam, V = spectral.evals1, spectral.evecs1
    n = lam.size
    u, w = V[-1], V[0]
    f = np.exp(-1j * lam * t0)
    F = -1j * t0 * np.exp(-0.5j * t0 * (lam[:, None] + lam)) * np.sinc(
        0.5 * t0 * (lam - lam[:, None]) / np.pi)
    gap = lam[:, None] - lam
    np.fill_diagonal(gap, 1.0)
    R = 1.0 / gap
    np.fill_diagonal(R, 0.0)
    rows = V[[0, n - 2, 1, n - 3]].reshape(2, 2, n)
    cross = rows.transpose(0, 2, 1) @ V[[1, n - 1, 2, n - 2]].reshape(2, 2, n)
    E = 0.5 * (cross + cross.transpose(0, 2, 1))
    A, B = u[:, None] * E, E * w
    AF, BF = A * F, B * F
    # first derivatives and the Hessian of p in (delta1, delta2, t)
    d = np.empty(3, complex)
    d[:2] = AF.sum(axis=1) @ w
    d[2] = (u * w) @ (-1j * lam * f)
    dd = np.empty((3, 3), complex)
    dd[:2, 2] = dd[2, :2] = (A * (-1j * (f + lam[:, None] * F))).sum(axis=1) @ w
    dd[2, 2] = (u * w) @ (-lam**2 * f)
    off = np.concatenate((AF, A), axis=2)[:, None] @ np.concatenate((B, -BF), axis=1)
    G = (np.diag(F)[:, None] - F) * R
    np.fill_diagonal(G, -0.5 * t0**2 * f)
    T = (R * off).sum(axis=(2, 3)) + (A * G).reshape(2, -1) @ B.transpose(0, 2, 1).reshape(2, -1).T
    dd[:2, :2] = T + T.T
    # |p| and its derivatives, then the envelope
    p = (u * w) @ f
    a = abs(p)
    g = (p.conjugate() * d).real / a
    gg = ((d.conjugate()[:, None] * d).real + (p.conjugate() * dd).real) / a - np.outer(g, g) / a
    if gg[2, 2] >= 0.0:
        return g[:2], np.zeros((2, 2))
    return g[:2], gg[:2, :2] - np.outer(gg[:2, 2], gg[:2, 2]) / gg[2, 2]


def _trust_step(grad, hess, radius):
    """The step s maximizing grad.s + s.hess.s / 2 subject to |s| <= radius.

    Moré and Sorensen: s = (mu I - hess)^-1 grad for the least shift mu >= 0
    that makes hess - mu I negative definite and |s| <= radius.  That is the
    Newton step when hess is negative definite and the step fits; otherwise
    |s| = radius, and since |s(mu)| falls monotonically above the top
    eigenvalue of hess, mu is found by bisection to the last bit.
    """
    e, Q = np.linalg.eigh(hess)
    beta = Q.T @ grad
    if not beta.any():  # a stationary point of the model
        return np.zeros(2)

    def length(mu):
        return math.hypot(*(beta / (mu - e)))

    lo = max(e[-1], 0.0)
    if e[-1] < 0 and length(0.0) <= radius:
        return Q @ (beta / -e)
    hi = lo + math.hypot(*beta) / radius  # |s(hi)| <= radius
    while lo < 0.5 * (lo + hi) < hi:
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if length(mid) > radius else (lo, mid)
    return Q @ (beta / (hi - e))


def _refine(evaluate, x, radius):
    """Trust-region Newton ascent of the first-maximum amplitude from ``x``.

    ``evaluate(x)`` gives (t0, amplitude, (gradient, Hessian)) at x, or None
    where the chain is invalid or has no arrival; a zero Hessian makes the
    model steepest ascent.  A step is taken only if the amplitude rises.  The
    radius, ``radius`` at first, shrinks to a quarter of a step that fails or
    gains under a quarter of the predicted rise and doubles after a full step
    that gains over three quarters of it.  The ascent stops once the model's
    step falls to ``_STEP_TOL``, after ``_REFINE_STEPS`` steps at most.  ``x``
    must have an arrival.  Returns x and its evaluation.
    """
    here = evaluate(x)
    for _ in range(_REFINE_STEPS):
        grad, hess = here[2]
        while True:
            step = _trust_step(grad, hess, radius)
            size = math.hypot(*step)
            if size <= _STEP_TOL:
                return x, here
            trial = evaluate(x + step)
            gain = -math.inf if trial is None else trial[1] - here[1]
            predicted = grad @ step + 0.5 * step @ hess @ step
            if gain < 0.25 * predicted:
                radius = 0.25 * size
            elif gain > 0.75 * predicted and size >= 0.99 * radius:
                radius *= 2.0
            if gain > 0:
                x, here = x + step, trial
                break
    return x, here


def optimize_boundary(
    n_nodes,
    delta1_range=(0.05, 1.25),
    delta2_range=(0.05, 1.25),
    grid_step=0.05,
    t_max=None,
):
    """Search (delta1, delta2) maximizing the first-maximum amplitude.

    Scores every point lo + k ``grid_step`` of the search box (per axis, from
    the lower edge, none beyond the upper one) by its grid first maximum on
    steps of ``DEFAULT_DT``, then refines the best one by trust-region Newton
    (see :func:`_refine`; first radius ``grid_step``).  The best point has the
    highest amplitude, ``coarse_amplitude``; ties go to the least (delta1,
    delta2), and points without an arrival above ``AMPLITUDE_FLOOR`` score
    zero.  Each refinement evaluation builds the chain's :class:`ChainSpec`,
    runs :func:`diagonalize` with its reconstruction check, then
    :func:`first_maximum` and :func:`_amplitude_derivatives`; about four of
    them reach the optimum from the best lattice point of a box that holds it.

    Raises
    ------
    ChainLengthError
        If ``n_nodes`` is below ``MIN_PROFILE_NODES`` (7) or above
        :data:`~spinline.hamiltonian.MAX_NODES` (1000).
    InputError
        If the box leaves (0, 1.5], ``grid_step`` is below ``COUPLING_TOL``,
        the lattice holds more than ``MAX_POINTS`` (10^6) points, or the time
        window is empty or holds more than ``MAX_STEPS`` (10^6) steps.
    """
    if n_nodes < MIN_PROFILE_NODES:
        raise ChainLengthError(
            f"boundary-tuned profile needs n >= {MIN_PROFILE_NODES}, got {n_nodes}")
    check_chain_length(n_nodes)  # before the time grid, whose length grows with n
    if not (0 < delta1_range[0] < delta1_range[1] <= 1.5):
        raise InputError(f"delta1 range {delta1_range} outside (0, 1.5]")
    if not (0 < delta2_range[0] < delta2_range[1] <= 1.5):
        raise InputError(f"delta2 range {delta2_range} outside (0, 1.5]")
    if not grid_step >= COUPLING_TOL:
        raise InputError(f"grid step {grid_step} below the coupling tolerance {COUPLING_TOL}")
    d1s, d2s = lattice(*delta1_range, grid_step), lattice(*delta2_range, grid_step)
    if d1s.size * d2s.size > MAX_POINTS:
        raise InputError(f"grid step {grid_step:g} gives {d1s.size} x {d2s.size} "
                         f"lattice points, more than {MAX_POINTS}")
    if t_max is None:
        t_max = default_t_max(n_nodes)
    ts = _time_grid(t_max)
    d1, d2 = (a.ravel() for a in np.meshgrid(d1s, d2s, indexing="ij"))
    amplitude = _score_points(n_nodes, d1, d2, ts)
    best = np.argmax(amplitude)  # the first maximum in (delta1, delta2) order
    if amplitude[best] <= 0.0:
        raise NoArrivalError("no grid point produced an arrival above the floor")

    def evaluate(x):
        try:
            spec = ChainSpec(n_nodes=n_nodes, delta1=x[0], delta2=x[1])
        except ValueError:  # a step to a non-positive coupling
            return None
        spectral = diagonalize(spec)
        try:
            t0, amp = first_maximum(spectral, t_max=t_max)
        except NoArrivalError:
            return None
        return t0, amp, _amplitude_derivatives(spectral, t0)

    xbest, (t0, amp, _) = _refine(evaluate, np.array([d1[best], d2[best]]), grid_step)
    return BoundaryOptimum(
        n_nodes=n_nodes,
        delta1=float(xbest[0]),
        delta2=float(xbest[1]),
        t0=float(t0),
        amplitude=float(amp),
        coarse_amplitude=float(amplitude[best]),
    )
