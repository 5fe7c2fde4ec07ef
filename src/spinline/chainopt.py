"""Boundary-coupling optimization for end-to-end transfer.

The two outermost bond pairs (delta1, delta2) are tuned to maximize the
first maximum of the end-to-end single-excitation amplitude |p_{N;1}(t)|;
the time of that maximum is the registration time t0 at which the receiver
state is read out.

:func:`optimize_boundary` searches the lattice of step ``grid_step`` on two
levels: a sub-lattice of step ``COARSE_STEP`` (0.05), then the fine lattice on
patches of +-``COARSE_STEP`` around its ``TOP_COARSE`` (3) best points, and
refines the best scored point by Nelder-Mead.  Every scored point is a lattice
point with the amplitude a full scan would give it, so the search starts from
the best point of the whole lattice whenever that lies in a patch.  At the
default 0.01 step it scores under a thousand of the box's 14,641 points.

The grid search and :func:`first_maximum` share one kernel, :func:`_first_arrival`.
h1 is hopping with no diagonal, so its spectrum is bipartite: in ``eigh`` order
mode N-1-k has eigenvalue -lambda_k and weight W_{N-1-k} = (-1)^(N-1) W_k, where
W_k = V[N-1, k] V[0, k].  So p_{N;1}(t) = sum_k W_k exp(-i lambda_k t) equals
-2i sum_{lambda>0} W sin(lambda t) for even N and W_0 + 2 sum_{lambda>0} W cos(lambda t)
for odd N (W_0: the zero mode), a real sum over half the modes.  The kernel scans
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

import functools
import math
from dataclasses import asdict, dataclass

import numpy as np

from .dynamics import diagonalize
from .errors import InputError, NoArrivalError, NumericalError
from .hamiltonian import ChainSpec, hopping_matrix

# detection floor rejecting the tiny ripples that precede the main arrival
AMPLITUDE_FLOOR = 0.2
DEFAULT_DT = 0.05
TIME_TOL = 1e-4
COUPLING_TOL = 1e-4
PAIRING_TOL = 1e-10
_BLOCK = 128  # candidate time steps per scan block
MAX_STEPS = 10**6  # largest time grid a scan allocates
COARSE_STEP = 0.05  # first-level lattice step of the boundary search
TOP_COARSE = 3  # first-level points whose neighbourhoods are scored on the fine lattice
_POINT_BLOCK = 64  # chains per stacked eigh and arrival scan of the grid search
_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0


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


def _golden_max(f, a, b, tol):
    """Golden-section maximization of f on [a, b] to |interval| < tol."""
    c = b - _INVPHI * (b - a)
    d = a + _INVPHI * (b - a)
    fc, fd = f(c), f(d)
    while b - a > tol:
        if fc > fd:
            b, d, fd = d, c, fc
            c = b - _INVPHI * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + _INVPHI * (b - a)
            fd = f(d)
    t = 0.5 * (a + b)
    return t, f(t)


def _time_grid(t_max, dt):
    """The uniform scan grid 0, dt, 2 dt, ... up to t_max, checked before it is allocated."""
    if not (dt > 0 and t_max > dt):
        raise InputError(f"need dt > 0 and t_max > dt, got dt={dt:g}, t_max={t_max:g}")
    if t_max / dt > MAX_STEPS:
        raise InputError(f"time window t_max={t_max:g} at dt={dt:g} "
                         f"holds more than {MAX_STEPS} steps")
    return np.arange(0.0, t_max + dt, dt)


def _first_arrival(evals, weights, ts, floor):
    """First local maximum of |p_{N;1}(t)| above ``floor`` on the grid ``ts``.

    ``evals`` (B, N) is a stack of one-excitation spectra in ``eigh`` order
    and ``weights`` (B, N) their end-to-end weights W_k = V[N-1, k] V[0, k].
    ``ts`` is a uniform grid of at most ``MAX_STEPS`` steps (see
    :func:`_time_grid`); every block of it reuses one table of the first
    block's offsets.  Returns, per chain, the amplitude at the first hit and
    its index into ``ts`` (0 and -1 without a hit).  Raises NumericalError
    unless every spectrum is +-lambda paired.
    """
    n_chains, n = evals.shape
    half = n // 2
    pairing = np.max(np.abs(evals + evals[:, ::-1]))
    if pairing > PAIRING_TOL:
        raise NumericalError(f"one-excitation spectrum is not +-paired ({pairing:.1e})")
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


def first_maximum(spectral, t_max=None, dt=DEFAULT_DT, floor=AMPLITUDE_FLOOR):
    """Locate the first local maximum of |p_{N;1}(t)| above ``floor``.

    Scans [0, t_max] on a grid of step ``dt`` and refines the bracket by
    golden section to better than 1e-4 in t.  Returns (t0, amplitude).

    Raises
    ------
    InputError
        Unless dt > 0 and t_max > dt, or if the window holds more than
        ``MAX_STEPS`` (10^6) grid steps.
    NoArrivalError
        If no local maximum above the floor occurs in the window.
    """
    n = spectral.evals1.shape[0]
    if t_max is None:
        t_max = default_t_max(n)
    ts = _time_grid(t_max, dt)
    lam, w = spectral.evals1, spectral.evecs1[n - 1] * spectral.evecs1[0]
    _, (k,) = _first_arrival(lam[None], w[None], ts, floor)
    if k < 0:
        raise NoArrivalError(f"no transfer maximum above {floor} within t <= {t_max:g}")
    rate = -1j * lam

    def f(t):
        return abs(np.exp(rate * t) @ w)

    t0, value = _golden_max(f, ts[k - 1], ts[k + 1], TIME_TOL)
    return t0, value


def _score_points(n_nodes, delta1, delta2, ts, floor):
    """Grid first-maximum amplitudes of the chains with boundary pairs (delta1, delta2).

    One stacked eigh and one arrival scan per block of ``_POINT_BLOCK`` chains,
    so memory stays bounded however many points are scored; a chain's
    amplitude does not depend on the block it is scored in.  Grid peaks
    underestimate the true maxima, which is fine for ranking candidates.
    """
    amplitude = np.zeros(delta1.size)
    for lo in range(0, delta1.size, _POINT_BLOCK):
        block = slice(lo, lo + _POINT_BLOCK)
        J = np.ones((delta1[block].size, n_nodes - 1))
        J[:, 1] = J[:, -2] = delta2[block]
        J[:, 0] = J[:, -1] = delta1[block]
        lam, V = np.linalg.eigh(hopping_matrix(J))
        amplitude[block], _ = _first_arrival(lam, V[:, -1] * V[:, 0], ts, floor)
    return amplitude


def _ranked(i, j, amplitude):
    """Order of lattice points (i, j): amplitude down, then lexicographic (i, j)."""
    return np.lexsort((j, i, -amplitude))


def _lattice_search(n_nodes, d1s, d2s, stride, ts, floor):
    """Best point of the d1s x d2s lattice and its grid amplitude, on two levels.

    Scores the sub-lattice of every ``stride``-th point from the lower corner,
    then every point within ``stride`` steps of its ``TOP_COARSE`` best points.
    With ``stride`` 1 the first level is the whole lattice.
    """
    ci, cj = (a.ravel() for a in np.meshgrid(
        np.arange(0, d1s.size, stride), np.arange(0, d2s.size, stride), indexing="ij"))
    amplitude = _score_points(n_nodes, d1s[ci], d2s[cj], ts, floor)
    patches = []
    for k in _ranked(ci, cj, amplitude)[:TOP_COARSE]:
        rows = np.arange(max(ci[k] - stride, 0), min(ci[k] + stride + 1, d1s.size))
        cols = np.arange(max(cj[k] - stride, 0), min(cj[k] + stride + 1, d2s.size))
        patches.append(np.stack(np.meshgrid(rows, cols, indexing="ij"), -1).reshape(-1, 2))
    pi, pj = np.unique(np.concatenate(patches), axis=0).T
    fresh = (pi % stride != 0) | (pj % stride != 0)  # the rest are first-level points
    pi, pj = pi[fresh], pj[fresh]
    i, j = np.concatenate([ci, pi]), np.concatenate([cj, pj])
    amplitude = np.concatenate([amplitude, _score_points(n_nodes, d1s[pi], d2s[pj], ts, floor)])
    top = _ranked(i, j, amplitude)[0]
    return np.array([d1s[i[top]], d2s[j[top]]]), amplitude[top]


def optimize_boundary(
    n_nodes,
    delta1_range=(0.05, 1.25),
    delta2_range=(0.05, 1.25),
    grid_step=0.01,
    t_max=None,
    dt=DEFAULT_DT,
    floor=AMPLITUDE_FLOOR,
):
    """Search (delta1, delta2) maximizing the first-maximum amplitude.

    Grid search on the lattice of step ``grid_step`` over the search box, in
    two levels: the sub-lattice of step ``COARSE_STEP`` (every s-th point,
    s = floor(COARSE_STEP / grid_step), from the lower corner), then every
    lattice point within s steps of its ``TOP_COARSE`` best points.  A
    Nelder-Mead refinement (tolerance 1e-4 in the couplings) starts from the
    best scored point, whose amplitude is ``coarse_amplitude``.  This is the
    best point of the whole lattice unless that lies outside every patch.
    With s = 1 (``grid_step`` above ``COARSE_STEP`` / 2) the whole lattice is scored.
    Deterministic: grid ties are broken by lexicographic (delta1, delta2);
    grid points without an arrival score zero.

    Nelder-Mead's points are scored once each: the final comparison of the
    start and the end point reuses their scores.

    Raises
    ------
    InputError
        If the box leaves (0, 1.5], ``grid_step`` is below ``COUPLING_TOL``,
        or the time window is empty or holds more than ``MAX_STEPS`` (10^6)
        steps of ``dt``.
    """
    # imported here: scipy.optimize doubles the start-up time of the CLI
    from scipy.optimize import minimize

    if not (0 < delta1_range[0] < delta1_range[1] <= 1.5):
        raise InputError(f"delta1 range {delta1_range} outside (0, 1.5]")
    if not (0 < delta2_range[0] < delta2_range[1] <= 1.5):
        raise InputError(f"delta2 range {delta2_range} outside (0, 1.5]")
    if not grid_step >= COUPLING_TOL:
        raise InputError(f"grid step {grid_step} below the coupling tolerance {COUPLING_TOL}")
    if t_max is None:
        t_max = default_t_max(n_nodes)
    ts = _time_grid(t_max, dt)
    d1s = np.round(np.arange(delta1_range[0], delta1_range[1] + grid_step / 2, grid_step), 12)
    d2s = np.round(np.arange(delta2_range[0], delta2_range[1] + grid_step / 2, grid_step), 12)
    # rounded first: a step that divides COARSE_STEP must not lose a stride to 4.999...
    stride = max(1, math.floor(round(COARSE_STEP / grid_step, 9)))
    x0, coarse_amp = _lattice_search(n_nodes, d1s, d2s, stride, ts, floor)
    if coarse_amp <= 0.0:
        raise NoArrivalError("no grid point produced an arrival above the floor")

    @functools.cache  # per search, on the exact (d1, d2)
    def evaluate(d1, d2):
        try:
            spec = ChainSpec(n_nodes=n_nodes, delta1=d1, delta2=d2)
        except ValueError:
            return None
        try:
            return first_maximum(diagonalize(spec), t_max=t_max, dt=dt, floor=floor)
        except NoArrivalError:
            return None

    def neg_amp(x):
        res = evaluate(*x)
        return 0.0 if res is None else -res[1]

    simplex = np.array([x0, x0 + [grid_step, 0.0], x0 + [0.0, grid_step]])
    result = minimize(
        neg_amp,
        x0,
        method="Nelder-Mead",
        options={
            "xatol": COUPLING_TOL,
            "fatol": 1e-12,
            "initial_simplex": simplex,
            "maxiter": 400,
        },
    )
    scored = []
    for cand in (x0, result.x):
        res = evaluate(*cand)
        if res is not None:
            scored.append((res[1], -cand[0], -cand[1], cand, res[0]))
    scored.sort(key=lambda s: s[:3], reverse=True)
    amp, _, _, xbest, t0 = scored[0]
    return BoundaryOptimum(
        n_nodes=n_nodes,
        delta1=float(xbest[0]),
        delta2=float(xbest[1]),
        t0=float(t0),
        amplitude=float(amp),
        coarse_amplitude=float(coarse_amp),
    )
