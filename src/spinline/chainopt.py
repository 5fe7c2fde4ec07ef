"""Boundary-coupling optimization for end-to-end transfer.

The two outermost bond pairs (delta1, delta2) are tuned to maximize the
first maximum of the end-to-end single-excitation amplitude |p_{N;1}(t)|;
the time of that maximum is the registration time t0 at which the receiver
state is read out.
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize

from .basis import build_basis
from .dynamics import diagonalize, single_transfer_series
from .errors import NoArrivalError
from .hamiltonian import ChainSpec, build_blocks

# detection floor rejecting the tiny ripples that precede the main arrival
AMPLITUDE_FLOOR = 0.2
DEFAULT_DT = 0.05
TIME_TOL = 1e-4
COUPLING_TOL = 1e-4
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
        return {
            "n": self.n_nodes,
            "delta1": self.delta1,
            "delta2": self.delta2,
            "t0": self.t0,
            "amplitude": self.amplitude,
        }


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


def first_maximum(spectral, t_max=None, dt=DEFAULT_DT, floor=AMPLITUDE_FLOOR):
    """Locate the first local maximum of |p_{N;1}(t)| above ``floor``.

    Scans [0, t_max] on a grid of step ``dt`` and refines the bracket by
    golden section to better than 1e-4 in t.  Returns (t0, amplitude).

    Raises
    ------
    NoArrivalError
        If no local maximum above the floor occurs in the window.
    """
    n = spectral.evals1.shape[0]
    if t_max is None:
        t_max = default_t_max(n)
    if dt <= 0 or t_max <= dt:
        raise ValueError("need dt > 0 and t_max > dt")
    ts = np.arange(0.0, t_max + dt, dt)
    amp = single_transfer_series(spectral, n, 1, ts)
    inner = amp[1:-1]
    hits = np.nonzero((inner >= amp[:-2]) & (inner >= amp[2:]) & (inner > floor))[0]
    if hits.size == 0:
        raise NoArrivalError(
            f"no transfer maximum above {floor} within t <= {t_max:g}"
        )
    k = hits[0] + 1
    w = spectral.evecs1[n - 1] * spectral.evecs1[0]
    lam = spectral.evals1

    def f(t):
        return abs(np.exp(-1j * lam * t) @ w)

    t0, value = _golden_max(f, ts[k - 1], ts[k + 1], TIME_TOL)
    return t0, value


def _coarse_grid(n_nodes, d1_values, d2_values, dt, t_max, floor, chunk=None):
    """First-maximum amplitude on the (delta1, delta2) grid.

    Batched over grid points: stacked eigh of the tridiagonal blocks, then
    a vectorized scan of |p_{N;1}(t)|.  Grid values only (no refinement);
    grid peaks underestimate the true local maxima, which is fine for
    ranking candidates.
    """
    ts = np.arange(0.0, t_max + dt, dt)
    combos = [(d1, d2) for d1 in d1_values for d2 in d2_values]
    if chunk is None:
        # keep the (chunk, n, n_t) phase array around ~100 MB
        chunk = max(8, int(1e8 / (16 * n_nodes * ts.size)))
    best = np.zeros(len(combos))
    tbest = np.full(len(combos), np.nan)
    rows = np.arange(n_nodes - 1)
    for start in range(0, len(combos), chunk):
        block = combos[start : start + chunk]
        H = np.zeros((len(block), n_nodes, n_nodes))
        for j, (d1, d2) in enumerate(block):
            J = np.ones(n_nodes - 1)
            J[0] = J[-1] = d1
            J[1] = J[-2] = d2
            H[j, rows, rows + 1] = J / 2
            H[j, rows + 1, rows] = J / 2
        lam, V = np.linalg.eigh(H)
        W = V[:, n_nodes - 1, :] * V[:, 0, :]
        phases = np.exp(-1j * lam[:, :, None] * ts[None, None, :])
        amp = np.abs(np.einsum("bk,bkt->bt", W, phases))
        inner = amp[:, 1:-1]
        local = (inner >= amp[:, :-2]) & (inner >= amp[:, 2:]) & (inner > floor)
        for j in range(len(block)):
            hits = np.nonzero(local[j])[0]
            if hits.size:
                best[start + j] = amp[j, hits[0] + 1]
                tbest[start + j] = ts[hits[0] + 1]
    return combos, best, tbest


def _objective(n_nodes, t_max, dt, floor):
    basis = build_basis(n_nodes)

    def evaluate(d1, d2):
        try:
            spec = ChainSpec(n_nodes=n_nodes, delta1=d1, delta2=d2)
        except ValueError:
            return None
        spectral = diagonalize(build_blocks(spec, basis))
        try:
            return first_maximum(spectral, t_max=t_max, dt=dt, floor=floor)
        except NoArrivalError:
            return None

    return evaluate


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

    Coarse grid with step ``grid_step`` over the search box, then a
    Nelder-Mead refinement from the best grid point (tolerance 1e-4 in the
    couplings).  Deterministic: grid ties are broken by lexicographic
    (delta1, delta2); grid points without an arrival score zero.
    """
    if not (0 < delta1_range[0] < delta1_range[1] <= 1.5):
        raise ValueError(f"delta1 range {delta1_range} outside (0, 1.5]")
    if not (0 < delta2_range[0] < delta2_range[1] <= 1.5):
        raise ValueError(f"delta2 range {delta2_range} outside (0, 1.5]")
    if t_max is None:
        t_max = default_t_max(n_nodes)
    d1s = np.round(np.arange(delta1_range[0], delta1_range[1] + grid_step / 2, grid_step), 12)
    d2s = np.round(np.arange(delta2_range[0], delta2_range[1] + grid_step / 2, grid_step), 12)
    combos, best, _ = _coarse_grid(n_nodes, d1s, d2s, dt, t_max, floor)
    order = np.lexsort(([c[1] for c in combos], [c[0] for c in combos], -best))
    top = order[0]
    if best[top] <= 0.0:
        raise NoArrivalError("no grid point produced an arrival above the floor")
    coarse_amp = best[top]
    x0 = np.array(combos[top])

    evaluate = _objective(n_nodes, t_max, dt, floor)

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
    candidates = [x0, result.x]
    scored = []
    for cand in candidates:
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
