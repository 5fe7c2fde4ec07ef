"""Fixed reference computations that gauge the machine's speed during a run.

A shared host runs the same code up to twice as slowly in some minutes as
in others, and such a phase can cover whole runs.  A reference computation
timed right next to each headline op slows with it, so the ratio of the
op's latency to the reference time stays put while the program's own speed
does not change.  The references use numpy and scipy directly on fixed
inputs, never ``spinline``, so a change to the program moves only the op
side of the ratio.

Each workload names a recipe of kernels chosen to slow the way its
dominant layer does: small-matrix ``eigh`` for the boundary grid, a large
``eigh`` for the two-excitation block, scipy's ``least_squares`` for the
control solves and interpreted Python for the disorder driver.
"""

import functools
import time

import numpy as np
from scipy.optimize import least_squares


@functools.cache
def _symmetric(n, count=None):
    rng = np.random.default_rng([n, count or 0])
    a = rng.standard_normal((n, n) if count is None else (count, n, n))
    return a + np.swapaxes(a, -1, -2)


def python_loop():
    """Interpreted arithmetic, about 10 ms."""
    s = 0
    for i in range(100_000):
        s += i * i % 7
    return s


def eigh_small():
    """200 separate 20x20 eighs, about 14 ms: per-call overhead."""
    for m in _symmetric(20, 200):
        np.linalg.eigh(m)


def eigh_medium():
    """Three 190x190 eighs, about 14 ms."""
    m = _symmetric(190)
    for _ in range(3):
        np.linalg.eigh(m)


def eigh_large():
    """One 500x500 eigh, about 40 ms: LAPACK-bound."""
    np.linalg.eigh(_symmetric(500))


def _residuals(x):
    return np.concatenate([np.sin(3.0 * x) - 0.3 * x, np.cos(x[:6] * x[6:]) - 0.5])


def fit():
    """A 12-parameter least_squares fit capped at 60 evaluations, about 4 ms."""
    least_squares(_residuals, np.linspace(0.0, 1.0, 12), max_nfev=60)


KERNELS = {f.__name__: f for f in (python_loop, eigh_small, eigh_medium, eigh_large, fit)}


class Reference:
    """Times a recipe {kernel name: repetitions}; calling it returns seconds."""

    def __init__(self, recipe):
        self.steps = [(KERNELS[name], reps) for name, reps in recipe.items()]

    def __call__(self):
        start = time.perf_counter()
        for kernel, reps in self.steps:
            for _ in range(reps):
                kernel()
        return time.perf_counter() - start

