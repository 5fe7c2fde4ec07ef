"""Spectral time evolution of the chain, built on free fermions.

The nearest-neighbour XY chain maps to free fermions (Lieb, Schultz and
Mattis, Ann. Phys. 16, 407, 1961), so one dense eigendecomposition of the
N x N hopping matrix determines everything.  :func:`diagonalize` takes a
:class:`~spinline.hamiltonian.ChainSpec` to that spectrum; only the
boundary grid search (:mod:`chainopt`) diagonalizes stacks of hopping
matrices itself.  The one-excitation propagator at any time t is
p1 = V exp(-i L t) V^T; the two-excitation propagator is its 2x2 minor,

    p2[(i,j),(n,m)] = p1[i,n] p1[j,m] - p1[i,m] p1[j,n],

so the C(N,2)-dimensional pair block is never built or diagonalized.  A
single diagonalization serves every registration time and every sender
state.  The library needs only the sender columns of p1
(:func:`one_excitation_columns`), and of those only the two receiver rows
(see :func:`~spinline.receiver.line_params_at`); the full p1 and its minors
are formed only by the oracles in :mod:`verification`.  The transfer
matrices are kept complex; their phases carry physical content.
"""

import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import NumericalError
from .hamiltonian import hopping_matrix

RECONSTRUCTION_TOL = 1e-10


@dataclass(frozen=True)
class SpectralData:
    """Eigendecomposition of the hopping matrix of ``spec``."""

    spec: object
    evals1: np.ndarray = field(repr=False)
    evecs1: np.ndarray = field(repr=False)


def diagonalize(spec, check=True):
    """Eigendecompose the hopping matrix of the chain ``spec``.

    With ``check`` the reconstruction V L V^T is compared to the input to
    1e-10, which guards against a silently failed eigensolve.
    """
    h1 = hopping_matrix(spec.couplings())
    evals1, evecs1 = np.linalg.eigh(h1)
    if check:
        err = np.max(np.abs((evecs1 * evals1) @ evecs1.T - h1))
        if err > RECONSTRUCTION_TOL:
            raise NumericalError(f"eigendecomposition reconstruction error {err:.3e}")
    return SpectralData(spec=spec, evals1=evals1, evecs1=evecs1)


def one_excitation_columns(spectral, t, n_cols=None):
    """The first ``n_cols`` columns of p1 = V exp(-i L t) V^T (all by default)."""
    if t < 0:
        warnings.warn(f"propagating backwards in time (t = {t})", stacklevel=3)
    V = spectral.evecs1
    return (V * np.exp(-1j * spectral.evals1 * t)) @ V[:n_cols].T
