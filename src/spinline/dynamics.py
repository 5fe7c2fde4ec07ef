"""Spectral time evolution of the chain, built on free fermions.

The nearest-neighbour XY chain maps to free fermions (Lieb, Schultz and
Mattis, Ann. Phys. 16, 407, 1961), so one dense eigendecomposition of the
N x N hopping matrix determines everything.  :func:`diagonalize` takes a
:class:`~spinline.hamiltonian.ChainSpec`, a single chain or a stack of
chains, to that spectrum in one stacked ``eigh``; a single chain is the
stack without leading axes, and everything downstream
(:func:`one_excitation_columns`, :func:`~spinline.receiver.line_params_at`,
:func:`~spinline.receiver.receiver_operator`) carries the leading axes
along.  The one-excitation propagator at any time t is
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

from .errors import NumericalError, check_tolerance
from .hamiltonian import hopping_matrix

RECONSTRUCTION_TOL = 1e-10


@dataclass(frozen=True)
class SpectralData:
    """Eigendecomposition of the hopping matrices of ``spec``.

    ``evals1`` has shape (..., N) and ``evecs1`` (..., N, N), with the
    stack axes of ``spec`` in front.
    """

    spec: object
    evals1: np.ndarray = field(repr=False)
    evecs1: np.ndarray = field(repr=False)


def diagonalize(spec):
    """Eigendecompose the hopping matrices of the chain or stack ``spec``.

    The reconstruction V L V^T of every chain is compared to its input to
    1e-10, which guards against a silently failed eigensolve; a failure
    names the chain.  An eigensolve that fails outright is one too.
    """
    h1 = hopping_matrix(spec.couplings())
    try:
        evals1, evecs1 = np.linalg.eigh(h1)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"eigendecomposition failed: {exc}") from exc
    rebuilt = (evecs1 * evals1[..., None, :]) @ evecs1.swapaxes(-1, -2)
    check_tolerance(np.abs(rebuilt - h1).max(axis=(-2, -1)), RECONSTRUCTION_TOL,
                    "eigendecomposition reconstruction error")
    return SpectralData(spec=spec, evals1=evals1, evecs1=evecs1)


def one_excitation_columns(spectral, t, n_cols=None):
    """The first ``n_cols`` columns of p1 = V exp(-i L t) V^T (all by default).

    Shape (..., N, n_cols), with the leading axes of ``spectral``.
    """
    if t < 0:
        warnings.warn(f"propagating backwards in time (t = {t})", stacklevel=3)
    V = spectral.evecs1
    phases = np.exp(-1j * spectral.evals1[..., None, :] * t)
    return (V * phases) @ V[..., :n_cols, :].swapaxes(-1, -2)
