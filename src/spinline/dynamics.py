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
state.  Only :func:`propagators`, which forms the full pair sector for the
oracles, enumerates the pair basis.  The transfer matrices are kept
complex; their phases carry physical content.
"""

import warnings
from dataclasses import dataclass, field

import numpy as np

from .basis import build_basis, sender_pairs
from .errors import SizeMismatchError, SpinlineError
from .hamiltonian import hopping_matrix

RECONSTRUCTION_TOL = 1e-10


@dataclass(frozen=True)
class SpectralData:
    """Eigendecomposition of the hopping matrix of ``spec``."""

    spec: object
    evals1: np.ndarray = field(repr=False)
    evecs1: np.ndarray = field(repr=False)


@dataclass(frozen=True)
class TransferAmplitudes:
    """Propagator matrix elements between excitation basis states at time t.

    ``p1[i-1, k-1]`` is the amplitude <i|exp(-iHt)|k>; ``p2`` is the
    analogous matrix on the ordered-pair basis.
    """

    t: float
    p1: np.ndarray = field(repr=False)
    p2: np.ndarray = field(repr=False)
    basis: object = None

    def single(self, i, k):
        return self.p1[i - 1, k - 1]


@dataclass(frozen=True)
class EvolvedState:
    """Amplitudes of an evolved sender state on the full chain."""

    f0: float
    f_single: np.ndarray = field(repr=False)
    f_double: np.ndarray = field(repr=False)

    @property
    def norm_squared(self):
        return (
            abs(self.f0) ** 2
            + float(np.sum(np.abs(self.f_single) ** 2))
            + float(np.sum(np.abs(self.f_double) ** 2))
        )


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
            raise SpinlineError(f"eigendecomposition reconstruction error {err:.3e}")
    return SpectralData(spec=spec, evals1=evals1, evecs1=evecs1)


def one_excitation_columns(spectral, t, n_cols=None):
    """The first ``n_cols`` columns of p1 = V exp(-i L t) V^T (all by default)."""
    if t < 0:
        warnings.warn(f"propagating backwards in time (t = {t})", stacklevel=3)
    V = spectral.evecs1
    return (V * np.exp(-1j * spectral.evals1 * t)) @ V[:n_cols].T


def pair_minors(p1, row_pairs, col_pairs):
    """Two-excitation amplitudes <ij|exp(-iHt)|nm> as 2x2 minors of ``p1``.

    ``row_pairs`` and ``col_pairs`` are 1-based node pairs (i < j); the
    column nodes must lie within the columns of ``p1``.
    """
    i, j = np.asarray(row_pairs).T - 1
    n, m = np.asarray(col_pairs).T - 1
    return p1[np.ix_(i, n)] * p1[np.ix_(j, m)] - p1[np.ix_(i, m)] * p1[np.ix_(j, n)]


def propagators(spectral, t):
    """Full transfer-amplitude matrices p1, p2 at time t on the pair basis."""
    basis = build_basis(spectral.evals1.shape[0])
    p1 = one_excitation_columns(spectral, t)
    p2 = pair_minors(p1, basis.pairs, basis.pairs)
    return TransferAmplitudes(t=float(t), p1=p1, p2=p2, basis=basis)


def embed_sender(state, basis):
    """Embed sender amplitudes into full-chain single and pair vectors."""
    if state.n_sender > basis.n_nodes - 2:
        raise SizeMismatchError(
            f"sender of {state.n_sender} nodes overlaps the receiver on an "
            f"{basis.n_nodes}-node chain"
        )
    a1 = np.zeros(basis.n_nodes, complex)
    a1[: state.n_sender] = state.a_single
    a2 = np.zeros(basis.n_pairs, complex)
    for s, pair in enumerate(sender_pairs(state.n_sender)):
        a2[basis.index_of(*pair)] = state.a_double[s]
    return a1, a2


def evolve(state, amps):
    """Evolve a sender state with precomputed transfer amplitudes."""
    basis = amps.basis
    if amps.p1.shape[0] != basis.n_nodes:
        raise SizeMismatchError("amplitudes and basis disagree on chain length")
    a1, a2 = embed_sender(state, basis)
    return EvolvedState(
        f0=state.a0,
        f_single=amps.p1 @ a1,
        f_double=amps.p2 @ a2,
    )
