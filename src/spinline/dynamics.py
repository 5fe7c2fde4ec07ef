"""Spectral time evolution of the chain, built on free fermions.

The nearest-neighbour XY chain maps to free fermions (Lieb, Schultz and
Mattis, Ann. Phys. 16, 407, 1961), so the eigendecomposition of the N x N
hopping matrix determines everything.  The lattice is bipartite, so that
eigendecomposition follows from the singular value decomposition of the
ceil(N/2) x floor(N/2) block that couples the even nodes to the odd ones,
and the dense matrix is never formed.  :func:`diagonalize` takes a
:class:`~spinline.hamiltonian.ChainSpec`, a single chain or a stack of
chains, to that spectrum in one stacked ``svd``; a single chain is the
stack without leading axes, and everything downstream
(:func:`one_excitation_columns`, :func:`~spinline.receiver.line_params_at`,
:func:`~spinline.receiver.assemble_rho`) carries the leading axes
along.  The one-excitation propagator at any time t is
p1 = V exp(-i L t) V^T; the two-excitation propagator is its 2x2 minor,

    p2[(i,j),(n,m)] = p1[i,n] p1[j,m] - p1[i,m] p1[j,n],

so the C(N,2)-dimensional pair block is never built or diagonalized.  A
single diagonalization serves every registration time and every sender
state.  The library needs only the block of p1 from the sender columns to
the two receiver rows, and :func:`one_excitation_columns` forms just that
block when asked for those columns and rows (see
:func:`~spinline.receiver.line_params_at`); the full p1 and its minors are
formed only by the oracles in :mod:`verification`.  The transfer
matrices are kept complex; their phases carry physical content.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import NumericalError, check_tolerance
from .hamiltonian import sublattice_block

RECONSTRUCTION_TOL = 1e-10
_HALF_ROOT = math.sqrt(0.5)
# bytes of one block's stacks, for every solve over a stack of chains: a
# diagonalized chain of N nodes counts its eigenvectors, SOLVE_BYTES N^2, and
# each caller adds its own stacks.  A block of the default n = 20 grid search
# holds 66 points, of n = 200 three, and a 100-chain n = 20 sample is one
BLOCK_BYTES = 1_600_000
SOLVE_BYTES = 8


def chain_blocks(n_chains, chain_bytes):
    """Consecutive slices over ``n_chains`` chains, each of as many chains
    as fit ``BLOCK_BYTES`` at ``chain_bytes`` a chain, and at least one."""
    size = max(1, BLOCK_BYTES // chain_bytes)
    return [slice(start, min(start + size, n_chains)) for start in range(0, n_chains, size)]


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

    The chain is bipartite, so H = [[0, M], [M^T, 0]] in even/odd node order
    (:func:`~spinline.hamiltonian.sublattice_block`), and each singular
    triple (s, u, w) of M = U S W^T gives the eigenpairs (+-s, (u, +-w)/sqrt 2)
    of H (Golub and Kahan, SIAM J. Numer. Anal. B 2, 205, 1965); for odd N the
    left null vector u0 of M gives the zero mode (u0, 0).  ``evals1`` is
    [-s, 0 (odd N), s reversed], ascending and exactly +-paired.  The
    reconstruction U S W^T of every chain's block is compared to the block to
    1e-10, which guards against a silently failed solve; a failure names the
    chain.  A solve that fails outright is one too.
    """
    n = spec.n_nodes
    block = sublattice_block(spec.couplings())
    try:
        U, s, Wt = np.linalg.svd(block)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"eigendecomposition failed: {exc}") from exc
    m = n // 2
    rebuilt = (U[..., :m] * s[..., None, :]) @ Wt
    check_tolerance(np.abs(rebuilt - block).max(axis=(-2, -1)), RECONSTRUCTION_TOL,
                    "eigendecomposition reconstruction error")
    evals1 = np.concatenate((-s, np.zeros(s.shape[:-1] + (n % 2,)), s[..., ::-1]), axis=-1)
    u, w = U[..., :m] * _HALF_ROOT, Wt.swapaxes(-1, -2) * _HALF_ROOT
    evecs1 = np.zeros(s.shape[:-1] + (n, n))
    evecs1[..., 0::2, :m], evecs1[..., 1::2, :m] = u, -w
    evecs1[..., 0::2, n - m:], evecs1[..., 1::2, n - m:] = u[..., ::-1], w[..., ::-1]
    evecs1[..., 0::2, m:n - m] = U[..., m:]  # the zero mode of odd N
    return SpectralData(spec=spec, evals1=evals1, evecs1=evecs1)


def one_excitation_columns(spectral, t, n_cols=None, rows=slice(None)):
    """The first ``n_cols`` columns of p1 = V exp(-i L t) V^T (all by
    default), in the rows ``rows`` (a slice or an array of 0-based nodes;
    all by default).

    Shape (..., R, n_cols) for R selected rows, with the leading axes of
    ``spectral``; only the selected block is formed.  Raises NumericalError
    when a phase lambda t overflows, before any is formed.
    """
    if not math.isfinite(abs(t) * float(np.abs(spectral.evals1).max())):
        raise NumericalError(f"phase lambda t overflows at t = {t:g}")
    V = spectral.evecs1
    phases = np.exp(-1j * spectral.evals1[..., None, :] * t)
    return (V[..., rows, :] * phases) @ V[..., :n_cols, :].swapaxes(-1, -2)
