"""XY Hamiltonian of the chain on the one-excitation subspace.

The chain couples nearest neighbors with an XY exchange term, which acts as
a hopping of strength J/2 between neighbouring nodes.  The coupling profile
is uniform (D = 1, dimensionless) except for the two outermost bond pairs
delta1 and delta2 at each end.  :func:`hopping_matrix` is the one builder of
the N x N hopping matrix; the chain maps to free fermions, so that matrix
determines all the dynamics (see :mod:`dynamics`).  Every bond joins an
even node to an odd one, so the matrix is fixed by its even-to-odd block,
which :func:`sublattice_block` builds; the solver works on that block, and
the dense matrix serves as the reference the tests diagonalize.
"""

import json
from dataclasses import dataclass, replace

import numpy as np

from .errors import ChainLengthError, InputError, SizeMismatchError, malformed

MIN_PROFILE_NODES = 7  # below this the [d1, d2, bulk.., d2, d1] layout overlaps
# above every chain the tests and benchmarks use (N <= 60) or the roadmap
# measures (N <= 500); one chain's eigenvectors take 8 MB at this size,
# every stacked solve holds one chain a block there
# (:func:`~spinline.dynamics.chain_blocks`), and the bound is checked before
# any coupling array is allocated
MAX_NODES = 1000


def check_chain_length(n_nodes):
    """Raise ChainLengthError unless a chain of ``n_nodes`` has 4 to
    ``MAX_NODES`` nodes."""
    if n_nodes < 4:
        raise ChainLengthError(f"chain needs at least 4 nodes, got {n_nodes}")
    if n_nodes > MAX_NODES:
        raise ChainLengthError(f"chain may have at most {MAX_NODES} nodes, got {n_nodes}")


@dataclass(frozen=True)
class ChainSpec:
    """Coupling profile of an N-node chain.

    Bond i connects nodes i and i+1.  Bonds 1 and N-1 carry ``delta1``,
    bonds 2 and N-2 carry ``delta2`` and bonds 3..N-3 carry the bulk values
    (nominally 1.0).  A chain has 4 to ``MAX_NODES`` (1000) nodes.
    Non-uniform profiles need n_nodes >= 7; shorter chains are supported
    only with the fully uniform profile.

    A ``bulk`` of shape (..., N-5) describes a stack of chains that share
    their boundary pairs, as a disorder sample does, and ``delta1`` and
    ``delta2`` of shape (B,) a stack that shares its bulk, as the points of a
    boundary search do.  The stack shape is the broadcast of the three.
    """

    n_nodes: int
    delta1: float = 1.0
    delta2: float = 1.0
    bulk: np.ndarray = None

    def __post_init__(self):
        check_chain_length(self.n_nodes)
        n_bulk = max(0, self.n_nodes - 5)
        bulk = np.ones(n_bulk) if self.bulk is None else np.asarray(self.bulk, float)
        if bulk.shape[-1:] != (n_bulk,):
            raise SizeMismatchError(
                f"expected {n_bulk} bulk couplings for n={self.n_nodes}, got {bulk.shape}"
            )
        object.__setattr__(self, "bulk", bulk)
        uniform = np.all(self.delta1 == 1.0) & np.all(self.delta2 == 1.0) & np.all(bulk == 1.0)
        if self.n_nodes < MIN_PROFILE_NODES and not uniform:
            raise ChainLengthError(
                f"boundary-tuned profile needs n >= {MIN_PROFILE_NODES}, got {self.n_nodes}"
            )
        couplings = self.couplings()
        if not np.all(np.isfinite(couplings)):
            raise InputError("all couplings must be finite")
        if np.any(couplings <= 0):
            raise InputError("all couplings must be strictly positive")

    @classmethod
    def uniform(cls, n_nodes):
        return cls(n_nodes=n_nodes)

    def couplings(self):
        """The N-1 bond couplings [delta1, delta2, bulk..., delta2, delta1],
        shape (..., N-1) for a stack."""
        n = self.n_nodes
        stack = np.broadcast_shapes(np.shape(self.delta1), np.shape(self.delta2),
                                    self.bulk.shape[:-1])
        J = np.empty(stack + (n - 1,))
        J[..., 0] = J[..., -1] = self.delta1
        J[..., 1] = J[..., -2] = self.delta2  # one slot at n = 4
        J[..., 2 : n - 3] = self.bulk  # empty below n = 6
        return J

    def to_json(self):
        return json.dumps(
            {
                "n": self.n_nodes,
                "delta1": self.delta1,
                "delta2": self.delta2,
                "bulk": self.bulk.tolist(),
            }
        )

    @classmethod
    def from_json(cls, text):
        """Spec from :meth:`to_json` text; ``bulk`` may be null (uniform).

        Raises InputError for text that is not JSON, lacks a key or does
        not describe one valid chain.
        """
        with malformed("not a chain spec"):
            d = json.loads(text)
            spec = cls(
                n_nodes=d["n"],
                delta1=d["delta1"],
                delta2=d["delta2"],
                bulk=np.asarray(d["bulk"], float) if d.get("bulk") is not None else None,
            )
        if spec.couplings().ndim != 1:
            raise InputError("not a chain spec: it describes a stack of chains")
        return spec


def hopping_matrix(couplings):
    """Hopping matrices (..., N, N) for bond couplings (..., N-1): J/2 off the diagonal.

    A stack of coupling rows gives a stack of matrices.  There is no
    diagonal, so the spectrum is +-lambda paired.
    """
    J = np.asarray(couplings, float)
    n = J.shape[-1] + 1
    rows = np.arange(n - 1)
    h = np.zeros(J.shape[:-1] + (n, n))
    h[..., rows, rows + 1] = h[..., rows + 1, rows] = J / 2
    return h


def sublattice_block(couplings):
    """The even-to-odd blocks (..., ceil(N/2), floor(N/2)) of the hopping matrices.

    Bond b joins node b to node b+1, so with the even nodes first a hopping
    matrix is [[0, M], [M^T, 0]]: M[a, a] = J[2a]/2 and M[a, a-1] = J[2a-1]/2,
    a lower-bidiagonal block equal to ``hopping_matrix(J)[..., 0::2, 1::2]``.
    """
    J = np.asarray(couplings, float)
    n = J.shape[-1] + 1
    cols = np.arange(n // 2)
    below = cols[: (n - 1) // 2]
    block = np.zeros(J.shape[:-1] + ((n + 1) // 2, n // 2))
    block[..., cols, cols] = J[..., 0::2] / 2
    block[..., below + 1, below] = J[..., 1::2] / 2
    return block


def apply_disorder(spec, epsilon, deltas):
    """Replace the bulk couplings by 1 + epsilon * deltas.

    Only bonds 3..N-3 are perturbed; the boundary pairs delta1, delta2 are
    assumed perfectly manufactured and stay untouched.  With deltas in
    [-1, 1], 0 <= epsilon < 1 keeps every coupling positive; any other
    epsilon raises InputError, whatever the deltas.  Deltas of shape
    (..., N-5) give a stack of chains.
    """
    if not 0 <= epsilon < 1:
        raise InputError(f"epsilon must lie in [0, 1), got {epsilon}")
    deltas = np.asarray(deltas, float)
    n_bulk = spec.bulk.shape[-1]
    if deltas.shape[-1:] != (n_bulk,):
        raise SizeMismatchError(
            f"expected {n_bulk} bond perturbations, got {deltas.shape}"
        )
    if np.any(np.abs(deltas) > 1.0):
        raise InputError("bond perturbations must lie in [-1, 1]")
    return replace(spec, bulk=1.0 + epsilon * deltas)
