"""Pair ordering of the two-excitation sector and the sender's control state.

The dynamics conserves the number of excitations, so everything happens in
the direct sum of the zero-, one- and two-excitation sectors: the vacuum
|0>, the states |k> with node k excited (k = 1..N) and the states |nm> with
nodes n < m excited.

Node indices are 1-based in every public interface; two-excitation states
are ordered lexicographically in (n, m) (:func:`pair_list`).
"""

from dataclasses import dataclass

import numpy as np


def pair_list(n_nodes):
    """Ordered pairs (n, m) with 1 <= n < m <= n_nodes, lexicographic."""
    return [(n, m) for n in range(1, n_nodes) for m in range(n + 1, n_nodes + 1)]


def sender_pairs(n_sender=4):
    """Pair states available to a sender occupying nodes 1..n_sender."""
    return pair_list(n_sender)


@dataclass
class SenderState:
    """Control parameters of the sender's pure initial state.

    ``a0`` (real), the single-excitation amplitudes ``a_single[i-1]`` for
    node i and the double-excitation amplitudes ``a_double`` ordered like
    :func:`sender_pairs`.  The squared magnitudes must sum to one.
    """

    a0: float
    a_single: np.ndarray
    a_double: np.ndarray
    n_sender: int = 4

    def __post_init__(self):
        self.a_single = np.asarray(self.a_single, dtype=complex)
        self.a_double = np.asarray(self.a_double, dtype=complex)
        n_pair = self.n_sender * (self.n_sender - 1) // 2
        if self.a_single.shape != (self.n_sender,) or self.a_double.shape != (n_pair,):
            raise ValueError(
                f"expected {self.n_sender} single and {n_pair} double amplitudes, "
                f"got {self.a_single.shape} and {self.a_double.shape}"
            )

    @property
    def vector(self):
        """The controls as one complex vector x = (a0, a_single, a_double)."""
        return np.concatenate(([self.a0], self.a_single, self.a_double))

    @property
    def norm_squared(self):
        return float(np.vdot(self.vector, self.vector).real)

    @classmethod
    def vacuum(cls, n_sender=4):
        n_pair = n_sender * (n_sender - 1) // 2
        return cls(1.0, np.zeros(n_sender, complex), np.zeros(n_pair, complex), n_sender)

    @classmethod
    def from_double(cls, a_double, n_sender=4):
        """State with support only on pair states (a0 = a_i = 0)."""
        return cls(0.0, np.zeros(n_sender, complex), a_double, n_sender)

    @classmethod
    def random(cls, rng, n_sender=4):
        """Haar-like random normalized sender state (a0 real positive)."""
        n_pair = n_sender * (n_sender - 1) // 2
        v = rng.standard_normal(1 + 2 * (n_sender + n_pair))
        v /= np.linalg.norm(v)
        a0 = abs(v[0])
        single = v[1 : 1 + n_sender] + 1j * v[1 + n_sender : 1 + 2 * n_sender]
        rest = v[1 + 2 * n_sender :]
        double = rest[:n_pair] + 1j * rest[n_pair:]
        return cls(a0, single, double, n_sender)

