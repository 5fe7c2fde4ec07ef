"""Pair ordering of the two-excitation sector and the sender's control vector.

The dynamics conserves the number of excitations, so everything happens in
the direct sum of the zero-, one- and two-excitation sectors: the vacuum
|0>, the states |k> with node k excited (k = 1..N) and the states |nm> with
nodes n < m excited.

Node indices are 1-based in every public interface; two-excitation states
are ordered lexicographically in (n, m) (:func:`sender_pairs`).  The
sender's pure initial state is one complex control vector x = (a0,
a_single, a_double) in that order (:class:`SenderState`), the order in
which the receiver operator contracts it.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import SizeMismatchError


def sender_pairs(n_sender=4):
    """Ordered pairs (n, m) with 1 <= n < m <= n_sender, lexicographic: the
    pair states of a sender on nodes 1..n_sender, or of a whole n-node chain."""
    return [(n, m) for n in range(1, n_sender) for m in range(n + 1, n_sender + 1)]


def _sender_size(n_controls):
    """The sender size n whose control vector has 1 + n + n(n-1)/2 entries."""
    n_sender = 2
    while (count := 1 + n_sender + n_sender * (n_sender - 1) // 2) < n_controls:
        n_sender += 1
    if count != n_controls:
        raise SizeMismatchError(f"{n_controls} control amplitudes fit no sender size")
    return n_sender


@dataclass(frozen=True)
class SenderState:
    """The sender's pure initial state as one control vector ``x``.

    x = (a0, a_single, a_double): the vacuum amplitude ``a0`` (stored
    real), the single-excitation amplitudes ``a_single[i-1]`` for node i
    and the double-excitation amplitudes ``a_double`` ordered like
    :func:`sender_pairs`; the last two are views into ``x``.  The sender
    size follows from ``len(x) = 1 + n + n(n-1)/2``; any other length
    raises SizeMismatchError.  The squared magnitudes must sum to one.
    """

    x: np.ndarray = field(repr=False)

    def __post_init__(self):
        x = np.array(self.x, dtype=complex)
        if x.ndim != 1:
            raise SizeMismatchError(f"a control vector is 1-D, got shape {x.shape}")
        _sender_size(len(x))
        x[0] = x[0].real
        object.__setattr__(self, "x", x)

    @property
    def n_sender(self):
        return _sender_size(len(self.x))

    @property
    def a0(self):
        return float(self.x[0].real)

    @property
    def a_single(self):
        return self.x[1 : 1 + self.n_sender]

    @property
    def a_double(self):
        return self.x[1 + self.n_sender :]

    @classmethod
    def vacuum(cls, n_sender=4):
        return cls(np.eye(1 + n_sender + n_sender * (n_sender - 1) // 2)[0])

    @classmethod
    def from_double(cls, a_double, n_sender=4):
        """State with support only on pair states (a0 = a_i = 0)."""
        return cls(np.concatenate((np.zeros(1 + n_sender), a_double)))

    @classmethod
    def random(cls, rng, n_sender=4):
        """Haar-like random normalized sender state (a0 real positive)."""
        n_pair = n_sender * (n_sender - 1) // 2
        v = rng.standard_normal(1 + 2 * (n_sender + n_pair))
        v /= np.linalg.norm(v)
        single = v[1 : 1 + n_sender] + 1j * v[1 + n_sender : 1 + 2 * n_sender]
        rest = v[1 + 2 * n_sender :]
        return cls(np.concatenate(([abs(v[0])], single, rest[:n_pair] + 1j * rest[n_pair:])))
