"""Pair ordering of the two-excitation sector and the sender's control vector.

The dynamics conserves the number of excitations, so everything happens in
the direct sum of the zero-, one- and two-excitation sectors: the vacuum
|0>, the states |k> with node k excited (k = 1..N) and the states |nm> with
nodes n < m excited.

Node indices are 1-based in every public interface; two-excitation states
are ordered lexicographically in (n, m) (:func:`sender_pairs`).  The
sender's pure initial state is one complex control vector x = (a0,
a_single, a_double), a plain array of shape (..., d) like the receiver
matrices, in the order in which the receiver operator contracts it.
:func:`control_slices` is the one statement of that layout.
"""

import numpy as np

from .errors import SizeMismatchError


def sender_pairs(n_sender=4):
    """Ordered pairs (n, m) with 1 <= n < m <= n_sender, lexicographic: the
    pair states of a sender on nodes 1..n_sender, or of a whole n-node chain."""
    return [(n, m) for n in range(1, n_sender) for m in range(n + 1, n_sender + 1)]


def control_slices(n_sender):
    """The slices of a control vector x = (a0, a_single, a_double) that hold
    the single- and the pair-excitation amplitudes of an ``n_sender``-node
    sender; a0 is x[0], and ``pair.stop`` is the length d of x."""
    single = slice(1, 1 + n_sender)
    return single, slice(single.stop, single.stop + n_sender * (n_sender - 1) // 2)


def sender_size(d):
    """The sender size n whose control vector has d = 1 + n + n(n-1)/2
    entries; SizeMismatchError if no sender has that many."""
    n_sender = 2
    while (count := control_slices(n_sender)[1].stop) < d:
        n_sender += 1
    if count != d:
        raise SizeMismatchError(f"{d} control amplitudes fit no sender size")
    return n_sender


def random_controls(rng, n_sender=4):
    """Haar-like random normalized control vector of an ``n_sender``-node
    sender, a0 real positive: one draw of 2d - 1 standard normals, in the
    order a0, the real then the imaginary single parts, and the real then
    the imaginary pair parts."""
    v = rng.standard_normal(2 * control_slices(n_sender)[1].stop - 1)
    v /= np.linalg.norm(v)
    single, double = (part.reshape(2, -1) for part in np.split(v[1:], [2 * n_sender]))
    return np.concatenate(([abs(v[0])], single[0] + 1j * single[1], double[0] + 1j * double[1]))
