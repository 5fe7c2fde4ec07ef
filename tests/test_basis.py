import numpy as np
import pytest

from spinline.basis import control_slices, random_controls, sender_pairs, sender_size
from spinline.errors import ChainLengthError, SizeMismatchError
from spinline.hamiltonian import ChainSpec


@pytest.mark.parametrize("n,dim", [(4, 11), (7, 29), (20, 211), (60, 1831)])
def test_dimension_formula(n, dim):
    # vacuum, N single excitations and the pair sector
    assert 1 + n + len(sender_pairs(n)) == dim
    assert len(sender_pairs(n)) == n * (n - 1) // 2


def test_pair_order_n4():
    assert sender_pairs(4) == [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)]


@pytest.mark.parametrize("n", [4, 5, 9, 16, 33])
def test_pair_index_round_trip(n):
    pairs = sender_pairs(n)
    index = {pair: idx for idx, pair in enumerate(pairs)}
    assert len(index) == len(pairs)
    assert all(1 <= a < b <= n for a, b in pairs)
    # strictly increasing under lexicographic pair order
    assert pairs == sorted(index)


def test_too_short_chain_rejected():
    with pytest.raises(ChainLengthError):
        ChainSpec.uniform(3)


def test_sender_pairs_default():
    assert sender_pairs() == [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)]


def test_wrong_amplitude_count_rejected():
    # a0, 3 singles and 6 doubles fit no sender
    with pytest.raises(SizeMismatchError, match="10 control amplitudes fit no sender size"):
        sender_size(10)


@pytest.mark.parametrize("n_sender", [2, 3, 4, 5])
def test_sender_size_follows_the_control_count(n_sender, rng):
    x = random_controls(rng, n_sender)
    single, pair = control_slices(n_sender)
    assert len(x) == pair.stop == 1 + n_sender + n_sender * (n_sender - 1) // 2
    assert sender_size(len(x)) == n_sender
    assert x[single].shape == (n_sender,)
    assert x[pair].shape == (len(sender_pairs(n_sender)),)
    assert (single.start, single.stop) == (1, pair.start)  # a0 is x[0]


@pytest.mark.parametrize("n_controls", [0, 1, 2, 3, 5, 6, 8, 12, 15, 17])
def test_control_count_that_fits_no_sender_is_refused(n_controls):
    with pytest.raises(SizeMismatchError):
        sender_size(n_controls)


def test_random_states_normalized(rng):
    for _ in range(25):
        x = random_controls(rng)
        assert x[0].real > 0.0 and x[0].imag == 0.0
        assert np.vdot(x, x).real == pytest.approx(1.0, abs=1e-12)
