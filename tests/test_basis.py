import numpy as np
import pytest

from spinline.basis import SenderState, sender_pairs
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


def test_vacuum_and_single_pair_states_validate():
    x = SenderState.vacuum().x
    assert np.vdot(x, x).real == 1.0
    a2 = np.zeros(6, complex)
    a2[0] = 1.0
    x = SenderState.from_double(a2).x
    assert np.vdot(x, x).real == 1.0


def test_wrong_amplitude_count_rejected():
    # a0, 3 singles and 6 doubles fit no sender
    with pytest.raises(SizeMismatchError, match="10 control amplitudes fit no sender size"):
        SenderState(np.zeros(10, complex))


@pytest.mark.parametrize("n_sender", [2, 3, 4, 5])
def test_sender_size_follows_the_control_count(n_sender, rng):
    state = SenderState.random(rng, n_sender)
    assert len(state.x) == 1 + n_sender + n_sender * (n_sender - 1) // 2
    assert state.n_sender == n_sender
    assert state.a_single.shape == (n_sender,)
    assert state.a_double.shape == (n_sender * (n_sender - 1) // 2,)
    assert np.array_equal(np.concatenate(([state.a0], state.a_single, state.a_double)), state.x)


@pytest.mark.parametrize("n_controls", [0, 1, 2, 3, 5, 6, 8, 12, 15, 17])
def test_control_count_that_fits_no_sender_is_refused(n_controls):
    with pytest.raises(SizeMismatchError):
        SenderState(np.zeros(n_controls, complex))


def test_a0_is_stored_real():
    x = np.zeros(11, complex)
    x[0] = 0.6 + 0.8j
    state = SenderState(x)
    assert state.x[0] == 0.6 and state.a0 == 0.6
    assert x[0] == 0.6 + 0.8j  # the caller's vector is copied, not changed


def test_real_parameter_count(rng):
    # one real a0, complex singles and doubles: 21 real scalars, one constraint
    state = SenderState.random(rng)
    n_real = 1 + 2 * state.a_single.size + 2 * state.a_double.size
    assert n_real == 21
    assert np.vdot(state.x, state.x).real == pytest.approx(1.0, abs=1e-12)


def test_random_states_normalized(rng):
    for _ in range(25):
        x = SenderState.random(rng).x
        assert np.vdot(x, x).real == pytest.approx(1.0, abs=1e-12)
