import numpy as np
import pytest

from spinline.basis import SenderState, pair_list, sender_pairs
from spinline.errors import ChainLengthError
from spinline.hamiltonian import ChainSpec


@pytest.mark.parametrize("n,dim", [(4, 11), (7, 29), (20, 211), (60, 1831)])
def test_dimension_formula(n, dim):
    # vacuum, N single excitations and the pair sector
    assert 1 + n + len(pair_list(n)) == dim
    assert len(pair_list(n)) == n * (n - 1) // 2


def test_pair_order_n4():
    assert pair_list(4) == [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)]


@pytest.mark.parametrize("n", [4, 5, 9, 16, 33])
def test_pair_index_round_trip(n):
    pairs = pair_list(n)
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
    assert SenderState.vacuum().norm_squared == 1.0
    a2 = np.zeros(6, complex)
    a2[0] = 1.0
    assert SenderState.from_double(a2).norm_squared == 1.0


def test_wrong_amplitude_count_rejected():
    with pytest.raises(ValueError):
        SenderState(1.0, np.zeros(3, complex), np.zeros(6, complex))


def test_real_parameter_count(rng):
    # one real a0, complex singles and doubles: 21 real scalars, one constraint
    state = SenderState.random(rng)
    n_real = 1 + 2 * state.a_single.size + 2 * state.a_double.size
    assert n_real == 21
    assert state.norm_squared == pytest.approx(1.0, abs=1e-12)


def test_random_states_normalized(rng):
    for _ in range(25):
        state = SenderState.random(rng)
        assert state.norm_squared == pytest.approx(1.0, abs=1e-12)
