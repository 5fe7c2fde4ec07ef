"""Free-fermion line parameters against oracles that never use the minors.

The library forms every two-excitation amplitude as a 2x2 minor of the
one-excitation propagator.  On random chains these properties hold the
minors to the pair-block matrix exponential and the receiver state
assembled from the receiver operator, for senders of 3 to 5 nodes, to
dense evolution in the full 2^N space.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

import spinline as sl
from spinline.basis import SenderState
from spinline.verification import full_space_receiver, pair_block

PROPERTY_SETTINGS = settings(max_examples=10, deadline=None, derandomize=True,
                             database=None)


@st.composite
def chains(draw):
    n = draw(st.integers(7, 10))
    coupling = st.floats(0.3, 1.5)
    bulk = draw(st.lists(st.floats(0.5, 1.5), min_size=n - 5, max_size=n - 5))
    return sl.ChainSpec(n_nodes=n, delta1=draw(coupling), delta2=draw(coupling),
                        bulk=np.array(bulk))


times = st.floats(0.0, 40.0)
seeds = st.integers(0, 2 ** 32 - 1)


@PROPERTY_SETTINGS
@given(spec=chains(), t=times, seed=seeds, n_sender=st.integers(3, 5))
def test_assembled_state_matches_dense_evolution(spec, t, seed, n_sender):
    params = sl.line_params_at(sl.diagonalize(spec), t, n_sender)
    state = SenderState.random(np.random.default_rng(seed), n_sender)
    rho = sl.assemble_rho(params, state).rho
    assert np.max(np.abs(rho - full_space_receiver(state, spec, t))) < 1e-9


@PROPERTY_SETTINGS
@given(spec=chains(), t=times)
def test_pair_minors_match_pair_block_exponential(spec, t):
    amps = sl.propagators(sl.diagonalize(spec), t)
    u2 = expm(-1j * pair_block(spec, amps.basis) * t)
    assert np.max(np.abs(amps.p2 - u2)) < 1e-10
