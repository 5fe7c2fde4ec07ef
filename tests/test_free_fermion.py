"""Free-fermion line parameters against their definition and the oracles.

The library evaluates every parameter in closed form from the 2 x n_sender
receiver block of the one-excitation propagator.  On random chains these
properties hold the oracle's two-excitation propagator (2x2 minors of p1)
to the pair-block matrix exponential, the closed forms to the environment
sums that define the parameters, and the receiver state assembled from the
receiver operator, for senders of 3 to 5 nodes, to dense evolution in the
full 2^N space.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

import spinline as sl
from spinline.basis import SenderState, pair_list, sender_pairs
from spinline.verification import full_space_receiver, pair_block, propagators

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
    _, p2 = propagators(sl.diagonalize(spec), t)
    u2 = expm(-1j * pair_block(spec) * t)
    assert np.max(np.abs(p2 - u2)) < 1e-10


@PROPERTY_SETTINGS
@given(spec=chains(), t=times, n_sender=st.integers(3, 5))
def test_closed_forms_match_environment_sums(spec, t, n_sender):
    spectral = sl.diagonalize(spec)
    p1, p2 = propagators(spectral, t)
    n = spec.n_nodes
    index = {pair: k for k, pair in enumerate(pair_list(n))}
    env = range(1, n - 1)
    # p2[(i, N-1), s] and p2[(i, N), s] over environment nodes i, sender pairs s
    cols = [index[pair] for pair in sender_pairs(n_sender)]
    A = p2[[index[(i, n - 1)] for i in env]][:, cols]
    B = p2[[index[(i, n)] for i in env]][:, cols]
    C = p1[: n - 2, :n_sender]
    expected = {
        "p_Nm1": p1[n - 2, :n_sender],
        "p_N": p1[n - 1, :n_sender],
        "p_pair": p2[index[(n - 1, n)], cols],
        "P_Nm1": C.T @ A.conj(),
        "P_N": C.T @ B.conj(),
        "P_mm": A.T @ A.conj(),
        "P_mN": A.T @ B.conj(),
        "P_NN": B.T @ B.conj(),
    }
    params = sl.line_params_at(spectral, t, n_sender)
    for kind, value in expected.items():
        assert np.max(np.abs(getattr(params, kind) - value)) < 1e-13, kind
