import numpy as np
import pytest
from scipy.linalg import expm

import spinline as sl
from spinline import benchmarks as bm
from spinline.basis import SenderState, pair_list, sender_pairs
from spinline.hamiltonian import ChainSpec
from spinline.verification import pair_block, partial_trace_oracle, propagators


def spectral_for(n, **kwargs):
    spec = ChainSpec(n_nodes=n, **kwargs) if kwargs else ChainSpec.uniform(n)
    return sl.diagonalize(spec)


def test_uniform_n4_spectrum():
    evals = spectral_for(4).evals1
    golden = (1 + np.sqrt(5)) / 4, (np.sqrt(5) - 1) / 4
    assert np.allclose(np.sort(evals), [-golden[0], -golden[1], golden[1], golden[0]])
    assert abs(np.sum(evals)) < 1e-12


def test_identity_at_time_zero(tuned20):
    p1, p2 = propagators(tuned20, 0.0)
    assert np.max(np.abs(p1 - np.eye(20))) < 1e-12
    assert np.max(np.abs(p2 - np.eye(190))) < 1e-12


@pytest.mark.parametrize("t", [0.8, 5.0, 26.441])
def test_unitarity(tuned20, t):
    p1, p2 = propagators(tuned20, t)
    n, m = p1.shape[0], p2.shape[0]
    assert np.max(np.abs(p1.conj().T @ p1 - np.eye(n))) < 1e-10
    assert np.max(np.abs(p2.conj().T @ p2 - np.eye(m))) < 1e-10


def test_composition(rng):
    spectral = spectral_for(8, delta1=0.7, delta2=0.9, bulk=rng.uniform(0.8, 1.2, 3))
    t1, t2 = 1.3, 2.9
    a1, a2 = propagators(spectral, t1)
    b1, b2 = propagators(spectral, t2)
    c1, c2 = propagators(spectral, t1 + t2)
    assert np.max(np.abs(a1 @ b1 - c1)) < 1e-9
    assert np.max(np.abs(a2 @ b2 - c2)) < 1e-9


def test_mirror_symmetry(tuned20):
    p1, _ = propagators(tuned20, bm.TUNED_CHAINS[20]["t0"])
    assert np.max(np.abs(np.abs(p1) - np.abs(p1[::-1, ::-1]))) < 1e-10


def test_end_to_end_amplitude_n20(tuned20):
    p1, _ = propagators(tuned20, bm.TUNED_CHAINS[20]["t0"])
    assert abs(p1[19, 0]) == pytest.approx(0.99606, abs=5e-4)


def test_end_to_end_amplitude_n60():
    ref = bm.TUNED_CHAINS[60]
    spec = ChainSpec(n_nodes=60, delta1=ref["delta1"], delta2=ref["delta2"])
    spectral = sl.diagonalize(spec)
    w = spectral.evecs1[59] * spectral.evecs1[0]
    amp = abs(np.exp(-1j * spectral.evals1 * ref["t0"]) @ w)
    assert amp == pytest.approx(0.99223, abs=5e-4)


def test_negative_time_flagged(tuned20):
    with pytest.warns(UserWarning, match="backwards"):
        back = sl.line_params_at(tuned20, -1.5)
    # still the inverse propagator: p1(-t) = conj(p1(t)) for a real hopping matrix
    fwd = sl.line_params_at(tuned20, 1.5)
    for kind in ("p_N", "P_mm"):
        assert np.max(np.abs(getattr(back, kind) - getattr(fwd, kind).conj())) < 1e-12


def test_evolve_vacuum(tuned20):
    rho = partial_trace_oracle(SenderState.vacuum(), tuned20, 11.0).rho
    assert np.array_equal(rho, np.diag([1.0, 0, 0, 0]))


def test_evolve_single_column(tuned20):
    p1, _ = propagators(tuned20, 9.5)
    a1 = np.zeros(4, complex)
    a1[0] = 1.0
    rho = partial_trace_oracle(SenderState(0.0, a1, np.zeros(6, complex)), tuned20, 9.5).rho
    f = p1[18:, 0]
    assert np.allclose(rho[1:3, 1:3], np.outer(f, f.conj()), atol=1e-12)
    assert rho[0, 0] == pytest.approx(np.sum(np.abs(p1[:18, 0]) ** 2), abs=1e-12)
    assert rho[3, 3] == 0.0


def test_evolve_pair_combination_vs_expm(tuned20):
    # (|12> + |34>)/sqrt(2) against a dense matrix exponential
    t0 = bm.TUNED_CHAINS[20]["t0"]
    _, p2 = propagators(tuned20, t0)
    cols = [pair_list(20).index(pair) for pair in ((1, 2), (3, 4))]
    out = p2[:, cols].sum(axis=1) / np.sqrt(2)
    assert np.linalg.norm(out) == pytest.approx(1.0, abs=1e-10)
    u2 = expm(-1j * pair_block(tuned20.spec) * t0)
    assert np.max(np.abs(out - u2[:, cols].sum(axis=1) / np.sqrt(2))) < 1e-9


def test_norm_conservation(tuned20, rng):
    _, p2 = propagators(tuned20, 17.3)
    cols = [pair_list(20).index(pair) for pair in sender_pairs()]
    for _ in range(10):
        state = SenderState.random(rng)
        assert np.trace(partial_trace_oracle(state, tuned20, 17.3).rho).real == \
            pytest.approx(1.0, abs=1e-10)
        assert np.linalg.norm(p2[:, cols] @ state.a_double) == \
            pytest.approx(np.linalg.norm(state.a_double), abs=1e-10)
