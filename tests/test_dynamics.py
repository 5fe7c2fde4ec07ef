import numpy as np
import pytest
from scipy.linalg import expm

import spinline as sl
from spinline import benchmarks as bm
from spinline.basis import SenderState
from spinline.hamiltonian import ChainSpec
from spinline.verification import pair_block


def spectral_for(n, **kwargs):
    spec = ChainSpec(n_nodes=n, **kwargs) if kwargs else ChainSpec.uniform(n)
    return sl.diagonalize(spec)


def test_uniform_n4_spectrum():
    evals = spectral_for(4).evals1
    golden = (1 + np.sqrt(5)) / 4, (np.sqrt(5) - 1) / 4
    assert np.allclose(np.sort(evals), [-golden[0], -golden[1], golden[1], golden[0]])
    assert abs(np.sum(evals)) < 1e-12


def test_identity_at_time_zero(tuned20):
    amps = sl.propagators(tuned20, 0.0)
    assert np.max(np.abs(amps.p1 - np.eye(20))) < 1e-12
    assert np.max(np.abs(amps.p2 - np.eye(190))) < 1e-12


@pytest.mark.parametrize("t", [0.8, 5.0, 26.441])
def test_unitarity(tuned20, t):
    amps = sl.propagators(tuned20, t)
    n, m = amps.p1.shape[0], amps.p2.shape[0]
    assert np.max(np.abs(amps.p1.conj().T @ amps.p1 - np.eye(n))) < 1e-10
    assert np.max(np.abs(amps.p2.conj().T @ amps.p2 - np.eye(m))) < 1e-10


def test_composition(rng):
    spectral = spectral_for(8, delta1=0.7, delta2=0.9, bulk=rng.uniform(0.8, 1.2, 3))
    t1, t2 = 1.3, 2.9
    a = sl.propagators(spectral, t1)
    b = sl.propagators(spectral, t2)
    c = sl.propagators(spectral, t1 + t2)
    assert np.max(np.abs(a.p1 @ b.p1 - c.p1)) < 1e-9
    assert np.max(np.abs(a.p2 @ b.p2 - c.p2)) < 1e-9


def test_mirror_symmetry(tuned20):
    amps = sl.propagators(tuned20, bm.TUNED_CHAINS[20]["t0"])
    assert np.max(np.abs(np.abs(amps.p1) - np.abs(amps.p1[::-1, ::-1]))) < 1e-10


def test_end_to_end_amplitude_n20(tuned20):
    amps = sl.propagators(tuned20, bm.TUNED_CHAINS[20]["t0"])
    assert abs(amps.single(20, 1)) == pytest.approx(0.99606, abs=5e-4)


def test_end_to_end_amplitude_n60():
    ref = bm.TUNED_CHAINS[60]
    spec = ChainSpec(n_nodes=60, delta1=ref["delta1"], delta2=ref["delta2"])
    spectral = sl.diagonalize(spec)
    w = spectral.evecs1[59] * spectral.evecs1[0]
    amp = abs(np.exp(-1j * spectral.evals1 * ref["t0"]) @ w)
    assert amp == pytest.approx(0.99223, abs=5e-4)


def test_negative_time_flagged(tuned20):
    with pytest.warns(UserWarning, match="backwards"):
        amps = sl.propagators(tuned20, -1.5)
    # still a valid (inverse) propagator
    assert np.max(np.abs(amps.p1.conj().T @ amps.p1 - np.eye(20))) < 1e-10


def test_evolve_vacuum(tuned20):
    amps = sl.propagators(tuned20, 11.0)
    out = sl.evolve(SenderState.vacuum(), amps)
    assert out.f0 == 1.0
    assert np.all(out.f_single == 0.0) and np.all(out.f_double == 0.0)


def test_evolve_single_column(tuned20):
    amps = sl.propagators(tuned20, 9.5)
    a1 = np.zeros(4, complex)
    a1[0] = 1.0
    out = sl.evolve(SenderState(0.0, a1, np.zeros(6, complex)), amps)
    assert np.allclose(out.f_single, amps.p1[:, 0])


def test_evolve_pair_combination_vs_expm(tuned20):
    # (|12> + |34>)/sqrt(2) against a dense matrix exponential
    t0 = bm.TUNED_CHAINS[20]["t0"]
    amps = sl.propagators(tuned20, t0)
    a2 = np.zeros(6, complex)
    a2[0] = a2[5] = 1 / np.sqrt(2)
    out = sl.evolve(SenderState.from_double(a2), amps)
    assert out.norm_squared == pytest.approx(1.0, abs=1e-10)
    basis = amps.basis
    u2 = expm(-1j * pair_block(tuned20.spec, basis) * t0)
    expected = (u2[:, basis.index_of(1, 2)] + u2[:, basis.index_of(3, 4)]) / np.sqrt(2)
    assert np.max(np.abs(out.f_double - expected)) < 1e-9


def test_norm_conservation(tuned20, rng):
    amps = sl.propagators(tuned20, 17.3)
    for _ in range(10):
        out = sl.evolve(SenderState.random(rng), amps)
        assert out.norm_squared == pytest.approx(1.0, abs=1e-10)
