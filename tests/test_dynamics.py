import numpy as np
import pytest
from scipy.linalg import expm

import spinline as sl
from spinline import benchmarks as bm
from spinline.basis import control_slices, random_controls, sender_pairs
from spinline.dynamics import one_excitation_columns
from spinline.errors import NumericalError
from spinline.hamiltonian import MIN_PROFILE_NODES, ChainSpec, hopping_matrix, sublattice_block
from spinline.verification import pair_block, partial_trace_oracle, propagators


def spectral_for(n, **kwargs):
    spec = ChainSpec(n_nodes=n, **kwargs) if kwargs else ChainSpec.uniform(n)
    return sl.diagonalize(spec)


SOLVE_SIZES = [4, 5, 6, 7, 8, 9, 12, 20, 21, 60]


def random_couplings(rng, shape):
    """Couplings drawn from (0.05, 1.5]."""
    return 1.5 - rng.uniform(0.0, 1.45, shape)


def chains_of(n):
    """The uniform chain of n nodes and, from n = 7 on, a tuned chain (the
    paper's pair for n = 20 and 60, the n = 20 pair otherwise) and three
    seeded chains with every coupling random."""
    specs = [ChainSpec.uniform(n)]
    if n >= MIN_PROFILE_NODES:
        ref = bm.TUNED_CHAINS.get(n, bm.TUNED_CHAINS[20])
        specs.append(ChainSpec(n, ref["delta1"], ref["delta2"]))
        rng = np.random.default_rng(n)
        for J in random_couplings(rng, (3, n - 3)):
            specs.append(ChainSpec(n, J[0], J[1], J[2:]))
    return specs


@pytest.mark.parametrize("n", SOLVE_SIZES)
def test_solve_matches_dense_eigh(n):
    for spec in chains_of(n):
        spectral = sl.diagonalize(spec)
        lam, V = np.linalg.eigh(hopping_matrix(spec.couplings()))
        assert np.max(np.abs(spectral.evals1 - lam)) <= 1e-12
        for t in (0.8, 1.3 * n):
            p1 = (V * np.exp(-1j * lam * t)) @ V.T
            assert np.max(np.abs(one_excitation_columns(spectral, t) - p1)) <= 1e-12


@pytest.mark.parametrize("n", SOLVE_SIZES)
def test_solve_is_paired_and_orthonormal(n):
    for spec in chains_of(n):
        spectral = sl.diagonalize(spec)
        lam, V = spectral.evals1, spectral.evecs1
        assert np.array_equal(lam + lam[::-1], np.zeros(n))
        assert np.all(np.diff(lam) > 0)
        assert np.max(np.abs(V.T @ V - np.eye(n))) <= 1e-13
        if n % 2:  # the zero mode lives on the even sublattice
            assert lam[n // 2] == 0.0
            assert not V[1::2, n // 2].any() and V[0::2, n // 2].any()


@pytest.mark.parametrize("n", [7, 8, 20, 21, 60])
def test_stacked_solve_equals_each_chain(n):
    rng = np.random.default_rng(100 + n)
    stack = ChainSpec(n, 0.55, 0.817, random_couplings(rng, (5, n - 5)))
    spectral = sl.diagonalize(stack)
    for j, bulk in enumerate(stack.bulk):
        alone = sl.diagonalize(ChainSpec(n, 0.55, 0.817, bulk))
        assert np.array_equal(spectral.evals1[j], alone.evals1)
        assert np.array_equal(spectral.evecs1[j], alone.evecs1)


def test_solve_that_fails_outright_raises_numerical_error(monkeypatch):
    def fail(block):
        raise np.linalg.LinAlgError("SVD did not converge")

    monkeypatch.setattr(np.linalg, "svd", fail)
    with pytest.raises(NumericalError, match="^eigendecomposition failed: SVD did not") as err:
        sl.diagonalize(ChainSpec.uniform(8))
    assert err.value.chain is None


@pytest.mark.parametrize("n", [*range(2, 14), 20, 21, 60])
def test_sublattice_block_is_the_even_odd_corner(n):
    J = random_couplings(np.random.default_rng(n), (3, n - 1))
    assert np.array_equal(sublattice_block(J), hopping_matrix(J)[..., 0::2, 1::2])
    assert np.array_equal(sublattice_block(J[0]), hopping_matrix(J[0])[0::2, 1::2])


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


@pytest.mark.filterwarnings("error")
def test_negative_time_flagged(tuned20):
    # backwards propagation is exact, so it warns of nothing: it is the
    # inverse propagator, p1(-t) = conj(p1(t)) for a real hopping matrix
    back = sl.line_params_at(tuned20, -1.5)
    fwd = sl.line_params_at(tuned20, 1.5)
    for kind in ("p_N", "P_mm"):
        assert np.max(np.abs(getattr(back, kind) - getattr(fwd, kind).conj())) < 1e-12


def test_evolve_vacuum(tuned20):
    rho = partial_trace_oracle(np.eye(11)[0], tuned20, 11.0)
    assert np.array_equal(rho, np.diag([1.0, 0, 0, 0]))


def test_evolve_single_column(tuned20):
    p1, _ = propagators(tuned20, 9.5)
    x = np.zeros(11, complex)
    x[1] = 1.0  # a_single[0]: node 1 excited
    rho = partial_trace_oracle(x, tuned20, 9.5)
    f = p1[18:, 0]
    assert np.allclose(rho[1:3, 1:3], np.outer(f, f.conj()), atol=1e-12)
    assert rho[0, 0] == pytest.approx(np.sum(np.abs(p1[:18, 0]) ** 2), abs=1e-12)
    assert rho[3, 3] == 0.0


def test_evolve_pair_combination_vs_expm(tuned20):
    # (|12> + |34>)/sqrt(2) against a dense matrix exponential
    t0 = bm.TUNED_CHAINS[20]["t0"]
    _, p2 = propagators(tuned20, t0)
    cols = [sender_pairs(20).index(pair) for pair in ((1, 2), (3, 4))]
    out = p2[:, cols].sum(axis=1) / np.sqrt(2)
    assert np.linalg.norm(out) == pytest.approx(1.0, abs=1e-10)
    u2 = expm(-1j * pair_block(tuned20.spec) * t0)
    assert np.max(np.abs(out - u2[:, cols].sum(axis=1) / np.sqrt(2))) < 1e-9


def test_norm_conservation(tuned20, rng):
    _, p2 = propagators(tuned20, 17.3)
    cols = [sender_pairs(20).index(pair) for pair in sender_pairs()]
    for _ in range(10):
        x = random_controls(rng)
        assert np.trace(partial_trace_oracle(x, tuned20, 17.3)).real == \
            pytest.approx(1.0, abs=1e-10)
        a_double = x[control_slices(4)[1]]
        assert np.linalg.norm(p2[:, cols] @ a_double) == \
            pytest.approx(np.linalg.norm(a_double), abs=1e-10)
