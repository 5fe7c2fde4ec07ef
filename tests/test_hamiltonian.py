import json

import numpy as np
import pytest

from spinline.basis import sender_pairs
from spinline.errors import ChainLengthError, InputError, SizeMismatchError
from spinline.hamiltonian import ChainSpec, apply_disorder, hopping_matrix
from spinline.verification import pair_block


def test_uniform_n4_single_block():
    h1 = hopping_matrix(ChainSpec.uniform(4).couplings())
    off = np.diag(h1, 1)
    assert np.allclose(off, 0.5)
    assert np.all(np.diag(h1) == 0.0)


def test_hopping_matrix_stacks(rng):
    couplings = rng.uniform(0.5, 1.5, (2, 3, 8))
    h = hopping_matrix(couplings)
    assert h.shape == (2, 3, 9, 9)
    for idx in np.ndindex(2, 3):
        assert np.array_equal(h[idx], hopping_matrix(couplings[idx]))
        assert np.array_equal(np.diag(h[idx], 1), couplings[idx] / 2)
        assert np.count_nonzero(h[idx]) == 16


def test_pair_block_selection_rule():
    index = sender_pairs(4).index
    h2 = pair_block(ChainSpec.uniform(4))
    # one excitation hops 2 -> 3 across bond (2,3)
    assert h2[index((1, 2)), index((1, 3))] == pytest.approx(0.5)
    # both indices differ: forbidden
    assert h2[index((1, 2)), index((3, 4))] == 0.0


def test_tuned_boundary_entries():
    spec = ChainSpec(n_nodes=20, delta1=0.550, delta2=0.817)
    h1 = hopping_matrix(spec.couplings())
    assert h1[0, 1] == pytest.approx(0.275)
    assert h1[1, 2] == pytest.approx(0.4085)


def test_blocks_exactly_symmetric(rng):
    spec = ChainSpec(n_nodes=9, delta1=0.7, delta2=1.1,
                     bulk=rng.uniform(0.5, 1.5, 4))
    h1 = hopping_matrix(spec.couplings())
    h2 = pair_block(spec)
    assert np.max(np.abs(h1 - h1.T)) == 0.0
    assert np.max(np.abs(h2 - h2.T)) == 0.0


def test_pair_block_row_sparsity():
    h2 = pair_block(ChainSpec.uniform(12))
    assert np.max(np.count_nonzero(h2, axis=1)) <= 4


@pytest.mark.parametrize("n", [7, 8])
def test_free_fermion_spectrum_identity(n, rng):
    # two-excitation energies are pairwise sums of one-excitation energies
    spec = ChainSpec(n_nodes=n, delta1=rng.uniform(0.3, 1.2),
                     delta2=rng.uniform(0.3, 1.2),
                     bulk=rng.uniform(0.5, 1.5, n - 5))
    e1 = np.linalg.eigvalsh(hopping_matrix(spec.couplings()))
    e2 = np.sort(np.linalg.eigvalsh(pair_block(spec)))
    sums = np.sort([e1[a] + e1[b] for a in range(n) for b in range(a + 1, n)])
    assert np.max(np.abs(e2 - sums)) < 1e-10


def test_coupling_layout():
    spec = ChainSpec(n_nodes=8, delta1=0.5, delta2=0.8, bulk=np.array([1.1, 1.2, 1.3]))
    assert np.allclose(spec.couplings(), [0.5, 0.8, 1.1, 1.2, 1.3, 0.8, 0.5])


@pytest.mark.parametrize("n", range(4, 12))
def test_couplings_of_every_length(n, rng):
    # [delta1, delta2, bulk..., delta2, delta1], which at n = 4 is [delta1, delta2, delta1]
    if n >= 7:
        d1, d2 = rng.uniform(0.5, 1.5, (2, 3))
        bulk = rng.uniform(0.5, 1.5, (2, 3, n - 5))
    else:  # shorter chains are uniform
        d1 = d2 = np.ones(3)
        bulk = np.ones((2, 3, max(0, n - 5)))
    got = ChainSpec(n_nodes=n, delta1=d1, delta2=d2, bulk=bulk).couplings()
    for i, j in np.ndindex(2, 3):
        a, b = d1[j], d2[j]
        want = [a, b, a] if n == 4 else [a, b, *bulk[i, j], b, a]
        assert got[i, j].tolist() == want
        single = ChainSpec(n_nodes=n, delta1=a, delta2=b, bulk=bulk[i, j]).couplings()
        assert single.tolist() == want


def test_boundary_profile_needs_seven_nodes():
    with pytest.raises(ChainLengthError):
        ChainSpec(n_nodes=6, delta1=0.5, delta2=0.8, bulk=np.array([1.0]))
    ChainSpec.uniform(5)  # uniform short chains are fine


def test_nonpositive_couplings_rejected():
    with pytest.raises(ValueError):
        ChainSpec(n_nodes=8, delta1=-0.1, delta2=0.8)


def test_stacked_boundary_pairs():
    d1, d2 = np.array([0.5, 0.6, 0.7]), np.array([0.8, 0.9, 1.0])
    rows = [ChainSpec(n_nodes=9, delta1=a, delta2=b).couplings() for a, b in zip(d1, d2)]
    assert np.array_equal(ChainSpec(n_nodes=9, delta1=d1, delta2=d2).couplings(), rows)
    with pytest.raises(InputError, match="strictly positive"):
        ChainSpec(n_nodes=9, delta1=d1, delta2=np.array([0.8, -0.1, 1.0]))


def test_apply_disorder_zero_epsilon():
    spec = ChainSpec(n_nodes=10, delta1=0.6, delta2=0.9)
    out = apply_disorder(spec, 0.0, np.ones(5))
    assert np.all(out.bulk == 1.0)
    assert out.delta1 == spec.delta1 and out.delta2 == spec.delta2


def test_apply_disorder_formula():
    spec = ChainSpec.uniform(10)
    out = apply_disorder(spec, 0.05, np.ones(5))
    assert np.allclose(out.bulk, 1.05)
    deltas = np.zeros(5)
    deltas[0] = -1.0
    out = apply_disorder(spec, 0.025, deltas)
    assert out.bulk[0] == pytest.approx(0.975)
    assert np.all(out.bulk[1:] == 1.0)


def test_apply_disorder_rejects_bad_input():
    spec = ChainSpec.uniform(10)
    with pytest.raises(ValueError):
        apply_disorder(spec, 0.05, np.full(5, 1.5))
    with pytest.raises(SizeMismatchError):
        apply_disorder(spec, 0.05, np.ones(4))


def test_json_round_trip():
    spec = ChainSpec(n_nodes=9, delta1=0.55, delta2=0.82,
                     bulk=np.array([1.0, 0.98, 1.02, 1.0]))
    text = spec.to_json()
    loaded = ChainSpec.from_json(text)
    assert loaded.n_nodes == 9
    assert loaded.delta1 == 0.55 and loaded.delta2 == 0.82
    assert np.allclose(loaded.bulk, spec.bulk)
    assert json.loads(text)["n"] == 9
