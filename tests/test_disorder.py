import numpy as np
import pytest

import spinline as sl
from spinline import benchmarks as bm
from spinline import disorder, dynamics
from spinline.disorder import (
    export_param_stats_csv,
    export_robustness_csv,
    param_statistics,
    sample_line_params,
    werner_robustness,
)
from spinline.errors import InputError, NumericalError, SizeMismatchError
from spinline.hamiltonian import ChainSpec
from spinline.receiver import KINDS, entry_families, param_index, receiver_operator
from spinline.verification import sample_chain


@pytest.fixture(scope="module")
def base20():
    ref = bm.TUNED_CHAINS[20]
    return ChainSpec(n_nodes=20, delta1=ref["delta1"], delta2=ref["delta2"])


def test_sample_chain_zero_epsilon(base20, rng):
    out = sample_chain(base20, 0.0, rng)
    assert np.all(out.bulk == 1.0)


def test_sample_chain_range(base20):
    rng = np.random.default_rng(0)
    for _ in range(20):
        out = sample_chain(base20, 0.05, rng)
        assert np.all(out.bulk >= 0.95) and np.all(out.bulk <= 1.05)
        assert out.delta1 == base20.delta1 and out.delta2 == base20.delta2


def test_sample_chain_deterministic(base20):
    a = sample_chain(base20, 0.05, np.random.default_rng(42))
    b = sample_chain(base20, 0.05, np.random.default_rng(42))
    assert np.all(a.bulk == b.bulk)


def sample(base, t0, eps, n_chains, seed):
    return sample_line_params(base, t0, eps, n_chains=n_chains, seed=seed)


def test_param_statistics_zero_epsilon(base20, tuned20_params):
    study = param_statistics(tuned20_params, sample(base20, tuned20_params.t0, 0.0, 3, 9))
    assert study.std.shape == (tuned20_params.n_entries,)
    assert np.all(study.std == 0.0)
    assert np.array_equal(study.mean, tuned20_params.entries)
    assert np.all(study.shift == 0.0)


def test_param_statistics_spread_grows_with_epsilon(base20, tuned20_params):
    t0 = tuned20_params.t0
    lo = param_statistics(tuned20_params, sample(base20, t0, 0.025, 40, 5))
    hi = param_statistics(tuned20_params, sample(base20, t0, 0.05, 40, 5))
    grew = np.sum(hi.std > lo.std)
    assert grew >= 0.9 * lo.std.size


def test_family_i_means_shift_down(base20, tuned20_params):
    study = param_statistics(tuned20_params, sample(base20, tuned20_params.t0, 0.05, 40, 5))
    fam1 = entry_families(tuned20_params.n_sender) == "I"
    assert np.all(np.abs(study.mean[fam1]) < np.abs(study.reference.entries[fam1]))


def test_study_determinism(base20, tuned20_params):
    a = param_statistics(tuned20_params, sample(base20, tuned20_params.t0, 0.05, 6, 77))
    b = param_statistics(tuned20_params, sample(base20, tuned20_params.t0, 0.05, 6, 77))
    assert np.array_equal(a.mean, b.mean) and np.array_equal(a.std, b.std)


def test_study_arrays_are_reductions_of_the_sample(base20, tuned20_params):
    chains = sample(base20, tuned20_params.t0, 0.05, 7, 13)
    study = param_statistics(tuned20_params, chains)
    assert study.n_chains == 7 and study.reference is tuned20_params
    for j in (0, 5, 13, 37, 61, 97, 133, 169):
        values = chains.entries[:, j]
        assert study.mean[j] == pytest.approx(np.mean(values), rel=1e-13, abs=1e-16)
        # numpy's std of a complex array is the |P - <P>| convention
        assert study.std[j] == pytest.approx(np.std(values, ddof=1), rel=1e-12, abs=1e-16)
        assert study.std_re[j] == pytest.approx(np.std(values.real, ddof=1), rel=1e-12,
                                                abs=1e-16)
        assert study.std_im[j] == pytest.approx(np.std(values.imag, ddof=1), rel=1e-12,
                                                abs=1e-16)
        assert study.shift[j] == study.mean[j] - tuned20_params.entries[j]


def test_sample_prefix_is_stable(base20, tuned20_params):
    # chain i is row i of one seeded draw: a larger sample starts with the smaller one
    short = sample(base20, tuned20_params.t0, 0.05, 3, 4)
    long = sample(base20, tuned20_params.t0, 0.05, 5, 4)
    assert long.shape == (5,)
    assert np.array_equal(long.entries[:3], short.entries)


def chains_per_block(monkeypatch, n_chains, chain_bytes):
    """Set the shared block budget to ``n_chains`` chains of ``chain_bytes`` each."""
    monkeypatch.setattr(dynamics, "BLOCK_BYTES", n_chains * chain_bytes)


def count_blocks(monkeypatch):
    """The stacks that werner_robustness passes to assemble_rho, as a list
    that fills as it runs."""
    stacks = []

    def counted(params, x):
        stacks.append(params.shape)
        return sl.assemble_rho(params, x)

    monkeypatch.setattr(disorder, "assemble_rho", counted)
    return stacks


@pytest.mark.parametrize("n, n_sender, n_chains", [
    (7, 3, 5), (7, 5, 35), (12, 4, 6), (20, 4, 7), (20, 5, 4),
])
def test_stacked_sample_matches_per_chain_oracle(monkeypatch, n, n_sender, n_chains):
    # the oracle diagonalizes and evaluates each chain on its own; the
    # stack must give the same bits, across a block boundary too
    chains_per_block(monkeypatch, 32, dynamics.SOLVE_BYTES * n**2)
    base = ChainSpec(n_nodes=n, delta1=0.6, delta2=0.85)
    t0, eps, seed = 1.3 * n, 0.05, 11
    stacked = sample_line_params(base, t0, eps, n_chains=n_chains, seed=seed, n_sender=n_sender)
    assert stacked.shape == (n_chains,) and stacked.n_sender == n_sender
    rng = np.random.default_rng(seed)
    for i in range(n_chains):
        chain = sample_chain(base, eps, rng)
        oracle = sl.line_params_at(sl.diagonalize(chain), t0, n_sender)
        for kind in KINDS:
            assert np.array_equal(getattr(stacked, kind)[i], getattr(oracle, kind)), (i, kind)
        assert np.array_equal(stacked[i].entries, oracle.entries)


def test_sample_does_not_depend_on_chain_block(monkeypatch, base20, tuned20_params):
    # blocks of one chain, of 7, one block for the whole sample, and the
    # default blocks give the same bits
    t0, n_chains = tuned20_params.t0, 37
    default = sample(base20, t0, 0.05, n_chains, 3)
    for block in (1, 7, n_chains, n_chains + 4):
        chains_per_block(monkeypatch, block, dynamics.SOLVE_BYTES * 20**2)
        assert np.array_equal(sample(base20, t0, 0.05, n_chains, 3).entries, default.entries)


def test_values_follow_param_index(tuned20_params):
    entries, keys = tuned20_params.entries, param_index(tuned20_params.n_sender)
    assert entries.shape == (tuned20_params.n_entries,) == (len(keys),)
    for j, key in enumerate(keys):
        assert tuned20_params.get(*key) == entries[j]


def test_stacked_robustness_matches_per_chain_oracle(monkeypatch, base20, tuned20_params,
                                                     controls):
    chains = sample(base20, tuned20_params.t0, 0.05, 10, 6)
    p, x = controls
    chains_per_block(monkeypatch, 4, 16 * p.size * len(chains.pairs) ** 2)
    stacks = count_blocks(monkeypatch)
    targets = np.array([sl.werner_target(q) for q in p])
    # the oracle contracts each chain's receiver operator with x x^H
    deltas = np.array([
        sl.discrepancy(np.einsum("abij,ci,cj->cab", receiver_operator(chains[i]), x, x.conj()),
                       targets)
        for i in range(10)
    ])
    robustness = werner_robustness(chains, p, x)
    assert stacks == [(4,), (4,), (2,)]
    assert robustness.p.tolist() == p.tolist()
    std = (deltas - deltas[0]).std(axis=0, ddof=1)
    for j in range(len(p)):
        assert robustness.mean[j] == pytest.approx(deltas[:, j].mean(), rel=0, abs=1e-14)
        assert robustness.std[j] == pytest.approx(std[j], rel=0, abs=1e-14)
        assert robustness.sem[j] == pytest.approx(std[j] / np.sqrt(10), rel=0, abs=1e-14)


def test_robustness_does_not_depend_on_the_block_budget(monkeypatch, base20, tuned20_params,
                                                       controls):
    # one chain per block gives the bits of the default blocks
    chains = sample(base20, tuned20_params.t0, 0.05, 40, 6)
    stacks = count_blocks(monkeypatch)
    default = werner_robustness(chains, *controls)
    assert stacks == [(40,)]
    monkeypatch.setattr(dynamics, "BLOCK_BYTES", 1)
    one_by_one = werner_robustness(chains, *controls)
    assert stacks[1:] == [(1,)] * 40
    for got, want in zip(one_by_one, default):
        assert np.array_equal(got, want)


def test_robustness_follows_the_order_of_controls(base20, tuned20_params, controls):
    chains = sample(base20, tuned20_params.t0, 0.05, 6, 8)
    p, x = controls
    forward = werner_robustness(chains, p, x)
    order = [0.8, 0.0, 0.4]
    perm = [p.tolist().index(q) for q in order]
    backward = werner_robustness(chains, p[perm], x[perm])
    assert backward.p.tolist() == order
    for name in ("mean", "std", "sem"):
        np.testing.assert_allclose(getattr(backward, name), getattr(forward, name)[perm],
                                   rtol=1e-12, atol=0, err_msg=name)


def test_sample_epsilon_must_stay_below_one(base20):
    # 1 + eps * u with u in [-1, 1) reaches zero or below for eps >= 1
    for eps in (1.0, 1.05, -0.01):
        with pytest.raises(InputError, match="epsilon"):
            sample_line_params(base20, 26.4, eps, n_chains=2, seed=1)


def test_stack_failure_names_the_chain(monkeypatch, base20):
    svd, calls = np.linalg.svd, []

    def faulty(m):
        u, s, wt = svd(m)
        calls.append(m.shape)
        if len(calls) == 2:
            s[1, 0] += 1e-6  # chain 1 of the second block
        return u, s, wt

    chains_per_block(monkeypatch, 2, dynamics.SOLVE_BYTES * 20**2)
    monkeypatch.setattr(np.linalg, "svd", faulty)
    with pytest.raises(NumericalError, match="^chain 3: eigendecomposition reconstruction") \
            as err:
        sample_line_params(base20, 26.4, 0.05, n_chains=5, seed=1)
    assert err.value.chain == 3
    assert calls == [(2, 10, 10)] * 2


def test_stack_whose_eigensolve_fails_raises_numerical_error():
    # a boundary coupling of 1e248 leaves a reconstruction error far above
    # the tolerance in every chain; the check names the first
    base = ChainSpec(12, delta1=1e248, delta2=0.817)
    with pytest.raises(NumericalError,
                       match="^chain 0: eigendecomposition reconstruction error") as err:
        sample_line_params(base, 5.0, 0.05, n_chains=2)
    assert err.value.chain == 0


def test_stack_hermitian_check_names_the_chain(monkeypatch, base20):
    monkeypatch.setattr(sl.receiver, "SYMMETRY_TOL", -1.0)
    with pytest.raises(NumericalError, match="^chain 0: P_mm Hermitian symmetry"):
        sample_line_params(base20, 26.4, 0.05, n_chains=3, seed=1)


def test_sample_needs_two_chains(base20):
    with pytest.raises(ValueError):
        sample_line_params(base20, 26.4, 0.05, n_chains=1)


@pytest.fixture(scope="module")
def controls(tuned20_params):
    """Werner p and their control vectors (P, d), as solve_werner returns them."""
    p = np.array([0.0, 0.4, 0.8])
    return p, np.array([sl.solve_werner(tuned20_params, [q]).x[0] for q in p.tolist()])


def test_robustness_zero_epsilon_matches_unperturbed(base20, tuned20_params, controls):
    robustness = werner_robustness(sample(base20, tuned20_params.t0, 0.0, 3, 1), *controls)
    for p, x, mean, std in zip(robustness.p.tolist(), controls[1], robustness.mean,
                               robustness.std):
        rho = sl.assemble_rho(tuned20_params, x)
        exact = sl.discrepancy(rho, sl.werner_target(p))
        assert mean == pytest.approx(exact, abs=1e-14)
        assert std == 0.0


def test_robustness_needs_one_control_vector_per_p(base20, tuned20_params, controls):
    # one p for three vectors would broadcast its one target over all three
    p, x = controls
    chains = sample(base20, tuned20_params.t0, 0.05, 2, 1)
    with pytest.raises(SizeMismatchError, match=r"\(3,\) control vectors for \(1,\) Werner p"):
        werner_robustness(chains, p[:1], x)


def test_robustness_grows_with_epsilon(base20, tuned20_params, controls):
    t0 = tuned20_params.t0
    lo = werner_robustness(sample(base20, t0, 0.025, 30, 2), *controls)
    hi = werner_robustness(sample(base20, t0, 0.05, 30, 2), *controls)
    assert np.all(hi.mean > lo.mean)


def test_csv_exports(tmp_path, base20, tuned20_params, controls, csv_oracle):
    # the bytes of both tables are those of the stdlib csv.writer recipe
    chains = sample(base20, tuned20_params.t0, 0.05, 4, 3)
    study = param_statistics(tuned20_params, chains)
    p1 = tmp_path / "stats.csv"
    export_param_stats_csv(study, p1, header_lines=["cfg"])
    lines = p1.read_text().splitlines()
    assert lines[0] == "# cfg"
    assert len(lines) == 2 + 170
    columns = zip(param_index(4), entry_families(4), study.mean, study.std, study.std_re,
                  study.std_im, study.shift)
    rows = [[j, kind, ";".join(map(str, idx)), family, mean.real, mean.imag, std, std_re,
             std_im, shift.real, shift.imag, np.abs(shift)]
            for j, ((kind, idx), family, mean, std, std_re, std_im, shift) in enumerate(columns)]
    assert p1.read_bytes() == csv_oracle(
        ["cfg"], ["index", "kind", "indices", "family", "mean_re", "mean_im", "std", "std_re",
                  "std_im", "shift_re", "shift_im", "shift_abs"], rows)
    robustness = werner_robustness(chains, *controls)
    p2 = tmp_path / "rob.csv"
    export_robustness_csv(robustness, p2)
    lines = p2.read_text().splitlines()
    assert lines[0] == "p,mean_delta,std_delta,sem_delta"
    assert len(lines) == 1 + len(controls[0])
    assert p2.read_bytes() == csv_oracle(
        [], ["p", "mean_delta", "std_delta", "sem_delta"], zip(*robustness))
