from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import spinline as sl
from spinline.basis import SenderState, sender_pairs
from spinline.errors import NumericalError, SizeMismatchError
from spinline.hamiltonian import ChainSpec, apply_disorder
from spinline.receiver import (
    FAMILY_I,
    FAMILY_II,
    KINDS,
    LineParams,
    check_receiver,
    entry_families,
    export_params_csv,
    import_params_csv,
    param_index,
    write_table,
)
from spinline.verification import partial_trace_oracle


def test_entry_census(tuned20_params):
    assert tuned20_params.n_entries == 170
    kinds = {}
    for kind, _, _ in tuned20_params.items():
        kinds[kind] = kinds.get(kind, 0) + 1
    assert kinds == {
        "p_N": 4, "p_Nm1": 4, "p_pair": 6,
        "P_Nm1": 24, "P_N": 24, "P_mm": 36, "P_mN": 36, "P_NN": 36,
    }


def _chains(n_sender, n_chains=3):
    """Line parameters of a few disordered 9-node chains, stacked and one by one."""
    base = ChainSpec(n_nodes=9, delta1=0.6, delta2=0.85)
    deltas = np.random.default_rng(n_sender).uniform(-1, 1, (n_chains, base.bulk.size))
    stacked = sl.line_params_at(sl.diagonalize(apply_disorder(base, 0.1, deltas)), 7.0, n_sender)
    singles = [sl.line_params_at(sl.diagonalize(apply_disorder(base, 0.1, d)), 7.0, n_sender)
               for d in deltas]
    return stacked, singles


def _array_index(kind, idx, n_sender):
    # 1-based labels to array indices, spelled out per kind
    pair = sender_pairs(n_sender).index
    if kind in ("p_N", "p_Nm1"):
        return (idx[0] - 1,)
    if kind == "p_pair":
        return (pair(idx),)
    if kind in ("P_Nm1", "P_N"):
        return (idx[0] - 1, pair(idx[1:]))
    return (pair(idx[:2]), pair(idx[2:]))


@pytest.mark.parametrize("n_sender", [3, 4, 5])
def test_kind_views_are_entries_at_param_index_positions(n_sender):
    params, _ = _chains(n_sender)
    n_pairs = len(sender_pairs(n_sender))
    assert params.entries.shape == (3, 2 * n_sender + n_pairs + 2 * n_sender * n_pairs
                                    + 3 * n_pairs ** 2)
    for kind in KINDS:
        view = getattr(params, kind)
        assert np.shares_memory(view, params.entries), kind
        assert view.shape[0] == 3
    for j, (kind, idx) in enumerate(param_index(n_sender)):
        view = getattr(params, kind)
        assert np.array_equal(view[(slice(None), *_array_index(kind, idx, n_sender))],
                              params.entries[:, j]), (kind, idx)


@pytest.mark.parametrize("n_sender", [3, 4, 5])
def test_from_kinds_round_trips_the_kind_arrays(n_sender):
    params, _ = _chains(n_sender)
    rng = np.random.default_rng(5)
    kinds = {kind: rng.standard_normal(getattr(params, kind).shape)
             + 1j * rng.standard_normal(getattr(params, kind).shape) for kind in KINDS}
    built = LineParams.from_kinds(2.5, **kinds)
    assert (built.n_sender, built.t0, built.shape) == (n_sender, 2.5, (3,))
    for kind in KINDS:
        assert np.array_equal(getattr(built, kind), kinds[kind]), kind
    again = LineParams.from_kinds(params.t0, **{kind: getattr(params, kind) for kind in KINDS})
    assert np.array_equal(again.entries, params.entries)


@pytest.mark.parametrize("n_sender", [3, 4, 5])
def test_stack_index_is_the_single_chain_set(n_sender):
    stacked, singles = _chains(n_sender)
    for i, single in enumerate(singles):
        chain = stacked[i]
        assert (chain.n_sender, chain.t0, chain.shape) == (single.n_sender, single.t0, ())
        assert np.array_equal(chain.entries, single.entries), i
        for kind in KINDS:
            assert np.array_equal(getattr(chain, kind), getattr(single, kind)), (i, kind)


@pytest.mark.parametrize("n_sender", [2, 3, 4, 5])
def test_sender_size_follows_the_entry_count(n_sender):
    params = sl.line_params_at(sl.diagonalize(ChainSpec.uniform(9)), 7.0, n_sender)
    assert params.n_entries == len(param_index(n_sender))
    assert params.n_sender == n_sender
    assert LineParams(t0=7.0, entries=params.entries).n_sender == n_sender
    assert LineParams(t0=7.0, entries=np.stack([params.entries] * 2)).n_sender == n_sender


@pytest.mark.parametrize("count", [0, 1, 11, 13, 53, 169, 171, 419])
def test_entry_count_that_fits_no_sender_is_refused(count):
    with pytest.raises(SizeMismatchError, match=f"^{count} parameter entries fit no sender size"):
        LineParams(t0=1.0, entries=np.zeros(count, complex))


def test_pair_exchange_symmetry(tuned20_params):
    for M in (tuned20_params.P_mm, tuned20_params.P_NN):
        assert np.max(np.abs(M - M.conj().T)) < 1e-12


def test_magnitudes_bounded(tuned20_params):
    assert all(abs(v) <= 1 + 1e-10 for _, _, v in tuned20_params.items())


def test_spot_values_n20(tuned20_params):
    p = tuned20_params
    assert p.get("p_N", (1,)) == pytest.approx(0.99606j, abs=1e-4)
    assert p.get("P_mm", (2, 3, 2, 3)) == pytest.approx(0.93561, abs=1e-4)
    assert p.get("p_Nm1", (4,)) == pytest.approx(-0.08929j, abs=1e-4)
    assert p.get("p_Nm1", (1,)) == pytest.approx(-1.007e-4, abs=2e-5)


def test_sender_receiver_overlap_rejected():
    spectral = sl.diagonalize(ChainSpec.uniform(5))
    with pytest.raises(SizeMismatchError):
        sl.line_params_at(spectral, 1.0, n_sender=4)


def test_vacuum_receiver_state(tuned20_params):
    rho = sl.assemble_rho(tuned20_params, SenderState.vacuum())
    assert np.allclose(rho, np.diag([1.0, 0, 0, 0]))


def test_receiver_state_before_arrival(tuned20, rng):
    # sender support is disjoint from the receiver, so at t=0 nothing is there
    rho = partial_trace_oracle(SenderState.random(rng), tuned20, 0.0)
    assert np.allclose(rho, np.diag([1.0, 0, 0, 0]), atol=1e-12)


def test_single_excitation_transfer_population(tuned20, tuned20_params):
    x = np.zeros(11, complex)
    x[1] = 1.0  # a_single[0]: node 1 excited
    rho = sl.assemble_rho(tuned20_params, SenderState(x))
    assert rho[2, 2].real == pytest.approx(0.99606 ** 2, abs=1e-3)


@pytest.mark.parametrize("n", [7, 10, 20])
def test_oracle_equivalence(n, rng):
    base = ChainSpec.uniform(n)
    specs = [base, apply_disorder(base, 0.1, rng.uniform(-1, 1, base.bulk.size))]
    for spec in specs:
        spectral = sl.diagonalize(spec)
        for t in rng.uniform(0.3, 2.5, 2) * n:
            params = sl.line_params_at(spectral, t)
            for _ in range(10):
                state = SenderState.random(rng)
                direct = sl.assemble_rho(params, state)
                oracle = partial_trace_oracle(state, spectral, t)
                assert np.linalg.norm(direct - oracle) < 1e-10


def test_receiver_state_is_physical(tuned20, rng):
    for _ in range(10):
        state = SenderState.random(rng)
        check_receiver(partial_trace_oracle(state, tuned20, 19.0))


def test_unphysical_receiver_state_rejected():
    rho = np.diag([1.0, 0, 0, 0]).astype(complex)
    rho[0, 1] = 0.1
    with pytest.raises(NumericalError, match="not Hermitian"):
        check_receiver(rho)


def test_family_lists_sizes():
    assert len(FAMILY_I) == 13
    assert len(set(FAMILY_I)) == 13
    assert len(FAMILY_II) == 14
    assert len(set(FAMILY_II)) == 14
    assert not set(FAMILY_I) & set(FAMILY_II)


def test_family_classification(tuned20_params):
    families = entry_families(tuned20_params.n_sender)
    assert np.sum(families == "I") == 13
    assert np.sum(families == "II") == 14
    assert np.sum(families == "III") == 143
    ranges = sl.classify_families(tuned20_params)
    lo1, _ = ranges["I"]
    lo2, hi2 = ranges["II"]
    _, hi3 = ranges["III"]
    # the three families are separated by magnitude gaps
    assert hi3 < lo2 < hi2 < lo1


def test_family_windows_n20(tuned20_params):
    ranges = sl.classify_families(tuned20_params)
    assert ranges["I"] == pytest.approx((0.9356, 0.9961), abs=5e-4)
    assert ranges["II"] == pytest.approx((0.0635, 0.0893), abs=5e-4)
    assert ranges["III"][1] < 0.0193 + 5e-5


def test_disjoint_pair_transfer_vanishes(tuned20_params):
    # entries coupling pairs with four distinct sender nodes are exact zeros
    # (nearest-neighbor couplings plus mirror symmetry)
    for kl, nm in [((1, 2), (3, 4)), ((1, 3), (2, 4)), ((1, 4), (2, 3))]:
        assert abs(tuned20_params.get("P_mN", kl + nm)) < 1e-12
        assert abs(tuned20_params.get("P_mN", nm + kl)) < 1e-12


def test_csv_round_trip(tmp_path, tuned20_params):
    path = tmp_path / "params.csv"
    export_params_csv(tuned20_params, path, header_lines=["demo"])
    loaded = import_params_csv(path)
    assert loaded.t0 == tuned20_params.t0
    dev = max(
        abs(a[2] - b[2]) for a, b in zip(tuned20_params.items(), loaded.items())
    )
    assert dev < 1e-11  # 13 significant digits in the export
    text = path.read_text()
    assert text.startswith("# demo")
    assert "kind,indices,re,im,family" in text


def test_csv_export_refuses_a_stack(tmp_path):
    # a table holds one set: the rows of a stack would be array reprs
    stacked, _ = _chains(4, n_chains=2)
    path = tmp_path / "params.csv"
    with pytest.raises(SizeMismatchError, match=r"one set, not a stack of \(2,\)"):
        export_params_csv(stacked, path)
    assert not path.exists()


def test_family_windows_refuse_a_stack():
    # the windows are of one set; a stack is refused before any work
    stacked, singles = _chains(4, n_chains=2)
    with pytest.raises(SizeMismatchError, match=r"one set, not a stack of \(2,\)"):
        sl.classify_families(stacked)
    assert set(sl.classify_families(singles[0])) == {"I", "II", "III"}


def test_write_table_formats_every_float_and_nothing_else(tmp_path):
    path = tmp_path / "table.csv"
    write_table(path, ["config: {}", "t0: 1.5"], ["index", "kind", "np", "py"],
                [[7, "P_mN", np.float64(-0.1), 2.5]])
    assert path.read_bytes() == (b"# config: {}\n# t0: 1.5\nindex,kind,np,py\r\n"
                                 b"7,P_mN,-1.000000000000e-01,2.500000000000e+00\r\n")


@st.composite
def random_line_params(draw):
    """A LineParams of a 3- to 5-node sender with arbitrary finite entries."""
    n_sender = draw(st.integers(3, 5))
    shaped = sl.line_params_at(sl.diagonalize(ChainSpec.uniform(7)), 1.0, n_sender)
    entries = st.complex_numbers(max_magnitude=1e3, allow_nan=False, allow_infinity=False)
    return replace(
        shaped,
        t0=draw(st.floats(0.0, 1e3)),
        entries=draw(arrays(complex, shaped.entries.shape, elements=entries)),
    )


@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(params=random_line_params())
def test_csv_round_trip_of_random_params(tmp_path_factory, params):
    first, second = (tmp_path_factory.mktemp("csv") / "params.csv" for _ in range(2))
    export_params_csv(params, first, header_lines=["random"])
    loaded = import_params_csv(first)
    export_params_csv(loaded, second, header_lines=["random"])
    assert second.read_bytes() == first.read_bytes()
    assert (loaded.n_sender, loaded.t0) == (params.n_sender, params.t0)
    # .12e keeps 13 significant digits: half a unit of the 13th, plus the
    # rounding of the decimal back to binary
    want, got = params.entries, loaded.entries
    for part in (np.real, np.imag):
        np.testing.assert_allclose(part(got), part(want), rtol=5.01e-13, atol=0)
