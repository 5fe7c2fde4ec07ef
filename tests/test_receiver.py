from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import spinline as sl
from spinline.basis import random_controls, sender_pairs
from spinline.errors import InputError, NumericalError, SizeMismatchError
from spinline.hamiltonian import ChainSpec, apply_disorder
from spinline import receiver
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
    receiver_operator,
    write_table,
)
from spinline.verification import FULL_SPACE_TOL, full_space_receiver, partial_trace_oracle


def test_entry_census(tuned20_params):
    assert tuned20_params.n_entries == 170
    kinds = {}
    for kind, _ in param_index(tuned20_params.n_sender):
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


def test_entry_count_of_a_sender_above_the_bound_is_refused():
    # 1652 entries are a 7-node layout, which check_sender and the table
    # reader refuse; 882 are the largest sender's
    assert len(param_index(receiver.MAX_SENDER + 1)) == 1652
    with pytest.raises(SizeMismatchError,
                       match="^1652 parameter entries fit no sender size of 2 to 6 nodes$"):
        LineParams(t0=1.0, entries=np.zeros(1652, complex))
    assert LineParams(t0=1.0, entries=np.zeros(882, complex)).n_sender == receiver.MAX_SENDER


def test_pair_exchange_symmetry(tuned20_params):
    for M in (tuned20_params.P_mm, tuned20_params.P_NN):
        assert np.max(np.abs(M - M.conj().T)) < 1e-12


def test_magnitudes_bounded(tuned20_params):
    assert np.all(np.abs(tuned20_params.entries) <= 1 + 1e-10)


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
    rho = sl.assemble_rho(tuned20_params, np.eye(11)[0])
    assert np.allclose(rho, np.diag([1.0, 0, 0, 0]))


def test_receiver_state_before_arrival(tuned20, rng):
    # sender support is disjoint from the receiver, so at t=0 nothing is there
    rho = partial_trace_oracle(random_controls(rng), tuned20, 0.0)
    assert np.allclose(rho, np.diag([1.0, 0, 0, 0]), atol=1e-12)


def test_single_excitation_transfer_population(tuned20, tuned20_params):
    x = np.zeros(11, complex)
    x[1] = 1.0  # a_single[0]: node 1 excited
    rho = sl.assemble_rho(tuned20_params, x)
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
                x = random_controls(rng)
                direct = sl.assemble_rho(params, x)
                oracle = partial_trace_oracle(x, spectral, t)
                assert np.linalg.norm(direct - oracle) < 1e-10


def test_receiver_state_is_physical(tuned20, rng):
    for _ in range(10):
        check_receiver(partial_trace_oracle(random_controls(rng), tuned20, 19.0))


@pytest.mark.parametrize("n", [8, 9, 10])
def test_vacuum_amplitude_keeps_its_phase(n, rng):
    # a0 is complex like the other amplitudes: its phase against the single
    # amplitudes shows in the coherences rho[0, k]
    base = ChainSpec(n_nodes=n, delta1=rng.uniform(0.4, 1.1), delta2=rng.uniform(0.4, 1.1))
    spec = apply_disorder(base, 0.1, rng.uniform(-1, 1, base.bulk.size))
    spectral, t = sl.diagonalize(spec), rng.uniform(0.5, 2.5) * n
    params = sl.line_params_at(spectral, t)
    x = random_controls(rng)
    x[0] *= np.exp(0.7j)
    rho = sl.assemble_rho(params, x)
    assert abs(np.trace(rho) - 1.0) < FULL_SPACE_TOL
    assert np.max(np.abs(rho - partial_trace_oracle(x, spectral, t))) < FULL_SPACE_TOL
    assert np.max(np.abs(rho - full_space_receiver(x, spec, t))) < FULL_SPACE_TOL
    real = np.concatenate(([abs(x[0])], x[1:]))
    assert np.max(np.abs(rho - sl.assemble_rho(params, real))) > 1e-3


def test_imaginary_vacuum_amplitude_is_the_vacuum(tuned20, tuned20_params):
    x = np.zeros(11, complex)
    x[0] = 1j
    vacuum = np.diag([1.0, 0, 0, 0])
    assert np.array_equal(sl.assemble_rho(tuned20_params, x), vacuum)
    assert np.array_equal(partial_trace_oracle(x, tuned20, 11.0), vacuum)


def test_stacked_controls_match_each_vector(tuned20_params, rng):
    xs = np.array([random_controls(rng) for _ in range(6)]).reshape(2, 3, 11)
    rho = sl.assemble_rho(tuned20_params, xs)
    assert rho.shape == (2, 3, 4, 4)
    for idx in np.ndindex(2, 3):
        np.testing.assert_allclose(rho[idx], sl.assemble_rho(tuned20_params, xs[idx]),
                                   rtol=0, atol=1e-14)


def _operator_oracle(params, x):
    """rho = sum_ij K[a, b, i, j] x_i conj(x_j) by einsum, in extended
    precision, so that at five sender nodes the oracle's own rounding over
    d^2 = 256 terms stays far below the tolerance."""
    K = receiver_operator(params).astype(np.clongdouble)
    xs = np.asarray(x, np.clongdouble).reshape(-1, K.shape[-1])
    rho = np.einsum("sabij,ci,cj->scab", K.reshape(-1, *K.shape[-4:]), xs, xs.conj())
    return rho.astype(complex).reshape(params.shape + np.shape(x)[:-1] + (4, 4))


@pytest.mark.parametrize("n_sender", [2, 3, 4, 5])
def test_receiver_matrices_match_the_receiver_operator(n_sender):
    # no library path contracts K any more; the oracle contracts it with
    # x x^H, for stacked and single params and controls
    stacked, singles = _chains(n_sender)
    rng = np.random.default_rng(n_sender)
    xs = np.array([random_controls(rng, n_sender) for _ in range(5)])
    np.testing.assert_allclose(sl.assemble_rho(stacked, xs), _operator_oracle(stacked, xs),
                               rtol=0, atol=1e-15)
    for params, x in zip(singles, xs):
        np.testing.assert_allclose(sl.assemble_rho(params, x), _operator_oracle(params, x),
                                   rtol=0, atol=1e-15)
        np.testing.assert_allclose(sl.assemble_rho(params, xs), _operator_oracle(params, xs),
                                   rtol=0, atol=1e-15)


def test_receiver_matrices_do_not_depend_on_the_stack(tuned20_params):
    # chain i alone, in a stack of 2 and in one of 33, and each control
    # alone and among nine, give the same bits
    chains = sl.sample_line_params(sl.ChainSpec(20, 0.55, 0.817), tuned20_params.t0, 0.05,
                                   n_chains=33, seed=2)
    xs = np.array([random_controls(np.random.default_rng(c)) for c in range(9)])
    full = sl.assemble_rho(chains, xs)
    assert full.shape == (33, 9, 4, 4)
    for i in range(33):
        pair = sl.assemble_rho(chains[i:i + 2] if i < 32 else chains[i - 1:], xs)
        alone = sl.assemble_rho(chains[i], xs)
        assert np.array_equal(pair[0 if i < 32 else 1], full[i]), i
        assert np.array_equal(alone, full[i]), i
        for c in range(9):
            assert np.array_equal(sl.assemble_rho(chains[i], xs[c]), full[i, c]), (i, c)


@pytest.mark.parametrize("d", [10, 16], ids=["fits-no-sender", "five-nodes-on-six"])
def test_control_vector_that_does_not_fit_is_refused(d):
    # on a six-node chain the sender has at most four nodes (d = 11)
    spec = ChainSpec.uniform(6)
    spectral = sl.diagonalize(spec)
    x = np.eye(d)[0]
    for receiver in (lambda: sl.assemble_rho(sl.line_params_at(spectral, 1.0), x),
                     lambda: partial_trace_oracle(x, spectral, 1.0),
                     lambda: full_space_receiver(x, spec, 1.0)):
        with pytest.raises(SizeMismatchError):
            receiver()
    with pytest.raises(SizeMismatchError, match=r"shape \(2, 11\) fit no sender"):
        partial_trace_oracle(np.eye(11)[:2], spectral, 1.0)


def test_unphysical_receiver_state_rejected():
    rho = np.diag([1.0, 0, 0, 0]).astype(complex)
    rho[0, 1] = 0.1
    with pytest.raises(NumericalError, match="not Hermitian"):
        check_receiver(rho)


@pytest.mark.parametrize("rho, message", [
    (np.full((4, 4), np.nan, complex), "not Hermitian: nan"),  # no LinAlgError from eigvalsh
    (np.diag([0.5, 0.25, 0.25, 0.5]).astype(complex), "trace off by 5.000e-01"),
    (np.diag([1.5, 0.0, 0.0, -0.5]).astype(complex), "not PSD: eigenvalue below zero by 5.000e-01"),
])
def test_receiver_check_fails_on_nan_trace_and_negative_eigenvalues(rho, message):
    with pytest.raises(NumericalError, match=message):
        check_receiver(rho)


@pytest.mark.parametrize("label, value", [("p_Nm1;1", 1e308), ("p_pair;1;2", 1e308),
                                          ("P_mm;1;2;1;2", 1.00001)])
def test_import_refuses_an_entry_above_one(tmp_path, tuned20_params, label, value):
    # every entry sums products of partial columns of a unitary, so none
    # exceeds 1; a larger one ended in a LinAlgError of the Werner solver
    head, rows = _table(tmp_path, tuned20_params)
    kind, idx = label.split(";", 1)
    row = next(i for i, r in enumerate(rows) if r.startswith(f"{kind},{idx},"))
    cells = rows[row].split(",")
    rows[row] = ",".join(cells[:2] + [repr(value)] + cells[3:])
    (tmp_path / "big.csv").write_text("".join(head + rows))
    with pytest.raises(InputError, match=f"entry {label} = .* exceeds 1 \\+ 1e-09 in magnitude"):
        import_params_csv(tmp_path / "big.csv")


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
    dev = np.max(np.abs(loaded.entries - tuned20_params.entries))
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
    write_table(path, ["config: {}", "t0: 1.5"], ["index", "kind", "np", "py", "npint", "mixed"],
                [[7], ["P_mN"], np.array([-0.1]), [2.5], np.array([3]), (np.float64(0.25),)])
    assert path.read_bytes() == (b"# config: {}\n# t0: 1.5\nindex,kind,np,py,npint,mixed\r\n"
                                 b"7,P_mN,-1.000000000000e-01,2.500000000000e+00,3,"
                                 b"2.500000000000e-01\r\n")


@st.composite
def random_line_params(draw):
    """A LineParams of a 3- to 5-node sender with arbitrary entries of
    magnitude at most 1, all that a table may hold."""
    n_sender = draw(st.integers(3, 5))
    shaped = sl.line_params_at(sl.diagonalize(ChainSpec.uniform(7)), 1.0, n_sender)
    entries = st.complex_numbers(max_magnitude=1, allow_nan=False, allow_infinity=False)
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


# finite floats, signed zeros and magnitudes near 1e+-300 among them
FLOATS = st.one_of(st.sampled_from([0.0, -0.0, 1e300, -1e300, 1e-300, -1e-300]),
                   st.floats(allow_nan=False, allow_infinity=False))
# parts of the entries a table may hold, of magnitude at most 1
ENTRY_FLOATS = st.one_of(st.sampled_from([0.0, -0.0, 0.7, -0.7, 1e-300, -1e-300]),
                         st.floats(-0.7, 0.7))


@st.composite
def table_params(draw, floats=FLOATS, entry_floats=None):
    """A LineParams of a 2- to 5-node sender with t0 from ``floats`` and the
    parts of its entries from ``entry_floats`` (``floats`` if not given)."""
    n_entries = len(param_index(draw(st.integers(2, 5))))
    entries = np.empty(n_entries, complex)
    parts = floats if entry_floats is None else entry_floats
    entries.real, entries.imag = draw(arrays(float, (2, n_entries), elements=parts))
    return LineParams(t0=draw(floats), entries=entries)


def _signed_zeros():
    # every part a signed zero, the imaginary ones negative
    return LineParams(t0=-0.0, entries=np.full(len(param_index(2)), complex(0.0, -0.0)))


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@example(params=_signed_zeros())
@given(params=table_params())
def test_params_table_bytes_match_the_stdlib_writer(tmp_path_factory, csv_oracle, params):
    path = tmp_path_factory.mktemp("csv") / "params.csv"
    comments = ['config: {"out": "a,b.csv"}', f"t0: {params.t0!r}"]
    export_params_csv(params, path, header_lines=comments[:1])
    rows = [[kind, ";".join(map(str, idx)), value.real, value.imag, family]
            for (kind, idx), value, family in zip(param_index(params.n_sender), params.entries,
                                                  entry_families(params.n_sender))]
    assert path.read_bytes() == csv_oracle(
        comments, ["kind", "indices", "re", "im", "family"], rows)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@example(params=_signed_zeros())
@given(params=table_params(*(floats.map(lambda v: float(f"{v:.12e}"))
                              for floats in (FLOATS, ENTRY_FLOATS))))
def test_csv_round_trip_is_bitwise(tmp_path_factory, params):
    # entries that .12e writes exactly, and t0 (written as repr), read back
    # bit for bit, signs of zeros included
    path = tmp_path_factory.mktemp("csv") / "params.csv"
    export_params_csv(params, path)
    loaded = import_params_csv(path)
    assert np.float64(loaded.t0).tobytes() == np.float64(params.t0).tobytes()
    assert loaded.entries.tobytes() == params.entries.tobytes()


def _table(tmp_path, params):
    """The comment and header lines, and the data rows, of the exported ``params``."""
    path = tmp_path / "params.csv"
    export_params_csv(params, path)
    lines = path.read_text().splitlines(keepends=True)
    return lines[:2], lines[2:]


def _relabel(row, pattern):
    kind, idx, rest = row.split(",", 2)
    return ",".join([kind, ";".join(pattern.format(i) for i in idx.split(";")), rest])


@pytest.mark.parametrize("rewrite", [
    pytest.param(lambda rows, rng: [rows[i] for i in rng.permutation(len(rows))], id="permuted"),
    pytest.param(lambda rows, rng: [_relabel(row, "0{}") for row in rows], id="01"),
    pytest.param(lambda rows, rng: [_relabel(row, " {}") for row in rows], id="space-2"),
])
def test_import_places_rows_by_label(tmp_path, tuned20_params, rng, rewrite):
    head, rows = _table(tmp_path, tuned20_params)
    want = import_params_csv(tmp_path / "params.csv")
    edited = rewrite(rows, rng)
    assert edited != rows
    (tmp_path / "edited.csv").write_text("".join(head + edited))
    got = import_params_csv(tmp_path / "edited.csv")
    assert got.t0 == want.t0
    assert got.entries.tobytes() == want.entries.tobytes()


@pytest.mark.parametrize("edit, message", [
    pytest.param(lambda rows: rows[:-1],
                 "1 entries missing and 0 unknown for a 4-node sender, e.g. P_NN;3;4;3;4",
                 id="missing"),
    pytest.param(lambda rows: rows + ["P_mm,1;9;1;2,0.0,0.0,III\n"],
                 "0 entries missing and 1 unknown for a 4-node sender, e.g. P_mm;1;9;1;2",
                 id="unknown"),
    pytest.param(lambda rows: rows[1:] + ["P_x,1,0.0,0.0,III\n"],
                 "1 entries missing and 1 unknown for a 4-node sender, e.g. p_N;1",
                 id="both"),
])
def test_import_names_missing_and_unknown_entries(tmp_path, tuned20_params, edit, message):
    head, rows = _table(tmp_path, tuned20_params)
    path = tmp_path / "edited.csv"
    path.write_text("".join(head + edit(rows)))
    with pytest.raises(InputError) as info:
        import_params_csv(path)
    assert str(info.value) == f"{path}: {message}"


def test_import_refuses_a_sender_above_the_bound_before_its_index(
        tmp_path, tuned20_params, monkeypatch):
    # the index of a 40-node sender has 1.9M entries
    head, rows = _table(tmp_path, tuned20_params)
    path = tmp_path / "edited.csv"
    path.write_text("".join(head + [rows[0].replace("p_N,1,", "p_N,40,", 1)] + rows[1:]))

    def refused(n_sender):
        raise AssertionError(f"index of a {n_sender}-node sender built")

    monkeypatch.setattr(receiver, "param_index", refused)
    with pytest.raises(InputError) as info:
        import_params_csv(path)
    assert str(info.value) == f"{path}: p_N entries name a 40-node sender, more than 6 nodes"


def test_largest_sender_table_round_trips(tmp_path):
    assert receiver.MAX_SENDER == 6
    params = sl.line_params_at(sl.diagonalize(ChainSpec.uniform(9)), 3.0, n_sender=6)
    assert params.n_entries == 882
    export_params_csv(params, tmp_path / "s6.csv")
    got = import_params_csv(tmp_path / "s6.csv")
    assert got.n_sender == 6
    assert np.max(np.abs(got.entries - params.entries)) < 1e-12
