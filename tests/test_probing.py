import numpy as np
import pytest

import spinline as sl
from spinline import benchmarks as bm
from spinline.basis import control_slices, sender_pairs
from spinline.errors import ConditioningError, ExtractionError, InputError
from spinline.hamiltonian import ChainSpec, apply_disorder
from spinline.probing import (
    ProbeState,
    extract_params,
    probe_outputs_from_json,
    probe_outputs_to_json,
    probe_set,
    simulate_probes,
)
from spinline.receiver import param_index


def max_deviation(a, b):
    return max(abs(x[2] - y[2]) for x, y in zip(a.items(), b.items()))


def test_probe_census():
    probes = probe_set()
    kinds = {}
    for p in probes:
        kinds[p.kind] = kinds.get(p.kind, 0) + 1
    assert kinds == {
        "single": 4,
        "single-pair": 24,
        "pair-pair-real": 15,
        "pair-pair-imag": 15,
    }
    assert len(probes) == 58


def test_unsupported_sender_size():
    with pytest.raises(ValueError):
        probe_set(n_sender=3)


def test_probe_states_normalized():
    for probe in probe_set():
        x = probe.controls()
        assert np.vdot(x, x).real == pytest.approx(1.0, abs=1e-14)
    imag = ProbeState("pair-pair-imag", (1, 2, 3, 4)).controls()
    pairs = sender_pairs()
    assert imag[control_slices(4)[1]][pairs.index((3, 4))] == pytest.approx(1j / np.sqrt(2))


def test_round_trip_unperturbed(tuned20_params):
    recovered = extract_params(simulate_probes(tuned20_params), tuned20_params.t0)
    assert max_deviation(tuned20_params, recovered) < 1e-9
    assert recovered.t0 == tuned20_params.t0


def test_round_trip_disordered(rng):
    base = ChainSpec(n_nodes=20, delta1=0.55, delta2=0.817)
    spec = apply_disorder(base, 0.05, rng.uniform(-1, 1, 15))
    params = sl.line_params_at(sl.diagonalize(spec), bm.TUNED_CHAINS[20]["t0"])
    recovered = extract_params(simulate_probes(params), params.t0)
    assert max_deviation(params, recovered) < 1e-9


def test_single_probe_inversion_formula(tuned20_params):
    # rho_{0;N} of the k=1 single probe determines p_{N;1} directly
    probe = ProbeState("single", (1,))
    rho = sl.assemble_rho(tuned20_params, probe.controls())
    assert np.conj(rho[0, 2]) * 2 == pytest.approx(
        tuned20_params.get("p_N", (1,)), abs=1e-14
    )


def test_missing_imag_probes_name_imaginary_parts(tuned20_params):
    outputs = [
        (p, r) for p, r in simulate_probes(tuned20_params)
        if p.kind != "pair-pair-imag"
    ]
    with pytest.raises(ExtractionError) as err:
        extract_params(outputs, tuned20_params.t0)
    undetermined = set(err.value.undetermined)
    pairs = sender_pairs()
    expected = set()
    for a in range(6):
        for b in range(a + 1, 6):
            expected.add(("P_mm", pairs[a] + pairs[b], "im"))
            expected.add(("P_NN", pairs[a] + pairs[b], "im"))
            expected.add(("P_mN", pairs[a] + pairs[b], "im"))
            expected.add(("P_mN", pairs[b] + pairs[a], "im"))
    assert undetermined == expected


def parts_fixed_by(probe):
    """The parameter parts only ``probe`` fixes, written out per kind."""
    i = probe.indices
    if probe.kind == "single":
        return {("p_N", i, "full"), ("p_Nm1", i, "full")}
    if probe.kind == "single-pair":
        return {("P_Nm1", i, "full"), ("P_N", i, "full")}
    part = {"pair-pair-real": "re", "pair-pair-imag": "im"}[probe.kind]
    kl, nm = i[:2], i[2:]
    return {("P_mm", kl + nm, part), ("P_NN", kl + nm, part),
            ("P_mN", kl + nm, part), ("P_mN", nm + kl, part)}


@pytest.mark.parametrize("dropped", probe_set(),
                         ids=lambda p: f"{p.kind}-{''.join(map(str, p.indices))}")
def test_missing_single_probe(tuned20_params, dropped):
    outputs = [(p, r) for p, r in simulate_probes(tuned20_params) if p != dropped]
    with pytest.raises(ExtractionError) as err:
        extract_params(outputs, tuned20_params.t0)
    undetermined = err.value.undetermined
    assert len(undetermined) == len(parts_fixed_by(dropped))
    assert set(undetermined) == parts_fixed_by(dropped)
    assert str(err.value) == f"incomplete probe set: {len(undetermined)} parameter parts undetermined"


def test_no_probes_leave_every_part_undetermined():
    # 4 x 2 + 24 x 2 + 30 x 4 parts, each named once, each a real entry
    with pytest.raises(ExtractionError) as err:
        extract_params([], 1.0)
    undetermined = err.value.undetermined
    assert len(set(undetermined)) == len(undetermined) == 176
    entries = set(param_index(4))
    assert {(kind, idx) for kind, idx, _ in undetermined} <= entries


def test_extraction_refuses_unsupported_sender():
    # the protocol is enumerated for four sender nodes only; a 3-node line
    # is refused before any receiver matrix is formed
    params = sl.line_params_at(sl.diagonalize(ChainSpec.uniform(9)), 7.0, n_sender=3)
    with pytest.raises(InputError, match="n_sender=4"):
        simulate_probes(params)


def test_extraction_refuses_records_outside_the_probe_set(tuned20_params):
    outputs = simulate_probes(tuned20_params)
    state = outputs[0][1]
    # checked before completeness: each case but the last also lacks probe single (1,)
    for records, message in (
        (outputs[1:] + [outputs[1]], r"probe single \(2,\) appears twice"),
        (outputs[1:] + [(ProbeState("bogus", (1,)), state)], "bogus .* not in the probe set"),
        (outputs[1:] + [(ProbeState("single", (9,)), state)], r"\(9,\) is not in the probe set"),
        (outputs + [(ProbeState("single-pair", (1, 2, 1)), state)], "not in the probe set"),
    ):
        with pytest.raises(InputError, match=message):
            extract_params(records, tuned20_params.t0)


def test_degenerate_outputs_hit_division_guard():
    zero = np.zeros((4, 4), complex)
    outputs = [(p, zero) for p in probe_set()]
    with pytest.raises(ConditioningError):
        extract_params(outputs, 1.0)


def test_json_interchange(tuned20_params):
    outputs = simulate_probes(tuned20_params)
    text = probe_outputs_to_json(outputs)
    loaded = probe_outputs_from_json(text)
    assert [p.kind for p, _ in loaded] == [p.kind for p, _ in outputs]
    recovered = extract_params(loaded, tuned20_params.t0)
    assert max_deviation(tuned20_params, recovered) < 1e-9
