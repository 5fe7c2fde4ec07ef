import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import spinline as sl
from spinline.chainopt import (
    DEFAULT_DT,
    _coarse_grid,
    _first_arrival,
    first_maximum,
    optimize_boundary,
)
from spinline.errors import NoArrivalError, NumericalError
from spinline.hamiltonian import ChainSpec, hopping_matrix
from spinline.verification import propagators


def spectral_for(n, d1=1.0, d2=1.0):
    return sl.diagonalize(ChainSpec(n_nodes=n, delta1=d1, delta2=d2))


def test_first_maximum_tuned_n20(tuned20):
    t0, amp = first_maximum(tuned20)
    assert t0 == pytest.approx(26.441, abs=0.01)
    assert amp == pytest.approx(0.99606, abs=5e-4)


def test_first_maximum_tuned_n60():
    t0, amp = first_maximum(spectral_for(60, 0.414, 0.720))
    assert t0 == pytest.approx(70.203, abs=0.02)
    assert amp == pytest.approx(0.99223, abs=5e-4)


def test_uniform_chain_below_tuned():
    _, amp = first_maximum(spectral_for(20))
    assert amp < 0.99606


def test_no_arrival_error():
    with pytest.raises(NoArrivalError):
        first_maximum(spectral_for(20), t_max=5.0)


def test_transfer_is_symmetric(tuned20):
    p1, _ = propagators(tuned20, 26.441)
    assert abs(abs(p1[19, 0]) - abs(p1[0, 19])) < 1e-12


def test_optimize_small_chain_beats_uniform():
    opt = optimize_boundary(7, grid_step=0.05)
    _, uniform_amp = first_maximum(spectral_for(7))
    assert opt.amplitude > uniform_amp
    assert opt.amplitude >= opt.coarse_amplitude  # refinement never regresses
    assert 0 < opt.delta1 <= 1.5 and 0 < opt.delta2 <= 1.5
    assert opt.t0 > 0


def test_search_box_validation():
    with pytest.raises(ValueError):
        optimize_boundary(8, delta1_range=(0.0, 1.0))
    with pytest.raises(ValueError):
        optimize_boundary(8, delta2_range=(0.5, 1.8))


# optimize_boundary(n, grid_step=0.05) as computed with the complex
# exponential series over all modes: (delta1, delta2, t0, amplitude)
PINNED_OPTIMA = {
    7: (0.7071045169358995, 0.9128688286035629, 10.882824383511064, 0.9999999999958933),
    8: (0.6887683929056245, 0.9053400304006677, 12.125698764503408, 0.9994765199807263),
}


@pytest.mark.parametrize("n", sorted(PINNED_OPTIMA))
def test_optimum_pinned(n):
    opt = optimize_boundary(n, grid_step=0.05)
    got = (opt.delta1, opt.delta2, opt.t0, opt.amplitude)
    assert np.max(np.abs(np.subtract(got, PINNED_OPTIMA[n]))) <= 1e-12


@st.composite
def coupling_stacks(draw):
    """[delta1, delta2, disordered bulk..., delta2, delta1] rows, N in 5..12."""
    n = draw(st.integers(5, 12))
    rows = []
    for _ in range(draw(st.integers(1, 4))):
        d1, d2 = draw(st.floats(0.05, 1.5)), draw(st.floats(0.05, 1.5))
        bulk = draw(st.lists(st.floats(0.5, 1.5), min_size=n - 5, max_size=n - 5))
        rows.append([d1, d2, *bulk, d2, d1])
    return np.array(rows)


@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(couplings=coupling_stacks(), t_max=st.floats(1.0, 36.0),
       floor=st.floats(0.1, 0.6))
def test_first_arrival_matches_complex_series(couplings, t_max, floor):
    lam, V = np.linalg.eigh(hopping_matrix(couplings))
    weights = V[:, -1] * V[:, 0]
    ts = np.arange(0.0, t_max + DEFAULT_DT, DEFAULT_DT)
    amp, index = _first_arrival(lam, weights, ts, floor)
    for j in range(len(couplings)):
        series = np.abs(np.exp(-1j * np.outer(ts, lam[j])) @ weights[j])
        inner = series[1:-1]
        hits = np.flatnonzero((inner >= series[:-2]) & (inner >= series[2:]) & (inner > floor))
        if hits.size:
            assert index[j] == hits[0] + 1
            assert abs(amp[j] - series[index[j]]) <= 1e-12
        else:
            assert (index[j], amp[j]) == (-1, 0.0)
        alone = _first_arrival(lam[j : j + 1], weights[j : j + 1], ts, floor)
        assert (alone[0][0], alone[1][0]) == (amp[j], index[j])


def test_first_arrival_hits_at_every_block_edge(tuned20):
    # dropping grid points before the arrival moves the hit to index j; the
    # range crosses the first three block edges
    lam, w = tuned20.evals1[None], (tuned20.evecs1[-1] * tuned20.evecs1[0])[None]
    ts = np.arange(0.0, 60.0 + DEFAULT_DT, DEFAULT_DT)
    (amp,), (k,) = _first_arrival(lam, w, ts, 0.2)
    for j in range(1, 200):
        (shifted_amp,), (shifted_k,) = _first_arrival(lam, w, ts[k - j :], 0.2)
        assert shifted_k == j and abs(shifted_amp - amp) <= 1e-14


def test_coarse_grid_matches_single_chains():
    d1s, d2s = np.array([0.3, 0.55, 0.8]), np.array([0.6, 0.82])
    combos, best = _coarse_grid(20, d1s, d2s, DEFAULT_DT, 60.0, 0.2)
    assert [tuple(c) for c in combos] == [(a, b) for a in d1s for b in d2s]
    ts = np.arange(0.0, 60.0 + DEFAULT_DT, DEFAULT_DT)
    for (d1, d2), grid_amp in zip(combos, best):
        spectral = spectral_for(20, d1, d2)
        weights = spectral.evecs1[-1] * spectral.evecs1[0]
        amp, _ = _first_arrival(spectral.evals1[None], weights[None], ts, 0.2)
        assert grid_amp == amp[0] > 0.2


def test_first_arrival_rejects_unpaired_spectrum():
    clean = np.diag(np.full(7, 0.5), 1) + np.diag(np.full(7, 0.5), -1)
    field = clean.copy()
    field[0, 0] = 0.1  # an on-site term breaks the +-lambda pairing
    lam, V = np.linalg.eigh(np.stack([clean, field]))
    with pytest.raises(NumericalError, match=r"not \+-paired"):
        _first_arrival(lam, V[:, -1] * V[:, 0], np.arange(0.0, 30.0, DEFAULT_DT), 0.2)
