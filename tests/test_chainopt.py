import numpy as np
import pytest

import spinline as sl
from spinline.basis import build_basis
from spinline.chainopt import first_maximum, optimize_boundary
from spinline.errors import NoArrivalError
from spinline.hamiltonian import ChainSpec, build_blocks


def spectral_for(n, d1=1.0, d2=1.0):
    spec = ChainSpec(n_nodes=n, delta1=d1, delta2=d2)
    return sl.diagonalize(build_blocks(spec, build_basis(n)))


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
    amps = sl.propagators(tuned20, 26.441)
    assert abs(abs(amps.single(20, 1)) - abs(amps.single(1, 20))) < 1e-12


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
