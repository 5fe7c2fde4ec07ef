import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

import spinline as sl
from spinline import benchmarks as bm
from spinline import chainopt
from spinline.chainopt import (
    AMPLITUDE_FLOOR,
    DEFAULT_DT,
    _amplitude_derivatives,
    _first_arrival,
    _score_points,
    first_maximum,
    optimize_boundary,
)
from spinline.errors import ChainLengthError, InputError, NoArrivalError, NumericalError
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
    # refused before np.arange asks for ~9 GiB of lattice
    with pytest.raises(InputError, match="coupling tolerance"):
        optimize_boundary(20, grid_step=1e-9, delta1_range=(0.5, 0.5000001))


def expm_peak(n, d1, d2, t_lo, t_hi, step=1e-5):
    """Oracle for the first maximum: |<N|exp(-i H t)|1>| sampled every ``step``
    on [t_lo, t_hi] from scipy's expm of the hopping matrix (one expm for the
    start, one for the step), then the vertex of the parabola through the
    best sample and its neighbours.  Returns (t, amplitude) at the vertex and
    whether the best sample lies inside the window."""
    H = hopping_matrix(ChainSpec(n_nodes=n, delta1=d1, delta2=d2).couplings())
    ts = t_lo + step * np.arange(round((t_hi - t_lo) / step) + 1)
    column, hop = expm(-1j * H * t_lo)[:, 0], expm(-1j * H * step)
    amps = np.empty(ts.size)
    for j in range(ts.size):
        amps[j] = abs(column[-1])
        column = hop @ column
    j = int(np.argmax(amps))
    if not 0 < j < ts.size - 1:
        return ts[j], amps[j], False
    before, top, after = amps[j - 1 : j + 2]
    bend = before - 2.0 * top + after
    return (ts[j] + 0.5 * step * (before - after) / bend,
            top - (before - after) ** 2 / (8.0 * bend), True)


@pytest.mark.parametrize("n", [7, 8, 13, 20, 31, 60])
def test_peak_time_matches_expm_oracle(n):
    rng = np.random.default_rng(n)
    ts = np.arange(0.0, chainopt.default_t_max(n) + DEFAULT_DT, DEFAULT_DT)
    for d1, d2 in [(1.0, 1.0), *rng.uniform(0.3, 1.2, (2, 2))]:
        spectral = spectral_for(n, d1, d2)
        t0, amp = first_maximum(spectral)
        weights = spectral.evecs1[-1] * spectral.evecs1[0]
        _, (k,) = _first_arrival(spectral.evals1[None], weights[None], ts, 0.2)
        t_want, amp_want, inside = expm_peak(n, d1, d2, ts[k - 1], ts[k + 1])
        assert inside
        assert abs(t0 - t_want) <= 1e-8
        assert abs(amp - amp_want) <= 1e-11


def arriving_points(n, count):
    """Seeded (delta1, delta2) whose chains arrive above the floor."""
    rng, points = np.random.default_rng(100 + n), []
    while len(points) < count:
        d1, d2 = rng.uniform(0.1, 1.4, 2)
        try:
            first_maximum(spectral_for(n, d1, d2))
        except NoArrivalError:
            continue
        points.append((d1, d2))
    return points


@pytest.mark.parametrize("n", [7, 8, 13, 20, 31, 60])
def test_amplitude_gradient_matches_central_differences(n):
    h = 1e-5
    for d1, d2 in arriving_points(n, 3):
        spectral = spectral_for(n, d1, d2)
        t0, _ = first_maximum(spectral)
        grad, _ = _amplitude_derivatives(spectral, t0)
        fd = [(first_maximum(spectral_for(n, d1 + a, d2 + b))[1]
               - first_maximum(spectral_for(n, d1 - a, d2 - b))[1]) / (2 * h)
              for a, b in ((h, 0.0), (0.0, h))]
        assert np.linalg.norm(grad - fd) <= 1e-6 * np.linalg.norm(grad)


def second_differences(n, d1, d2, h):
    """Central second differences of the first-maximum amplitude, step h."""
    x, steps = np.array([d1, d2]), h * np.eye(2)

    def amp(y):
        return first_maximum(spectral_for(n, *y))[1]

    return np.array([[(amp(x + a + b) - amp(x + a - b) - amp(x - a + b) + amp(x - a - b))
                      / (4 * h * h) for b in steps] for a in steps])


@pytest.mark.parametrize("n", [7, 8, 13, 20, 31, 60])
def test_amplitude_hessian_matches_second_differences(n):
    # Richardson's extrapolation of the steps h and h/2 cancels the O(h^2)
    # error, which reaches 7e-5 of the Hessian at h = 1e-4 for n = 13
    h = 1e-4
    for d1, d2 in arriving_points(n, 3):
        spectral = spectral_for(n, d1, d2)
        t0, _ = first_maximum(spectral)
        _, hess = _amplitude_derivatives(spectral, t0)
        fd = (4 * second_differences(n, d1, d2, h / 2) - second_differences(n, d1, d2, h)) / 3
        assert np.linalg.norm(hess - fd) <= 1e-5 * np.linalg.norm(hess)


@pytest.mark.parametrize("n", [4, 5, 6])
def test_search_refuses_short_chains(monkeypatch, n):
    monkeypatch.setattr(chainopt, "_score_points", None)  # refused before the grid
    with pytest.raises(ChainLengthError, match="n >= 7"):
        optimize_boundary(n)


# optimize_boundary(n) on the default box and 0.05 lattice: (delta1, delta2,
# t0, amplitude); N = 7 is the perfectly transferring chain delta1 =
# 1/sqrt(2), delta2 = sqrt(5/6)
PINNED_OPTIMA = {
    7: (0.7071067811865467, 0.9128709291752753, 10.882796185405315, 1.0),
    8: (0.688768548462302, 0.9053400055216684, 12.125699301840061, 0.9994765199809452),
}


def test_search_reaches_the_perfect_transfer_chain_at_n7():
    opt = optimize_boundary(7)
    assert abs(opt.delta1 - np.sqrt(0.5)) <= 1e-14
    assert abs(opt.delta2 - np.sqrt(5 / 6)) <= 1e-14
    assert abs(opt.amplitude - 1.0) <= 1e-15


@pytest.mark.parametrize("n", sorted(PINNED_OPTIMA))
def test_optimum_pinned(n):
    opt = optimize_boundary(n)
    got = (opt.delta1, opt.delta2, opt.t0, opt.amplitude)
    assert np.max(np.abs(np.subtract(got, PINNED_OPTIMA[n]))) <= 1e-12


@pytest.mark.parametrize("n", sorted(PINNED_OPTIMA))
def test_pinned_optimum_is_a_maximum_under_expm(n):
    d1, d2, t0, amp = PINNED_OPTIMA[n]
    t, peak, inside = expm_peak(n, d1, d2, t0 - 0.01, t0 + 0.01)
    assert inside and abs(t - t0) <= 1e-8 and abs(peak - amp) <= 1e-12
    for a, b in ((1e-4, 0.0), (-1e-4, 0.0), (0.0, 1e-4), (0.0, -1e-4)):
        _, peak, inside = expm_peak(n, d1 + a, d2 + b, t0 - 0.01, t0 + 0.01)
        assert inside and peak < amp


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


def assert_matches_complex_series(couplings, ts, floor):
    """_first_arrival on a stack of chains against the direct series
    exp(-i lambda t) @ W over all modes, chain by chain and alone."""
    lam, V = np.linalg.eigh(hopping_matrix(couplings))
    weights = V[:, -1] * V[:, 0]
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
    return index


@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(couplings=coupling_stacks(), t_max=st.floats(1.0, 36.0),
       floor=st.floats(0.1, 0.6))
def test_first_arrival_matches_complex_series(couplings, t_max, floor):
    ts = np.arange(0.0, t_max + DEFAULT_DT, DEFAULT_DT)
    assert_matches_complex_series(couplings, ts, floor)


@pytest.mark.parametrize("n", [20, 21, 59, 60])
def test_first_arrival_matches_complex_series_on_long_windows(n):
    # disordered bulks over the default 3N window: late hits, and chains
    # that never reach a high floor, cross the far block starts (up to
    # t = 180 at N = 60); odd N takes the cos branch with its zero mode
    rng = np.random.default_rng(n)
    d1, d2 = rng.uniform(0.05, 1.25, (2, 12))
    bulk = 1.0 + 0.2 * rng.uniform(-1.0, 1.0, (12, n - 5))
    couplings = np.column_stack([d1, d2, bulk, d2, d1])
    ts = np.arange(0.0, chainopt.default_t_max(n) + DEFAULT_DT, DEFAULT_DT)
    hits = np.concatenate([assert_matches_complex_series(couplings, ts, floor)
                           for floor in (0.3, 0.6, 0.9)])
    assert hits.max() > ts.size // 2 and (hits < 0).any()


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
    d1, d2 = (a.ravel() for a in np.meshgrid(d1s, d2s, indexing="ij"))
    ts = np.arange(0.0, 60.0 + DEFAULT_DT, DEFAULT_DT)
    best = _score_points(20, d1, d2, ts)
    for a, b, grid_amp in zip(d1, d2, best):
        spectral = spectral_for(20, a, b)
        weights = spectral.evecs1[-1] * spectral.evecs1[0]
        amp, _ = _first_arrival(spectral.evals1[None], weights[None], ts, 0.2)
        assert grid_amp == amp[0] > 0.2


def test_point_scoring_does_not_depend_on_the_block(monkeypatch):
    rng = np.random.default_rng(3)
    d1, d2 = rng.uniform(0.05, 1.25, (2, 40))
    ts = np.arange(0.0, 60.0 + DEFAULT_DT, DEFAULT_DT)
    whole = _score_points(20, d1, d2, ts)
    monkeypatch.setattr(chainopt, "_POINT_BLOCK", 7)
    assert np.array_equal(_score_points(20, d1, d2, ts), whole)


def test_point_scoring_one_chain_per_block(monkeypatch):
    rng = np.random.default_rng(4)
    d1, d2 = rng.uniform(0.05, 1.25, (2, 9))
    ts = np.arange(0.0, 60.0 + DEFAULT_DT, DEFAULT_DT)
    whole = _score_points(20, d1, d2, ts)
    monkeypatch.setattr(chainopt, "_POINT_BLOCK", 1)
    assert np.array_equal(_score_points(20, d1, d2, ts), whole)


def full_scan(n_nodes, d1s, d2s, ts, floor):
    """Oracle for the grid stage: every lattice point scored by _first_arrival
    (in stacks of 1024, to bound memory), the best one picked by amplitude,
    then lexicographic (delta1, delta2).  The spectra come from diagonalize,
    which tests/test_dynamics.py checks against eigh; this checks the search."""
    d1, d2 = (a.ravel() for a in np.meshgrid(d1s, d2s, indexing="ij"))
    amp = np.zeros(d1.size)
    for lo in range(0, d1.size, 1024):
        chains = slice(lo, lo + 1024)
        spectral = sl.diagonalize(ChainSpec(n_nodes, d1[chains], d2[chains]))
        V = spectral.evecs1
        amp[chains], _ = _first_arrival(spectral.evals1, V[:, -1] * V[:, 0], ts, floor)
    top = np.lexsort((d2, d1, -amp))[0]
    return np.array([d1[top], d2[top]]), amp[top]


def in_box_lattice(lo, hi, step):
    """Oracle for the lattice of a search box: lo + step k, rounded to 12
    digits, for k = 0, 1, ... while the point does not pass hi."""
    points = []
    while lo + step * len(points) <= hi + 1e-12:
        points.append(round(lo + step * len(points), 12))
    return np.array(points)


def spy_on(monkeypatch, name):
    """Record the arguments of every call of chainopt.<name>, then make it."""
    real, calls = getattr(chainopt, name), []

    def spy(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(chainopt, name, spy)
    return calls


def assert_search_matches_full_scan(monkeypatch, n, delta1_range, delta2_range):
    """The search scores every in-box point of the default 0.05 lattice once,
    in one call, and refines from the full scan's best point, whose amplitude
    it reports."""
    scored, refined = spy_on(monkeypatch, "_score_points"), spy_on(monkeypatch, "_refine")
    got = optimize_boundary(n, delta1_range, delta2_range)
    [(n_nodes, d1, d2, ts)] = scored
    d1s, d2s = (in_box_lattice(*box, 0.05) for box in (delta1_range, delta2_range))
    assert sorted(zip(d1.tolist(), d2.tolist())) == [(a, b) for a in d1s for b in d2s]
    x0, amp = full_scan(n_nodes, d1s, d2s, ts, AMPLITUDE_FLOOR)
    [(_, start, _)] = refined
    assert start.tolist() == x0.tolist()
    assert got.coarse_amplitude == amp
    return got


@pytest.mark.parametrize("n", [7, 8, 9])
def test_search_matches_full_scan_on_default_box(monkeypatch, n):
    assert_search_matches_full_scan(monkeypatch, n, (0.05, 1.25), (0.05, 1.25))


def tune_boxes(count, seed=11, width=24, margin=4):
    """Seeded 0.24-wide sub-boxes of the default 0.01 lattice holding the
    tuned n=20 optimum at least ``margin`` steps inside."""
    ref = bm.TUNED_CHAINS[20]
    centre = [round((ref[k] - 0.05) / 0.01) for k in ("delta1", "delta2")]
    corners = np.random.default_rng(seed).integers(
        np.subtract(centre, width - margin), np.subtract(centre, margin) + 1, (count, 2))
    return [tuple((round(0.05 + 0.01 * c, 2), round(0.05 + 0.01 * (c + width), 2))
                  for c in corner) for corner in corners]


def test_refinement_takes_few_evaluations(monkeypatch):
    first_max, scored = chainopt.first_maximum, []

    def spy(spectral, **kwargs):
        scored.append((spectral.spec.delta1, spectral.spec.delta2))
        return first_max(spectral, **kwargs)

    monkeypatch.setattr(chainopt, "first_maximum", spy)
    got = optimize_boundary(20)
    assert 0 < len(scored) <= 8  # one evaluation per Newton step
    assert (got.delta1, got.delta2) in scored
    # the result is a fresh evaluation of the returned couplings
    spectral = spectral_for(20, got.delta1, got.delta2)
    assert first_max(spectral) == (got.t0, got.amplitude)


@pytest.fixture(scope="module")
def default_optimum20():
    return optimize_boundary(20)


@pytest.mark.parametrize("box", [((0.05, 0.3), (0.05, 0.3)), ((1.0, 1.25), (1.0, 1.25)),
                                 ((0.05, 0.3), (1.0, 1.25))])
def test_refinement_leaves_boxes_that_miss_the_optimum(default_optimum20, box):
    got = optimize_boundary(20, *box)
    assert got.amplitude >= got.coarse_amplitude
    assert abs(got.delta1 - default_optimum20.delta1) <= 1e-6
    assert abs(got.delta2 - default_optimum20.delta2) <= 1e-6
    assert abs(got.amplitude - default_optimum20.amplitude) <= 1e-12


def test_time_window_is_bounded():
    spectral = spectral_for(20)
    with pytest.raises(InputError, match="more than 1000000 steps"):
        first_maximum(spectral, t_max=1e12)
    with pytest.raises(InputError, match="more than 1000000 steps"):
        optimize_boundary(20, t_max=1e12)
    with pytest.raises(InputError, match=r"t_max > dt"):
        first_maximum(spectral, t_max=0.04)


@pytest.mark.parametrize("box", tune_boxes(16))
def test_search_matches_full_scan_on_sub_boxes(monkeypatch, box):
    assert_search_matches_full_scan(monkeypatch, 20, *box)


# synthetic landscapes on the 23 x 19 lattice of step 0.01 on (0.78, 1.0) x (0.78, 0.96)
LANDSCAPES = {
    "peak at the upper corner": lambda d1, d2: 2.0 - (d1 - 1.0) ** 2 - 2.0 * (d2 - 0.96) ** 2,
    "flat: ties go to the lower corner": lambda d1, d2: np.ones_like(d1),
}


@pytest.mark.parametrize("landscape", sorted(LANDSCAPES))
def test_search_starts_at_the_first_best_point(monkeypatch, landscape):
    amplitude, scored, starts = LANDSCAPES[landscape], [], []

    def fake_scores(n_nodes, d1, d2, ts):
        scored.extend(zip(d1.tolist(), d2.tolist()))
        return amplitude(d1, d2)

    def fake_refine(evaluate, x, radius):
        starts.append(x.tolist())
        return x, (1.0, 2.0, None)

    monkeypatch.setattr(chainopt, "_score_points", fake_scores)
    monkeypatch.setattr(chainopt, "_refine", fake_refine)
    got = optimize_boundary(20, (0.78, 1.0), (0.78, 0.96), grid_step=0.01)

    d1s, d2s = np.round(0.78 + 0.01 * np.arange(23), 12), np.round(0.78 + 0.01 * np.arange(19), 12)
    lattice = [(a, b) for a in d1s.tolist() for b in d2s.tolist()]
    assert sorted(scored) == lattice
    best = max(lattice, key=lambda ab: amplitude(*ab))  # first of equals
    assert starts == [list(best)]
    assert got.coarse_amplitude == amplitude(*best)
    assert best == ((1.0, 0.96) if landscape.startswith("peak") else (0.78, 0.78))


@pytest.mark.parametrize("lo, hi, step, count, last", [
    (0.05, 1.25, 0.05, 25, 1.25),
    (0.05, 1.25, 0.01, 121, 1.25),
    (0.41, 0.65, 0.05, 5, 0.61),  # a 0.24-wide sub-box: no sixth point at 0.66
    (1.3, 1.5, 0.12, 2, 1.42),  # no point at 1.54, beyond the validated (0, 1.5]
])
def test_lattice_stays_in_the_box(lo, hi, step, count, last):
    got = chainopt.lattice(lo, hi, step)
    assert got.tolist() == in_box_lattice(lo, hi, step).tolist()
    assert (got.size, got[0], got[-1]) == (count, lo, last)


def test_lattice_never_passes_hi():
    # lo + 20 step is 1 + 2.5e-11, within the slack: the last point, at hi
    got = chainopt.lattice(0.0, 1.0, 1 / (20 - 5e-10))
    assert (got.size, got[-2], got[-1]) == (21, 0.950000000024, 1.0)


def test_lattice_refuses_a_scan_over_the_bound():
    assert chainopt.lattice(0.0, 0.999999, 1e-6).size == chainopt.MAX_POINTS
    # refused before np.arange asks for the points: 72.8 TiB at step 1e-13
    for step in (1e-6, 1e-13, 1e-300):
        with pytest.raises(InputError, match="more than 1000000 points"):
            chainopt.lattice(0.0, 1.0, step)


@pytest.mark.parametrize("lo, hi, step", [
    (0.0, 1.0, 0.0), (0.0, 1.0, -0.1), (0.0, 1.0, math.nan), (0.0, 1.0, math.inf),
    (math.nan, 1.0, 0.1), (0.0, math.inf, 0.1),
])
def test_lattice_refuses_a_step_or_end_no_scan_can_use(lo, hi, step):
    # a zero step divided by zero, a negative one gave no point, and a NaN
    # step or end claimed more than 10^6 points
    with pytest.raises(InputError, match="finite ends and a positive, finite step"):
        chainopt.lattice(lo, hi, step)


def test_search_scores_no_point_outside_the_box(monkeypatch):
    scored = spy_on(monkeypatch, "_score_points")
    optimize_boundary(8, (1.3, 1.5), (0.5, 1.0), grid_step=0.12)
    [(_, d1, d2, _)] = scored
    assert sorted(set(d1.tolist())) == [1.3, 1.42]
    assert sorted(set(d2.tolist())) == [0.5, 0.62, 0.74, 0.86, 0.98]


class Scored(Exception):
    pass


def test_search_refuses_a_lattice_over_the_bound(monkeypatch):
    def score(*args):
        raise Scored

    monkeypatch.setattr(chainopt, "_score_points", score)
    with pytest.raises(Scored):  # 1000 x 1000 points: at the bound
        optimize_boundary(20, (0.05, 1.049), (0.05, 1.049), grid_step=0.001)
    with pytest.raises(InputError, match="1001 x 1000 lattice points, more than 1000000"):
        optimize_boundary(20, (0.05, 1.05), (0.05, 1.049), grid_step=0.001)
    with pytest.raises(InputError, match="12001 x 12001 lattice points"):
        optimize_boundary(20, grid_step=1e-4)


def test_first_arrival_rejects_unpaired_spectrum():
    clean = np.diag(np.full(7, 0.5), 1) + np.diag(np.full(7, 0.5), -1)
    field = clean.copy()
    field[0, 0] = 0.1  # an on-site term breaks the +-lambda pairing
    lam, V = np.linalg.eigh(np.stack([clean, field]))
    with pytest.raises(NumericalError, match=r"not \+-paired"):
        _first_arrival(lam, V[:, -1] * V[:, 0], np.arange(0.0, 30.0, DEFAULT_DT), 0.2)
    lam[1, 3] = np.nan  # a NaN spectrum is no more paired
    with pytest.raises(NumericalError, match=r"not \+-paired, off by nan"):
        _first_arrival(lam, V[:, -1] * V[:, 0], np.arange(0.0, 30.0, DEFAULT_DT), 0.2)
