"""Maximal module: time grids, critical times, suprema, local bounds."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from curverate.curves import CUSTOM, CurveSpec, MINUS_SHIFT, PLUS_SHIFT
from curverate.errors import DomainValidationError, ResolutionError, WindowError
from curverate.exponents import LIPSCHITZ, Regime, law_for
from curverate.initial_data import (
    BOURGAIN,
    BUMP_DILATED,
    BUMP_MODULATED,
    BUMP_TENSOR,
    INDICATOR_BAND,
    FrequencyProfile,
    bump_dilated,
    bump_tensor,
    gaussian_like,
    indicator_band,
)
from curverate.maximal import (
    FAMILIES,
    GOLDEN_ITERATIONS,
    MaximalField,
    TimeGrid,
    calibrate_window_constant,
    critical_time,
    family_field,
    family_spec,
    l2_over_ball,
    lemma_bound,
    lemma_empirical,
    lemma_profile,
    maximal_field,
    rate_ceiling_demo,
    window_grid,
)
from curverate import maximal, propagator
from curverate.maximal import _refine
from curverate.propagator import batch_values, certified_value, point_values

MINUS_HALF = CurveSpec(MINUS_SHIFT, alpha=0.5)
PLUS_HALF = CurveSpec(PLUS_SHIFT, alpha=0.5)


def one_point(profile, curve, delta, x, grid):
    """maximal_field (m = 2) at the one point x: (sup, argmax time)."""
    fld = maximal_field(profile, curve, 2.0, delta, [x], grid)
    return fld.sup_values[0], fld.argmax_times[0]


def one_pair(profile, curve, m, x, t):
    """certified_value at the one pair (x, t): (value, node count)."""
    values, used = certified_value(profile, curve, m, [x], [t])
    return complex(values[0]), used


def test_time_grid_basics():
    grid = TimeGrid(2, 4, points_per_octave=2)
    ts = grid.times()
    assert np.all(np.diff(ts) > 0)
    assert ts.min() == pytest.approx(2.0 ** -4) and ts.max() == pytest.approx(0.25)
    with pytest.raises(DomainValidationError):
        TimeGrid(3, 1)
    with pytest.raises(DomainValidationError):
        TimeGrid(None, 4)
    with pytest.raises(DomainValidationError):
        TimeGrid().times()  # totally empty


@pytest.mark.parametrize("j_min,j_max", [
    (math.nan, 18.0), (16.0, math.nan), (16.0, math.inf), (-math.inf, 18.0), (math.inf, math.inf),
])
def test_time_grid_rejects_a_non_finite_octave(j_min, j_max):
    with pytest.raises(DomainValidationError, match="need finite 0 <= j_min <= j_max"):
        TimeGrid(j_min, j_max)


def test_critical_time_dilated_example():
    assert critical_time(BUMP_DILATED, MINUS_HALF, 64.0, 0.0, 0.04) == pytest.approx(
        0.0016, abs=1e-18
    )


def test_critical_time_modulated_linear_case_matches_closed_form():
    curve = CurveSpec(MINUS_SHIFT, alpha=1.0)
    R = 32.0
    for x in (0.01, 0.2, 0.77):
        t = critical_time(BUMP_MODULATED, curve, R, 0.0, x)
        assert t == pytest.approx(x / (1.0 + 2.0 * R * R), rel=1e-12)


def test_critical_time_modulated_bisection_vs_scan_oracle():
    R, x = 256.0, 0.005
    t = critical_time(BUMP_MODULATED, MINUS_HALF, R, 0.0, x)
    h = lambda tt: x - tt ** 0.5 - 2.0 * R * R * tt
    assert abs(h(t)) <= 1e-10 * x
    # million-point scan oracle brackets the same root
    ts = np.linspace(0.0, 0.008 * R ** -2, 1_000_001)
    hs = x - np.sqrt(ts) - 2.0 * R * R * ts
    k = int(np.argmax(hs <= 0.0))
    assert ts[k - 1] <= t <= ts[k]
    # lies in (0, c R^{-2}) for the window constant c = 0.008 of this x
    assert 0.0 < t < 0.008 * R ** -2


def test_critical_time_tensor_and_indicator():
    assert critical_time(BUMP_TENSOR, MINUS_HALF, 16.0, 0.1, 0.02) == pytest.approx(
        0.02 / 16.0 ** 1.1
    )
    t0 = critical_time(INDICATOR_BAND, PLUS_HALF, 16.0, 0.0, 0.0, window_constant=0.01)
    assert t0 == pytest.approx(0.01 / 256.0)


def test_critical_time_bourgain_root():
    R = 64.0
    for x in (-0.9, -0.5):
        t = critical_time(BOURGAIN, MINUS_HALF, R, 0.0, x)
        assert abs(x - t ** 0.5 + 2.0 * R * t) <= 1e-10 * abs(x)


def serial_root(h, lo, hi):
    """One root by the serial bisection in Python floats: the lockstep roots' reference."""
    flo, fhi = h(lo), h(hi)
    if flo == 0.0 or fhi == 0.0:
        return lo if flo == 0.0 else hi
    for _ in range(maximal.BISECTION_ITERATIONS):
        mid = 0.5 * (lo + hi)
        fm = h(mid)
        if fm == 0.0:
            return mid
        if (fm > 0) == (flo > 0):
            lo, flo = mid, fm
        else:
            hi = mid
    return 0.5 * (lo + hi)


@pytest.mark.parametrize("family,alpha,R", [(BUMP_MODULATED, 0.5, 256.0), (BUMP_MODULATED, 0.3, 64.0),
                                             (BOURGAIN, 0.5, 64.0), (BOURGAIN, 0.75, 1024.0)])
def test_lockstep_critical_times_are_the_serial_roots(family, alpha, R):
    # numpy's array power may round t^alpha unlike Python's, so a root may move by a few ulps
    c = calibrate_window_constant(family, alpha)
    xs = window_grid(*family_spec(family).window(R, alpha, 0.0, c), 33)
    curve = CurveSpec(MINUS_SHIFT, alpha=alpha)
    got = maximal._critical_times(family, curve, R, 0.0, xs)
    if family == BUMP_MODULATED:
        want = [serial_root(lambda t: x - t ** alpha - 2.0 * R * R * t, 0.0, min(1.0, x)) for x in xs.tolist()]
    else:
        want = [serial_root(lambda t: x - t ** alpha + 2.0 * R * t, 0.0, min(1.0, (abs(x) + 1.0) / (2.0 * R)))
                for x in xs.tolist()]
    np.testing.assert_allclose(got, want, rtol=1e-13, atol=0.0)
    # a root does not depend on the points it is found with
    assert got.tolist() == [critical_time(family, curve, R, 0.0, x) for x in xs.tolist()]


def full_bisection(h, lo, hi):
    """The lockstep bisection with all BISECTION_ITERATIONS halvings: the early stop's reference."""
    lo, hi = np.broadcast_arrays(np.asarray(lo, dtype=float), np.asarray(hi, dtype=float))
    flo, fhi = h(lo), h(hi)
    hi = np.where(flo == 0.0, lo, hi)
    lo = np.where(fhi == 0.0, hi, lo)
    sign = np.sign(flo)
    for _ in range(maximal.BISECTION_ITERATIONS):
        mid = 0.5 * (lo + hi)
        side = sign * h(mid)
        lo, hi = np.where(side >= 0.0, mid, lo), np.where(side <= 0.0, mid, hi)
    return 0.5 * (lo + hi)


def bisection_problem(family, alpha, R):
    """(h, lo, hi) of a bisecting family's critical times, as FAMILIES states them, on x, elementwise."""
    if family == BUMP_MODULATED:
        return (lambda x: lambda t: x - t ** alpha - 2.0 * R * R * t), (lambda x: np.minimum(1.0, x))
    return ((lambda x: lambda t: x - t ** alpha + 2.0 * R * t),
            (lambda x: np.minimum(1.0, (np.abs(x) + 1.0) / (2.0 * R))))


# the families whose critical times are bisected; the other three have closed forms
@pytest.mark.parametrize("family,alpha,R", [
    (BUMP_MODULATED, 0.5, 64.0), (BUMP_MODULATED, 0.3, 1024.0), (BUMP_MODULATED, 0.5, 4096.0),
    (BOURGAIN, 0.5, 64.0), (BOURGAIN, 0.75, 1024.0), (BOURGAIN, 1.0, 4096.0),
])
def test_bisection_stops_at_its_fixed_point_with_the_full_roots(family, alpha, R):
    c = calibrate_window_constant(family, alpha)
    xs = window_grid(*family_spec(family).window(R, alpha, 0.0, c), 33)
    curve, (h, top) = CurveSpec(MINUS_SHIFT, alpha=alpha), bisection_problem(family, alpha, R)
    want = full_bisection(h(xs), 0.0, top(xs))
    assert maximal._critical_times(family, curve, R, 0.0, xs).tobytes() == want.tobytes()
    for i in (0, 16, 32):  # at one point
        assert critical_time(family, curve, R, 0.0, float(xs[i])) == full_bisection(h(xs[i]), 0.0, top(xs[i]))
    evaluations = []

    def counted(t):
        evaluations.append(1)
        return h(xs)(t)

    assert maximal._bisect_root(counted, 0.0, top(xs)).tobytes() == want.tobytes()
    assert len(evaluations) < 2 + maximal.BISECTION_ITERATIONS  # the brackets stopped moving early


def test_lockstep_bisection_names_the_first_bracket_without_a_sign_change():
    # roots at 0 and at the upper end stop there; 0.2 lies in neither of the last two brackets
    lo, hi = np.zeros(5), np.array([1.0, 0.2, 0.5, 0.1, 0.05])
    roots = maximal._bisect_root(lambda t: t - 0.2, lo[:3], hi[:3])
    assert roots[1] == 0.2 and abs(roots[0] - 0.2) <= 1e-16 and abs(roots[2] - 0.2) <= 1e-16
    with pytest.raises(WindowError, match=r"^no sign change on \(0\.0, 0\.1\);"):
        maximal._bisect_root(lambda t: t - 0.2, lo, hi)
    assert maximal._bisect_root(lambda t: t * (t - 0.2), lo[:2], hi[:2]).tolist() == [0.0, 0.0]


def test_critical_time_window_errors():
    with pytest.raises(WindowError):
        critical_time(BUMP_DILATED, MINUS_HALF, 64.0, 0.0, -0.1)
    with pytest.raises(WindowError):
        critical_time(BOURGAIN, MINUS_HALF, 64.0, 0.0, 0.5)
    with pytest.raises(DomainValidationError):
        critical_time(INDICATOR_BAND, MINUS_HALF, 64.0, 0.0, 0.0)  # wrong curve kind


def test_indicator_band_critical_time_needs_the_window_constant():
    # the constant scales the time: 0.01 is right only at alpha = 1/4
    with pytest.raises(DomainValidationError, match="window constant"):
        critical_time(INDICATOR_BAND, PLUS_HALF, 64.0, 0.0, 0.0)
    c = calibrate_window_constant(INDICATOR_BAND, 0.5)
    t0 = critical_time(INDICATOR_BAND, PLUS_HALF, 64.0, 0.0, 0.0, window_constant=c)
    assert t0 == pytest.approx(9.765625e-06)


def test_rate_weighted_sup_dominates_grid_members():
    from curverate.propagator import evaluate

    profile = bump_dilated(16.0)
    grid = TimeGrid(4, 10, points_per_octave=3, local_refinement=False)
    sup, arg = one_point(profile, MINUS_HALF, 0.0, 0.05, grid)
    for t in grid.times():
        s = evaluate(profile, MINUS_HALF, 2.0, 0.05, float(t))
        assert sup >= abs(s.value - s.initial) - 1e-12
    assert any(abs(arg - t) < 1e-12 for t in grid.times())


def test_rate_weighted_sup_monotone_in_grid_and_delta():
    profile = bump_dilated(16.0)
    coarse = TimeGrid(4, 10, points_per_octave=2, local_refinement=False)
    fine = TimeGrid(4, 10, points_per_octave=4, local_refinement=False)
    s_coarse, _ = one_point(profile, MINUS_HALF, 0.0, 0.05, coarse)
    s_fine, _ = one_point(profile, MINUS_HALF, 0.0, 0.05, fine)
    assert s_fine >= s_coarse - 1e-15  # octave grid of ppo 4 contains the ppo-2 grid
    s_d0, _ = one_point(profile, MINUS_HALF, 0.0, 0.05, coarse)
    s_d2, _ = one_point(profile, MINUS_HALF, 0.2, 0.05, coarse)
    assert s_d2 >= s_d0 - 1e-15  # t <= 1 so t^{-delta} grows with delta


def test_rate_weighted_sup_indicator_lower_bound():
    R, c = 256.0, 0.01
    t0 = critical_time(INDICATOR_BAND, PLUS_HALF, R, 0.0, 0.005, window_constant=c)
    fld = maximal_field(indicator_band(R), PLUS_HALF, 2.0, 0.0, [0.005], TimeGrid(), critical_times=[t0])
    assert fld.sup_values[0] >= c ** 0.5 / (8.0 * math.pi)
    assert fld.argmax_times[0] == pytest.approx(t0)


@pytest.mark.parametrize("bad", [0.0, -1e-3, 1.5, math.nan])
@pytest.mark.parametrize("octaves", [(None, None), (4, 8)])
def test_maximal_field_rejects_critical_times_outside_the_unit_interval(bad, octaves):
    xs = window_grid(-0.01, 0.01, 3)
    t0 = critical_time(INDICATOR_BAND, PLUS_HALF, 16.0, 0.0, 0.0, window_constant=0.01)
    with pytest.raises(DomainValidationError, match=r"outside \(0, 1\]"):
        maximal_field(indicator_band(16.0), PLUS_HALF, 2.0, 0.1, xs, TimeGrid(*octaves),
                      critical_times=[t0, bad, t0])


def test_l2_over_ball_examples():
    xs = window_grid(-1.0, 1.0, 256)
    fld = MaximalField(xs, np.full(256, 3.0), np.full(256, 0.5), 0.0, (0.0, 1.0))
    assert l2_over_ball(fld) == pytest.approx(3.0 * math.sqrt(2.0), rel=1e-12)
    fld2 = MaximalField(xs, np.full(256, 6.0), np.full(256, 0.5), 0.0, (0.0, 1.0))
    assert l2_over_ball(fld2) == pytest.approx(2.0 * l2_over_ball(fld), rel=1e-12)
    zero = MaximalField(xs, np.zeros(256), np.full(256, 0.5), 0.0, (0.0, 1.0))
    assert l2_over_ball(zero) == 0.0
    coarse = MaximalField(window_grid(-1.0, 1.0, 16), np.ones(16), np.ones(16), 0.0, (0.0, 1.0))
    with pytest.raises(ResolutionError):
        l2_over_ball(coarse)


def test_l2_self_convergence_under_x_refinement():
    R, c = 64.0, 0.04
    lo, hi = family_spec(INDICATOR_BAND).window(R, 0.5, 0.0, c)
    curve = PLUS_HALF
    vals = {}
    for n in (512, 1024):
        xs = window_grid(lo, hi, n)
        tc = np.full(n, critical_time(INDICATOR_BAND, curve, R, 0.0, 0.0, window_constant=c))
        grid = TimeGrid(8, 16, points_per_octave=4, local_refinement=False)
        fld = maximal_field(indicator_band(R), curve, 2.0, 0.1, xs, grid, critical_times=tc)
        vals[n] = l2_over_ball(fld)
    assert abs(vals[1024] - vals[512]) / vals[512] < 0.01


def test_lemma_bound_values():
    high = Regime(d=1, alpha=0.5, m=2)
    # the bound is 2^{(2k-j)/4}: at k=8, j=8 this is 2^2 = 4
    assert lemma_bound(high, 8, 8) == pytest.approx(4.0)
    assert lemma_bound(high, 8, 16) == pytest.approx(1.0)
    low = Regime(d=1, alpha=0.25, m=2)
    assert lemma_bound(low, 8, 32) == pytest.approx(1.0)
    assert lemma_bound(low, 8, 16) == pytest.approx(2.0 ** 2)
    mid = Regime(d=1, alpha=0.3, m=2)
    assert lemma_bound(mid, 10, 10) == pytest.approx(2.0 ** 2.5)
    assert lemma_bound(mid, 10, 12) == pytest.approx(2.0 ** 2.0)
    assert lemma_bound(mid, 10, 13) == pytest.approx(2.0 ** 2.0)  # flat middle case
    lip = Regime(d=2, alpha=1, m=2, smoothness=LIPSCHITZ)
    assert lemma_bound(lip, 6, 9) == pytest.approx(2.0 ** (3.0 * 2.0 / 6.0))


def test_lemma_bound_range_errors():
    high = Regime(d=1, alpha=0.5, m=2)
    with pytest.raises(DomainValidationError):
        lemma_bound(high, 8, 7)
    with pytest.raises(DomainValidationError):
        lemma_bound(high, 8, 17)
    low = Regime(d=1, alpha=0.25, m=2)
    with pytest.raises(DomainValidationError):
        lemma_bound(low, 8, 15)
    from curverate.errors import UnsupportedRegimeError

    with pytest.raises(UnsupportedRegimeError):
        lemma_bound(Regime(d=1, alpha=0.5, m=1.5), 8, 8)


def test_lemma_empirical_nested_monotone():
    regime = Regime(d=1, alpha=0.5, m=2)
    curve = MINUS_HALF
    js = [5, 7, 10]
    prof = lemma_profile(regime, 5, js, curve)
    assert prof[5] >= prof[7] >= prof[10] > 0.0
    single = lemma_empirical(regime, 5, 7, curve)
    assert single > 0.0


@pytest.mark.parametrize("alpha, k, js", [(0.5, 8, [8, 11, 16]), (0.25, 6, [12, 18, 24])])
def test_lemma_profile_does_not_depend_on_its_time_blocks(monkeypatch, alpha, k, js):
    regime, curve = Regime(d=1, alpha=alpha, m=2), CurveSpec(MINUS_SHIFT, alpha=alpha)
    calls = []
    monkeypatch.setattr(maximal, "batch_values", lambda *a: calls.append(len(a[4])) or batch_values(*a))
    whole = lemma_profile(regime, k, js, curve)
    nt = calls.pop()
    assert calls == []  # one block at the default
    for cols in (1, 3, 7):  # a few time columns per block
        monkeypatch.setattr(maximal, "LEMMA_BLOCK_ELEMENTS", cols * 2 ** (k + 2))
        assert lemma_profile(regime, k, js, curve) == whole
        assert len(calls) == min(nt, -(-(nt + 1) // cols)) and sum(calls) == nt
        del calls[:]


def test_lemma_profile_memory_is_bounded_by_its_blocks():
    # k = 11, alpha = 1/4: 8192 points times 136 times, 17.8 MB of complex
    # values kept whole, and several times that in the pass's temporaries
    import tracemalloc

    regime, curve = Regime(d=1, alpha=0.25, m=2), CurveSpec(MINUS_SHIFT, alpha=0.25)
    tracemalloc.start()
    try:
        lemma_profile(regime, 11, list(range(22, 45, 2)), curve)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 40e6


def test_lemma_profile_memory_is_one_pass_and_a_few_fft_blocks():
    # k = 10, alpha = 1/4: one block of 4096 points times 127 columns (126 times
    # and t = 0), 8.3 MB of complex values per pass. The self-check runs both
    # passes block by block into the one pass: 11.9 MB at the peak, where both
    # passes and their gap held whole took 29.2 MB.
    import tracemalloc

    regime, curve = Regime(d=1, alpha=0.25, m=2), CurveSpec(MINUS_SHIFT, alpha=0.25)
    lemma_profile(regime, 10, [20, 30, 40], curve)  # the first call's lazy imports and caches
    tracemalloc.start()
    try:
        lemma_profile(regime, 10, [20, 30, 40], curve)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4096 * 127 * 16 + 4 * propagator.FFT_BLOCK * 16


def test_lemma_profile_holds_no_pass_across_its_blocks(monkeypatch):
    # when a block's batch_values call begins, lemma_profile holds what is
    # proportional to its window (the running sup, the points), and nothing
    # of an earlier block's pass, such as its magnitudes
    import tracemalloc

    regime, curve = Regime(d=1, alpha=0.25, m=2), CurveSpec(MINUS_SHIFT, alpha=0.25)
    nx, held = 2 ** 12, []
    monkeypatch.setattr(maximal, "LEMMA_BLOCK_ELEMENTS", 40 * nx)
    lemma_profile(regime, 10, [20, 30, 40], curve)  # the first call's lazy imports and caches
    monkeypatch.setattr(maximal, "batch_values",
                        lambda *a: held.append(tracemalloc.get_traced_memory()[0] - start) or batch_values(*a))
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        lemma_profile(regime, 10, [20, 30, 40], curve)
    finally:
        tracemalloc.stop()
    assert len(held) > 2 and max(held) < 4 * 16 * nx


def test_general_curve_falls_back_to_pointwise_sup():
    from curverate.curves import CUSTOM
    from curverate.propagator import batch_values

    wobble = CurveSpec(CUSTOM, alpha=0.5, gamma_fn=lambda x, t: x - (1 + 0.05 * x) * t ** 0.5)
    profile = bump_dilated(16.0)
    grid = TimeGrid(4, 8, points_per_octave=2, local_refinement=False)
    sup, arg = one_point(profile, wobble, 0.0, 0.05, grid)
    assert sup > 0.0 and 2.0 ** -8 <= arg <= 2.0 ** -4
    with pytest.raises(DomainValidationError):
        batch_values(profile, wobble, 2.0, np.array([0.05]), [0.01])


WOBBLE = CurveSpec(CUSTOM, alpha=0.5, gamma_fn=lambda x, t: x - (1 + 0.05 * x) * t ** 0.5)  # general curve
MINUS_HALF_2D = CurveSpec(MINUS_SHIFT, alpha=0.5, d=2)


@pytest.mark.parametrize(
    "profile,curve,x",
    [
        (bump_dilated(16.0), WOBBLE, 0.05),
        (bump_tensor(16.0, 0.1, d=2), MINUS_HALF_2D, np.array([0.02, -0.1])),
    ],
)
def test_pointwise_sup_is_the_direct_grid_maximum(profile, curve, x):
    delta = 0.1
    grid = TimeGrid(4, 8, points_per_octave=2, local_refinement=False)
    ts = grid.times()
    f0, _ = one_pair(profile, curve, 2.0, x, 0.0)
    direct = np.array([one_pair(profile, curve, 2.0, x, float(t))[0] for t in ts])
    # the field's one paired call gives each pair its one-pair value, bit for bit
    values, initial, _ = point_values(profile, curve, 2.0, [x], ts)
    assert np.array_equal(values[0], direct) and initial[0] == f0
    # scored as the field scores (numpy's abs and power, not Python's scalar ones)
    scores = maximal.rate_score(direct, f0, ts, delta)
    assert one_point(profile, curve, delta, x, grid) == max(zip(scores.tolist(), ts.tolist()))


def test_maximal_field_matches_rate_weighted_sup_pointwise():
    profile = bump_tensor(16.0, 0.1, d=2)
    xs = np.array([[0.02, -0.1], [0.04, 0.1]])
    grid = TimeGrid(4, 8, points_per_octave=2)  # refinement on
    fld = maximal_field(profile, MINUS_HALF_2D, 2.0, 0.1, xs, grid)
    for x, sup, arg in zip(xs, fld.sup_values, fld.argmax_times):
        # each row of the 2-point field is that point's 1-point field, bit for bit
        assert one_point(profile, MINUS_HALF_2D, 0.1, x, grid) == (sup, arg)


def test_pointwise_field_reports_the_largest_pair_node_count():
    profile, xs = bump_dilated(16.0), np.array([0.05, 0.1])
    grid = TimeGrid(4, 8, points_per_octave=2, local_refinement=False)
    fld = maximal_field(profile, WOBBLE, 2.0, 0.1, xs, grid)
    counts = [one_pair(profile, WOBBLE, 2.0, x, float(t))[1] for x in xs for t in grid.times()]
    assert fld.node_count_max == max(counts)


# fields off the window path: a general curve, and d = 2
OFF_WINDOW_FIELDS = [
    (bump_dilated(16.0), WOBBLE, np.array([0.05, 0.1])),
    (bump_tensor(16.0, 0.1, d=2), MINUS_HALF_2D, np.array([[0.02, -0.1], [0.04, 0.1]])),
]


def count_certified_calls(monkeypatch):
    """Record every certified_value call, through both modules' bindings."""

    calls, real = [], propagator.certified_value

    def counting(*args, **kwargs):
        calls.append(args[3:5])
        return real(*args, **kwargs)

    monkeypatch.setattr(propagator, "certified_value", counting)
    monkeypatch.setattr(maximal, "certified_value", counting)
    return calls


@pytest.mark.parametrize("profile,curve,xs", OFF_WINDOW_FIELDS)
def test_pointwise_field_is_one_certified_call(monkeypatch, profile, curve, xs):
    grid = TimeGrid(4, 8, points_per_octave=2, local_refinement=False)
    calls = count_certified_calls(monkeypatch)
    maximal_field(profile, curve, 2.0, 0.1, xs, grid)
    assert len(calls) == 1
    assert len(calls[0][1]) == len(xs) * (len(grid.times()) + 1)  # the grid, then f(x)


@pytest.mark.parametrize("profile,curve,xs", OFF_WINDOW_FIELDS)
def test_injection_off_the_window_path_fails_before_any_work(monkeypatch, profile, curve, xs):
    calls = count_certified_calls(monkeypatch)
    monkeypatch.setattr(maximal, "batch_values", lambda *a, **k: calls.append(a))
    for grid in (TimeGrid(4, 8, points_per_octave=2), TimeGrid()):
        with pytest.raises(DomainValidationError, match=r"window path only \(d = 1 and a shift curve\)"):
            maximal_field(profile, curve, 2.0, 0.1, xs, grid, critical_times=np.full(len(xs), 0.01))
    assert calls == []


@pytest.mark.parametrize("grid,critical", [
    (TimeGrid(), True),                                   # critical times only
    (TimeGrid(4, 4, points_per_octave=1), False),        # two grid times: no refinement
    (TimeGrid(4, 8, points_per_octave=2), False),        # a grid the refinement would search
])
def test_a_window_field_on_a_curve_of_another_dimension_fails_before_any_work(monkeypatch, grid, critical):
    calls = []
    for stage in ("_pair_quadrature", "_quadrature", "_chirp_window"):
        monkeypatch.setattr(propagator, stage, lambda *a, **k: calls.append(a))
    xs = np.linspace(0.1, 0.2, 5)
    tc = np.full(len(xs), 0.01) if critical else None
    with pytest.raises(DomainValidationError, match="curve and profile dimensions disagree"):
        maximal_field(gaussian_like(), CurveSpec(MINUS_SHIFT, alpha=0.5, d=2), 2.0, 0.1, xs, grid,
                      critical_times=tc)
    assert calls == []


@pytest.mark.parametrize("family,alpha", [(BUMP_MODULATED, 0.1), (BUMP_DILATED, 0.5), (INDICATOR_BAND, 0.75)])
def test_family_field_rejects_an_alpha_outside_its_rule(monkeypatch, family, alpha):
    calls = count_certified_calls(monkeypatch)
    monkeypatch.setattr(maximal, "batch_values", lambda *a, **k: calls.append(a))
    rule = FAMILIES[family].alpha_rule
    with pytest.raises(DomainValidationError, match=f"^{family} runs need {rule}$"):
        family_field(family, 64.0, alpha, 0.0, 0.5, 2.0, 0.1, 5, TimeGrid(4, 8), True)
    assert calls == []


@pytest.mark.parametrize("family,alpha,rule", [
    (BUMP_DILATED, 0.5, "alpha < 1/2"), (BUMP_MODULATED, 0.2, "alpha >= 1/4"),
    (BUMP_TENSOR, 0.25, "alpha >= 1/2"), (INDICATOR_BAND, 0.6, "alpha <= 1/2"),
    (BOURGAIN, 0.4, "alpha >= 1/2"),
])
def test_family_spec_checks_the_alpha_rule_it_is_given(monkeypatch, family, alpha, rule):
    assert family_spec(family) is FAMILIES[family]
    with pytest.raises(DomainValidationError, match=f"^{family} runs need {rule}$"):
        family_spec(family, alpha)
    # calibration checks the rule before it tries a ladder constant
    def refuse(*args):
        raise AssertionError("calibrated an alpha outside the family's rule")

    monkeypatch.setitem(FAMILIES, family, replace(FAMILIES[family], calibrated=refuse))
    with pytest.raises(DomainValidationError, match=f"^{family} runs need {rule}$"):
        calibrate_window_constant(family, alpha)


@pytest.mark.parametrize(
    "profile,curve", [(indicator_band(64.0), PLUS_HALF), (bump_dilated(16.0), WOBBLE)]
)
def test_maximal_field_rejects_an_empty_set_of_points(monkeypatch, profile, curve):
    calls = count_certified_calls(monkeypatch)
    for kernel in ("batch_values", "point_values"):
        monkeypatch.setattr(maximal, kernel, lambda *a, **k: calls.append(a))
    with pytest.raises(DomainValidationError, match="at least one point"):
        maximal_field(profile, curve, 2.0, 0.1, np.zeros(0), TimeGrid(4, 8))
    assert calls == []


GOLDEN_RATIO = (1.0 + math.sqrt(5.0)) / 2.0


def serial_refine(profile, curve, delta, x, f0, ts, sup, arg):
    """Reference: one point's golden-section search, one one-pair call per probe."""

    pos = int(np.searchsorted(ts, arg))
    a, b = float(ts[max(0, pos - 1)]), float(ts[min(len(ts) - 1, pos + 1)])
    if b <= a:
        return sup, arg

    def score(t):
        value, _ = one_pair(profile, curve, 2.0, x, float(t))
        return abs(value - f0) / t ** delta

    c, d = b - (b - a) / GOLDEN_RATIO, a + (b - a) / GOLDEN_RATIO
    fc, fd = score(c), score(d)
    for _ in range(GOLDEN_ITERATIONS):
        if fc > fd:
            b, d, fd = d, c, fc
            c = b - (b - a) / GOLDEN_RATIO
            fc = score(c)
        else:
            a, c, fc = c, d, fd
            d = a + (b - a) / GOLDEN_RATIO
            fd = score(d)
    t_best, s_best = (c, fc) if fc > fd else (d, fd)
    return (s_best, t_best) if s_best > sup else (sup, arg)


@pytest.mark.parametrize("family,alpha", [(BUMP_MODULATED, 0.5), (INDICATOR_BAND, 0.25)])
def test_lockstep_refinement_is_the_serial_golden_section_search(family, alpha):
    R, delta = 64.0, 0.1
    spec = FAMILIES[family]
    curve = CurveSpec(spec.curve, alpha=alpha)
    c = calibrate_window_constant(family, alpha)
    profile = FrequencyProfile(family, R=R)
    xs = window_grid(*family_spec(family).window(R, alpha, 0.0, c), 17)
    tc = np.array([critical_time(family, curve, R, 0.0, float(x), window_constant=c) for x in xs])
    grid = TimeGrid(*spec.octaves(R, alpha, 0.0, c), points_per_octave=4)
    ts = grid.times()
    _, initial, _ = batch_values(profile, curve, 2.0, xs, ts)
    coarse = maximal_field(profile, curve, 2.0, delta, xs, replace(grid, local_refinement=False),
                           critical_times=tc)
    sup, arg = _refine(profile, curve, 2.0, delta, xs, initial, ts,
                       coarse.sup_values, coarse.argmax_times)
    assert np.any(sup > coarse.sup_values)  # the search does raise some sups
    for i, x in enumerate(xs):
        ref_sup, ref_arg = serial_refine(profile, curve, delta, float(x), complex(initial[i]), ts,
                                         coarse.sup_values[i], coarse.argmax_times[i])
        assert arg[i] == ref_arg
        assert sup[i] == pytest.approx(ref_sup, rel=1e-12)
    fld = maximal_field(profile, curve, 2.0, delta, xs, grid, critical_times=tc)
    assert np.array_equal(fld.sup_values, sup) and np.array_equal(fld.argmax_times, arg)


def injected_field(family, alpha, R, n=129):
    """A family's calibrated window of n points at R, with its critical times."""

    spec = FAMILIES[family]
    curve = CurveSpec(spec.curve, alpha=alpha)
    c = calibrate_window_constant(family, alpha)
    xs = window_grid(*family_spec(family).window(R, alpha, 0.0, c), n)
    tc = np.array([critical_time(family, curve, R, 0.0, float(x), window_constant=c) for x in xs])
    return FrequencyProfile(family, R=R), curve, c, xs, tc


def count_window_calls(monkeypatch):
    """Record (xs, ts) of every batch_values call maximal_field makes."""

    calls, real = [], batch_values

    def counting(profile, curve, m, xs, ts):
        calls.append((np.asarray(xs), np.asarray(ts)))
        return real(profile, curve, m, xs, ts)

    monkeypatch.setattr(maximal, "batch_values", counting)
    return calls


@pytest.mark.parametrize("family,alpha,octaves", [
    (BUMP_MODULATED, 0.5, True), (BOURGAIN, 0.5, False), (INDICATOR_BAND, 0.25, True),
])
def test_injection_is_one_window_pass_per_block(monkeypatch, family, alpha, octaves):
    R = 64.0
    profile, curve, c, xs, tc = injected_field(family, alpha, R)
    grid = TimeGrid(*FAMILIES[family].octaves(R, alpha, 0.0, c), points_per_octave=2,
                    local_refinement=False) if octaves else TimeGrid()
    calls = count_window_calls(monkeypatch)
    maximal_field(profile, curve, 2.0, 0.1, xs, grid, critical_times=tc)
    if octaves:  # the grid's one call comes first
        grid_xs, grid_ts = calls.pop(0)
        assert np.array_equal(grid_xs, xs) and np.array_equal(grid_ts, grid.times())
    assert [len(x) for x, _ in calls] == [65, 64]  # ceil(129 / X_CHUNK) equal blocks
    start = 0
    for block_xs, block_ts in calls:
        blk = slice(start, start + len(block_xs))
        assert len(block_xs) <= propagator.X_CHUNK and np.array_equal(block_xs, xs[blk])
        assert np.array_equal(block_ts, np.unique(tc[blk]))
        start += len(block_xs)
    if family == INDICATOR_BAND:  # its critical time does not depend on x
        assert [len(t) for _, t in calls] == [1, 1]


@pytest.mark.parametrize("family,alpha,inject", [
    (BUMP_MODULATED, 0.5, True), (BUMP_MODULATED, 0.5, False), (BOURGAIN, 0.5, True),
    (INDICATOR_BAND, 0.25, True),
])
def test_family_field_is_the_field_assembled_by_hand(family, alpha, inject):
    R, n = 64.0, 17
    profile, curve, c, xs, tc = injected_field(family, alpha, R, n)
    octaves = FAMILIES[family].octaves
    grid = TimeGrid(*octaves(R, alpha, 0.0, c), points_per_octave=2) if octaves else TimeGrid()
    want = maximal_field(profile, curve, 2.0, 0.1, xs, grid, critical_times=tc if inject else None)
    got = family_field(family, R, alpha, 0.0, c, 2.0, 0.1, n, grid, inject)
    assert np.array_equal(got.xs, want.xs) and got.ball == want.ball
    assert np.array_equal(got.sup_values, want.sup_values)
    assert np.array_equal(got.argmax_times, want.argmax_times)
    assert got.node_count_max == want.node_count_max


def serial_inject(profile, curve, delta, x, tc):
    """Reference: one point's injected score from its own one-point, one-time window pass."""

    values, initial, _ = batch_values(profile, curve, 2.0, [x], [tc])
    return abs(values[0, 0] - initial[0]) / tc ** delta


@pytest.mark.parametrize("family,alpha", [(BUMP_MODULATED, 0.5), (BUMP_DILATED, 0.2), (BOURGAIN, 0.5)])
def test_block_injection_matches_one_pass_per_point(family, alpha):
    delta = 0.1
    profile, curve, _, xs, tc = injected_field(family, alpha, 64.0)
    # the empty grid: each sup is the injected score itself
    fld = maximal_field(profile, curve, 2.0, delta, xs, TimeGrid(), critical_times=tc)
    assert np.array_equal(fld.argmax_times, tc)
    ref = [serial_inject(profile, curve, delta, float(x), float(t)) for x, t in zip(xs, tc)]
    np.testing.assert_allclose(fld.sup_values, ref, rtol=1e-9, atol=0.0)


def test_lemma_empirical_rejects_higher_dimensions():
    lip2 = Regime(d=2, alpha=1, m=2, smoothness=LIPSCHITZ)
    with pytest.raises(DomainValidationError):
        lemma_empirical(lip2, 5, 7, CurveSpec(MINUS_SHIFT, alpha=1.0))


def test_rate_ceiling_demo():
    curve = MINUS_HALF
    pairs, running = rate_ceiling_demo(gaussian_like(amplitude=0.0), curve, j_lo=4, j_hi=8)
    assert all(r == 0.0 for _, r in pairs)
    pairs, running = rate_ceiling_demo(gaussian_like(), curve, x_star=0.3, j_lo=4, j_hi=12)
    assert running[-1] > 0.0
    assert running[-1] <= min(r for _, r in pairs) + 1e-18
    with pytest.raises(DomainValidationError):
        rate_ceiling_demo(gaussian_like(), CurveSpec("straight"))
    with pytest.raises(DomainValidationError, match="j_lo <= j_hi"):
        rate_ceiling_demo(gaussian_like(), curve, j_lo=5, j_hi=4)


def test_lemma_profile_rejects_an_empty_list_of_js():
    with pytest.raises(DomainValidationError, match="at least one j"):
        lemma_profile(Regime(d=1, alpha=0.5, m=2), 5, [], MINUS_HALF)


@pytest.mark.parametrize("c", [0.0, -0.01, math.nan, math.inf])
def test_family_field_rejects_a_window_constant_that_is_not_finite_and_positive(monkeypatch, c):
    def refuse(*args, **kwargs):
        raise AssertionError("a kernel ran")

    for kernel in ("batch_values", "certified_value", "point_values"):
        monkeypatch.setattr(maximal, kernel, refuse)
    with pytest.raises(DomainValidationError, match="window constant"):
        family_field(INDICATOR_BAND, 64.0, 0.25, 0.0, c, 2.0, 0.0, 9, TimeGrid(16, 18), inject=True)
    with pytest.raises(DomainValidationError, match="window constant"):
        critical_time(INDICATOR_BAND, PLUS_HALF, 64.0, 0.0, 0.001, window_constant=c)


def test_calibrate_window_constants_deterministic():
    assert calibrate_window_constant(BUMP_MODULATED, 0.5, R_min=64.0) == 0.9
    assert calibrate_window_constant(BUMP_MODULATED, 0.5, R_min=32.0) == 0.9
    with pytest.raises(WindowError):
        calibrate_window_constant(BUMP_MODULATED, 0.5, R_min=16.0)  # R too small
    assert calibrate_window_constant(BUMP_DILATED, 0.2, R_min=32.0, R_max=1024.0) == 3.2
    assert calibrate_window_constant(INDICATOR_BAND, 0.25) == 0.01
    assert calibrate_window_constant(INDICATOR_BAND, 0.5) == 0.04
    assert calibrate_window_constant(BUMP_TENSOR, 0.5) == 0.04
    assert calibrate_window_constant(BOURGAIN, 0.5) == 0.9


def test_admissible_windows():
    assert family_spec(BUMP_MODULATED).window(64.0, 0.5, 0.0, 0.4) == (0.2, 0.4)
    lo, hi = family_spec(BUMP_DILATED).window(64.0, 0.2, 0.0, 3.2)
    assert lo == pytest.approx(1.6 * 64.0 ** -0.4) and hi == pytest.approx(3.2 * 64.0 ** -0.4)
    assert family_spec(INDICATOR_BAND).window(64.0, 0.25, 0.0, 0.01) == (-0.01, 0.01)
    assert family_spec(BOURGAIN).window(64.0, 0.5, 0.0, 0.9) == (-0.9, -0.45)


# (family, alpha, curve, calibrated c at R 64..1024, window at R = 64 and eps = 0.1,
#  critical time at the window's midpoint, predicted slope at d = 1 and d = 2
#  for delta 0.1, s 0.2, eps 0.1)
FAMILY_TABLE = [
    (BUMP_DILATED, 0.2, MINUS_SHIFT, 3.2, (0.3031433133020796, 0.6062866266041592),
     0.019440000000000002, 0.3, 0.3),
    (BUMP_MODULATED, 0.5, MINUS_SHIFT, 0.9, (0.45, 0.9), 8.129681704624686e-05, 0.3, 0.3),
    (BUMP_TENSOR, 0.5, MINUS_SHIFT, 0.04, (0.0004736614270344994, 0.0009473228540689988),
     7.324218749999997e-06, 0.03, 0.03),
    (INDICATOR_BAND, 0.25, PLUS_SHIFT, 0.01, (-0.01, 0.01), 5.960464477539063e-10, 0.2, 0.2),
    (BOURGAIN, 0.5, MINUS_SHIFT, 0.9, (-0.9, -0.45), 0.005872106822258313, 0.15, 7.0 / 30.0),
]


@pytest.mark.parametrize("family,alpha,kind,c,window,t_mid,slope1,slope2", FAMILY_TABLE)
def test_family_table_values(family, alpha, kind, c, window, t_mid, slope1, slope2):
    assert calibrate_window_constant(family, alpha, R_min=64.0, R_max=1024.0) == c
    lo, hi = family_spec(family).window(64.0, alpha, 0.1, c)
    assert (lo, hi) == pytest.approx(window, rel=1e-14)
    curve = CurveSpec(kind, alpha=alpha)
    t = critical_time(family, curve, 64.0, 0.1, 0.5 * (lo + hi), window_constant=c)
    assert t == pytest.approx(t_mid, rel=1e-12)
    assert family_spec(family).slope(1, alpha, 0.1, 0.2, 0.1) == pytest.approx(slope1, rel=1e-12)
    assert family_spec(family).slope(2, alpha, 0.1, 0.2, 0.1) == pytest.approx(slope2, rel=1e-12)


def _zero_in_s(family, d, alpha, delta):
    """The s at which the family's predicted slope, affine in s, vanishes (epsilon = 0)."""

    slope = family_spec(family).slope
    at0, at1 = slope(d, alpha, delta, 0.0, 0.0), slope(d, alpha, delta, 1.0, 0.0)
    return at0 / (at0 - at1)


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_each_family_realises_a_line_of_the_atlas(family):
    # a family's blow-up can never beat the sharp threshold s(delta), and
    # each family is sharp somewhere: the zero of its slope touches the law
    alphas = [k / 40 for k in range(1, 41) if FAMILIES[family].alpha_ok(k / 40)]
    assert alphas
    for alpha in alphas:
        law = law_for(Regime(1, alpha, 2))
        gaps = [float(law(delta)) - _zero_in_s(family, 1, alpha, delta)
                for delta in alpha * np.arange(200) / 200]
        assert -1e-12 <= min(gaps) <= 1e-12, (family, alpha, min(gaps))


def test_bourgain_plane_realises_the_plane_lipschitz_law():
    law = law_for(Regime(2, 1, 2, LIPSCHITZ))
    for delta in np.arange(100) / 300:  # [0, 1/3), where delta + 1/3 leads 2 delta
        assert _zero_in_s(BOURGAIN, 2, 0.5, delta) == pytest.approx(float(law(delta)), abs=1e-12)


# alpha ranges on which each family's window calibrates at R_min = 64, R_max = 1024
_ALPHA_RANGES = {
    BUMP_DILATED: (0.05, 0.35),
    BUMP_MODULATED: (0.25, 1.0),
    BUMP_TENSOR: (0.5, 1.0),
    INDICATOR_BAND: (0.125, 0.5),
    BOURGAIN: (0.5, 1.0),
}


def _stationarity_residual(family, t, x, R, alpha, eps, c):
    """(residual, scale) of the family's critical-time equation."""

    if family == BUMP_DILATED:
        return t ** alpha - x, x
    if family == BUMP_TENSOR:
        return t * R ** (1.0 + eps) - x, x
    if family == INDICATOR_BAND:
        return t - c * R ** (-1.0 / alpha), t
    if family == BUMP_MODULATED:
        return x - t ** alpha - 2.0 * R * R * t, x
    return x - t ** alpha + 2.0 * R * t, abs(x)


@pytest.mark.parametrize("family", sorted(_ALPHA_RANGES))
@settings(max_examples=40, deadline=None)
@given(
    R=st.floats(64.0, 1024.0),
    u=st.floats(0.0, 1.0),
    v=st.floats(0.0, 1.0),
    eps=st.floats(0.0, 0.25),
)
def test_critical_time_solves_the_stationarity_equation(family, R, u, v, eps):
    a_lo, a_hi = _ALPHA_RANGES[family]
    alpha = a_lo + u * (a_hi - a_lo)
    c = calibrate_window_constant(family, alpha, R_min=64.0, R_max=1024.0)
    lo, hi = family_spec(family).window(R, alpha, eps, c)
    x = lo + v * (hi - lo)
    kind = PLUS_SHIFT if family == INDICATOR_BAND else MINUS_SHIFT
    t = critical_time(family, CurveSpec(kind, alpha=alpha), R, eps, x, window_constant=c)
    assert 0.0 < t <= 1.0
    residual, scale = _stationarity_residual(family, t, x, R, alpha, eps, c)
    assert abs(residual) <= 1e-10 * scale
