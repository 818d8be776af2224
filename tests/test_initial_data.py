"""Initial-data families: bump infrastructure, profiles, Sobolev norms,
dyadic localization. Oracle values come from independent quadrature."""

import math
import warnings

import numpy as np
import pytest

from curverate.errors import AccuracyError, DomainValidationError
from curverate.quadrature import PANEL_ORDER
from curverate import initial_data
from curverate.curves import STRAIGHT, CurveSpec
from curverate.initial_data import (
    BOURGAIN,
    BUMP_NORMALIZATION,
    DECAY_THRESHOLD,
    FrequencyProfile,
    annulus_bump,
    bourgain_physical,
    bourgain_profile,
    bump_dilated,
    bump_eval,
    bump_modulated,
    bump_tensor,
    bump_transform,
    coordinate_factors,
    decay_threshold,
    fourier_eval,
    gaussian_like,
    indicator_band,
    lattice_points,
    lattice_scale,
    sobolev_norm,
    window_physical,
    window_transform,
    window_transform_direct,
)
from curverate.propagator import batch_initial, evaluate

TWO_PI = 2.0 * math.pi


def test_bump_normalization_against_mpmath_oracle():
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 30
    raw = lambda x: mp.e ** (-1 / (mp.mpf(1) / 4 - x * x))
    integral = mp.quad(raw, [mp.mpf(-1) / 2, 0, mp.mpf(1) / 2])
    assert abs(float(1 / integral) - BUMP_NORMALIZATION) < 1e-12 * BUMP_NORMALIZATION


def test_bump_mass_one():
    from curverate.quadrature import PANEL_ORDER, panel_nodes

    xs, ws = panel_nodes(-0.5, 0.5, 200 * PANEL_ORDER)
    assert abs(float(np.sum(ws * bump_eval(xs))) - 1.0) <= 1e-12


def test_bump_pointwise_examples():
    assert bump_eval(0.75) == 0.0
    assert bump_eval(0.0) == pytest.approx(BUMP_NORMALIZATION * math.exp(-4.0), rel=1e-15)
    assert bump_eval(-0.5) == 0.0 and bump_eval(0.5) == 0.0


def test_fourier_eval_examples():
    g0 = bump_eval(0.0)
    assert fourier_eval(bump_dilated(100.0), 0.0) == pytest.approx(g0 / 100.0, rel=1e-15)
    band = indicator_band(8.0)
    assert fourier_eval(band, 8.5) == 1.0
    assert fourier_eval(band, 9.5) == 0.0
    assert fourier_eval(bump_modulated(10.0), -100.0) == pytest.approx(g0 / 10.0, rel=1e-15)


def test_fourier_zero_outside_support_box():
    profiles = [
        bump_dilated(64.0),
        bump_modulated(16.0),
        bump_tensor(16.0, 0.1),
        indicator_band(32.0),
        annulus_bump(5),
        gaussian_like(),
    ]
    for p in profiles:
        (lo, hi), = p.support_box
        for eta in (lo - 1.0, hi + 1.0, lo - 1e-9 * max(1.0, abs(lo)), 10.0 * hi + 7.0):
            if lo <= eta <= hi:
                continue
            assert fourier_eval(p, eta) == 0.0, (p.kind, eta)


def test_support_boxes():
    assert bump_dilated(10.0).support_box == ((-5.0, 5.0),)
    assert bump_modulated(10.0).support_box == ((-105.0, -95.0),)
    assert indicator_band(8.0).support_box == ((8.0, 9.0),)
    assert annulus_bump(4).support_box == ((8.0, 32.0),)
    lo, hi = bump_tensor(10.0, 0.1).support_box[0]
    centre = -(10.0 ** 1.1)
    assert lo == pytest.approx(centre - 5.0) and hi == pytest.approx(centre + 5.0)


@pytest.mark.parametrize("profile", [
    bump_tensor(16.0, 0.1, d=2), bump_tensor(8.0, 0.0, d=3), bump_dilated(64.0), gaussian_like(),
    indicator_band(8.0), bump_modulated(16.0), annulus_bump(4),
])
def test_fourier_eval_on_an_array_is_the_per_point_calls_bit_for_bit(profile):
    rng = np.random.default_rng(3)
    boxes = profile.support_box
    pts = np.column_stack([rng.uniform(lo - 1.0, hi + 1.0, 37) for lo, hi in boxes])
    pts[::6] = [0.5 * (lo + hi) for lo, hi in boxes]
    arg = pts if profile.d > 1 else pts[:, 0]  # (n, d) points, (n,) at d = 1
    got = fourier_eval(profile, arg)
    want = np.array([fourier_eval(profile, p if profile.d > 1 else float(p[0])).real for p in pts])
    assert got.shape == (37,) and got.tobytes() == want.tobytes()
    assert np.count_nonzero(got) >= 7
    if profile.d == 1:  # an (n, 1) array is n points of R^1 too
        assert fourier_eval(profile, pts).tobytes() == want.tobytes()


@pytest.mark.parametrize("eta", [np.zeros((4, 3)), np.zeros(3), np.zeros((2, 2, 2)), 0.5])
def test_fourier_eval_rejects_points_of_another_dimension(eta):
    with pytest.raises(DomainValidationError, match=r"eta must be a point in R\^2 or an \(n, 2\) array"):
        fourier_eval(bump_tensor(16.0, 0.1, d=2), eta)


def test_fourier_eval_bourgain_is_the_product_of_its_factors():
    rng = np.random.default_rng(5)
    for profile in (bourgain_profile(16.0), bourgain_profile(256.0, d=2)):
        factors = coordinate_factors(profile)
        boxes = profile.support_box
        pts = np.column_stack([rng.uniform(lo - 2.0, hi + 2.0, 41) for lo, hi in boxes])
        pts[::5] = [0.5 * (lo + hi) for lo, hi in boxes]
        want = np.ones(len(pts))
        for j, f in enumerate(factors):
            want = want * f.func(pts[:, j])
        got = fourier_eval(profile, pts if profile.d > 1 else pts[:, 0])
        assert got.tobytes() == want.tobytes()
        assert np.count_nonzero(got) >= 9
        outside = np.any([(pts[:, j] < lo) | (pts[:, j] > hi) for j, (lo, hi) in enumerate(boxes)], axis=0)
        assert outside.any() and not got[outside].any()


@pytest.mark.parametrize("profile", [
    bump_dilated(16.0), bump_modulated(16.0), bump_tensor(16.0, 0.1, d=2), indicator_band(8.0),
    bourgain_profile(16.0), bourgain_profile(4096.0, d=2), annulus_bump(3), gaussian_like(),
], ids=lambda p: f"{p.kind}-d{p.d}")
def test_factor_hull_and_width_are_the_segments_extremes_and_total_length(profile):
    for f in coordinate_factors(profile):
        assert f.hull == (min(a for a, _ in f.segments), max(b for _, b in f.segments))
        assert f.width == sum(b - a for a, b in f.segments)
    assert profile.support_box == tuple(f.hull for f in coordinate_factors(profile))


def test_bourgain_d2_needs_a_lattice_point():
    # R / D = R^{1/3}: R = 1 is the one R >= 1 with no integer in (R/(2D), R/D)
    assert lattice_points(1.0, 2) == [] and lattice_points(1.01, 2) == [1]
    with pytest.raises(DomainValidationError, match=r"^bourgain d = 2 has no lattice point at R=1\.0$"):
        FrequencyProfile(BOURGAIN, d=2, R=1.0)
    assert len(bourgain_profile(1.01, d=2).support_box) == 2


def test_physical_eval_examples():
    # f(0) is the t = 0 value of a certified propagator pass
    f0 = lambda profile: evaluate(profile, CurveSpec(STRAIGHT), 2.0, 0.0, 0.0).initial
    assert f0(indicator_band(8.0)) == pytest.approx(1.0 / TWO_PI, rel=1e-12)
    # substitution oracle: f(0) = (2 pi)^{-1} * integral g = 1/(2 pi)
    assert f0(bump_dilated(100.0)) == pytest.approx(1.0 / TWO_PI, rel=1e-9)
    # degenerate lattice product at d = 1
    assert bourgain_physical(bourgain_profile(16.0), 0.0) == pytest.approx(1.0, rel=1e-12)


def test_bourgain_window_properties():
    assert window_physical(0.0) == pytest.approx(1.0, rel=1e-14)
    us = np.linspace(-30.0, 30.0, 401)
    vals = np.array([window_physical(float(u)) for u in us])
    assert np.all(vals >= -1e-15)
    # phihat interpolant matches direct convolution quadrature
    uu = np.linspace(-1.1, 1.1, 777)
    assert np.max(np.abs(window_transform(uu) - window_transform_direct(uu))) < 1e-12


def test_window_transform_table_is_built_in_row_blocks():
    # the 401-point build tables the shifted bump 16 points at a time: about
    # 1.3 MB at the peak, where one 401 x 1536 table peaked at 15.9 MB
    import tracemalloc

    from curverate import initial_data

    initial_data._window_transform_cheb.cache_clear()
    tracemalloc.start()
    try:
        initial_data._window_transform_cheb()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4e6


def test_lattice_construction():
    assert lattice_scale(64.0, 2) == pytest.approx(64.0 ** (2.0 / 3.0))
    ells = lattice_points(64.0, 2)
    D = lattice_scale(64.0, 2)
    assert all(64.0 / (2 * D) < ell < 64.0 / D for ell in ells)
    assert len(ells) >= 1


@pytest.mark.parametrize("R", [2.0, 4.0, 8.0, 16.0, 64.0, 1024.0])
def test_lattice_factor_is_the_sum_over_lattice_points(R):
    # R = 2 has D < 2, where the nearest lattice point must be clipped to
    # the lattice; R = 8 has no lattice point
    D, ells = lattice_scale(R, 2), lattice_points(R, 2)
    factor = coordinate_factors(bourgain_profile(R, d=2))[1]

    def per_point(eta):  # one window per lattice point, summed
        return sum((np.atleast_1d(window_transform(eta - D * ell)) for ell in ells), np.zeros_like(eta))

    eta = np.linspace(-2.0, D * max(ells, default=1) + 2.0, 4001)
    for e in (eta, eta[2000]):
        got, want = factor.func(e), per_point(e)
        assert got.shape == want.shape and np.array_equal(got, want)


@pytest.mark.parametrize("profile,s", [(bump_dilated(64.0), 0.7), (gaussian_like(0.5), 1.3)])
def test_sobolev_norm_at_d1_is_the_sum_of_its_segment_sums_bit_for_bit(profile, s):
    from curverate.quadrature import PANEL_ORDER, panel_nodes

    (factor,) = coordinate_factors(profile)
    assert len(factor.segments) == 2  # split at 0
    total = 0.0
    for lo, hi in factor.segments:
        xs, ws = panel_nodes(lo, hi, 128 * PANEL_ORDER)
        total += float(np.sum(ws * (1.0 + xs * xs) ** s * np.abs(factor.func(xs)) ** 2))
    assert sobolev_norm(profile, s) == math.sqrt(total)


def test_sobolev_norm_examples():
    assert sobolev_norm(indicator_band(8.0), 0.0) == pytest.approx(1.0, rel=1e-12)
    # Plancherel cross-check by independent rectangle quadrature
    p = bump_dilated(32.0)
    etas = np.linspace(-16.0, 16.0, 200001)
    riemann = float(np.sum(np.abs(np.array([fourier_eval(p, e) for e in etas[::100]])) ** 2))
    # coarse Riemann check at the right order of magnitude only
    h = (etas[::100][1] - etas[::100][0])
    assert sobolev_norm(p, 0.0) ** 2 == pytest.approx(riemann * h, rel=1e-3)


def test_sobolev_norm_failure_reports_both_squared_integrals(monkeypatch):
    profile, s = bump_dilated(64.0), 0.5
    coarse = sobolev_norm(profile, s) ** 2
    real = initial_data.panel_nodes

    def skewed(lo, hi, min_nodes):  # the doubled pass's weights are 1e-6 too large
        xs, ws = real(lo, hi, min_nodes)
        return xs, ws * (1.0 + 1e-6) if min_nodes == 128 * PANEL_ORDER else ws

    monkeypatch.setattr(initial_data, "panel_nodes", skewed)
    with pytest.raises(AccuracyError, match="node-doubling self-check failed") as err:
        sobolev_norm(profile, s)
    assert err.value.context == "kind=bump-dilated, s=0.5"
    assert isinstance(err.value.coarse, float) and isinstance(err.value.fine, float)
    assert err.value.coarse == pytest.approx(coarse, rel=1e-12)
    assert err.value.fine == pytest.approx(coarse * (1.0 + 1e-6), rel=1e-12)


def test_sobolev_monotone_in_s():
    p = bump_modulated(16.0)
    vals = [sobolev_norm(p, s) for s in (0.0, 0.25, 0.5, 1.0)]
    assert all(b >= a for a, b in zip(vals, vals[1:]))
    with pytest.raises(DomainValidationError):
        sobolev_norm(p, -0.1)


def test_sobolev_bourgain_d2_tensor_structure():
    assert sobolev_norm(bourgain_profile(64.0, d=2), 0.5) > 0.0


def test_annulus_bump_unit_mass():
    p = annulus_bump(6)
    assert sobolev_norm(p, 0.0) == pytest.approx(math.sqrt(TWO_PI), rel=1e-12)


def test_decay_threshold_invariant():
    # the frozen constant is the 24001-point scan's value, bit for bit
    us = np.linspace(0.0, 600.0, 24001)
    running = np.maximum.accumulate(np.abs(bump_transform(us))[::-1])[::-1]
    assert float(us[int(np.argmax(running <= 0.25))]) == DECAY_THRESHOLD
    X0 = decay_threshold()
    assert X0 == DECAY_THRESHOLD
    for profile, R in ((bump_dilated(64.0), 64.0), (bump_modulated(64.0), 64.0),
                       (bump_tensor(64.0, 0.1), 64.0)):
        f = batch_initial(profile, np.array([X0, 2.0 * X0, 5.7 * X0]) / R)
        assert np.all(np.abs(f) <= 1.0 / (8.0 * math.pi) + 1e-12), profile.kind


def test_ghat_decreasing_scale():
    assert bump_transform(0.0) == pytest.approx(1.0, rel=1e-12)
    assert abs(bump_transform(40.0)) < 0.01


def test_profile_validation():
    with pytest.raises(DomainValidationError):
        FrequencyProfile("mystery")
    with pytest.raises(DomainValidationError):
        bump_dilated(0.5)
    with pytest.raises(DomainValidationError):
        bourgain_profile(8.0, d=3)
    with pytest.raises(DomainValidationError):
        annulus_bump(0)


@pytest.mark.parametrize(
    "kind", ["bump-dilated", "bump-modulated", "indicator-band", "annulus-bump", "gaussian-like"]
)
def test_a_one_dimensional_kind_rejects_another_dimension(kind):
    # checked before the scale, so a bad R does not hide the dimension
    with pytest.raises(DomainValidationError, match=f"^{kind} data are one-dimensional, not d=2$"):
        FrequencyProfile(kind, d=2, R=0.5, scale_index=1)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("field", ["R", "epsilon"])
@pytest.mark.parametrize("kind", ["bump-dilated", "bump-modulated", "bump-tensor", "indicator-band"])
def test_profile_rejects_a_non_finite_scale(kind, field, bad):
    with pytest.raises(DomainValidationError, match="must be finite"):
        FrequencyProfile(kind, **{"R": 16.0, "epsilon": 0.1, field: bad})


@pytest.mark.parametrize("make,args,message", [
    pytest.param(indicator_band, (1e300,), "segment", id="indicator-band R + 1 == R"),
    pytest.param(indicator_band, (1e17,), "segment", id="indicator-band R = 1e17"),
    pytest.param(bourgain_profile, (1e300,), "segment", id="bourgain R + sqrt(R) == R"),
    pytest.param(bump_modulated, (1e17,), "segment", id="bump-modulated -R^2 + R/2 == -R^2"),
    pytest.param(bump_tensor, (1e10, 30.0), "overflows", id="bump-tensor R^(1 + epsilon) overflows"),
    pytest.param(gaussian_like, (math.nan,), "segment", id="gaussian-like NaN center"),
    pytest.param(gaussian_like, (-math.inf,), "segment", id="gaussian-like infinite center"),
])
def test_a_datum_whose_support_rounds_away_is_a_domain_error(make, args, message):
    # no factor of a datum may have a segment without finite ends lo < hi
    with pytest.raises(DomainValidationError, match=message):
        make(*args)


def test_a_non_finite_sobolev_norm_is_an_accuracy_error():
    # (1 + xi^2)^s overflows on both rules: inf == inf, but their gap is NaN
    with pytest.raises(AccuracyError) as err:
        sobolev_norm(gaussian_like(), 1e300)
    assert (err.value.coarse, err.value.fine) == (math.inf, math.inf)


@pytest.mark.parametrize("profile, s", [(gaussian_like(), 1e300), (bump_modulated(1e8), 40.0)])
def test_an_overflowing_sobolev_norm_warns_nothing(profile, s):
    # (1 + xi^2)^s overflows, and inf * 0 or inf - inf is NaN: the error says so, numpy does not
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(AccuracyError):
            sobolev_norm(profile, s)


@pytest.mark.parametrize("s", [math.nan, math.inf, -0.1])
def test_sobolev_norm_rejects_an_s_that_is_not_finite_and_non_negative(s):
    with pytest.raises(DomainValidationError, match="sobolev_norm needs a finite s >= 0"):
        sobolev_norm(bump_dilated(16.0), s)
