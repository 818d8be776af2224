"""Propagator: closed-form oracles, symmetry identities, accuracy contract."""

import math
import re
import weakref
from contextlib import contextmanager
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from curverate.curves import CUSTOM, CurveSpec, MINUS_SHIFT, PLUS_SHIFT, STRAIGHT, gamma as curve_gamma, gamma_pairs
from curverate.errors import AccuracyError, DomainValidationError
from curverate.initial_data import (
    CoordinateFactor,
    FrequencyProfile,
    annulus_bump,
    bourgain_physical,
    bourgain_profile,
    bump_dilated,
    bump_modulated,
    bump_tensor,
    coordinate_factors,
    gaussian_like,
    indicator_band,
    sobolev_norm,
)
from curverate import propagator
from curverate.exponents import Regime
from curverate.maximal import FAMILIES, calibrate_window_constant, critical_time, lemma_profile, window_grid
from curverate.propagator import (
    CACHED_RULE_NODES,
    PHASE_GUARD,
    RULE_CACHE_SIZE,
    UNIT_ROUNDOFF,
    _budgets,
    _cached_weighted_rule,
    _chirp,
    _chirp_phase_error,
    _pair_quadrature,
    _quadrature,
    _weighted_rule,
    batch_initial,
    batch_values,
    certified_value,
    evaluate,
    evaluate_grid,
    phase_variation,
    point_values,
)
from curverate.quadrature import PANEL_ORDER, SELF_CHECK_TOL, _certify, panel_nodes

STRAIGHT_1D = CurveSpec(STRAIGHT, alpha=1.0)
TWO_PI = 2.0 * math.pi


def _hull(factor):
    """(C, W): midpoint and half-width of the hull of factor's segments."""
    lo, hi = factor.hull
    return 0.5 * (lo + hi), 0.5 * (hi - lo)


def panels(V, factor, chirp=False):
    """factor's nodes for a phase variation V, in whole panels, at the propagator's current constants.

    At the chirp-z rate with chirp, else at the Gauss-Legendre rate.
    """
    floor = max(propagator.BASE_NODES, propagator.SEGMENT_NODES * len(factor.segments))
    rate = propagator.CHIRP_NODES_PER_RADIAN if chirp else propagator.NODES_PER_RADIAN
    n = max(floor, int(math.ceil(rate * V)))
    return -(-n // PANEL_ORDER) * PANEL_ORDER


def node_budget(gamma_lo, gamma_hi, t, m, factor, chirp=False):
    """The node-budget formula for gamma in [gamma_lo, gamma_hi] at one time, in Python integers."""
    return panels(phase_variation(gamma_lo, gamma_hi, t, m, factor), factor, chirp)


def spec_budget(reach, t, m, factor):
    """The triangle-inequality budget at |gamma| <= reach: (reach + m t max|xi|^{m-1}) * width."""
    xi_max = max(max(abs(lo), abs(hi)) for lo, hi in factor.segments)
    width = sum(hi - lo for lo, hi in factor.segments)
    return panels((abs(reach) + t * m * (xi_max ** (m - 1.0) if xi_max > 0 else 0.0)) * width, factor)


@pytest.fixture
def tight_cap(monkeypatch):
    """A 128-node cap over the 64-node floor, which a point 40 from the origin at t = 1 exceeds."""
    monkeypatch.setattr(propagator, "MAX_NODES", 128)


def coarse_density(monkeypatch, nodes_per_radian):
    """A Gauss-Legendre density below the default, too coarse for large phases."""
    monkeypatch.setattr(propagator, "NODES_PER_RADIAN", nodes_per_radian)


def bucket(n):
    """PANEL_ORDER * 2^k, the smallest such count of at least n nodes."""
    return PANEL_ORDER * (1 << max(0, (max(1, -(-n // PANEL_ORDER)) - 1).bit_length()))


def one_pair(profile, curve, m, x, t):
    """certified_value at the one pair (x, t): (value, node count)."""
    values, used = certified_value(profile, curve, m, [x], [t])
    return complex(values[0]), used


def gaussian_closed_form(x, t):
    """(2 pi)^{-1} integral e^{i(x xi + t xi^2)} e^{-xi^2} dxi, exact."""
    z = 1.0 - 1j * t
    return (1.0 / TWO_PI) * np.sqrt(np.pi / z) * np.exp(-x * x / (4.0 * z))


def band_fresnel_closed_form(R, gamma, t):
    """(2 pi)^{-1} integral over [R, R+1] of e^{i(gamma xi + t xi^2)} dxi, t > 0.

    Completing the square, t xi^2 + gamma xi = t (xi + b)^2 - gamma^2/(4t)
    with b = gamma/(2t); v = (xi + b) sqrt(2t/pi) turns the rest into the
    Fresnel integrals C(v) + i S(v) of integrand e^{i pi v^2 / 2}.
    """
    mp = pytest.importorskip("mpmath")
    with mp.workdps(40):
        gamma, t = mp.mpf(gamma), mp.mpf(t)
        b, k = gamma / (2 * t), mp.sqrt(2 * t / mp.pi)
        v1, v2 = (R + b) * k, (R + 1 + b) * k
        fresnel = (mp.fresnelc(v2) - mp.fresnelc(v1)) + 1j * (mp.fresnels(v2) - mp.fresnels(v1))
        value = fresnel / k * mp.exp(-1j * gamma ** 2 / (4 * t)) / (2 * mp.pi)
        return complex(value)


def test_time_zero_identity_exact():
    for profile in (gaussian_like(), bump_dilated(32.0), indicator_band(16.0)):
        s = evaluate(profile, STRAIGHT_1D, 2.0, 0.37, 0.0)
        assert s.value == s.initial


@pytest.mark.parametrize("x,t", [(0.3, 0.2), (0.0, 0.5), (-1.1, 0.05), (2.0, 1.0)])
def test_gaussian_closed_form_agreement(x, t):
    s = evaluate(gaussian_like(), STRAIGHT_1D, 2.0, x, t)
    assert abs(s.value - gaussian_closed_form(x, t)) < 1e-6


def test_modulation_covariance_identity():
    eta0 = 3.7
    shifted = gaussian_like(center=eta0)
    base = gaussian_like()
    for x, t in ((0.2, 0.3), (-0.4, 0.07), (0.1, 0.9)):
        a = evaluate(shifted, STRAIGHT_1D, 2.0, x, t).value
        b = evaluate(base, STRAIGHT_1D, 2.0, x + 2.0 * t * eta0, t).value
        assert abs(abs(a) - abs(b)) < 1e-8


def test_conservation_upper_bound_and_trend():
    profile = gaussian_like()
    mass = sobolev_norm(profile, 0.0) ** 2 / TWO_PI
    totals = []
    for L in (15.0, 30.0):
        xs = np.linspace(-L, L, int(40 * L))
        vals, _, _ = batch_values(profile, STRAIGHT_1D, 2.0, xs, [0.2])
        totals.append(float(np.sum(np.abs(vals[:, 0]) ** 2) * (xs[1] - xs[0])))
    for tot in totals:
        assert tot <= mass + 1e-6
    assert abs(totals[1] - mass) <= abs(totals[0] - mass) + 1e-12


def test_small_time_continuity_trend():
    curve = CurveSpec(MINUS_SHIFT, alpha=0.5)
    diffs = []
    for j in range(10, 21):
        s = evaluate(gaussian_like(), curve, 2.0, 0.3, 2.0 ** -j)
        diffs.append(abs(s.value - s.initial))
    assert all(b <= a for a, b in zip(diffs, diffs[1:]))
    assert diffs[-1] < 1e-4


def test_indicator_band_lower_bound_example():
    # plus-shift, alpha = 1/2, t0 = c R^{-2} with c = 0.01, x = 0.005
    curve = CurveSpec(PLUS_SHIFT, alpha=0.5)
    t0 = 0.01 * 8.0 ** -2
    s = evaluate(indicator_band(8.0), curve, 2.0, 0.005, t0)
    assert abs(s.value - s.initial) >= 0.01 ** 0.5 / (8.0 * math.pi)


def test_domain_errors():
    with pytest.raises(DomainValidationError):
        evaluate(gaussian_like(), STRAIGHT_1D, -1.0, 0.0, 0.1)
    with pytest.raises(DomainValidationError):
        evaluate(gaussian_like(), STRAIGHT_1D, 2.0, 0.0, 1.5)
    with pytest.raises(DomainValidationError):
        evaluate(bourgain_profile(16.0, d=2), CurveSpec(MINUS_SHIFT, alpha=0.5, d=2), 1.5,
                 np.array([0.1, 0.2]), 0.1)


def test_node_cap_accuracy_error_carries_no_estimates(tight_cap):
    # no pass runs past the cap, so there is nothing to attach
    with pytest.raises(AccuracyError) as err:
        evaluate(gaussian_like(), STRAIGHT_1D, 2.0, 40.0, 1.0)
    assert err.value.coarse is None and err.value.fine is None
    assert "coarse=" not in str(err.value)
    assert err.value.context == "kind=gaussian-like, x=40.0, t=1.0"


def test_fractional_dispersion_runs():
    s = evaluate(indicator_band(8.0), CurveSpec(PLUS_SHIFT, alpha=0.4), 1.5, 0.01, 1e-4)
    assert abs(s.value) > 0.0
    s2 = evaluate(gaussian_like(), STRAIGHT_1D, 0.5, 0.2, 0.3)
    assert abs(s2.value) > 0.0


def test_evaluate_grid_matches_pointwise_and_collects_failures(monkeypatch):
    profile = gaussian_like()
    xs = [0.0, 0.4]
    ts = [0.0, 0.25]
    samples, failures = evaluate_grid(profile, STRAIGHT_1D, 2.0, xs, ts)
    assert not failures
    assert len(samples) == 4
    for s in samples:
        direct = evaluate(profile, STRAIGHT_1D, 2.0, s.x, s.t)
        assert s.value == direct.value and s.initial == direct.initial

    monkeypatch.setattr(propagator, "MAX_NODES", 256)
    samples, failures = evaluate_grid(profile, STRAIGHT_1D, 2.0, [0.0, 40.0], [0.01])
    assert len(failures) == 1 and len(samples) == 1
    assert failures[0][0] == 40.0


def test_evaluate_grid_runs_in_the_calling_process(monkeypatch):
    # workers is validated but starts no process, so a grid with a failure in
    # the middle gives the workers=1 samples and failures, in grid order
    import concurrent.futures
    import multiprocessing
    from multiprocessing.process import BaseProcess

    def refuse(*args, **kwargs):
        raise AssertionError("evaluate_grid started a process")

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", refuse)
    monkeypatch.setattr(BaseProcess, "start", refuse)
    monkeypatch.setattr(propagator, "MAX_NODES", 256)
    profile, xs, ts = gaussian_like(), [0.0, 40.0, 0.3], [0.01, 0.2]
    serial = evaluate_grid(profile, STRAIGHT_1D, 2.0, xs, ts, workers=1)
    samples, failures = evaluate_grid(profile, STRAIGHT_1D, 2.0, xs, ts, workers=2)
    assert multiprocessing.active_children() == []
    assert [(f[0], f[1]) for f in failures] == [(40.0, 0.01), (40.0, 0.2)]
    assert repr((samples, failures)) == repr(serial)  # bit for bit, signed zeros too
    assert [(s.x, s.t) for s in samples] == [(0.0, 0.01), (0.0, 0.2), (0.3, 0.01), (0.3, 0.2)]


@pytest.mark.parametrize("workers", [0, -1, 1.0, "2"])
def test_evaluate_grid_rejects_bad_worker_counts(workers):
    with pytest.raises(DomainValidationError, match="workers"):
        evaluate_grid(gaussian_like(), STRAIGHT_1D, 2.0, [0.0], [0.1], workers=workers)


def test_batch_matches_pointwise():
    curve = CurveSpec(MINUS_SHIFT, alpha=0.5)
    profile = bump_dilated(64.0)
    xs = np.array([0.02, 0.05, 0.11])
    ts = [1e-5, 1e-4, 2.0 ** -9]
    vals, init, counts = batch_values(profile, curve, 2.0, xs, ts)
    mass = sobolev_norm(profile, 0.0)  # magnitude scale
    for i, x in enumerate(xs):
        direct0 = evaluate(profile, curve, 2.0, float(x), 0.0)
        assert abs(init[i] - direct0.value) < 5e-9 * max(1.0, mass)
        for j, t in enumerate(ts):
            v, _ = one_pair(profile, curve, 2.0, float(x), float(t))
            assert abs(vals[i, j] - v) < 5e-9


def test_batch_zero_profile():
    vals, init, _ = batch_values(gaussian_like(amplitude=0.0), STRAIGHT_1D, 2.0, np.array([0.1, 0.2]), [0.1])
    assert np.all(vals == 0.0) and np.all(init == 0.0)


def test_cost_model_large_grid_stays_under_node_cap():
    # 10^3 x-points by 10^2 t-points on bump-dilated at R = 2^7: every
    # sample's doubled node budget stays below the default cap
    (factor,) = coordinate_factors(bump_dilated(128.0))
    worst = 0
    for x in np.linspace(-1.0, 1.0, 10):       # |gamma| <= 1 + t^alpha <= 2
        for t in np.linspace(0.0, 1.0, 10):
            worst = max(worst, 2 * node_budget(-abs(x) - 1.0, abs(x) + 1.0, t, 2.0, factor))
    assert worst <= propagator.MAX_NODES


def test_bourgain_d2_product_evaluation():
    profile = bourgain_profile(64.0, d=2)
    curve = CurveSpec(MINUS_SHIFT, alpha=0.5, d=2)
    s = evaluate(profile, curve, 2.0, np.array([-0.3, 0.2]), 0.002)
    assert np.isfinite(abs(s.value)) and abs(s.value) > 0.0


def test_batch_node_cap_accuracy_error_carries_no_estimates(tight_cap):
    with pytest.raises(AccuracyError) as err:
        batch_values(gaussian_like(), STRAIGHT_1D, 2.0, np.array([0.0, 40.0]), [1.0])
    assert err.value.coarse is None and err.value.fine is None
    assert "coarse=" not in str(err.value)
    assert "x=40.0" in err.value.context and "t=1.0" in err.value.context


BAND_XS = np.array([-0.05, 0.01, 0.2])
BAND_TS = [1e-4, 3e-3, 0.05]


@pytest.mark.parametrize("R", [8.0, 64.0])
def test_indicator_band_fresnel_oracle_pointwise_and_window(R):
    curve = CurveSpec(PLUS_SHIFT, alpha=0.5)
    profile = indicator_band(R)
    tol = 1e-9 / TWO_PI  # self-check tolerance at the band's L^1 mass scale
    vals, _, _ = batch_values(profile, curve, 2.0, BAND_XS, BAND_TS)
    for i, x in enumerate(BAND_XS):
        for j, t in enumerate(BAND_TS):
            exact = band_fresnel_closed_form(R, x + curve.shift(t), t)
            point, _ = one_pair(profile, curve, 2.0, float(x), t)
            assert abs(point - exact) < tol
            assert abs(vals[i, j] - exact) < tol


def test_batch_initial_matches_band_elementary_form():
    R = 16.0
    xs = np.linspace(-1.0, 1.0, 64)  # even count, so x = 0 is not in the grid
    exact = (np.exp(1j * xs * (R + 1.0)) - np.exp(1j * xs * R)) / (TWO_PI * 1j * xs)
    assert np.max(np.abs(batch_initial(indicator_band(R), xs) - exact)) < 1e-12


def test_batch_gaussian_closed_form_on_straight_curve():
    xs = np.linspace(-2.0, 2.0, 9)
    ts = [0.05, 0.2, 0.5, 1.0]
    vals, init, _ = batch_values(gaussian_like(), STRAIGHT_1D, 2.0, xs, ts)
    exact = gaussian_closed_form(xs[:, None], np.asarray(ts)[None, :])
    assert np.max(np.abs(vals - exact)) < 1e-9
    assert np.max(np.abs(init - gaussian_closed_form(xs, 0.0))) < 1e-9


@pytest.mark.parametrize("m", [0.5, 1.5])
def test_batch_fractional_dispersion_matches_pointwise(m):
    # gaussian segments end at xi = 0, so both paths run the zero-graded rule
    xs = np.array([-0.7, 0.0, 0.3])
    ts = [1e-3, 0.1, 0.6]
    vals, init, _ = batch_values(gaussian_like(), STRAIGHT_1D, m, xs, ts)
    for i, x in enumerate(xs):
        assert abs(init[i] - one_pair(gaussian_like(), STRAIGHT_1D, m, float(x), 0.0)[0]) < 1e-9
        for j, t in enumerate(ts):
            v, _ = one_pair(gaussian_like(), STRAIGHT_1D, m, float(x), t)
            assert abs(vals[i, j] - v) < 1e-9


@pytest.mark.parametrize("R", [16.0, 64.0, 256.0])
def test_bourgain_initial_matches_physical_closed_form(R):
    # the admissible bourgain window (-c, -c/2) at the calibrated c = 0.9
    xs = np.linspace(-0.9, -0.45, 7)
    profile = bourgain_profile(R)
    exact = np.array([bourgain_physical(profile, x) for x in xs])
    assert np.max(np.abs(batch_initial(profile, xs) - exact)) < 1e-12
    for x, e in zip(xs, exact):
        assert abs(one_pair(profile, STRAIGHT_1D, 2.0, float(x), 0.0)[0] - e) < 1e-12


def test_window_initial_rejects_what_the_window_pass_rejects():
    with pytest.raises(DomainValidationError):
        batch_initial(bourgain_profile(16.0, d=2), np.array([-0.5, -0.4]))
    off_origin = CurveSpec(CUSTOM, alpha=0.5, shift_fn=lambda t: t ** 0.5 + 0.1)
    with pytest.raises(DomainValidationError):
        batch_values(gaussian_like(), off_origin, 2.0, np.array([0.1, 0.2]), [0.01])


def test_failing_window_initial_reports_time_zero(tight_cap):
    with pytest.raises(AccuracyError) as err:
        batch_initial(gaussian_like(), np.array([0.0, 40.0]))
    assert "x=40.0" in err.value.context and "t=0.0" in err.value.context


@settings(max_examples=20, deadline=None)
@given(
    ends=st.tuples(st.floats(-2.0, 2.0), st.floats(-2.0, 2.0)),
    t=st.floats(0.0, 1.0, exclude_min=True),
    m=st.sampled_from([0.5, 1.5, 2.0]),
)
def test_window_initial_is_the_shared_time_zero_column(ends, t, m):
    profile = gaussian_like()
    xs = np.linspace(min(ends), max(ends), 5)
    scale = batch_initial(profile, np.zeros(1))[0].real  # f^ >= 0: f(0) is the L^1 mass scale
    vals, init, _ = batch_values(profile, STRAIGHT_1D, m, xs, [0.0, t])
    assert np.max(np.abs(vals[:, 0] - init)) <= 1e-12 * scale
    if m == 2.0:
        assert np.max(np.abs(init - batch_initial(profile, xs))) <= 1e-9 * scale
    for x, f0 in zip(xs, init):
        assert abs(one_pair(profile, STRAIGHT_1D, m, float(x), 0.0)[0] - f0) <= 1e-9 * scale


# ---------------------------------------------------------------------------
# the window kernels: the chirp-z transform (m = 2, a smooth factor, a
# uniform window of three points or more, inside the phase guard) and the
# centred Gauss-Legendre table (everything else)


@contextmanager
def kernel_paths():
    """Collects the kernel of every window pass run inside the block: "chirp" or "gl", in order."""
    seen, real = [], {name: getattr(propagator, name) for name in ("_chirp_window", "_quadrature")}
    for name, tag in (("_chirp_window", "chirp"), ("_quadrature", "gl")):
        setattr(propagator, name, lambda *a, _run=real[name], _tag=tag: seen.append(_tag) or _run(*a))
    try:
        yield seen
    finally:
        for name, fn in real.items():
            setattr(propagator, name, fn)


def chirp_admits(xs, half_width):
    """Whether the phase guard lets a chirp-z pass, of any node count, run on xs."""
    return _chirp_phase_error(np.asarray(xs, dtype=float), half_width) <= PHASE_GUARD


# (family, alpha, epsilon) of each family's c05 run
SCALING_FAMILIES = [
    ("bump-modulated", 0.5, 0.0),
    ("bump-dilated", 0.2, 0.0),
    ("indicator-band", 0.25, 0.0),
    ("bump-tensor", 0.5, 0.1),
    ("bourgain", 0.5, 0.0),
]


@pytest.mark.parametrize("family, alpha, eps", SCALING_FAMILIES)
def test_calibrated_scaling_windows_factorize_at_large_R(family, alpha, eps):
    # each family's calibrated 129-point c05 window at R = 256: smooth data
    # take the chirp-z path, the indicator band the Gauss-Legendre table
    spec, R = FAMILIES[family], 256.0
    c = calibrate_window_constant(family, alpha, R_min=32.0, R_max=1024.0)
    xs = window_grid(*spec.window(R, alpha, eps, c), 129)
    profile, curve = FrequencyProfile(family, R=R, epsilon=eps), CurveSpec(spec.curve, alpha=alpha)
    ts = [0.25 / R ** 2, 1.0 / R ** 2, 4.0 / R ** 2]
    with kernel_paths() as paths:
        (vals, init, _) = batch_values(profile, curve, 2.0, xs, ts)
    assert set(paths) == ({"gl"} if family == "indicator-band" else {"chirp"})
    tol = 1e-9 * mass_scale(profile)
    for i in (0, 57, 128):
        assert abs(init[i] - one_pair(profile, curve, 2.0, float(xs[i]), 0.0)[0]) <= tol
        for j, t in enumerate(ts):
            assert abs(vals[i, j] - one_pair(profile, curve, 2.0, float(xs[i]), t)[0]) <= tol


@pytest.mark.parametrize("k", [6, 8, 10])
def test_annulus_lemma_windows_agree_with_the_paired_kernel(k):
    # the c08 lemma_profile window, 2^(k+2) points on [-1, 1], at low-alpha times
    profile, curve = annulus_bump(k), CurveSpec(MINUS_SHIFT, alpha=0.25)
    xs = window_grid(-1.0, 1.0, 2 ** (k + 2))
    ts = [2.0 ** -(2 * k), 2.0 ** -(3 * k), 2.0 ** -(4 * k)]
    with kernel_paths() as paths:
        (vals, init, _) = batch_values(profile, curve, 2.0, xs, ts)
    assert set(paths) == {"chirp"}
    tol = 1e-9 * mass_scale(profile)
    for i in (0, len(xs) // 3, len(xs) // 2, len(xs) - 1):
        assert abs(init[i] - one_pair(profile, curve, 2.0, float(xs[i]), 0.0)[0]) <= tol
        for j, t in enumerate(ts):
            assert abs(vals[i, j] - one_pair(profile, curve, 2.0, float(xs[i]), t)[0]) <= tol


@pytest.mark.parametrize("R", [128.0, 256.0, 1024.0])
def test_bump_modulated_wide_window_factorizes_at_xi_near_R_squared(R):
    # centred on the hull midpoint, the chirp phases grow with the hull's
    # half-width R/2, not with |xi| ~ R^2
    profile, xs = bump_modulated(R), window_grid(0.45, 0.9, 1024)
    with kernel_paths() as paths:
        init = batch_initial(profile, xs)
    assert set(paths) == {"chirp"}
    for i in (0, 700):
        assert abs(init[i] - one_pair(profile, STRAIGHT_1D, 2.0, float(xs[i]), 0.0)[0]) <= 1e-9 * mass_scale(profile)


def test_factorized_window_gaussian_closed_form_on_straight_curve():
    xs = window_grid(-2.0, 2.0, 1024)
    ts = [0.05, 0.2, 0.5, 1.0]
    with kernel_paths() as paths:
        (vals, init, _) = batch_values(gaussian_like(), STRAIGHT_1D, 2.0, xs, ts)
    assert set(paths) == {"chirp"}
    exact = gaussian_closed_form(xs[:, None], np.asarray(ts)[None, :])
    assert np.max(np.abs(vals - exact)) < 1e-9
    assert np.max(np.abs(init - gaussian_closed_form(xs, 0.0))) < 1e-9


def test_factorized_window_indicator_band_fresnel_oracle():
    R = 64.0
    curve = CurveSpec(PLUS_SHIFT, alpha=0.5)
    tol = 1e-9 / TWO_PI
    for nx in (129, 256):  # a scaling window and a wider one
        xs = window_grid(-0.05, 0.2, nx)
        with kernel_paths() as paths:
            (vals, _, _) = batch_values(indicator_band(R), curve, 2.0, xs, BAND_TS)
        assert set(paths) == {"gl"}  # the band's edges are jumps: no chirp-z
        for i in range(0, len(xs), 5):
            for j, t in enumerate(BAND_TS):
                exact = band_fresnel_closed_form(R, xs[i] + curve.shift(t), t)
                assert abs(vals[i, j] - exact) < tol


@pytest.mark.parametrize("nx", [3, 5, 17, 129, 4096])
def test_short_window_gaussian_closed_form(nx):
    xs = window_grid(-1.0, 1.0, nx)  # three points on [-2, 2] would pass the phase guard
    ts = [0.05, 0.2, 0.5, 1.0]
    with kernel_paths() as paths:
        (vals, init, _) = batch_values(gaussian_like(), STRAIGHT_1D, 2.0, xs, ts)
    assert set(paths) == {"chirp"}
    exact = gaussian_closed_form(xs[:, None], np.asarray(ts)[None, :])
    assert np.max(np.abs(vals - exact)) < 1e-9
    assert np.max(np.abs(init - gaussian_closed_form(xs, 0.0))) < 1e-9


def test_bump_modulated_scaling_window_is_pointwise():
    R, curve = 256.0, CurveSpec(MINUS_SHIFT, alpha=0.5)
    profile = bump_modulated(R)
    c = calibrate_window_constant("bump-modulated", 0.5, R_min=32.0, R_max=1024.0)
    xs = window_grid(0.5 * c, c, 129)
    picks = [0, 40, 64, 101, 128]
    ts = [critical_time("bump-modulated", curve, R, 0.0, float(xs[i])) for i in picks] + [2.0 ** -14]
    with kernel_paths() as paths:
        (vals, init, _) = batch_values(profile, curve, 2.0, xs, ts)
    assert set(paths) == {"chirp"}
    tol = 1e-9 * mass_scale(profile)
    for i in picks:
        assert abs(init[i] - one_pair(profile, curve, 2.0, float(xs[i]), 0.0)[0]) <= tol
        for j, t in enumerate(ts):
            assert abs(vals[i, j] - one_pair(profile, curve, 2.0, float(xs[i]), t)[0]) <= tol


@settings(max_examples=25, deadline=None)
@given(
    nx=st.integers(3, 700),
    ends=st.tuples(st.floats(-2.0, 2.0), st.floats(-2.0, 2.0)).filter(
        lambda e: abs(e[0] - e[1]) > 1e-3
    ),
    t=st.floats(0.0, 1.0, exclude_min=True),
    m=st.sampled_from([0.5, 1.5, 2.0]),
    picks=st.lists(st.integers(0, 10 ** 6), min_size=1, max_size=4),
)
def test_factorized_window_is_pointwise_at_positive_times(nx, ends, t, m, picks):
    profile = gaussian_like()
    xs = np.linspace(ends[0], ends[1], nx)
    scale = batch_initial(profile, np.zeros(1))[0].real  # f^ >= 0: f(0) is the L^1 mass scale
    with kernel_paths() as paths:
        (vals, _, _) = batch_values(profile, STRAIGHT_1D, m, xs, [t])
    assert set(paths) == ({"chirp"} if m == 2.0 else {"gl"})
    for i in [0, nx - 1] + [p % nx for p in picks]:
        point, _ = one_pair(profile, STRAIGHT_1D, m, float(xs[i]), t)
        assert abs(vals[i, 0] - point) <= 1e-9 * scale


def test_jittered_window_takes_the_direct_table():
    rng = np.random.default_rng(7)
    xs = window_grid(-1.0, 1.0, 300) + rng.uniform(-1e-7, 1e-7, 300)
    assert not chirp_admits(xs, 8.0)
    assert chirp_admits(window_grid(-1.0, 1.0, 300), 8.0)
    profile, ts = gaussian_like(), [0.0, 0.01, 0.4]
    with kernel_paths() as paths:
        (vals, _, _) = batch_values(profile, STRAIGHT_1D, 2.0, xs, ts)
    assert set(paths) == {"gl"}
    for i in (0, 77, 299):
        for j, t in enumerate(ts):
            point, _ = one_pair(profile, STRAIGHT_1D, 2.0, float(xs[i]), t)
            assert abs(vals[i, j] - point) < 1e-9


def test_window_past_the_chirp_bound_takes_the_direct_table():
    # three points on [-1, 1] against a hull of half-width 2^14: rounding
    # beta = h h_xi could move the phases beta p q by 2^-53 |beta| n nx / 4
    # = 2^-53 |h| W nx / 2 ~ 2.7e-12 radians in both passes, whatever n is
    profile, xs = bump_dilated(2.0 ** 15), np.array([-1.0, 0.0, 1.0])
    assert not chirp_admits(xs, 2.0 ** 14)
    with kernel_paths() as paths:
        init = batch_initial(profile, xs)
    assert set(paths) == {"gl"}
    for i, x in enumerate(xs):
        point, _ = one_pair(profile, STRAIGHT_1D, 2.0, float(x), 0.0)
        assert abs(init[i] - point) <= 1e-9 * mass_scale(profile)


def test_chirp_phases_are_exact_to_rounding():
    mp = pytest.importorskip("mpmath")
    beta, r = 2.9e-5, np.arange(-30000.5, 30000.0, 1234.0)  # phases up to ~1.3e4 radians
    with mp.workdps(40):
        exact = [complex(mp.expj(mp.mpf(beta) * mp.mpf(v) ** 2 / 2)) for v in r]
    assert np.max(np.abs(_chirp(beta, r) - exact)) < 1e-15


def test_factorization_guard_bounds_the_phase_error():
    xs = window_grid(-1.0, 1.0, 256)  # dyadic: the uniform grid is exact
    h = 2.0 / 256
    for W in (8.0, 1e3):  # then the guard reads the beta rounding alone, in which n cancels
        assert _chirp_phase_error(xs, W) == UNIT_ROUNDOFF * h * W * 256 / 2.0
    assert chirp_admits(xs, 4e3) and not chirp_admits(xs, 1e4)
    moved = xs.copy()
    moved[100] += 1e-9
    # the guard admits a window while (distance from the grid) * half-width <= ~1e-12
    assert chirp_admits(moved, 1e-4)
    assert not chirp_admits(moved, 1e-2)
    assert chirp_admits(window_grid(-1.0, 1.0, 300), 1e2)  # grid rounding, ~2e-16
    for nx, path in ((1, "gl"), (2, "gl"), (3, "chirp"), (129, "chirp")):  # one and two points: the table
        with kernel_paths() as paths:
            batch_initial(gaussian_like(), window_grid(-1.0, 1.0, nx))
        assert set(paths) == {path}


def test_chirp_window_self_check_failure_carries_both_estimates(monkeypatch):
    # 64 and 128 nodes on gaussian_like's 16-wide hull alias e^{i x xi} at |x| ~ 50
    monkeypatch.setattr(propagator, "CHIRP_NODES_PER_RADIAN", 0.02)
    xs = window_grid(-50.0, 50.0, 129)
    with kernel_paths() as paths, pytest.raises(AccuracyError) as err:
        batch_values(gaussian_like(), STRAIGHT_1D, 2.0, xs, [1.0])
    assert set(paths) == {"chirp"}
    assert "self-check failed" in str(err.value)
    assert isinstance(err.value.coarse, complex) and isinstance(err.value.fine, complex)
    assert err.value.coarse != err.value.fine
    assert re.fullmatch(r"kind=gaussian-like, x=\S+, t=1\.0", err.value.context)


def test_over_cap_on_a_chirp_window_raises_before_any_pass(tight_cap):
    # the cap applies to the chirp-z budget, which the message names; the
    # error names the window's farthest point and runs neither kernel
    (factor,) = coordinate_factors(gaussian_like())
    budget = bucket(node_budget(0.0, 40.0, 1.0, 2.0, factor, chirp=True))
    xs = np.array([0.0, 20.0, 40.0])
    assert chirp_admits(xs, _hull(factor)[1])
    with kernel_paths() as paths, pytest.raises(AccuracyError) as err:
        batch_values(gaussian_like(), STRAIGHT_1D, 2.0, xs, [1.0])
    assert paths == []
    assert str(err.value) == f"node budget {2 * budget} exceeds cap 128 [kind=gaussian-like, x=40.0, t=1.0]"
    assert err.value.coarse is None and err.value.fine is None
    assert err.value.context == "kind=gaussian-like, x=40.0, t=1.0"


# the window pass writes its values time-major and returns them transposed;
# _certify screens the gap against tol * mass before it forms the full bound


def one_stage_check(coarse, fine, mass):
    """The self-check in one stage: which entries fail |f - c| > tol * max(|c|, |f|, mass)."""
    return np.abs(fine - coarse) > SELF_CHECK_TOL * np.maximum(np.maximum(np.abs(coarse), np.abs(fine)), mass)


# an entry: |c| (NaN for a NaN entry), its argument, |f - c| over tol * max(|c|, mass),
# straddling 1 by more than the rounding of f - c, and the argument of f - c
ENTRIES = st.tuples(
    st.sampled_from([0.0, 1e-6, 1.0, 1e3, math.nan]),
    st.floats(0.0, TWO_PI),
    st.sampled_from([0.0, 0.5, 1.0 - 1e-5, 1.0, 1.0 + 1e-5, 2.0, math.nan]),
    st.floats(0.0, TWO_PI),
)
MASSES = st.sampled_from([1e-6, 1.0, 10.0])


@settings(max_examples=200, deadline=None)
@given(
    entries=st.lists(ENTRIES, min_size=1, max_size=12),
    masses=st.one_of(MASSES, st.lists(MASSES, min_size=12, max_size=12)),
    x_major=st.booleans(),
    cut=st.integers(0, 6),
    reverse=st.booleans(),
)
def test_two_stage_self_check_is_the_one_stage_formula(entries, masses, x_major, cut, reverse):
    mass = masses if np.isscalar(masses) else np.array(masses[: len(entries)])
    reach = np.array([max(a, m) for (a, _, _, _), m in zip(entries, np.broadcast_to(mass, len(entries)))])
    coarse = np.array([a * np.exp(1j * p) for a, p, _, _ in entries])
    fine = coarse + SELF_CHECK_TOL * reach * np.array([r * np.exp(1j * p) for _, _, r, p in entries])
    if x_major and len(entries) % 2 == 0:  # a (2, n/2) x-major view of time-major arrays, as on a window
        coarse, fine = (v.reshape(-1, 2).T for v in (coarse, fine))
        mass = mass if np.isscalar(mass) else mass.reshape(-1, 2).T
    bad = one_stage_check(coarse, fine, mass)
    # two column blocks, in either order: the first failure is the quantity's, not the first block's
    parts = [slice(None, cut), slice(cut, None)][:: -1 if reverse else 1]
    blocks = [(coarse[..., c], fine[..., c], mass if np.isscalar(mass) else mass[..., c],
               np.arange(coarse.shape[-1])[c]) for c in parts]

    def label(*i):
        return str(np.ravel_multi_index(i, coarse.shape))

    if not bad.any():
        assert _certify(blocks, "ctx", label) is None
        return
    k = int(np.flatnonzero(bad)[0])
    with pytest.raises(AccuracyError) as err:
        _certify(blocks, "ctx", label)
    assert err.value.context == f"ctx{k}"
    assert (err.value.coarse, err.value.fine) == (np.ravel(coarse)[k], np.ravel(fine)[k])


def test_two_stage_self_check_on_each_entry_kind():
    # |c| above the mass and below it, each on both sides of the bound, and NaN entries
    coarse = np.array([1e3, 1e3, 0.5, 0.5, math.nan, 1.0])
    fine = coarse - SELF_CHECK_TOL * np.array([1e3 * (1 - 1e-5), 1e3 * (1 + 1e-5), 1 - 1e-5, 1 + 1e-5, 0.0, math.nan])
    assert one_stage_check(coarse, fine, 1.0).tolist() == [False, True, False, True, False, False]
    for mass in (1.0, np.ones(6)):
        passing = fine.copy()
        for first in (1, 3):
            with pytest.raises(AccuracyError) as err:
                _certify([(coarse, passing, mass, np.arange(6))], "", str)
            assert err.value.context == str(first)
            passing[first] = coarse[first]
        assert _certify([(coarse, passing, mass, np.arange(6))], "", str) is None


LAYOUT_CASES = [  # (profile, curve, window, times): each a chirp-z window
    (annulus_bump(6), CurveSpec(MINUS_SHIFT, alpha=0.5), window_grid(-1.0, 1.0, 256), 2.0 ** -np.arange(6.0, 12.5, 0.5)),
    (gaussian_like(), STRAIGHT_1D, window_grid(-3.0, 2.0, 129), [0.1, 0.3, 0.5, 1.0]),
    (bump_modulated(64.0), CurveSpec(MINUS_SHIFT, alpha=0.5), window_grid(-0.5, 0.5, 37), [1e-3, 3e-3, 1e-2]),
]


def chirp_reference(factor, n, shifts, ts, xs):
    """_chirp_window's sum as written, one column at a time and out of place, as values[nx, ncols]."""
    C, W = _hull(factor)
    nx, h_xi = len(xs), 2.0 * W / n
    beta = (xs[-1] - xs[0]) / (nx - 1) * h_xi
    q, p = np.arange(n) - 0.5 * (n - 1), np.arange(nx) - 0.5 * (nx - 1)
    u = q * h_xi
    fv = np.asarray(factor.func(C + u), dtype=np.complex128)
    L = propagator._fft_length(n + nx - 1)
    d = np.arange(L)
    kernel = np.fft.fft(_chirp(-beta, np.where(d < nx, d, d - L) + 0.5 * (n - nx)))  # r = p - q
    weights = h_xi * fv * _chirp(beta, q)
    out = np.empty((nx, len(ts)), dtype=np.complex128)
    for j, (s, t) in enumerate(zip(shifts + 0.5 * (xs[0] + xs[-1]), ts)):
        a = np.zeros(L, dtype=np.complex128)
        a[:n] = weights * np.exp(1j * ((s + 2.0 * t * C) * u + t * u * u))
        out[:, j] = np.fft.ifft(np.fft.fft(a) * kernel)[:nx]
    scalars = np.exp(1j * (shifts * C + ts * C * C))
    return out * ((_chirp(beta, p) * np.exp(1j * xs * C))[:, None] * scalars)


def window_passes(profile, curve, xs, ts):
    """A chirp-z window's whole coarse and fine passes, x-major with the t = 0 column last, and its masses.

    Each pass runs every time of one chirp-z budget in one kernel call,
    divided by 2 pi: the node-doubling check's two passes held whole.
    """
    (factor,) = coordinate_factors(profile)
    ts = np.array(list(ts) + [0.0])
    shifts = np.array([curve.shift(t) for t in ts])
    budgets = np.array([bucket(node_budget(xs[0] + s, xs[-1] + s, t, 2.0, factor, chirp=True))
                        for s, t in zip(shifts, ts)])
    coarse, fine = (np.empty((len(xs), len(ts)), dtype=np.complex128) for _ in range(2))
    mass = np.empty(len(ts))
    for n in set(budgets.tolist()):
        cols = budgets == n
        for doubling, out in ((1, coarse), (2, fine)):
            plan = propagator._chirp_window(factor, doubling * n, xs)
            out[:, cols] = plan.apply(shifts[cols], ts[cols]).T / TWO_PI
        mass[cols] = plan.mass / TWO_PI
    return coarse, fine, mass


@pytest.mark.parametrize("case", range(len(LAYOUT_CASES)))
def test_chirp_window_is_its_formula_bit_for_bit(case):
    # the in-place blocks round every product as the formula does, operand order included
    profile, curve, xs, ts = LAYOUT_CASES[case]
    (factor,) = coordinate_factors(profile)
    ts = np.asarray(ts)
    shifts = np.array([curve.shift(t) for t in ts])
    for n in (64, 1024):
        plan = propagator._chirp_window(factor, n, xs)
        values = plan.apply(shifts, ts)
        assert values.shape == (len(ts), len(xs))
        assert np.array_equal(values.T, chirp_reference(factor, n, shifts, ts, xs))
        # a reused FFT buffer: whatever it held before does not reach the values
        stale = np.full((len(ts), len(plan.kernel)), complex(math.nan, math.inf))
        assert np.array_equal(plan.apply(shifts, ts, stale), values)


@pytest.mark.parametrize("case", range(len(LAYOUT_CASES)))
def test_chirp_window_does_not_depend_on_its_fft_blocks(monkeypatch, case):
    profile, curve, xs, ts = LAYOUT_CASES[case]
    with kernel_paths() as paths:
        whole = batch_values(profile, curve, 2.0, xs, list(ts))
    assert set(paths) == {"chirp"}
    for block in (1, 2 ** 22):  # one column per block; every column in one block
        monkeypatch.setattr(propagator, "FFT_BLOCK", block)
        got = batch_values(profile, curve, 2.0, xs, list(ts))
        assert all(np.array_equal(a, b) for a, b in zip(got, whole))


def test_a_window_call_holds_one_pass_and_a_few_fft_blocks():
    # a lemma-size window: 2048 points times 120 times and t = 0, a 3.96 MB pass;
    # both passes of the self-check, their gap and its modulus held whole took 13.9 MB
    import tracemalloc

    profile, curve = annulus_bump(8), CurveSpec(MINUS_SHIFT, alpha=0.25)
    xs, ts = window_grid(-1.0, 1.0, 2048), list(2.0 ** -np.linspace(16.0, 37.0, 120))
    batch_values(profile, curve, 2.0, xs, ts)  # rules and profile caches filled
    tracemalloc.start()
    try:
        batch_values(profile, curve, 2.0, xs, ts)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    one_pass, fft_block = len(xs) * (len(ts) + 1) * 16, propagator.FFT_BLOCK * 16
    assert peak <= one_pass + 4 * fft_block


@pytest.mark.parametrize("nx", [1, 2, 3, 129])  # the table at one and two points, else chirp-z
@pytest.mark.parametrize("nt", [0, 1, 5])
def test_window_shapes(nx, nt):
    xs, ts = window_grid(-1.0, 1.0, nx), list(np.linspace(0.1, 1.0, nt))
    values, initial, counts = batch_values(gaussian_like(), STRAIGHT_1D, 2.0, xs, ts)
    assert (values.shape, initial.shape, counts.shape) == ((nx, nt), (nx,), (nt,))
    assert batch_initial(gaussian_like(), xs).shape == (nx,)


def test_chirp_window_self_check_names_the_first_failing_pair_in_x_major_order(monkeypatch):
    # aliasing chirp-z passes on [0, 50]: at t = 1.0 the failures start at a smaller x
    # than at t = 0.5, so the x-major and time-major first pairs differ
    monkeypatch.setattr(propagator, "CHIRP_NODES_PER_RADIAN", 0.02)
    xs, ts = window_grid(0.0, 50.0, 129), [0.5, 1.0]
    with kernel_paths() as paths, pytest.raises(AccuracyError) as err:
        batch_values(gaussian_like(), STRAIGHT_1D, 2.0, xs, ts)
    assert set(paths) == {"chirp"}
    coarse, fine, mass = window_passes(gaussian_like(), STRAIGHT_1D, xs, ts)
    bad = one_stage_check(coarse, fine, mass)
    (i, j), (it, jt) = np.argwhere(bad)[0], np.argwhere(bad.T)[0][::-1]
    assert (i, j) != (it, jt) and j < len(ts) and jt < len(ts)
    assert err.value.context == f"kind=gaussian-like, x={xs[i]}, t={ts[j]}"
    assert (err.value.coarse, err.value.fine) == (coarse[i, j], fine[i, j])


def test_a_failure_in_a_later_block_is_the_whole_pass_failure(monkeypatch):
    # one time per block, in time order (both times share a budget): t = 0.5's
    # block fails first, but t = 1.0's, a later block, holds the x-major first failure
    monkeypatch.setattr(propagator, "CHIRP_NODES_PER_RADIAN", 0.02)
    xs, ts = window_grid(0.0, 50.0, 129), [0.5, 1.0]
    (factor,) = coordinate_factors(gaussian_like())
    assert len({bucket(node_budget(0.0, 50.0, t, 2.0, factor, chirp=True)) for t in ts}) == 1
    coarse, fine, mass = window_passes(gaussian_like(), STRAIGHT_1D, xs, ts)
    bad = one_stage_check(coarse, fine, mass)
    (i, j) = np.argwhere(bad)[0]
    assert j == 1 and bad[:, 0].any()
    errors = []
    for block in (1, 2 ** 22):  # one time per block; the whole window in one block
        monkeypatch.setattr(propagator, "FFT_BLOCK", block)
        with kernel_paths() as paths, pytest.raises(AccuracyError) as err:
            batch_values(gaussian_like(), STRAIGHT_1D, 2.0, xs, ts)
        assert set(paths) == {"chirp"}
        errors.append((str(err.value), err.value.context, err.value.coarse, err.value.fine))
    assert errors[0] == errors[1]
    assert errors[0][1] == f"kind=gaussian-like, x={xs[i]}, t={ts[j]}"
    estimates = f"(coarse={complex(coarse[i, j])!r}, fine={complex(fine[i, j])!r})"
    assert errors[0][0] == f"node-doubling self-check failed {estimates} [{errors[0][1]}]"
    assert errors[0][2:] == (coarse[i, j], fine[i, j])


# the chirp-z budget: CHIRP_NODES_PER_RADIAN, a quarter of the
# Gauss-Legendre rate, 2.5 nodes per 2 pi radians of phase variation


def direct_table(profile, curve, xs, ts):
    """The window values of the direct Gauss-Legendre table on each time's Gauss-Legendre budget."""
    (factor,) = coordinate_factors(profile)
    ts = np.asarray(ts)
    shifts = np.array([curve.shift(t) for t in ts])
    budgets = np.array([bucket(node_budget(xs[0] + s, xs[-1] + s, t, 2.0, factor)) for s, t in zip(shifts, ts)])
    out = np.empty((len(xs), len(ts)), dtype=np.complex128)
    for n in set(budgets.tolist()):  # the times of one budget share a table
        cols = budgets == n
        (fine,) = _quadrature(_weighted_rule(factor, n, False, (2,)), 2.0, shifts[cols], ts[cols], xs)
        out[:, cols] = fine.T / TWO_PI
    return out


def test_chirp_rate_is_a_quarter_of_the_gauss_legendre_rate():
    assert propagator.CHIRP_NODES_PER_RADIAN == propagator.NODES_PER_RADIAN / 4
    assert propagator.CHIRP_NODES_PER_RADIAN * TWO_PI == 2.5


@pytest.mark.parametrize("family, alpha, eps", [f for f in SCALING_FAMILIES if f[0] != "indicator-band"])
def test_chirp_budget_matches_the_direct_table_on_the_scaling_windows(family, alpha, eps):
    spec, R = FAMILIES[family], 256.0
    c = calibrate_window_constant(family, alpha, R_min=32.0, R_max=1024.0)
    xs = window_grid(*spec.window(R, alpha, eps, c), 129)
    profile, curve = FrequencyProfile(family, R=R, epsilon=eps), CurveSpec(spec.curve, alpha=alpha)
    ts = [critical_time(family, curve, R, eps, float(xs[i])) for i in (0, 64, 128)]
    ts += [0.25 / R ** 2, 1.0 / R ** 2, 4.0 / R ** 2]
    with kernel_paths() as paths:
        vals, _, _ = batch_values(profile, curve, 2.0, xs, ts)
    assert set(paths) == {"chirp"}
    assert np.max(np.abs(vals - direct_table(profile, curve, xs, ts))) <= 1e-12 * mass_scale(profile)


@pytest.mark.parametrize("k", [6, 8, 10])
def test_chirp_budget_matches_the_direct_table_on_the_lemma_windows(k):
    profile, curve = annulus_bump(k), CurveSpec(MINUS_SHIFT, alpha=0.5)
    xs = window_grid(-1.0, 1.0, 2 ** (k + 2))
    ts = [2.0 ** -(1.5 * k), 2.0 ** -(2 * k), 2.0 ** -(3 * k), 2.0 ** -(4 * k)]
    with kernel_paths() as paths:
        vals, _, _ = batch_values(profile, curve, 2.0, xs, ts)
    assert set(paths) == {"chirp"}
    assert np.max(np.abs(vals - direct_table(profile, curve, xs, ts))) <= 1e-12 * mass_scale(profile)


def test_lemma_windows_fail_the_self_check_at_an_eighth_of_the_gauss_legendre_rate(monkeypatch):
    # so a quarter is the smallest power-of-two fraction that certifies them
    regime, curve, js = Regime(d=1, alpha=0.5, m=2), CurveSpec(MINUS_SHIFT, alpha=0.5), list(range(8, 17))
    assert len(lemma_profile(regime, 8, js, curve)) == len(js)
    monkeypatch.setattr(propagator, "CHIRP_NODES_PER_RADIAN", propagator.NODES_PER_RADIAN / 8)
    with kernel_paths() as paths, pytest.raises(AccuracyError, match="self-check failed"):
        lemma_profile(regime, 8, js, curve)
    assert set(paths) == {"chirp"}


def test_window_node_counts_are_the_budget_of_the_kernel_that_ran():
    # the same ends as a uniform window (chirp-z) and as two points (the
    # direct table), on smooth data and on the indicator band's jumps
    xs, ts = window_grid(-20.0, 20.0, 129), [1e-3, 0.05, 0.4, 1.0]
    for profile, window, kernel in ((gaussian_like(), xs, "chirp"), (gaussian_like(), xs[[0, -1]], "gl"),
                                    (indicator_band(16.0), xs, "gl")):
        (factor,) = coordinate_factors(profile)
        with kernel_paths() as paths:
            _, _, counts = batch_values(profile, STRAIGHT_1D, 2.0, window, ts)
        assert set(paths) == {kernel}
        assert counts.tolist() == [
            2 * bucket(node_budget(window[0], window[-1], t, 2.0, factor, chirp=kernel == "chirp")) for t in ts]
    # past the floor, the chirp-z window runs a quarter of the direct table's nodes
    chirp = batch_values(gaussian_like(), STRAIGHT_1D, 2.0, xs, ts)[2]
    table = batch_values(gaussian_like(), STRAIGHT_1D, 2.0, xs[[0, -1]], ts)[2]
    assert (4 * chirp).tolist() == table.tolist()


# ---------------------------------------------------------------------------
# the weighted Gauss-Legendre rule cache: one LRU keyed by the budget,
# (factor, n, graded), each entry one flat record of the n- and 2n-node rules


def hull_factor(lo, hi):
    """A factor equal to 1 on the hull [lo, hi], split at 0 like the profiles' segments."""
    segments = ((lo, 0.0), (0.0, hi)) if lo < 0.0 < hi else ((lo, hi),)
    return CoordinateFactor(segments, lambda eta: np.ones_like(np.asarray(eta, dtype=float)), True)


def test_rule_cache_is_bounded():
    assert _cached_weighted_rule.cache_info().maxsize == RULE_CACHE_SIZE
    for k in range(RULE_CACHE_SIZE + 10):
        _weighted_rule(hull_factor(0.0, 1.0 + k), 64, False)
    assert _cached_weighted_rule.cache_info().currsize == RULE_CACHE_SIZE
    misses = _cached_weighted_rule.cache_info().misses
    factor = hull_factor(0.0, 1.0)
    big = _weighted_rule(factor, CACHED_RULE_NODES // 2 + 16, False)
    assert big is not _weighted_rule(factor, CACHED_RULE_NODES // 2 + 16, False)
    assert _cached_weighted_rule.cache_info().misses == misses  # a doubled pass past the bound bypasses it
    small = _weighted_rule(factor, CACHED_RULE_NODES // 2, False)
    assert small is _weighted_rule(factor, CACHED_RULE_NODES // 2, False)
    assert small.offsets == (0, CACHED_RULE_NODES // 2, CACHED_RULE_NODES // 2 + CACHED_RULE_NODES)
    # one pass's record is cached up to the bound: a budget past it keeps its coarse rule
    coarse = _weighted_rule(factor, CACHED_RULE_NODES, False, (1,))
    assert coarse is _weighted_rule(factor, CACHED_RULE_NODES, False, (1,))
    assert len(coarse.nodes) == CACHED_RULE_NODES and len(coarse.mass) == 1
    misses = _cached_weighted_rule.cache_info().misses
    assert _weighted_rule(factor, CACHED_RULE_NODES, False, (2,)) is not _weighted_rule(
        factor, CACHED_RULE_NODES, False, (2,))
    assert _cached_weighted_rule.cache_info().misses == misses


@pytest.mark.parametrize("n", [256, CACHED_RULE_NODES + 16])
def test_rule_arrays_are_read_only(n):
    (factor,) = coordinate_factors(gaussian_like())  # segments (-8, 0) and (0, 8)
    rule = _weighted_rule(factor, n, True)
    for arr in (rule.nodes, rule.u, rule.wf, rule.mids):
        with pytest.raises(ValueError):
            arr[0] = 0.0


def test_fractional_m_gets_the_graded_rule_and_integer_m_the_plain_one():
    factor = hull_factor(0.0, 4.0)
    graded = _weighted_rule(factor, 256, 1.5 != int(1.5), (1,)).nodes
    plain = _weighted_rule(factor, 256, 2.0 != int(2.0), (1,)).nodes
    assert graded.min() < 4.0 * 2.0 ** -40 < plain.min()
    assert len(graded) != len(plain)


def fractional_oracle(gamma, t, m):
    """(2 pi)^{-1} integral over [-8, 8] of e^{i(gamma xi + t |xi|^m)} e^{-xi^2} dxi, by mpmath."""
    mp = pytest.importorskip("mpmath")
    with mp.workdps(20):
        f = lambda xi: mp.exp(1j * (gamma * xi + t * abs(xi) ** m) - xi * xi)
        return complex(mp.quad(f, list(mp.linspace(-8, 8, 129))) / (2 * mp.pi))


def test_graded_rule_certifies_far_from_the_origin():
    # each geometric piece gets its width's share of the budget, so the
    # outer piece, half the segment, resolves e^{i x xi} at |x| in the tens
    g = gaussian_like()
    tol = 1e-9 * mass_scale(g)
    s = evaluate(g, CurveSpec(STRAIGHT), 1.5, 30.0, 1e-3)
    assert abs(s.value - fractional_oracle(30.0, 1e-3, 1.5)) <= tol
    curve, ts = CurveSpec(MINUS_SHIFT, alpha=0.5), [1e-3, 0.05, 0.4, 1.0]
    vals, _, _ = batch_values(g, curve, 1.5, np.linspace(20.0, 21.0, 7), ts)
    for j, t in enumerate(ts):
        assert abs(vals[0, j] - fractional_oracle(20.0 + curve.shift(t), t, 1.5)) <= tol


def test_cached_rule_is_bit_identical_to_a_fresh_build():
    (factor,) = coordinate_factors(gaussian_like(center=2.0))  # segments (-6, 0) and (0, 10)
    first = _weighted_rule(factor, 512, False)
    assert _weighted_rule(factor, 512, False) is first
    # the 512-node rule's segments, then the 1024-node rule's, in one flat record
    assert first.offsets == (0, 192, 512, 896, 1536)
    l1 = []
    for k, ((lo, hi), share) in enumerate(zip(factor.segments * 2, (192, 320, 384, 640))):
        fresh_nodes, fresh_weights = panel_nodes(lo, hi, share)
        fv = np.asarray(factor.func(fresh_nodes), dtype=np.complex128)
        C, (a, b) = 0.5 * (lo + hi), first.offsets[k : k + 2]
        assert first.mids[k] == C
        assert first.nodes[a:b].tobytes() == fresh_nodes.tobytes()
        assert first.u[a:b].tobytes() == (fresh_nodes - C).tobytes()
        assert first.wf[a:b].tobytes() == (fresh_weights * fv).tobytes()
        l1.append(float(np.sum(fresh_weights * np.abs(fv))))
    assert first.mass == (l1[0] + l1[1], l1[2] + l1[3])
    # each pass alone is that pass of the record
    for p, doubling in enumerate((1, 2)):
        alone, (a, b) = _weighted_rule(factor, 512, False, (doubling,)), first.offsets[2 * p : 2 * p + 3 : 2]
        assert alone.nodes.tobytes() == first.nodes[a:b].tobytes() and alone.mass == (first.mass[p],)


def test_equal_profiles_share_factors_and_rules():
    assert coordinate_factors(bump_modulated(64.0)) is coordinate_factors(bump_modulated(64.0))
    (factor,) = coordinate_factors(bump_modulated(64.0))
    assert _weighted_rule(factor, 512, False) is _weighted_rule(factor, 512, False)


def test_values_after_a_cache_clear_are_the_warm_values_bit_for_bit():
    profile, curve = bump_modulated(128.0), CurveSpec(MINUS_SHIFT, alpha=0.5)
    xs, ts = np.array([0.3, 0.31, 0.4]), np.array([1e-5, 2e-5, 0.0])
    band = indicator_band(64.0), CurveSpec(PLUS_SHIFT, alpha=0.25)

    def run():
        paired, _ = certified_value(profile, curve, 2.0, xs, ts)
        window = batch_values(*band, 2.0, xs, ts)[0]
        return paired.tobytes() + window.tobytes()

    run()
    warm = run()
    _cached_weighted_rule.cache_clear()
    coordinate_factors.cache_clear()
    assert run() == warm


def test_bourgain_d2_grid_evaluates_its_factors_once_per_budget(monkeypatch):
    # window_transform's Chebyshev series runs when a record is built, once per
    # (coordinate, budget), pass and segment, not on every kernel call
    calls = []
    real = np.polynomial.chebyshev.chebval
    monkeypatch.setattr(np.polynomial.chebyshev, "chebval", lambda *a: calls.append(1) or real(*a))
    profile, curve = bourgain_profile(16.0, d=2), CurveSpec(MINUS_SHIFT, alpha=0.5, d=2)
    xs = [np.array([-0.9 + 0.05 * k, 0.1 * k - 0.3]) for k in range(6)]
    ts = [1e-3, 4e-3, 1e-2]
    factors = coordinate_factors(profile)
    points = [x for x in xs for _ in ts] + xs
    times = np.array([t for _ in xs for t in ts] + [0.0] * len(xs))
    gam = gamma_pairs(curve, points, times)
    budgets = _budgets(factors, 2.0, gam, gam, times)
    assert budgets.max() <= CACHED_RULE_NODES // 2  # every record, both passes' rules, is cached
    records = {(j, n) for j in range(2) for n in budgets[:, j].tolist()}
    segments = sum(2 * len(factors[j].segments) for j, _ in records)
    _cached_weighted_rule.cache_clear()
    samples, failures = evaluate_grid(profile, curve, 2.0, xs, ts)
    assert not failures and len(samples) == len(xs) * len(ts)
    assert len(calls) == segments
    del calls[:]
    evaluate_grid(profile, curve, 2.0, xs, ts)
    assert calls == []


# ---------------------------------------------------------------------------
# the window budgets: one bucketed node budget per time, over the window's
# displacements [min x, max x] + shift(t)


WINDOW_CURVES = {"straight": STRAIGHT_1D, "minus": CurveSpec(MINUS_SHIFT, alpha=0.5),
                 "plus": CurveSpec(PLUS_SHIFT, alpha=0.5)}
WINDOWS = {"far": np.linspace(12.0, 13.0, 7), "off-centre": np.linspace(-0.2, 0.6, 9)}


@pytest.mark.parametrize("window", sorted(WINDOWS))
@pytest.mark.parametrize("m", [2.0, 1.5])
@pytest.mark.parametrize("curve", sorted(WINDOW_CURVES))
def test_window_budgets_are_the_scalar_formula(curve, m, window):
    profile, curve, xs = gaussian_like(), WINDOW_CURVES[curve], WINDOWS[window]
    ts = [1e-3, 0.05, 0.4, 1.0]
    (factor,) = coordinate_factors(profile)
    _, _, counts = batch_values(profile, curve, m, xs, ts)
    # both windows are uniform: at m = 2 they take the chirp-z kernel and its budget
    want = [2 * bucket(node_budget(xs[0] + curve.shift(t), xs[-1] + curve.shift(t), t, m, factor,
                                   chirp=m == 2.0))
            for t in ts]
    assert counts.dtype == np.int64 and counts.tolist() == want


# the budget from the phase's largest local frequency: |theta'| at the two
# corners of the box [gamma_lo, gamma_hi] x hull for m >= 1, never more
# than the triangle-inequality budget spec_budget


ends = st.tuples(st.floats(-1e4, 1e4), st.floats(-1e4, 1e4))


@settings(max_examples=200, deadline=None)
@given(gammas=ends, hull=ends.filter(lambda h: h[0] != h[1]), t=st.floats(0.0, 1.0),
       m=st.sampled_from([1.0, 1.25, 1.5, 2.0, 3.0]))
def test_local_frequency_budget_is_at_most_the_triangle_bound(gammas, hull, t, m):
    (g_lo, g_hi), factor = sorted(gammas), hull_factor(*sorted(hull))
    assert node_budget(g_lo, g_hi, t, m, factor) <= spec_budget(max(abs(g_lo), abs(g_hi)), t, m, factor)
    # no point of the box has a larger local frequency than the two corners
    width = sum(b - a for a, b in factor.segments)
    xi = np.linspace(*sorted(hull), 101)
    local = np.abs(np.linspace(g_lo, g_hi, 11)[:, None] + t * m * np.sign(xi) * np.abs(xi) ** (m - 1.0))
    assert local.max() * width <= phase_variation(g_lo, g_hi, t, m, factor) * (1.0 + 1e-12)


@settings(max_examples=100, deadline=None)
@given(gammas=st.tuples(st.floats(0.0, 1e4), st.floats(0.0, 1e4)),
       hull=st.tuples(st.floats(0.0, 1e4), st.floats(0.0, 1e4)).filter(lambda h: h[0] != h[1]),
       t=st.floats(0.0, 1.0), m=st.sampled_from([1.0, 1.5, 2.0, 3.0]), sign=st.sampled_from([1.0, -1.0]))
def test_local_frequency_budget_is_the_triangle_bound_without_cancellation(gammas, hull, t, m, sign):
    # gamma and xi of one sign: theta' never changes sign, nothing cancels
    g_lo, g_hi = sorted(sign * g for g in gammas)
    factor = hull_factor(*sorted(sign * h for h in hull))
    assert node_budget(g_lo, g_hi, t, m, factor) == spec_budget(max(abs(g_lo), abs(g_hi)), t, m, factor)


@settings(max_examples=100, deadline=None)
@given(gammas=ends, hull=ends.filter(lambda h: h[0] != h[1]), t=st.floats(0.0, 1.0),
       m=st.sampled_from([0.25, 0.5, 0.75]))
def test_budget_below_m_one_is_the_triangle_bound(gammas, hull, t, m):
    (g_lo, g_hi), factor = sorted(gammas), hull_factor(*sorted(hull))
    assert node_budget(g_lo, g_hi, t, m, factor) == spec_budget(max(abs(g_lo), abs(g_hi)), t, m, factor)


@pytest.mark.parametrize("c, t", [(-50.0, 0.5), (-200.0, 0.9), (-1000.0, 0.25), (30.0, 0.7)])
def test_gaussian_at_its_stationary_point(c, t):
    # x = -2tc + 0.3: gamma + 2t xi = 0.3 + 2t(xi - c) stays within 0.3 + 16t
    # of 0 over the support |xi - c| <= 8, while |gamma| + 2t|xi| is near 4t|c|
    profile, x = gaussian_like(center=c), -2.0 * t * c + 0.3
    s = evaluate(profile, STRAIGHT_1D, 2.0, x, t)
    # the constant phase x c + t c^2 (up to 2.5e5 radians) is the kernel's
    # segment-midpoint scalar, rounded the same way here
    exact = np.exp(1j * (x * c + t * c * c)) * gaussian_closed_form(x + 2.0 * t * c, t)
    assert abs(s.value - exact) <= 1e-12
    (factor,) = coordinate_factors(profile)
    assert s.node_count == 2 * bucket(node_budget(x, x, t, 2.0, factor)) < 2 * spec_budget(x, t, 2.0, factor)


# the node floor: BASE_NODES is the largest floor any family's data need,
# and SEGMENT_NODES per segment keeps the doubled pass from rerunning a
# many-segment factor's one-panel rule

FLOOR_PROFILES = [  # every family at two scales, d = 2 where it has it
    bump_dilated(16.0), bump_dilated(4096.0),
    bump_modulated(16.0), bump_modulated(4096.0),
    bump_tensor(16.0, 0.1, d=2), bump_tensor(4096.0, 0.1, d=2),
    indicator_band(16.0), indicator_band(4096.0),
    bourgain_profile(16.0, d=2), bourgain_profile(4096.0, d=2),
    annulus_bump(2), annulus_bump(10),
    gaussian_like(), gaussian_like(center=-50.0),
]


def floor_budget(factor):
    """factor's node budget where the phase vanishes (x = 0, t = 0): its floor, bucketed."""
    zero = np.zeros((1, 1))
    return int(_budgets((factor,), 2.0, zero, zero, np.zeros(1))[0, 0])


def data_certify(factor, n):
    """f^ alone (x = 0, t = 0): do its integral and L^1 mass pass node doubling on n nodes?"""
    rule = _weighted_rule(factor, n, False)
    coarse, fine = (complex(v[0]) for v in _pair_quadrature(rule, 2.0, np.zeros(1), np.zeros(1)))
    coarse_mass, fine_mass = rule.mass
    return (abs(fine - coarse) <= SELF_CHECK_TOL * max(abs(coarse), abs(fine), fine_mass)
            and abs(fine_mass - coarse_mass) <= SELF_CHECK_TOL * fine_mass)


@pytest.mark.parametrize(
    "profile", FLOOR_PROFILES, ids=lambda p: f"{p.kind}-d{p.d}-R{p.R:g}-k{p.scale_index}-c{p.center:g}")
def test_every_factor_certifies_its_data_at_the_node_floor(profile):
    for factor in coordinate_factors(profile):
        n = max(propagator.BASE_NODES, propagator.SEGMENT_NODES * len(factor.segments))
        assert floor_budget(factor) == bucket(n)
        assert data_certify(factor, n)
        # on every segment the doubled rule has more nodes: the check compares two rules
        sizes, k = np.diff(_weighted_rule(factor, n, False).offsets), len(factor.segments)
        assert (sizes[k:] > sizes[:k]).all()


@pytest.mark.parametrize("R", [16.0, 4096.0])
def test_bump_modulated_data_fail_below_the_node_floor(R):
    # so no lower floor serves every family: BASE_NODES is what the data need
    (factor,) = coordinate_factors(bump_modulated(R))
    assert not data_certify(factor, propagator.BASE_NODES // 2)


def test_many_segment_data_fail_on_one_panel_per_segment():
    # bourgain's d = 2 lattice factor at R = 4096 has 8 segments, on which
    # BASE_NODES alone gives one panel each, and its double one or two
    lattice = coordinate_factors(bourgain_profile(4096.0, d=2))[1]
    assert len(lattice.segments) * propagator.SEGMENT_NODES > propagator.BASE_NODES
    assert not data_certify(lattice, propagator.BASE_NODES)


def segment_oracle(factor, g, t):
    """(2 pi)^{-1} sum over factor's segments of the integral of f^(xi) e^{i(g xi + t xi^2)}, by mpmath.quad."""
    mp = pytest.importorskip("mpmath")

    def integrand(xi):
        return complex(np.ravel(factor.func(np.array([float(xi)])))[0]) * mp.expj(g * xi + t * xi * xi)

    return complex(sum(mp.quad(integrand, [lo, hi], method="gauss-legendre") for lo, hi in factor.segments)) / TWO_PI


@pytest.mark.parametrize("profile", [
    bump_dilated(16.0), bump_modulated(16.0), bump_tensor(16.0, 0.1), indicator_band(16.0),
    bourgain_profile(16.0), annulus_bump(3), gaussian_like(), bourgain_profile(4096.0, d=2),
], ids=lambda p: f"{p.kind}-d{p.d}")
def test_families_at_the_node_floor_match_an_oracle(profile):
    # x_j = -2tC_j + 0.1 keeps theta' = x_j + 2t xi within 0.1 + t * (hull
    # width) of 0 over coordinate j's support, so the floor sets its budget
    factors = coordinate_factors(profile)
    t = 1e-3
    x = np.array([-2.0 * t * _hull(f)[0] + 0.1 for f in factors])
    for g, factor in zip(x, factors):
        assert _budgets((factor,), 2.0, np.array([[g]]), np.array([[g]]), np.array([t])).tolist() == [
            [floor_budget(factor)]]
    s = evaluate(profile, CurveSpec(STRAIGHT, d=profile.d), 2.0, x if profile.d > 1 else x[0], t)
    assert s.node_count == 2 * sum(floor_budget(f) for f in factors)
    if profile.kind == "gaussian-like":
        exact = gaussian_closed_form(x[0], t)
    else:
        exact = np.prod([segment_oracle(f, g, t) for g, f in zip(x, factors)])
    assert abs(s.value - exact) <= 1e-12 * max(1.0, abs(exact))


def test_bucket_is_the_next_panel_count_power_of_two(monkeypatch):
    # at one panel per radian and t = 0, a column at gamma = n / PANEL_ORDER
    # on a unit width needs exactly n nodes: every count to 4999 and each
    # side of every power of two, up to the 2^52 cap
    monkeypatch.setattr(propagator, "NODES_PER_RADIAN", float(PANEL_ORDER))
    factor = hull_factor(0.0, 1.0)
    ns = list(range(0, 5000)) + [2 ** k + d for k in range(4, 54) for d in (-1, 0, 1)]
    gam = np.array([n / PANEL_ORDER for n in ns])
    got = _budgets((factor,), 2.0, gam[:, None], gam[:, None], np.zeros(len(ns)))[:, 0]
    assert got.tolist() == [min(bucket(max(n, propagator.BASE_NODES)), 2 ** 52) for n in ns]


# ---------------------------------------------------------------------------
# covariance and symmetry identities


SHIFT_CURVES = [STRAIGHT_1D, CurveSpec(MINUS_SHIFT, alpha=0.5), CurveSpec(PLUS_SHIFT, alpha=0.75)]


@settings(max_examples=25, deadline=None)
@given(
    eta=st.floats(-4.0, 4.0),
    x=st.floats(-2.0, 2.0),
    t=st.floats(0.0, 1.0, exclude_min=True),
    curve=st.sampled_from(SHIFT_CURVES),
)
def test_galilean_covariance_with_full_phase(eta, x, t, curve):
    # U(f^(. - eta))(x, t) = e^{i(gamma(x, t) eta + t eta^2)} U f(x + 2 t eta, t) on
    # shift curves, since gamma(x + 2 t eta, t) = gamma(x, t) + 2 t eta
    base, moved = gaussian_like(), gaussian_like(center=eta)
    scale = batch_initial(base, np.zeros(1))[0].real  # f^ >= 0: f(0) is the L^1 mass scale
    phase = lambda y: np.exp(1j * ((y + curve.shift(t)) * eta + t * eta * eta))
    lhs, _ = one_pair(moved, curve, 2.0, x, t)
    rhs, _ = one_pair(base, curve, 2.0, x + 2.0 * t * eta, t)
    assert abs(lhs - phase(x) * rhs) <= 1e-9 * scale
    xs = np.linspace(x - 0.5, x + 0.5, 5)
    lhs = batch_values(moved, curve, 2.0, xs, [t])[0][:, 0]
    rhs = batch_values(base, curve, 2.0, xs + 2.0 * t * eta, [t])[0][:, 0]
    assert np.max(np.abs(lhs - phase(xs) * rhs)) <= 1e-9 * scale


@settings(max_examples=25, deadline=None)
@given(
    profile=st.sampled_from([gaussian_like(), gaussian_like(amplitude=0.5), bump_dilated(8.0)]),
    x=st.floats(0.0, 2.0),
    t=st.floats(0.0, 1.0),
    m=st.sampled_from([0.5, 1.5, 2.0]),
    nx=st.integers(2, 300),
)
def test_real_even_data_give_an_even_field(profile, x, t, m, nx):
    # f^ real and even: xi -> -xi turns U f(-x, t) into U f(x, t)
    scale = batch_initial(profile, np.zeros(1))[0].real
    plus, _ = one_pair(profile, STRAIGHT_1D, m, x, t)
    minus, _ = one_pair(profile, STRAIGHT_1D, m, -x, t)
    assert abs(plus - minus) <= 1e-9 * scale
    vals, init, _ = batch_values(profile, STRAIGHT_1D, m, window_grid(-2.0, 2.0, nx), [t])
    assert np.max(np.abs(vals - vals[::-1])) <= 1e-9 * scale
    assert np.max(np.abs(init - init[::-1])) <= 1e-9 * scale


# ---------------------------------------------------------------------------
# the paired kernel: certified_value over (x_i, t_i) pairs, each pair's
# reference being its one-pair call


def mass_scale(profile):
    """(2 pi)^-d times the L^1 norm of f^, the scale of the self-check."""
    scale = 1.0
    for factor in coordinate_factors(profile):
        scale *= _weighted_rule(factor, 2048, False).mass[1] / TWO_PI  # the 4096-node rule's
    return scale


WOBBLE = CurveSpec(CUSTOM, alpha=0.5, gamma_fn=lambda x, t: x - (1 + 0.05 * x) * t ** 0.5)
SQUEEZED = CurveSpec(CUSTOM, alpha=0.5, shift_fn=lambda t: -0.7 * t ** 0.5)
# (profile, curve, m, x points, times): repeated points and times, t = 0,
# and budgets that coincide (shared kernel calls) as well as differ
PAIRED_CASES = {
    "straight": (gaussian_like(), STRAIGHT_1D, 2.0,
                 [0.3, 0.3, -1.1, 2.0, 0.0, 0.3], [0.2, 0.2, 0.05, 1.0, 0.0, 0.9]),
    "minus-shift": (bump_modulated(64.0), CurveSpec(MINUS_SHIFT, alpha=0.5), 2.0,
                    [0.31, 0.35, 0.4, 0.31, 0.5], [2e-5, 3e-5, 4.5e-5, 0.0, 1e-4]),
    "plus-shift": (indicator_band(64.0), CurveSpec(PLUS_SHIFT, alpha=0.25), 2.0,
                   [-0.01, 0.0, 0.005, 0.01, 0.01], [6e-10, 6e-10, 1e-9, 0.0, 2e-7]),
    "gamma_fn": (bump_dilated(16.0), WOBBLE, 2.0,
                 [0.05, 0.05, 0.1, -0.2], [0.0, 2.0 ** -6, 2.0 ** -8, 0.01]),
    "fractional m=1/2": (gaussian_like(), STRAIGHT_1D, 0.5,
                         [-0.7, 0.0, 0.3, 0.3], [1e-3, 0.1, 0.6, 0.0]),
    "fractional m=3/2": (indicator_band(8.0), CurveSpec(PLUS_SHIFT, alpha=0.4), 1.5,
                         [0.01, 0.02, -0.01], [1e-4, 1e-4, 0.3]),
    "d=2": (bump_tensor(16.0, 0.1, d=2), CurveSpec(MINUS_SHIFT, alpha=0.5, d=2), 2.0,
            [[0.01, -0.3], [0.015, 0.2], [0.02, 0.0], [0.01, -0.3], [0.005, 0.45]],
            [2e-4, 5e-4, 8e-4, 0.0, 1e-3]),
    "shift_fn": (bump_dilated(16.0), SQUEEZED, 2.0,
                 [0.05, 0.05, 0.1, -0.2], [0.0, 2.0 ** -6, 2.0 ** -8, 0.01]),
    "d=2 lattice": (bourgain_profile(4096.0, d=2), CurveSpec(MINUS_SHIFT, alpha=0.5, d=2), 2.0,
                    [[-0.5, 0.0], [-0.3, 0.2], [-0.5, 0.0]], [1e-9, 1e-6, 0.0]),
}


@pytest.mark.parametrize("case", sorted(PAIRED_CASES))
def test_paired_call_is_one_scalar_call_per_pair(case):
    profile, curve, m, xs, ts = PAIRED_CASES[case]
    xs = np.asarray(xs, dtype=float)
    values, total = certified_value(profile, curve, m, xs, ts)
    single = [one_pair(profile, curve, m, x, t) for x, t in zip(xs, ts)]
    assert values.shape == (len(ts),) and isinstance(total, int)
    assert total == sum(n for _, n in single)
    tol = 1e-15 * mass_scale(profile)
    assert np.max(np.abs(values - np.array([v for v, _ in single]))) <= tol


def per_pair_budgets(profile, curve, m, points, ts):
    """The pair budgets one pair at a time: gamma, then the bucketed node_budget per coordinate."""
    factors = coordinate_factors(profile)
    gam = np.array(
        [np.atleast_1d(np.asarray(curve_gamma(curve, p, float(tp)), dtype=float))
         for p, tp in zip(points, ts)]
    ).reshape(len(ts), len(factors))
    budgets = [
        [bucket(node_budget(float(g), float(g), float(tp), m, f)) for g, f in zip(row, factors)]
        for row, tp in zip(gam, ts)
    ]
    return gam, budgets, [2 * sum(row) for row in budgets]


@pytest.mark.parametrize("default_budget", [True, False])
@pytest.mark.parametrize("case", sorted(PAIRED_CASES))
def test_pair_budgets_are_the_per_pair_formula(monkeypatch, case, default_budget):
    profile, curve, m, xs, ts = PAIRED_CASES[case]
    if not default_budget:
        coarse_density(monkeypatch, 0.25)
    ts = np.asarray(ts, dtype=float)
    gam = gamma_pairs(curve, xs, ts)
    budgets = _budgets(coordinate_factors(profile), m, gam, gam, ts)
    ref_gam, ref_budgets, ref_used = per_pair_budgets(profile, curve, m, xs, ts)
    assert gam.tobytes() == ref_gam.tobytes()  # bit for bit, signed zeros included
    assert budgets.tolist() == ref_budgets and (2 * budgets.sum(axis=1)).tolist() == ref_used


def test_paired_d2_values_do_not_depend_on_position():
    # 33 pairs fill whole vector lanes and leave a tail; every pair's value
    # is bit for bit its one-pair call's, wherever it sits in the paired call
    profile, curve = bump_tensor(16.0, 0.1, d=2), CurveSpec(MINUS_SHIFT, alpha=0.5, d=2)
    xs = np.column_stack([np.linspace(0.0, 0.02, 33), np.linspace(-0.5, 0.5, 33)])
    ts = np.full(33, 5e-4)
    values, _ = certified_value(profile, curve, 2.0, xs, ts)
    single = np.array([one_pair(profile, curve, 2.0, x, 5e-4)[0] for x in xs])
    assert values.tobytes() == single.tobytes()


def test_paired_call_does_not_depend_on_chunking():
    profile, curve, m, xs, ts = PAIRED_CASES["minus-shift"]
    whole, total = certified_value(profile, curve, m, xs, ts)
    half = len(ts) // 2  # two calls, each grouping its own pairs
    (head, head_total), (tail, tail_total) = (certified_value(profile, curve, m, xs[part], ts[part])
                                              for part in (slice(None, half), slice(half, None)))
    assert np.array_equal(whole, np.concatenate([head, tail])) and total == head_total + tail_total


def test_the_pair_row_runs_in_blocks_without_moving_a_bit(monkeypatch):
    # memory: the pair kernel's (columns, nodes) temporaries stay within
    # X_CHUNK * NODE_BLOCK column-nodes, or one column of one segment
    profile, curve, m, xs, ts = PAIRED_CASES["d=2"]
    calls, real = [], propagator._weighted_rows
    monkeypatch.setattr(propagator, "_weighted_rows", lambda rule, m, s, t, k0, k1: calls.append(
        (len(s), rule.offsets[k1] - rule.offsets[k0], k1 - k0)) or real(rule, m, s, t, k0, k1))
    whole, total = certified_value(profile, curve, m, xs, ts)
    assert max(c for c, _, _ in calls) > 1  # a group of several pairs is one block
    assert max(k for _, _, k in calls) >= 2  # both passes are one run
    del calls[:]
    monkeypatch.setattr(propagator, "NODE_BLOCK", 1)  # limit: X_CHUNK column-nodes
    blocked, blocked_total = certified_value(profile, curve, m, xs, ts)
    assert whole.tobytes() == blocked.tobytes() and total == blocked_total
    assert all(c * nodes <= propagator.X_CHUNK or (c, k) == (1, 1) for c, nodes, k in calls)
    assert any(k == 1 and nodes > propagator.X_CHUNK for _, nodes, k in calls)


def pass_row(rule, p, m, shifts, ts):
    """Pass p of rule's x = 0 row, segment by segment: the fused kernel's reference.

    Each segment's phases are formed, exponentiated, weighted and summed on
    their own, and its midpoint scalar applied, in segment order.
    """
    out = 0j
    s_col, t_col = shifts[:, None], ts[:, None]
    per_pass = (len(rule.offsets) - 1) // len(rule.mass)
    for k in range(p * per_pass, (p + 1) * per_pass):
        a, b = rule.offsets[k : k + 2]
        C, nodes, wf = float(rule.mids[k]), rule.nodes[a:b], rule.wf[a:b]
        u = nodes - C
        if m == 2.0:
            scalars = np.exp(1j * (shifts * C + ts * C * C))
            phase = (s_col + 2.0 * t_col * C) * u + t_col * u * u
        else:
            scalars = np.exp(1j * shifts * C)
            phase = s_col * u + t_col * np.abs(nodes) ** m
        rows = 1j * phase
        np.multiply(wf, np.exp(rows, out=rows), out=rows)
        out = out + scalars * rows.sum(axis=-1)
    return out


FUSED_CASES = {  # (factor, m): one segment, two split at 0, graded, m = 3, the d = 2 lattice's 8
    "one segment": (coordinate_factors(bump_modulated(64.0))[0], 2.0),
    "split at 0": (coordinate_factors(gaussian_like(center=2.0))[0], 2.0),
    "graded m=1/2": (coordinate_factors(gaussian_like())[0], 0.5),
    "graded m=3/2": (coordinate_factors(bump_dilated(16.0))[0], 1.5),
    "m=3": (coordinate_factors(gaussian_like())[0], 3.0),
    "d=2 lattice": (coordinate_factors(bourgain_profile(4096.0, d=2))[1], 2.0),
}


@settings(max_examples=60, deadline=None)
@given(
    case=st.sampled_from(sorted(FUSED_CASES)),
    n=st.sampled_from([64, 128, 512, 4096]),
    doublings=st.sampled_from([(1, 2), (1,), (2,)]),
    columns=st.lists(st.tuples(st.floats(-300.0, 300.0), st.floats(0.0, 1.0)), min_size=1, max_size=40),
    cut=st.floats(0.0, 1.0),
    node_block=st.sampled_from([propagator.NODE_BLOCK, 4, 1]),
)
def test_fused_pair_kernel_is_the_per_pass_per_segment_row(case, n, doublings, columns, cut, node_block):
    # node_block 4 and 1 split the record into runs and the columns into blocks
    factor, m = FUSED_CASES[case]
    rule = _weighted_rule(factor, n, m != int(m), doublings)
    shifts, ts = (np.array(v, dtype=float) for v in zip(*columns))
    want = [pass_row(rule, p, m, shifts, ts) for p in range(len(doublings))]
    with mock.patch.object(propagator, "NODE_BLOCK", node_block):
        got = _pair_quadrature(rule, m, shifts, ts)
        k = int(cut * len(ts))  # split into two calls: no value moves
        head, tail = _pair_quadrature(rule, m, shifts[:k], ts[:k]), _pair_quadrature(rule, m, shifts[k:], ts[k:])
    assert len(got) == len(doublings)
    for values, fused, a, b in zip(want, got, head, tail):
        assert fused.tobytes() == values.tobytes() == np.concatenate([a, b]).tobytes()


def test_a_budget_past_the_cache_holds_one_pass_at_a_time(monkeypatch):
    # a pair at budget 8192 (16384 nodes doubled): each pass's record is
    # built afresh, and the coarse one is gone before the fine one is built
    built, real = [], propagator._build_weighted_rule

    def build(factor, n, graded, doublings):
        alive = any(ref() is not None for _, _, ref in built)
        rule = real(factor, n, graded, doublings)
        built.append((n * doublings[0], alive, weakref.ref(rule)))
        return rule

    monkeypatch.setattr(propagator, "_build_weighted_rule", build)
    x = 250.0  # about 6400 nodes of phase at t = 0
    (n,) = _budgets(coordinate_factors(gaussian_like()), 2.0, np.array([[x]]), np.array([[x]]), np.zeros(1))[0]
    assert n == 2 * CACHED_RULE_NODES
    value, used = one_pair(gaussian_like(), STRAIGHT_1D, 2.0, x, 0.0)
    assert [(total, alive) for total, alive, _ in built] == [(n, False), (2 * n, False)] and used == 2 * n
    assert abs(value - gaussian_closed_form(x, 0.0)) <= 1e-12


# the one budget rule: a pair's bucketed budget, value and count are its
# own, whichever pairs share its call and in whatever order

BUDGET_RULE_CASES = ["straight", "minus-shift", "gamma_fn", "fractional m=3/2", "d=2"]  # d = 1, 2; m = 2, 1.5


@settings(max_examples=60, deadline=None)
@given(data=st.data(), case=st.sampled_from(BUDGET_RULE_CASES))
def test_any_batch_of_pairs_is_its_one_pair_calls(data, case):
    profile, curve, m, xs, ts = PAIRED_CASES[case]
    picks = data.draw(st.lists(st.integers(0, len(ts) - 1), min_size=1, max_size=2 * len(ts)))
    points, times = [xs[i] for i in picks], np.array([ts[i] for i in picks], dtype=float)
    values, total = certified_value(profile, curve, m, points, times)
    single = [one_pair(profile, curve, m, x, t) for x, t in zip(points, times)]
    assert values.tobytes() == np.array([v for v, _ in single]).tobytes()
    gam = gamma_pairs(curve, points, times)
    budgets = _budgets(coordinate_factors(profile), m, gam, gam, times)
    assert budgets.ravel().tolist() == [bucket(n) for n in budgets.ravel().tolist()]
    assert (2 * budgets.sum(axis=1)).tolist() == [n for _, n in single] and total == sum(n for _, n in single)


SPLIT_WINDOWS = {  # (profile, curve, m, window, times): chirp-z and the direct table
    "chirp": (gaussian_like(), CurveSpec(MINUS_SHIFT, alpha=0.5), 2.0, window_grid(-2.0, 2.0, 65),
              [1e-3, 0.01, 0.05, 0.2, 0.4, 1.0]),
    "table": (indicator_band(16.0), CurveSpec(PLUS_SHIFT, alpha=0.25), 2.0, window_grid(-0.05, 0.05, 9),
              [1e-7, 1e-6, 1e-5, 1e-4, 1e-3, 0.01]),
    "m=3/2": (gaussian_like(), STRAIGHT_1D, 1.5, window_grid(-1.0, 1.0, 7), [1e-3, 0.01, 0.1, 0.3, 0.6, 1.0]),
}


@settings(max_examples=30, deadline=None)
@given(data=st.data(), case=st.sampled_from(sorted(SPLIT_WINDOWS)))
def test_a_window_time_does_not_depend_on_the_call_it_is_in(data, case):
    profile, curve, m, xs, ts = SPLIT_WINDOWS[case]
    times = data.draw(st.permutations(ts))
    cut = data.draw(st.integers(1, len(times) - 1))
    whole = batch_values(profile, curve, m, xs, times)
    head, tail = batch_values(profile, curve, m, xs, times[:cut]), batch_values(profile, curve, m, xs, times[cut:])
    assert np.concatenate([head[2], tail[2]]).tolist() == whole[2].tolist()
    assert np.concatenate([head[0], tail[0]], axis=1).tobytes() == whole[0].tobytes()


def test_empty_paired_call():
    values, total = certified_value(gaussian_like(), STRAIGHT_1D, 2.0, np.zeros(0), np.zeros(0))
    assert values.shape == (0,) and total == 0


def test_paired_node_cap_names_the_first_pair_over_it(tight_cap):
    with pytest.raises(AccuracyError) as single:
        one_pair(gaussian_like(), STRAIGHT_1D, 2.0, 40.0, 1.0)
    with pytest.raises(AccuracyError) as err:  # (0, 0) fits the cap, (40, 1) and (50, 1) do not
        certified_value(gaussian_like(), STRAIGHT_1D, 2.0, [0.0, 40.0, 50.0], [0.0, 1.0, 1.0])
    assert err.value.coarse is None and err.value.fine is None
    assert single.value.coarse is None and single.value.fine is None
    assert str(err.value) == str(single.value)
    assert err.value.context == "kind=gaussian-like, x=40.0, t=1.0"


def test_paired_self_check_failure_names_the_failing_pair(monkeypatch):
    coarse_density(monkeypatch, 0.25)  # too few nodes at t = 1
    profile = indicator_band(256.0)
    with pytest.raises(AccuracyError) as single:
        one_pair(profile, STRAIGHT_1D, 2.0, 0.01, 1.0)
    with pytest.raises(AccuracyError) as err:  # f(0.01) converges, U f(0.01, 1) does not
        certified_value(profile, STRAIGHT_1D, 2.0, [0.01, 0.01], [0.0, 1.0])
    assert "self-check failed" in str(err.value)
    assert (err.value.coarse, err.value.fine) == (single.value.coarse, single.value.fine)
    assert err.value.context == single.value.context == "kind=indicator-band, x=0.01, t=1.0"


def test_paired_call_validates_its_pairs():
    g = gaussian_like()
    with pytest.raises(DomainValidationError, match=r"t=1\.5 outside \[0, 1\]"):
        certified_value(g, STRAIGHT_1D, 2.0, [0.1, 0.2], [0.5, 1.5])
    with pytest.raises(DomainValidationError, match="outside"):
        certified_value(g, STRAIGHT_1D, 2.0, [0.1, 0.2], [-0.1, 0.5])
    with pytest.raises(DomainValidationError, match="one x per t"):
        certified_value(g, STRAIGHT_1D, 2.0, [0.1, 0.2, 0.3], [0.5, 0.6])
    with pytest.raises(DomainValidationError, match="one x per t"):
        certified_value(g, STRAIGHT_1D, 2.0, 0.1, [0.5, 0.6])
    for x, t in ((0.1, 0.5), ([0.1], 0.5), (0.1, [0.5])):  # no scalar form: one point is ([x], [t])
        with pytest.raises(DomainValidationError, match=r"one x per t \(\[x\], \[t\] for one point\)"):
            certified_value(g, STRAIGHT_1D, 2.0, x, t)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_x_fails_before_any_work(monkeypatch, bad):
    calls = []
    for stage in ("_columns", "_pair_quadrature", "_quadrature", "_chirp_window"):
        monkeypatch.setattr(propagator, stage, lambda *a, **k: calls.append(a))
    g, shifted = gaussian_like(), CurveSpec(MINUS_SHIFT, alpha=0.5)
    with pytest.raises(DomainValidationError, match=f"x coordinate {bad} is not finite"):
        batch_values(g, shifted, 2.0, np.array([0.1, bad]), [0.5])
    with pytest.raises(DomainValidationError, match=f"x coordinate {bad} is not finite"):
        certified_value(g, shifted, 2.0, [0.1, bad], [0.5, 0.5])
    with pytest.raises(DomainValidationError, match=f"x coordinate {bad} is not finite"):
        certified_value(bump_tensor(16.0, 0.1, d=2), CurveSpec(MINUS_SHIFT, alpha=0.5, d=2), 2.0,
                        [[0.01, 0.2], [0.02, bad]], [1e-3, 1e-3])
    with pytest.raises(DomainValidationError, match=f"x coordinate {bad} is not finite"):
        evaluate(g, shifted, 2.0, bad, 0.5)
    assert calls == []


@pytest.mark.parametrize("m", [math.nan, 0.0, -1.0])
def test_both_kernels_reject_a_bad_m_before_any_work(monkeypatch, m):
    calls = []
    for stage in ("_columns", "_pair_quadrature", "_quadrature", "_chirp_window"):
        monkeypatch.setattr(propagator, stage, lambda *a, **k: calls.append(a))
    g, message = gaussian_like(), re.escape(f"dispersion power m={m} must be positive")
    with pytest.raises(DomainValidationError, match=message):
        batch_values(g, STRAIGHT_1D, m, np.array([0.1, 0.2]), [0.5])
    with pytest.raises(DomainValidationError, match=message):
        certified_value(g, STRAIGHT_1D, m, [0.1, 0.2], [0.5, 0.5])
    with pytest.raises(DomainValidationError, match=message):
        evaluate(g, STRAIGHT_1D, m, 0.1, 0.5)
    assert calls == []


@pytest.mark.parametrize("t", [1.5, -0.1, math.nan])
def test_both_kernels_reject_a_time_outside_the_unit_interval(t):
    g, message = gaussian_like(), re.escape(f"t={t} outside [0, 1]")
    with pytest.raises(DomainValidationError, match=message):
        batch_values(g, STRAIGHT_1D, 2.0, np.array([0.1, 0.2]), [0.5, t])
    with pytest.raises(DomainValidationError, match=message):
        certified_value(g, STRAIGHT_1D, 2.0, [0.1, 0.2], [0.5, t])


def test_both_kernels_reject_a_curve_of_another_dimension_before_any_work(monkeypatch):
    calls = []
    for stage in ("_columns", "_pair_quadrature", "_quadrature", "_chirp_window"):
        monkeypatch.setattr(propagator, stage, lambda *a, **k: calls.append(a))
    g, plane = gaussian_like(), CurveSpec(MINUS_SHIFT, alpha=0.5, d=2)
    with pytest.raises(DomainValidationError, match="curve and profile dimensions disagree"):
        batch_values(g, plane, 2.0, np.linspace(-1.0, 1.0, 5), [0.1])
    with pytest.raises(DomainValidationError, match="curve and profile dimensions disagree"):
        certified_value(g, plane, 2.0, [0.1], [0.1])
    with pytest.raises(DomainValidationError, match="curve and profile dimensions disagree"):
        certified_value(bump_tensor(16.0, 0.1, d=2), STRAIGHT_1D, 2.0, [[0.1, 0.2]], [0.1])
    with pytest.raises(DomainValidationError, match=r"fractional dispersion \(m != 2\) is one-dimensional"):
        certified_value(bump_tensor(16.0, 0.1, d=2), plane, 1.5, [[0.1, 0.2]], [0.1])
    assert calls == []


@pytest.mark.parametrize("kernel", ["pointwise", "window"])
def test_over_cap_error_names_the_doubled_budget(tight_cap, kernel):
    (factor,) = coordinate_factors(gaussian_like())
    budget = bucket(node_budget(40.0, 40.0, 1.0, 2.0, factor))  # pairs and windows budget the bucketed count
    with pytest.raises(AccuracyError) as err:
        if kernel == "pointwise":
            one_pair(gaussian_like(), STRAIGHT_1D, 2.0, 40.0, 1.0)
        else:
            batch_values(gaussian_like(), STRAIGHT_1D, 2.0, np.array([0.0, 40.0]), [1.0])
    assert str(err.value) == f"node budget {2 * budget} exceeds cap 128 [kind=gaussian-like, x=40.0, t=1.0]"
    assert err.value.coarse is None and err.value.fine is None


@pytest.mark.parametrize("kernel", ["pointwise", "window"])
def test_over_cap_raises_before_either_kernel_runs(tight_cap, monkeypatch, kernel):
    def refuse(*args, **kwargs):
        raise AssertionError("a kernel ran past the node cap")

    for name in ("_pair_quadrature", "_quadrature", "_chirp_window"):
        monkeypatch.setattr(propagator, name, refuse)
    with pytest.raises(AccuracyError) as err:
        if kernel == "pointwise":  # (0, 0) fits the cap, (40, 1) does not
            certified_value(gaussian_like(), STRAIGHT_1D, 2.0, [0.0, 40.0], [0.0, 1.0])
        else:  # a uniform window of 129 points, which the chirp-z kernel would take
            xs = np.linspace(0.0, 40.0, 129)
            assert chirp_admits(xs, _hull(coordinate_factors(gaussian_like())[0])[1])
            batch_values(gaussian_like(), STRAIGHT_1D, 2.0, xs, [1.0])
    assert err.value.coarse is None and err.value.fine is None
    assert str(err.value).startswith("node budget ") and "exceeds cap 128" in str(err.value)
    assert err.value.context == "kind=gaussian-like, x=40.0, t=1.0"


def test_an_empty_window_past_the_cap_names_its_time_and_no_point():
    below = batch_values(bump_modulated(64.0), STRAIGHT_1D, 2.0, np.zeros(0), [0.01, 0.5])
    assert below[0].shape == (0, 2) and below[1].shape == (0,)
    assert below[2].tolist() == [32768, 1048576]
    with pytest.raises(AccuracyError) as err:
        batch_values(bump_modulated(4096.0), STRAIGHT_1D, 2.0, np.zeros(0), [1.0])
    assert str(err.value).startswith("node budget ") and "exceeds cap 4194304" in str(err.value)
    assert err.value.context == "kind=bump-modulated, t=1.0"
    assert err.value.coarse is None and err.value.fine is None


# point_values: U f and f(x) on the pointwise kernel, in one certified pass


def bits(*values):
    return np.array(values, dtype=np.complex128).tobytes()


@pytest.mark.parametrize("case", sorted(PAIRED_CASES))
def test_point_values_are_scalar_calls_bit_for_bit(case):
    profile, curve, m, xs, ts = PAIRED_CASES[case]
    xs = np.asarray(xs, dtype=float)
    values, initial, counts = point_values(profile, curve, m, xs, ts)
    assert values.shape == counts.shape == (len(xs), len(ts)) and initial.shape == (len(xs),)
    for i, x in enumerate(xs):
        assert bits(initial[i]) == bits(one_pair(profile, curve, m, x, 0.0)[0])
        for j, t in enumerate(ts):
            value, used = one_pair(profile, curve, m, x, float(t))
            assert bits(values[i, j]) == bits(value) and counts[i, j] == used
            if t == 0.0:
                assert bits(values[i, j]) == bits(initial[i])


@pytest.mark.parametrize("case", sorted(PAIRED_CASES))
def test_evaluate_is_point_values_at_one_pair(case):
    profile, curve, m, xs, ts = PAIRED_CASES[case]
    for x, t in zip(xs, ts):
        s = evaluate(profile, curve, m, x, t)
        values, initial, counts = point_values(profile, curve, m, [x], [t])
        assert bits(s.value, s.initial) == bits(values[0, 0], initial[0])
        assert s.node_count == counts[0, 0] == one_pair(profile, curve, m, x, t)[1]
        assert t != 0.0 or s.value == s.initial


def test_evaluate_makes_one_certified_call(monkeypatch):
    calls = []

    def counting(*args, **kwargs):
        calls.append(args[3:5])
        return real(*args, **kwargs)

    real = propagator.certified_value
    monkeypatch.setattr(propagator, "certified_value", counting)
    evaluate(gaussian_like(), STRAIGHT_1D, 2.0, 0.3, 0.2)
    evaluate(gaussian_like(), STRAIGHT_1D, 2.0, 0.3, 0.0)
    assert len(calls) == 2
    assert [list(t) for _, t in calls] == [[0.2, 0.0], [0.0, 0.0]]


def test_evaluate_names_x_and_time_zero_when_f_fails(monkeypatch):
    # the curve carries x = 40 back to 0 at t = 1, so U f(40, 1) needs fewer
    # nodes than f(40); a cap between the two budgets fails f(x) alone
    back = CurveSpec(CUSTOM, shift_fn=lambda t: -40.0 * t)
    _, used = one_pair(gaussian_like(), back, 2.0, 40.0, 1.0)
    monkeypatch.setattr(propagator, "MAX_NODES", used)
    assert one_pair(gaussian_like(), back, 2.0, 40.0, 1.0)[1] == used
    with pytest.raises(AccuracyError) as err:
        evaluate(gaussian_like(), back, 2.0, 40.0, 1.0)
    assert err.value.context == "kind=gaussian-like, x=40.0, t=0.0"


# Linearity and translation covariance, through the paired kernel. The
# only linear combinations of gaussian_like data that are again data are
# those of one centre: a f + b g is the datum of amplitude a A + b B. No
# datum is a translate f(. - y), whose transform is e^{-i y xi} f^; but
# along a curve gamma that factor turns U(f(. - y))(x, t) into the field
# of f along gamma - y, so for t > 0 covariance reads
# U_{gamma - y} f(x, t) = U_gamma f(x - y, t), with gamma - y a general
# (gamma_fn) curve and gamma a shift curve.

@settings(max_examples=25, deadline=None)
@given(
    center=st.floats(-3.0, 3.0),
    amplitudes=st.tuples(st.floats(-2.0, 2.0), st.floats(-2.0, 2.0)),
    coefficients=st.tuples(st.floats(-2.0, 2.0), st.floats(-2.0, 2.0)),
    pairs=st.lists(st.tuples(st.floats(-2.0, 2.0), st.floats(0.0, 1.0)), min_size=1, max_size=8),
    m=st.sampled_from([0.5, 1.5, 2.0]),
    curve=st.sampled_from(SHIFT_CURVES),
)
def test_linearity_in_the_datum(center, amplitudes, coefficients, pairs, m, curve):
    (A, B), (a, b) = amplitudes, coefficients
    xs, ts = (np.array(v) for v in zip(*pairs))
    scale = batch_initial(gaussian_like(center=center), np.zeros(1))[0].real  # unit amplitude
    f, _ = certified_value(gaussian_like(center, A), curve, m, xs, ts)
    g, _ = certified_value(gaussian_like(center, B), curve, m, xs, ts)
    combined, _ = certified_value(gaussian_like(center, a * A + b * B), curve, m, xs, ts)
    tol = 1e-9 * scale * (abs(a * A) + abs(b * B))
    assert np.max(np.abs(combined - (a * f + b * g))) <= tol


def test_subnormal_amplitude_scales_the_certified_unit_field():
    # a subnormal datum has no relative precision of its own: it is the
    # unit datum's certified field times the amplitude, on pairs and windows
    a = 2.2250738585e-313
    xs, ts = np.array([0.0, 0.5, 0.0]), np.array([1.0, 0.3, 0.0])

    def scaled(values):
        return values.real * a + 1j * (values.imag * a)

    unit, _ = certified_value(gaussian_like(1.875), STRAIGHT_1D, 1.5, xs, ts)
    tiny, _ = certified_value(gaussian_like(1.875, a), STRAIGHT_1D, 1.5, xs, ts)
    assert np.array_equal(tiny, scaled(unit))
    window = np.linspace(-1.0, 1.0, 5)
    unit_vals, unit_init, _ = batch_values(gaussian_like(1.875), STRAIGHT_1D, 2.0, window, [0.2, 0.7])
    vals, init, _ = batch_values(gaussian_like(1.875, a), STRAIGHT_1D, 2.0, window, [0.2, 0.7])
    assert np.array_equal(vals, scaled(unit_vals)) and np.array_equal(init, scaled(unit_init))


@settings(max_examples=25, deadline=None)
@given(
    center=st.floats(-3.0, 3.0),
    y=st.floats(-1.0, 1.0),
    pairs=st.lists(
        st.tuples(st.floats(-2.0, 2.0), st.floats(0.0, 1.0, exclude_min=True)), min_size=1, max_size=8
    ),
    m=st.sampled_from([0.5, 1.5, 2.0]),
    curve=st.sampled_from(SHIFT_CURVES),
)
def test_translation_covariance(center, y, pairs, m, curve):
    profile = gaussian_like(center=center)
    moved = CurveSpec(CUSTOM, alpha=curve.alpha, gamma_fn=lambda x, t: x + curve.shift(t) - y if t else x)
    xs, ts = (np.array(v) for v in zip(*pairs))
    scale = batch_initial(profile, np.zeros(1))[0].real  # f^ >= 0: f(0) is the L^1 mass scale
    lhs, _ = certified_value(profile, moved, m, xs, ts)
    rhs, _ = certified_value(profile, curve, m, xs - y, ts)
    assert np.max(np.abs(lhs - rhs)) <= 1e-9 * scale
