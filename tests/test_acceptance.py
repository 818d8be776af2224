"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with `pytest -v -s tests/test_acceptance.py` to see the per-criterion
lines as they complete. Tolerances are fixed here, not calibrated later.
"""

import math
import time
from fractions import Fraction

import numpy as np

from curverate.curves import CurveSpec, MINUS_SHIFT, PLUS_SHIFT, STRAIGHT
from curverate.exponents import (
    LIPSCHITZ,
    Regime,
    law_for,
    region_curve,
    threshold,
)
from curverate.experiments import (
    ExperimentPlan,
    ScalingReport,
    fit_loglog,
    run,
    sharpness_sweep,
)
from curverate.initial_data import (
    bump_dilated,
    bump_modulated,
    bump_tensor,
    gaussian_like,
    indicator_band,
    sobolev_norm,
)
from curverate.maximal import (
    calibrate_window_constant,
    critical_time,
    lemma_bound,
    lemma_profile,
    rate_ceiling_demo,
)
from curverate.propagator import evaluate

F = Fraction
TWO_PI = 2.0 * math.pi

TEN_REGIMES = [
    Regime(d=1, alpha=1, m=2, smoothness=LIPSCHITZ),
    Regime(d=2, alpha=1, m=2, smoothness=LIPSCHITZ),
    Regime(d=1, alpha=F(7, 10), m=2),
    Regime(d=1, alpha=F(1, 5), m=2),
    Regime(d=1, alpha=F(3, 10), m=2),
    Regime(d=1, alpha=F(4, 5), m=F(1, 2)),
    Regime(d=1, alpha=F(2, 5), m=F(1, 2)),
    Regime(d=1, alpha=F(3, 5), m=F(3, 1)),
    Regime(d=1, alpha=F(3, 20), m=F(3, 1)),
    Regime(d=1, alpha=F(7, 25), m=F(3, 1)),
    Regime(d=1, alpha=F(11, 20), m=F(3, 2)),
]


class Criterion:
    def __init__(self, number, label, limit_seconds):
        self.number = number
        self.label = label
        self.limit = limit_seconds

    def __enter__(self):
        self.start = time.time()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.time() - self.start
        status = "PASS" if exc_type is None else "FAIL"
        print(f"[{status}] criterion {self.number}: {self.label} ({elapsed:.1f}s, limit {self.limit}s)")
        if exc_type is None and elapsed > self.limit:
            raise AssertionError(
                f"criterion {self.number} exceeded its runtime limit: {elapsed:.1f}s > {self.limit}s"
            )
        return False


def test_c01_threshold_atlas_integrity():
    with Criterion(1, "threshold atlas: continuity, monotonicity, specialization", 1.0):
        for r in TEN_REGIMES:
            law = law_for(r)
            for i, bp in enumerate(law.breakpoints):
                gap = abs(float(law.pieces[i](bp)) - float(law.pieces[i + 1](bp)))
                assert gap <= 1e-12, (law.regime_id, bp, gap)
            step = float(law.delta_max) / 1000
            vals = [threshold(r, i * step) for i in range(1000)]
            assert all(b >= a - 1e-15 for a, b in zip(vals, vals[1:])), law.regime_id
        # the m>1 high-alpha law at m=2 reproduces the m=2 high-alpha law
        from curverate.exponents import _regime_law

        for alpha in (F(1, 2), F(3, 4), F(9, 10)):
            a = _regime_law("holder-high-alpha", 1, alpha, 2)
            b = _regime_law("superunit-m-high-alpha", 1, alpha, F(2))
            for i in range(1000):
                d = alpha * i / 1000
                assert a(d) == b(d)


def test_c02_region_curve_landmarks_exact():
    with Criterion(2, "region-curve landmarks as exact rationals", 5.0):
        for d in (1, 2, 3):
            _, ann = region_curve(Regime(d=d, alpha=1, m=2, smoothness=LIPSCHITZ), [])
            by = {a["kind"]: a for a in ann}
            assert by["onset"]["s"] == F(d, 2 * (d + 1))
            assert by["corner"]["delta"] == F(d, 2 * (d + 1))
            assert by["corner"]["s"] == F(d, d + 1)

        _, ann = region_curve(Regime(d=1, alpha=F(3, 4), m=2), [])
        by = {a["kind"]: a for a in ann}
        assert by["onset"]["s"] == F(1, 4)
        assert by["corner"] == {"kind": "corner", "delta": F(1, 4), "s": F(1, 2)}

        alpha = F(1, 5)
        _, ann = region_curve(Regime(d=1, alpha=alpha, m=2), [])
        corners = [a for a in ann if a["kind"] == "corner"]
        assert [a["delta"] for a in corners] == [alpha / 2]
        assert [a["s"] for a in corners] == [F(1, 2)]
        by = {a["kind"]: a for a in ann}
        assert by["onset"]["s"] == F(1, 2) - alpha
        assert by["ceiling"] == {"kind": "ceiling", "delta": alpha, "s": F(1)}

        alpha = F(3, 10)
        _, ann = region_curve(Regime(d=1, alpha=alpha, m=2), [])
        corners = [a for a in ann if a["kind"] == "corner"]
        assert [a["delta"] for a in corners] == [alpha - F(1, 4), alpha / 2]
        assert [a["s"] for a in corners] == [alpha, F(1, 2)]
        by = {a["kind"]: a for a in ann}
        assert by["onset"]["s"] == F(1, 4)
        assert by["ceiling"] == {"kind": "ceiling", "delta": alpha, "s": F(1)}


def test_c03_propagator_correctness():
    with Criterion(3, "propagator: t=0 exact, Gaussian 1e-6, covariance 1e-8, self-check", 30.0):
        straight = CurveSpec(STRAIGHT, alpha=1.0)
        minus = CurveSpec(MINUS_SHIFT, alpha=0.5)
        g = gaussian_like()
        for profile, curve in ((g, straight), (bump_dilated(32.0), minus), (indicator_band(16.0), straight)):
            s = evaluate(profile, curve, 2.0, 0.37, 0.0)
            assert s.value == s.initial

        for x, t in ((0.3, 0.2), (0.0, 0.5), (-1.1, 0.05), (2.0, 1.0), (0.7, 0.9)):
            z = 1.0 - 1j * t
            closed = (1.0 / TWO_PI) * np.sqrt(np.pi / z) * np.exp(-x * x / (4.0 * z))
            got = evaluate(g, straight, 2.0, x, t).value
            assert abs(got - closed) < 1e-6

        eta0 = 3.7
        shifted = gaussian_like(center=eta0)
        for x, t in ((0.2, 0.3), (-0.4, 0.07), (0.1, 0.9)):
            a = evaluate(shifted, straight, 2.0, x, t).value
            b = evaluate(g, straight, 2.0, x + 2.0 * t * eta0, t).value
            assert abs(abs(a) - abs(b)) < 1e-8
        # every evaluation above passed the node-doubling self-check at
        # tolerance 1e-9; any violation would have raised AccuracyError


def test_c04_pointwise_inequalities_desk_scale():
    with Criterion(4, "pointwise lower-bound inequalities at desk scale", 300.0):
        # modulated family: |U f(x, t_x)| >= 0.9/(4 pi), |f(x)| <= 1.1/(8 pi)
        alpha = 0.5
        curve = CurveSpec(MINUS_SHIFT, alpha=alpha)
        c = calibrate_window_constant("bump-modulated", alpha, R_min=64.0)
        for R in (64.0, 128.0, 256.0, 512.0, 1024.0):
            profile = bump_modulated(R)
            for x in np.linspace(0.5 * c * 1.02, c * 0.98, 9):
                tx = critical_time("bump-modulated", curve, R, 0.0, float(x))
                sample = evaluate(profile, curve, 2.0, float(x), tx)
                assert abs(sample.value) >= 0.9 / (4.0 * math.pi), (R, x)
                assert abs(sample.initial) <= 1.1 / (8.0 * math.pi), (R, x)

        # band family: |U f(x, t0) - f(x)| >= c^alpha / (8 pi) on B(0, c)
        for alpha in (0.25, 0.5):
            curve = CurveSpec(PLUS_SHIFT, alpha=alpha)
            c = calibrate_window_constant("indicator-band", alpha)
            for R in (64.0, 128.0, 256.0, 512.0, 1024.0):
                profile = indicator_band(R)
                t0 = critical_time("indicator-band", curve, R, 0.0, 0.0, window_constant=c)
                for x in np.linspace(-c * 0.98, c * 0.98, 9):
                    sample = evaluate(profile, curve, 2.0, float(x), t0)
                    assert abs(sample.value - sample.initial) >= c ** alpha / (8.0 * math.pi), (
                        alpha,
                        R,
                        x,
                    )


ACCEPTANCE_RUNS = [
    # (family, alpha, delta, s, epsilon)
    ("bump-modulated", 0.5, 0.0, 0.0, 0.0),
    ("bump-modulated", 0.5, 0.0, 0.25, 0.0),
    ("bump-modulated", 0.5, 0.1, 0.0, 0.0),
    ("bump-modulated", 0.5, 0.1, 0.25, 0.0),
    ("bump-dilated", 0.2, 0.05, 0.0, 0.0),
    ("indicator-band", 0.25, 0.25 / 2 * 0.8, 0.0, 0.0),
    ("indicator-band", 0.5, 0.5 / 2 * 0.8, 0.0, 0.0),
    ("bump-tensor", 0.5, 0.1, 0.0, 0.1),
    ("bourgain", 0.5, 0.1, 0.0, 0.0),
]


def test_c05_scaling_slopes_match_predictions():
    with Criterion(5, "scaling slopes match the counterexample exponents (+/- 0.15)", 900.0):
        for family, alpha, delta, s, eps in ACCEPTANCE_RUNS:
            plan = ExperimentPlan(family=family, alpha=alpha, delta=delta, s=s, epsilon=eps)
            report = run(plan)
            assert report.verdict == "consistent", (
                family,
                alpha,
                delta,
                s,
                report.fitted_slope,
                report.predicted,
            )
            print(
                f"    {family:15s} alpha={alpha:5.3g} delta={delta:5.3g} s={s:4.3g}: "
                f"fitted {report.fitted_slope:+.3f} vs predicted {report.predicted:+.3f}"
            )


def test_c06_sharpness_sweeps():
    with Criterion(6, "sharpness sweeps cross zero at the threshold (+/- 0.05)", 900.0):
        plan = ExperimentPlan(family="bump-modulated", alpha=0.5, delta=0.0, s=0.0)
        rows, crossing = sharpness_sweep(plan, [0.0, 0.1, 0.2, 0.3, 0.4])
        print(f"    bump-modulated delta=0 crossing at s = {crossing:.4f} (target 0.25)")
        assert crossing is not None and abs(crossing - 0.25) <= 0.05

        plan = ExperimentPlan(family="indicator-band", alpha=0.25, delta=0.125, s=0.0)
        rows, crossing = sharpness_sweep(plan, [0.3, 0.4, 0.5, 0.6, 0.7])
        print(f"    indicator-band delta=1/8 crossing at s = {crossing:.4f} (target 0.5)")
        assert crossing is not None and abs(crossing - 0.5) <= 0.05


def test_c07_sobolev_norm_scaling():
    with Criterion(7, "Sobolev-norm scaling slopes (+/- 0.05)", 60.0):
        Rs = [2.0 ** j for j in range(5, 11)]
        cases = [
            (lambda R: bump_dilated(R), lambda s: s - 0.5),
            (lambda R: bump_modulated(R), lambda s: 2.0 * s - 0.5),
            (lambda R: bump_tensor(R, 0.1), lambda s: 1.1 * s - 0.5),
            (lambda R: indicator_band(R), lambda s: s),
        ]
        for build, pred in cases:
            for s in (0.0, 0.5):
                slope, _ = fit_loglog(Rs, [sobolev_norm(build(R), s) for R in Rs])
                assert abs(slope - pred(s)) <= 0.05, (build(2.0 ** 5).kind, s, slope, pred(s))


def test_c08_lemma_trend_checks():
    with Criterion(8, "local maximal bound trends (ratio spread < 10x, nesting)", 600.0):
        curve_half = CurveSpec(MINUS_SHIFT, alpha=0.5)
        high = Regime(d=1, alpha=0.5, m=2)
        ratios = []
        for k in (6, 8, 10):
            js = list(range(k, 2 * k + 1))
            vals = lemma_profile(high, k, js, curve_half)
            seq = [vals[float(j)] for j in js]
            assert all(b <= a + 1e-12 for a, b in zip(seq, seq[1:])), ("high", k)
            ratios.extend(vals[float(j)] / lemma_bound(high, k, j) for j in js)
        spread_high = max(ratios) / min(ratios)
        print(f"    high-alpha block bounds: ratio spread {spread_high:.2f}")
        assert spread_high < 10.0

        low = Regime(d=1, alpha=0.25, m=2)
        curve_low = CurveSpec(MINUS_SHIFT, alpha=0.25)
        ratios = []
        for k in (6, 8, 10):
            js = list(range(2 * k, 4 * k + 1, 2))
            vals = lemma_profile(low, k, js, curve_low)
            seq = [vals[float(j)] for j in js]
            assert all(b <= a + 1e-12 for a, b in zip(seq, seq[1:])), ("low", k)
            ratios.extend(vals[float(j)] / lemma_bound(low, k, j) for j in js)
        spread_low = max(ratios) / min(ratios)
        print(f"    low-alpha block bounds: ratio spread {spread_low:.2f}")
        assert spread_low < 10.0

        mid = Regime(d=1, alpha=0.3, m=2)
        curve_mid = CurveSpec(MINUS_SHIFT, alpha=0.3)
        ratios = []
        for k in (6, 8, 10):
            js = sorted(set(list(range(k, int(k / 0.3) + 1, 2)) + [k, 2 * k, int(k / 0.3)]))
            vals = lemma_profile(mid, k, js, curve_mid)
            seq = [vals[float(j)] for j in js]
            assert all(b <= a + 1e-12 for a, b in zip(seq, seq[1:])), ("mid", k)
            ratios.extend(vals[float(j)] / lemma_bound(mid, k, j) for j in js)
        spread_mid = max(ratios) / min(ratios)
        print(f"    mid-alpha block bounds: ratio spread {spread_mid:.2f}")
        assert spread_mid < 10.0


def test_c09_rate_ceiling_demonstration():
    with Criterion(9, "rate-ceiling rigidity: positive floor at delta = alpha", 60.0):
        for alpha in (0.25, 0.5):
            curve = CurveSpec(MINUS_SHIFT, alpha=alpha)
            pairs, running = rate_ceiling_demo(gaussian_like(), curve, x_star=0.3, j_lo=4, j_hi=20)
            first = pairs[0][1]
            floor = running[-1]
            print(f"    alpha={alpha}: floor {floor:.5f} vs first ratio {first:.5f}")
            assert floor > 1e-3 * first
            assert floor > 0.0


def test_c10_determinism_and_round_trip():
    with Criterion(10, "byte-identical reports across worker counts; schema round-trip", 300.0):
        from curverate.experiments import _NUMERATOR_CACHE

        plan = ExperimentPlan(
            family="indicator-band",
            alpha=0.5,
            delta=0.2,
            s=0.0,
            R_sequence=(8.0, 16.0, 32.0, 64.0),
            points_per_octave=4,
        )
        _NUMERATOR_CACHE.clear()
        r1 = run(plan, workers=1)
        _NUMERATOR_CACHE.clear()
        r8 = run(plan, workers=8)
        assert r1.to_json() == r8.to_json()
        back = ScalingReport.from_json(r1.to_json())
        assert back.to_json() == r1.to_json()

        from curverate.reports import envelope, loads, dumps

        rep = envelope("scaling", r1.plan.to_dict(), r1.to_dict())
        assert loads(dumps(rep)) == rep
