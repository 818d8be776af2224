"""Curve families and empirical regularity verification."""

import re

import numpy as np
import pytest

from curverate.curves import (
    CUSTOM,
    CurveSpec,
    MINUS_SHIFT,
    PLUS_SHIFT,
    STRAIGHT,
    gamma,
    gamma_pairs,
    verify_regularity,
)
from curverate.errors import DomainValidationError


def test_gamma_examples():
    minus = CurveSpec(MINUS_SHIFT, alpha=0.5)
    assert gamma(minus, 0.25, 0.04) == pytest.approx(0.25 - 0.04 ** 0.5, abs=1e-16)
    plus = CurveSpec(PLUS_SHIFT, alpha=0.25)
    assert gamma(plus, 0.0, 0.0016) == pytest.approx(0.2, abs=1e-15)


def test_gamma_time_zero_is_bitwise_identity():
    spec = CurveSpec(MINUS_SHIFT, alpha=0.37)
    x = 0.123456789
    assert gamma(spec, x, 0.0) is x
    arr = np.array([0.1, -0.2, 0.3])
    spec3 = CurveSpec(MINUS_SHIFT, alpha=0.37, d=3)
    assert gamma(spec3, arr, 0.0) is arr


def test_gamma_domain_error():
    spec = CurveSpec(MINUS_SHIFT, alpha=0.5)
    with pytest.raises(DomainValidationError):
        gamma(spec, 0.0, 1.5)


@pytest.mark.parametrize("spec,x", [
    (CurveSpec(MINUS_SHIFT, alpha=0.5), np.array([0.1, 0.2])),
    (CurveSpec(MINUS_SHIFT, alpha=0.5, d=2), 0.1),
    (CurveSpec(MINUS_SHIFT, alpha=0.5, d=2), np.array([0.1, 0.2, 0.3])),
    (CurveSpec(CUSTOM, gamma_fn=lambda x, t: x), np.array([0.1, 0.2])),
])
def test_gamma_rejects_a_point_of_the_wrong_shape(spec, x):
    want = f"gamma needs 1 points of {spec.d} coordinates, a scalar each at d = 1, one per time: " \
        f"got shape {(1,) + np.shape(x)}"
    with pytest.raises(DomainValidationError, match=f"^{re.escape(want)}$"):
        gamma(spec, x, 0.5)


def test_gamma_pairs_rejects_points_that_do_not_pair_with_the_times():
    with pytest.raises(DomainValidationError, match=r"gamma needs 3 points of 1 coordinates"):
        gamma_pairs(CurveSpec(PLUS_SHIFT, alpha=0.5), [0.1, 0.2], [0.1, 0.2, 0.3])


def test_gamma_shifts_first_coordinate_only():
    spec = CurveSpec(PLUS_SHIFT, alpha=0.5, d=3)
    x = np.array([0.1, 0.2, 0.3])
    g = gamma(spec, x, 0.04)
    assert g[0] == pytest.approx(0.1 + 0.2)
    assert g[1] == 0.2 and g[2] == 0.3


def test_spec_validation():
    with pytest.raises(DomainValidationError):
        CurveSpec("diagonal")
    with pytest.raises(DomainValidationError):
        CurveSpec(MINUS_SHIFT, alpha=1.5)
    with pytest.raises(DomainValidationError):
        CurveSpec(CUSTOM)  # custom needs shift_fn


def test_custom_curve_contract():
    good = CurveSpec(CUSTOM, alpha=0.5, shift_fn=lambda t: -(t ** 0.5) if t > 0 else 0.0)
    assert gamma(good, 0.25, 0.04) == pytest.approx(0.05)
    assert gamma(good, 0.25, 0.0) == 0.25
    bad = CurveSpec(CUSTOM, alpha=0.5, shift_fn=lambda t: 1.0)
    with pytest.raises(DomainValidationError):
        gamma(bad, 0.25, 0.0)


def test_custom_curve_general_gamma_fn():
    wobble = CurveSpec(CUSTOM, alpha=0.5, gamma_fn=lambda x, t: x + (1 + 0.1 * x) * t ** 0.5)
    assert gamma(wobble, 0.25, 0.0) == 0.25
    assert gamma(wobble, 0.2, 0.04) == pytest.approx(0.2 + 1.02 * 0.2)
    assert not wobble.is_shift
    broken = CurveSpec(CUSTOM, alpha=0.5, gamma_fn=lambda x, t: x + 1.0)
    with pytest.raises(DomainValidationError):
        gamma(broken, 0.1, 0.0)


@pytest.mark.parametrize(
    "spec",
    [
        CurveSpec(MINUS_SHIFT, alpha=0.5),
        CurveSpec(MINUS_SHIFT, alpha=0.37, d=2),
        CurveSpec(PLUS_SHIFT, alpha=0.25),
        CurveSpec(PLUS_SHIFT, alpha=1.0, d=2),
        CurveSpec(STRAIGHT),
        CurveSpec(STRAIGHT, d=2),
        CurveSpec(CUSTOM, alpha=0.5, shift_fn=lambda t: -(abs(t) ** 0.5) * 1.1),
    ],
    ids=lambda spec: f"{spec.kind}-d{spec.d}",
)
def test_gamma_pairs_is_shift_per_time_bit_for_bit(spec):
    def scalar_shift(t):
        """The displacement as one scalar expression per time, the reference."""
        if t == 0.0 or spec.kind == STRAIGHT:
            return 0.0
        if spec.kind == MINUS_SHIFT:
            return -(abs(t) ** spec.alpha) if t > 0 else -((-t) ** spec.alpha) * (-1)
        if spec.kind == PLUS_SHIFT:
            return abs(t) ** spec.alpha if t > 0 else -((-t) ** spec.alpha)
        return spec.shift_fn(t)

    rng = np.random.default_rng(7)
    ts = np.concatenate([rng.uniform(-1.0, 1.0, 200), 2.0 ** -np.arange(1.0, 40.0), [0.0, -0.0, 1.0, -1.0]])
    for t in ts:  # Python floats, and the numpy floats a window passes
        for time in (float(t), t):
            assert np.float64(spec.shift(time)).tobytes() == np.float64(scalar_shift(time)).tobytes()
    points = rng.normal(size=(len(ts), spec.d))
    points[::5, 0] = -0.0  # x + 0.0 turns -0.0 into 0.0 wherever t != 0
    got = gamma_pairs(spec, points if spec.d > 1 else points[:, 0], ts)
    want = points.copy()
    for row, t in zip(want, ts.tolist()):
        if t != 0.0:  # gamma(x, 0) is x itself
            row[0] = row[0] + scalar_shift(t)
    assert got.tobytes() == want.tobytes()


def test_holder_difference_inequality_dense_oracle():
    # |t^a - s^a| <= |t - s|^a on [0, 1] for 0 < a <= 1: the fact behind
    # the holder-const <= 1 assertion, checked by dense sampling.
    for a in (0.25, 0.5, 0.75, 1.0):
        ts = np.linspace(0.0, 1.0, 400)
        T, S = np.meshgrid(ts, ts)
        mask = T != S
        lhs = np.abs(T ** a - S ** a)[mask]
        rhs = np.abs(T - S)[mask] ** a
        assert np.all(lhs <= rhs + 1e-12)


@pytest.mark.parametrize("alpha", [0.25, 0.5, 1.0])
def test_shift_curves_regularity(alpha):
    rep = verify_regularity(CurveSpec(MINUS_SHIFT, alpha=alpha))
    assert rep.bilip_lower == pytest.approx(1.0, abs=1e-12)
    assert rep.bilip_upper == pytest.approx(1.0, abs=1e-12)
    assert rep.holder_const <= 1.0 + 1e-9
    assert rep.holder_const == pytest.approx(1.0, abs=1e-6)  # attained against t = 0
    assert rep.sample_count >= 1000


def test_straight_curve_regularity():
    rep = verify_regularity(CurveSpec(STRAIGHT))
    assert rep.holder_const == 0.0
    assert rep.bilip_lower == rep.bilip_upper == pytest.approx(1.0, abs=1e-15)


def test_regularity_2d():
    rep = verify_regularity(CurveSpec(MINUS_SHIFT, alpha=0.5, d=2))
    assert rep.bilip_lower == pytest.approx(1.0, abs=1e-12)
    assert rep.holder_const <= 1.0 + 1e-9


def test_regularity_rejects_tiny_sample_spec():
    with pytest.raises(DomainValidationError):
        verify_regularity(CurveSpec(STRAIGHT), n_space=5, n_time=5)
