"""Sharp Sobolev-threshold atlas s(delta) for rate-weighted convergence.

Each supported regime (dimension, Hölder exponent alpha of the curve in
time, dispersion power m, Lipschitz vs Hölder smoothness) carries a
piecewise-affine threshold law: initial data in H^s converge at rate delta
when s > s(delta) and a counterexample curve exists when s < s(delta).
Each affine bound s = slope*delta + intercept is the necessary condition
from one counterexample; the law is their upper envelope, whose pieces
tile [0, delta_max) and break at the exact crossings of adjacent bounds.

The bounds are built from the regime parameters with exact rational
constants, so `fractions.Fraction` inputs yield exact rational thresholds
(used by the region-curve acceptance checks); float inputs yield floats.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Iterable

from .errors import DeltaRangeError, DomainValidationError, UnsupportedRegimeError

LIPSCHITZ = "lipschitz"
HOLDER = "holder"

ABOVE = "above-threshold"
BELOW = "below-threshold"
BOUNDARY = "on-boundary"

BOUNDARY_TOL = 1e-12

_ONE = Fraction(1)
_HALF = Fraction(1, 2)
_QUARTER = Fraction(1, 4)


@dataclass(frozen=True)
class Regime:
    """A convergence-rate regime: dimension, curve smoothness, dispersion power.

    `smoothness` is an explicit enum rather than being inferred from
    alpha == 1, because the fractional high-alpha laws also admit alpha = 1
    with m != 2 and dispatch must stay unambiguous.
    """

    d: int
    alpha: object = 1
    m: object = 2
    smoothness: str = HOLDER

    def __post_init__(self):
        if self.d < 1 or int(self.d) != self.d:
            raise DomainValidationError(f"dimension d={self.d} must be a positive integer")
        if not 0 < self.alpha <= 1:
            raise DomainValidationError(f"alpha={self.alpha} must lie in (0, 1]")
        if not self.m > 0:
            raise DomainValidationError(f"dispersion power m={self.m} must be positive")
        if self.smoothness not in (LIPSCHITZ, HOLDER):
            raise DomainValidationError(f"unknown smoothness {self.smoothness!r}")
        if self.smoothness == LIPSCHITZ and self.alpha != 1:
            raise DomainValidationError("Lipschitz-in-t regimes require alpha = 1")
        if self.m != 2 and self.d != 1:
            raise DomainValidationError("fractional regimes (m != 2) are one-dimensional")


@dataclass(frozen=True)
class RatePoint:
    """A (Sobolev regularity, convergence rate) pair."""

    s: float
    delta: float

    def __post_init__(self):
        if not (self.s >= 0 and self.delta >= 0):
            raise DomainValidationError("RatePoint needs s >= 0 and delta >= 0")


@dataclass(frozen=True)
class Piece:
    """Affine threshold piece s = slope*delta + intercept on [lo, hi)."""

    lo: object
    hi: object
    slope: object
    intercept: object

    def __call__(self, delta):
        return self.slope * delta + self.intercept


@dataclass(frozen=True)
class RegimeLaw:
    """A full threshold law: ordered pieces tiling [0, delta_max)."""

    regime_id: str
    pieces: tuple
    delta_max: object

    @property
    def breakpoints(self):
        return tuple(p.hi for p in self.pieces[:-1])

    def piece_index(self, delta):
        if not 0 <= delta < self.delta_max:
            raise DeltaRangeError(delta, self.delta_max)
        for i, p in enumerate(self.pieces):
            if delta < p.hi:
                return i
        return len(self.pieces) - 1

    def __call__(self, delta):
        return self.pieces[self.piece_index(delta)](delta)


def _upper_envelope(lines, delta_max):
    """Pieces of max over affine lines [(slope, intercept), ...] on [0, delta_max).

    Slopes must be strictly increasing. Lines that never lead inside the
    window are dropped, which resolves parameter corners where a nominal
    middle piece would be empty; Fraction inputs stay exact.
    """

    zero = 0 * delta_max
    hull = []  # [(slope, intercept, lo)]: the line leads from lo on
    for slope, intercept in lines:
        lo = zero
        while hull:
            top_slope, top_intercept, top_lo = hull[-1]
            if slope <= top_slope:
                raise DomainValidationError("envelope lines need strictly increasing slopes")
            lo = (top_intercept - intercept) / (slope - top_slope)
            if lo > top_lo:
                break
            hull.pop()
            lo = zero
        if lo < delta_max:
            hull.append((slope, intercept, lo))
    his = [lo for _, _, lo in hull[1:]] + [delta_max]
    return tuple(Piece(lo, hi, slope, intercept) for (slope, intercept, lo), hi in zip(hull, his))


def _high(d, alpha, m):
    # for alpha <= 1/4 (possible once m >= 4) the second line never leads
    return [(m - 1, _QUARTER), (m, 0)]


def _mid(d, alpha, m):
    # at parameter corners such as alpha = 1/(2(m-1)) the middle line never leads
    return [(m - 1, _QUARTER), (m, (1 - m * alpha) / 2), (_ONE / alpha, 0)]


def _low(d, alpha, m):
    # The last piece is delta/alpha, fixed from the adjacent laws by
    # continuity at delta = alpha/2 (both sides equal 1/2 there); the first
    # piece is extended to delta = 0 by continuity.
    return [(m, (1 - m * alpha) / 2), (_ONE / alpha, 0)]


#: regime id -> its affine bounds (d, alpha, m) -> [(slope, intercept), ...]:
#: ten ids on five line families. At m = 2 the Hölder laws are the
#: superunit laws, over the same alpha bands (alpha >= 1/m, alpha <= 1/(2m)
#: and between); the m in (1, 2) near-half band takes the mid-alpha lines,
#: continuous with the mid-alpha law at alpha = 1/2 and the high-alpha law
#: at alpha = 1/m.
_LAW_LINES = {
    "lipschitz": lambda d, alpha, m: [(1, Fraction(d, 2 * (d + 1))), (2, 0)],
    "holder-high-alpha": _high,
    "holder-mid-alpha": _mid,
    "holder-low-alpha": _low,
    "subunit-m-high-alpha": lambda d, alpha, m: [
        (0, (2 - m) / 4), (m, (1 - m * alpha) / 2), (_ONE / alpha, 0)
    ],
    "subunit-m-low-alpha": _low,
    "superunit-m-high-alpha": _high,
    "superunit-m-mid-alpha": _mid,
    "superunit-m-near-half-alpha": _mid,
    "superunit-m-low-alpha": _low,
}


def _regime_law(regime_id: str, d: int, alpha, m) -> RegimeLaw:
    """The law of _LAW_LINES[regime_id] at (d, alpha, m), on [0, alpha)."""

    return RegimeLaw(regime_id, _upper_envelope(_LAW_LINES[regime_id](d, alpha, m), alpha), alpha)


def law_for(regime: Regime) -> RegimeLaw:
    """Resolve the unique threshold law applicable to a regime.

    Memoised on each field's value and type: Regime(1, Fraction(1, 2), 2)
    equals and hashes like Regime(1, 0.5, 2), but its law is exact and
    the other's is in floats.
    """

    return _law_for(regime.d, regime.alpha, regime.m, regime.smoothness)


@lru_cache(maxsize=256, typed=True)
def _law_for(d, alpha, m, smoothness) -> RegimeLaw:
    if smoothness == LIPSCHITZ:
        if m == 2:
            return _regime_law("lipschitz", d, _ONE, m)
        if 0 < m < 1:
            return _regime_law("subunit-m-high-alpha", d, alpha, m)
        if m > 1:
            return _regime_law("superunit-m-high-alpha", d, alpha, m)
        raise UnsupportedRegimeError(f"no law for Lipschitz regime with m={m}")

    if d != 1:
        raise UnsupportedRegimeError(
            "Hölder-in-t regimes are supported in dimension 1 only "
            "(higher dimensions need the Lipschitz law)"
        )

    if 0 < m < 1:
        band = "high" if alpha > _HALF else "low"
        return _regime_law(f"subunit-m-{band}-alpha", d, alpha, m)

    if m > 1:
        inv_m = _ONE / m
        if alpha >= inv_m:
            band = "high"
        elif alpha <= inv_m / 2:
            band = "low"
        elif alpha < _HALF:
            band = "mid"
        elif m < 2:
            band = "near-half"
        else:
            raise UnsupportedRegimeError(
                f"(alpha={alpha}, m={m}) is covered by no threshold law "
                "(the near-half-alpha band is empty for m >= 2)"
            )
        prefix = "holder" if m == 2 and alpha != 1 else "superunit-m"  # alpha = 1 keeps superunit
        return _regime_law(f"{prefix}-{band}-alpha", d, alpha, m)

    raise UnsupportedRegimeError(f"no threshold law covers m={m}")


def threshold(regime: Regime, delta):
    """Sharp Sobolev threshold s(delta) for the given regime."""

    return law_for(regime)(delta)


def classify(regime: Regime, point: RatePoint) -> str:
    """Place an (s, delta) pair relative to the sharp threshold.

    The threshold laws are open conditions, so points within BOUNDARY_TOL of the
    threshold are reported as on-boundary rather than claimed convergent
    or divergent.
    """

    s0 = threshold(regime, point.delta)
    if abs(point.s - s0) <= BOUNDARY_TOL:
        return BOUNDARY
    return ABOVE if point.s > s0 else BELOW


def region_curve(regime: Regime, delta_samples: Iterable):
    """Sample the threshold law and annotate the graph landmarks.

    Returns (samples, annotations): samples are (delta, s, piece_index)
    triples; annotations carry the onset point (delta=0), every interior
    corner, and the open right endpoint at delta_max with its limiting s.
    """

    law = law_for(regime)
    samples = []
    for delta in delta_samples:
        idx = law.piece_index(delta)
        samples.append((delta, law.pieces[idx](delta), idx))

    annotations = [{"kind": "onset", "delta": 0 * law.delta_max, "s": law.pieces[0](0)}]
    for bp in law.breakpoints:
        annotations.append({"kind": "corner", "delta": bp, "s": law(bp)})
    annotations.append(
        {"kind": "ceiling", "delta": law.delta_max, "s": law.pieces[-1](law.delta_max)}
    )
    return samples, annotations

