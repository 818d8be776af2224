"""Counterexample initial-data families on the Fourier side.

Every built-in profile is a product of one-dimensional coordinate factors
with compactly supported, explicitly known Fourier transforms, so all
downstream quadrature can truncate to the support box with zero
truncation error. The families:

  bump-dilated      f^(eta) = (1/R) g(eta/R)
  bump-modulated    f^(eta) = (1/R) g((eta + R^2)/R)
  bump-tensor       f^(eta) = (1/R) g((eta_1 + R^{1+eps})/R) g(eta_2)...g(eta_d)
  indicator-band    f^ = indicator of [R, R+1]
  bourgain          physical-space product e^{iRx_1} phi(sqrt(R) x_1) Phi(x')
                    times a lattice trigonometric sum (d in {1, 2})
  annulus-bump      smooth bump filling [2^{k-1}, 2^{k+1}], unit L^2 mass
  gaussian-like     truncated Gaussian on the Fourier side (validation data)

The base bump g is the standard mollifier c*exp(-1/(1/4 - xi^2)) on
(-1/2, 1/2), normalized to unit mass.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np

from .errors import DomainValidationError
from .quadrature import PANEL_ORDER, _certify, panel_nodes

TWO_PI = 2.0 * math.pi

# 1 / integral of exp(-1/(1/4 - xi^2)) over (-1/2, 1/2); frozen from a
# 30-digit quadrature oracle (see tests/test_initial_data.py).
BUMP_NORMALIZATION = 142.2503757770958681

# Smallest u0 with |ghat| <= 1/4 on [u0, 600], frozen from a 24001-point
# scan of bump_transform (see tests/test_initial_data.py).
DECAY_THRESHOLD = 11.200000000000001
GAUSSIAN_HALFWIDTH = 8.0  # gaussian-like truncation: f^ = 0 where |xi - center| > 8


def bump_eval(xi):
    """g(xi), the normalized mollifier: zero outside [-1/2, 1/2], c*exp(-1/(1/4 - xi^2)) inside.

    Smooth, >= 0 and of unit mass (c = BUMP_NORMALIZATION).
    """
    xi = np.asarray(xi, dtype=float)
    out = np.zeros_like(xi)
    inside = np.abs(xi) < 0.5
    x2 = xi[inside] ** 2
    out[inside] = BUMP_NORMALIZATION * np.exp(-1.0 / (0.25 - x2))
    return out if out.ndim else float(out)


@lru_cache(maxsize=1)
def _bump_rule():
    xs, ws = panel_nodes(-0.5, 0.5, 96 * PANEL_ORDER)
    return xs, ws, bump_eval(xs)


@lru_cache(maxsize=1)
def bump_l2_squared() -> float:
    xs, ws, gv = _bump_rule()
    return float(np.sum(ws * gv * gv))


def bump_transform(u):
    """ghat(u) = integral of e^{-i u xi} g(xi) dxi (real and even)."""
    xs, ws, gv = _bump_rule()
    u = np.atleast_1d(np.asarray(u, dtype=float))
    vals = np.cos(np.multiply.outer(u, xs)) @ (ws * gv)
    return vals if vals.shape != (1,) else float(vals[0])


def window_transform_direct(u):
    """phihat(u) = 2*pi*(g*g)(u) by direct convolution quadrature."""
    xs, ws, gv = _bump_rule()
    u = np.atleast_1d(np.asarray(u, dtype=float))
    out = np.zeros_like(u)
    mask = np.abs(u) < 1.0
    if mask.any():  # 16 points per bump table: the 401-point Chebyshev build holds no 401-row one
        inside, wg = u[mask], ws * gv
        out[mask] = TWO_PI * np.concatenate([bump_eval(inside[a : a + 16, None] - xs) @ wg
                                             for a in range(0, len(inside), 16)])
    return out if out.shape != (1,) else float(out[0])


@lru_cache(maxsize=1)
def _window_transform_cheb():
    # phihat is C^inf with compact support, so Chebyshev interpolation on
    # [-1, 1] converges super-algebraically; degree 400 reaches rounding.
    return np.polynomial.chebyshev.chebinterpolate(window_transform_direct, 400)


def window_transform(u):
    """phihat(u) = 2*pi*(g*g)(u): smooth, supported in [-1, 1].

    Its inverse transform phi = (ghat)^2 is nonnegative with phi(0) = 1,
    which is what the lattice construction needs from its window function.
    Evaluated through a cached machine-precision Chebyshev interpolant.
    """
    u = np.atleast_1d(np.asarray(u, dtype=float))
    out = np.zeros_like(u)
    mask = np.abs(u) < 1.0
    if mask.any():
        out[mask] = np.polynomial.chebyshev.chebval(u[mask], _window_transform_cheb())
    return out if out.shape != (1,) else float(out[0])


def window_physical(u):
    """phi(u) = ghat(u)^2, the physical-space window (>= 0, phi(0) = 1)."""
    g0 = bump_transform(0.0)
    gh = np.atleast_1d(np.asarray(bump_transform(u), dtype=float)) / g0
    out = gh * gh
    return out if out.shape != (1,) else float(out[0])


def decay_threshold() -> float:
    """DECAY_THRESHOLD, the smallest u0 with |ghat| <= 1/4 on [u0, 600].

    Beyond this threshold the bump families obey |f_R(x)| <= 1/(8*pi)
    whenever |x * R| >= u0.
    """
    return DECAY_THRESHOLD


BUMP_DILATED = "bump-dilated"
BUMP_MODULATED = "bump-modulated"
BUMP_TENSOR = "bump-tensor"
INDICATOR_BAND = "indicator-band"
BOURGAIN = "bourgain"
ANNULUS_BUMP = "annulus-bump"
GAUSSIAN_LIKE = "gaussian-like"

_KINDS = (
    BUMP_DILATED,
    BUMP_MODULATED,
    BUMP_TENSOR,
    INDICATOR_BAND,
    BOURGAIN,
    ANNULUS_BUMP,
    GAUSSIAN_LIKE,
)


@dataclass(frozen=True)
class FrequencyProfile:
    """Closed-form Fourier-side description of an initial datum."""

    kind: str
    d: int = 1
    R: float = 1.0
    epsilon: float = 0.0
    scale_index: int = 0          # annulus-bump dyadic index
    center: float = 0.0           # gaussian-like center

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise DomainValidationError(f"unknown profile kind {self.kind!r}")
        if self.kind not in (BUMP_TENSOR, BOURGAIN) and self.d != 1:
            raise DomainValidationError(f"{self.kind} data are one-dimensional, not d={self.d}")
        if not (math.isfinite(self.R) and math.isfinite(self.epsilon)):
            raise DomainValidationError(f"R={self.R} and epsilon={self.epsilon} must be finite")
        if self.kind in (BUMP_DILATED, BUMP_MODULATED, BUMP_TENSOR, INDICATOR_BAND, BOURGAIN):
            if self.R < 1:
                raise DomainValidationError("frequency scale R must be >= 1")
        if self.kind == BUMP_TENSOR and self.epsilon < 0:
            raise DomainValidationError("epsilon must be >= 0")
        if self.kind == BOURGAIN and self.d not in (1, 2):
            raise DomainValidationError("bourgain profiles are built for d in {1, 2} only")
        if self.kind == BOURGAIN and self.d == 2 and not lattice_points(self.R, 2):
            raise DomainValidationError(f"bourgain d = 2 has no lattice point at R={self.R}")
        if self.kind == ANNULUS_BUMP and self.scale_index < 1:
            raise DomainValidationError("annulus-bump needs scale index k >= 1")
        try:
            factors = coordinate_factors(self)
        except OverflowError:  # a power such as bump-tensor's R^(1 + epsilon)
            raise DomainValidationError(f"{self.kind} support overflows a float") from None
        for lo, hi in (seg for factor in factors for seg in factor.segments):
            if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):  # e.g. R + 1 == R
                raise DomainValidationError(f"{self.kind} support segment [{lo}, {hi}] needs finite ends lo < hi")

    @property
    def support_box(self):
        """Product of closed intervals containing supp(f^)."""
        return tuple(f.hull for f in coordinate_factors(self))


def bump_dilated(R: float) -> FrequencyProfile:
    return FrequencyProfile(BUMP_DILATED, R=float(R))


def bump_modulated(R: float) -> FrequencyProfile:
    return FrequencyProfile(BUMP_MODULATED, R=float(R))


def bump_tensor(R: float, epsilon: float, d: int = 1) -> FrequencyProfile:
    return FrequencyProfile(BUMP_TENSOR, d=d, R=float(R), epsilon=float(epsilon))


def indicator_band(R: float) -> FrequencyProfile:
    return FrequencyProfile(INDICATOR_BAND, R=float(R))


def bourgain_profile(R: float, d: int = 1) -> FrequencyProfile:
    return FrequencyProfile(BOURGAIN, d=d, R=float(R))


def annulus_bump(k: int) -> FrequencyProfile:
    return FrequencyProfile(ANNULUS_BUMP, scale_index=int(k))


def gaussian_like(center: float = 0.0) -> FrequencyProfile:
    return FrequencyProfile(GAUSSIAN_LIKE, center=float(center))


def lattice_scale(R: float, d: int) -> float:
    """The lattice spacing D = R^{(d+2)/(2(d+1))}."""
    return float(R) ** ((d + 2) / (2.0 * (d + 1)))


def lattice_points(R: float, d: int):
    """Integers l with R/(2D) < l < R/D (per transverse coordinate)."""
    D = lattice_scale(R, d)
    lo, hi = R / (2.0 * D), R / D
    first = int(math.floor(lo)) + 1
    last = int(math.ceil(hi)) - 1
    return list(range(first, last + 1))


@dataclass(frozen=True)
class CoordinateFactor:
    """One coordinate of a product profile.

    segments: disjoint closed intervals, ascending and at least one,
    whose union contains the factor's support (quadrature integrates each
    separately, so endpoint discontinuities such as the indicator band
    stay exact).
    func: vectorized Fourier-side factor, exactly 0 outside the segments.
    smooth: func is C^inf across the hull of the segments, vanishing there
    to all orders at both ends, so the trapezoid rule on the hull
    converges faster than any power (the chirp-z window path needs this).
    """

    segments: tuple
    func: Callable[[np.ndarray], np.ndarray]
    smooth: bool

    @property
    def hull(self):
        """(lo, hi): the hull of the segments."""
        return self.segments[0][0], self.segments[-1][1]

    @property
    def width(self) -> float:
        """The total length of the segments."""
        return sum(hi - lo for lo, hi in self.segments)


def _split_at_zero(lo, hi):
    if lo < 0.0 < hi:
        return ((lo, 0.0), (0.0, hi))
    return ((lo, hi),)


def _bump_factor(centre: float, width: float, split: bool = False) -> CoordinateFactor:
    """The factor g((eta - centre) / width) / width on [centre - width/2, centre + width/2],
    one segment, or two split at 0 if asked."""
    lo, hi = centre - width / 2.0, centre + width / 2.0
    return CoordinateFactor(_split_at_zero(lo, hi) if split else ((lo, hi),),
                            lambda eta: bump_eval((np.asarray(eta) - centre) / width) / width, True)


@lru_cache(maxsize=256)
def coordinate_factors(profile: FrequencyProfile):
    """Per-coordinate factors of the profile's Fourier transform.

    The scalar prefactor (e.g. 1/R) is folded into the first coordinate.
    Memoised, so equal profiles get the same factors: the propagator's
    rule cache is keyed by factor.
    """

    kind = profile.kind
    R = profile.R

    if kind == BUMP_DILATED:
        return (_bump_factor(0.0, R, split=True),)

    if kind == BUMP_MODULATED:
        return (_bump_factor(-R * R, R),)

    if kind == BUMP_TENSOR:
        rest = tuple(_bump_factor(0.0, 1.0) for _ in range(profile.d - 1))
        return (_bump_factor(-R ** (1.0 + profile.epsilon), R),) + rest

    if kind == INDICATOR_BAND:
        func = lambda eta: np.where(
            (np.asarray(eta) >= R) & (np.asarray(eta) <= R + 1.0), 1.0, 0.0
        )
        return (CoordinateFactor(((R, R + 1.0),), func, False),)

    if kind == BOURGAIN:
        sq = math.sqrt(R)
        first = CoordinateFactor(
            ((R - sq, R + sq),),
            lambda eta: window_transform((np.asarray(eta) - R) / sq) / sq,
            True,
        )
        if profile.d == 1:
            return (first,)
        D = lattice_scale(R, profile.d)
        ells = lattice_points(R, profile.d)
        segs = tuple((D * ell - 1.0, D * ell + 1.0) for ell in ells)

        def lattice_factor(eta, _D=D, _ells=tuple(ells)):
            # the segments are disjoint, so only the nearest lattice point
            # contributes; the clip keeps it on the lattice when D < 2
            eta = np.asarray(eta, dtype=float)
            ell = np.clip(np.rint(eta / _D), _ells[0], _ells[-1])
            return np.atleast_1d(window_transform(eta - _D * ell))

        return (first, CoordinateFactor(segs, lattice_factor, True))

    if kind == ANNULUS_BUMP:
        k = profile.scale_index
        width = 1.5 * 2.0 ** k
        centre = 1.25 * 2.0 ** k
        norm = math.sqrt(TWO_PI / (width * bump_l2_squared()))
        func = lambda eta: norm * bump_eval((np.asarray(eta) - centre) / width)
        return (CoordinateFactor(((2.0 ** (k - 1), 2.0 ** (k + 1)),), func, True),)

    if kind == GAUSSIAN_LIKE:
        c, h = profile.center, GAUSSIAN_HALFWIDTH
        func = lambda eta: np.where(
            np.abs(np.asarray(eta) - c) <= h,
            np.exp(-((np.asarray(eta) - c) ** 2)),
            0.0,
        )
        # cut at |xi - c| = 8, where it jumps by e^{-64}: smooth to rounding
        return (CoordinateFactor(_split_at_zero(c - h, c + h), func, True),)

    raise DomainValidationError(f"unknown profile kind {kind!r}")


def fourier_eval(profile: FrequencyProfile, eta):
    """f^(eta): the product of the coordinate factors. Exactly zero outside the support box.

    eta is one point of R^d (a scalar at d = 1), giving a complex value,
    or an (n, d) array of points ((n,) at d = 1), giving n real values.
    Every kind, bourgain included: its factors are the transforms of its
    physical-space product, the f^ the propagator integrates.
    """

    pts = np.asarray(eta, dtype=float)
    if profile.d == 1 and pts.ndim < 2:
        pts = pts[..., None]
    if pts.ndim > 2 or pts.shape[-1:] != (profile.d,):
        raise DomainValidationError(f"eta must be a point in R^{profile.d} or an (n, {profile.d}) array")
    out = np.ones(pts.shape[:-1])
    for j, f in enumerate(coordinate_factors(profile)):
        out = out * f.func(pts[..., j])
    return out if out.ndim else complex(out)


def bourgain_physical(profile: FrequencyProfile, x):
    """Closed product formula for the bourgain family in physical space.

    e^{iRx_1} phi(sqrt(R) x_1), times phi(x_2) and the lattice sum
    sum_l e^{iDlx_2} at d = 2.
    """

    if profile.kind != BOURGAIN:
        raise DomainValidationError("bourgain_physical needs a bourgain profile")
    R, x = profile.R, np.ravel(np.asarray(x, dtype=float))
    value = np.exp(1j * R * float(x[0])) * window_physical(math.sqrt(R) * float(x[0]))
    if profile.d == 2:
        D = lattice_scale(R, profile.d)
        ells = np.array(lattice_points(R, profile.d), dtype=float)
        lattice = np.sum(np.exp(1j * D * ells * float(x[1])))
        value = value * window_physical(float(x[1])) * lattice
    return complex(value)


def sobolev_norm(profile: FrequencyProfile, s: float) -> float:
    """H^s norm on the Fourier side: sqrt( integral (1+|xi|^2)^s |f^|^2 ).

    The (2*pi)^{-d} Plancherel prefactor is dropped by convention;
    constants never enter the power-law acceptance criteria. The squared
    norm is certified by quadrature._certify under panel doubling
    (AccuracyError on failure, with the two squared-norm integrals).
    """

    if not 0 <= s < math.inf:
        raise DomainValidationError(f"sobolev_norm needs a finite s >= 0, not s={s}")
    factors = coordinate_factors(profile)

    def integral(nodes):
        grids = []  # per coordinate: nodes, weights and |f^| over all its segments
        for f in factors:
            rules = [panel_nodes(lo, hi, nodes) for lo, hi in f.segments]
            xs, ws = (np.concatenate(parts) for parts in zip(*rules))
            fv = np.concatenate([np.abs(np.atleast_1d(f.func(x))) for x, _ in rules])
            grids.append((xs, ws, fv))
        if profile.d == 1:
            # at most two segments of equal node counts, so numpy's pairwise
            # sum splits where they meet: the sum of the per-segment sums
            x1, w1, f1 = grids[0]
            return float(np.sum(w1 * (1.0 + x1 * x1) ** s * (f1 * f1)))
        if profile.d != 2:
            raise DomainValidationError("sobolev_norm supports d in {1, 2}")
        # tensor grid with the full (1 + |xi|^2)^s coupling
        (x1, w1, f1), (x2, w2, f2) = grids
        weight = (1.0 + x1[:, None] ** 2 + x2[None, :] ** 2) ** s
        return float(((w1 * f1 * f1) @ weight) @ (w2 * f2 * f2))

    # (1 + |xi|^2)^s may overflow to inf, and inf * 0 reads NaN:
    # _certify turns either into an AccuracyError, so numpy's warnings are noise
    with np.errstate(over="ignore", invalid="ignore"):
        coarse, fine = (np.array([integral(64 * PANEL_ORDER * doubling)]) for doubling in (1, 2))
    # no mass floor: the squared norm is its own scale
    _certify([(coarse, fine, 0.0, [0])], f"kind={profile.kind}, s={s}", lambda k: "")
    return math.sqrt(max(fine[0], 0.0))

