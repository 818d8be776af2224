"""Curve families gamma(x, t) and numerical regularity verification.

Built-in curves are the counterexample families (identity shifted by
±t^alpha in the first coordinate) plus the straight curve gamma = x.
A user-supplied curve hook with the same contract is accepted; the
standing assumption gamma(x, 0) = x is enforced by a runtime check.

Regularity verification is sampling-based and produces evidence, not
proof: empirical bilipschitz bounds in x and an empirical Hölder constant
in t over a tensor grid with deterministic low-discrepancy jitter.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import DomainValidationError

MINUS_SHIFT = "identity-shift-minus"
PLUS_SHIFT = "identity-shift-plus"
STRAIGHT = "straight"
CUSTOM = "custom"

_KINDS = (MINUS_SHIFT, PLUS_SHIFT, STRAIGHT, CUSTOM)

# golden-ratio fractional part, used for deterministic jitter
_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


@dataclass(frozen=True)
class CurveSpec:
    """A curve family gamma: R^d x [-1,1] -> R^d with gamma(x,0) = x.

    Custom curves supply either shift_fn(t) (an x-independent
    first-coordinate displacement, which keeps the vectorized window
    evaluation available) or a fully general gamma_fn(x, t).
    """

    kind: str
    alpha: float = 1.0
    d: int = 1
    shift_fn: Optional[Callable[[float], float]] = None
    gamma_fn: Optional[Callable] = None

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise DomainValidationError(f"unknown curve kind {self.kind!r}")
        if not 0 < self.alpha <= 1:
            raise DomainValidationError(f"alpha={self.alpha} must lie in (0, 1]")
        if self.d < 1:
            raise DomainValidationError("d must be >= 1")
        if self.kind == CUSTOM and self.shift_fn is None and self.gamma_fn is None:
            raise DomainValidationError(
                "custom curves need shift_fn(t) or gamma_fn(x, t)"
            )

    @property
    def is_shift(self) -> bool:
        """True when gamma(x,t) - x does not depend on x."""
        return self.gamma_fn is None

    def shift(self, t: float) -> float:
        """First-coordinate displacement gamma(x,t)_1 - x_1 at time t: gamma_pairs at (0, t)."""
        if not self.is_shift:
            raise DomainValidationError(
                "curve has a general gamma_fn; its displacement depends on x"
            )
        return float(gamma_pairs(self, np.zeros((1, self.d)), [t])[0, 0])

    def _displacements(self, times) -> list:
        """shift(t) for each nonzero time, one list comprehension for all of them.

        Python's float ** for the built-in kinds: numpy's power rounds
        differently, so this is the one place the formula lives.
        """
        a = self.alpha
        if self.kind == MINUS_SHIFT:
            return [-(t ** a) if t > 0 else (-t) ** a for t in times]
        if self.kind == PLUS_SHIFT:
            return [t ** a if t > 0 else -((-t) ** a) for t in times]
        if self.kind == CUSTOM:
            return [self.shift_fn(t) for t in times]
        return [0.0] * len(times)


def gamma(spec: CurveSpec, x, t: float):
    """Evaluate the curve: gamma_pairs at the one pair (x, t). Bitwise x at t = 0 (x itself)."""

    g = gamma_pairs(spec, [x], [t])[0]
    if t == 0.0:
        return x
    return float(g[0]) if spec.d == 1 and np.isscalar(x) else g


def gamma_pairs(spec: CurveSpec, points, ts) -> np.ndarray:
    """gamma(points[i], ts[i]) for each pair, as a (pairs, d) array.

    gamma(x, 0) is x itself, with no arithmetic. A shift curve adds its
    displacements to the first coordinates in one step; a general curve
    calls gamma_fn pair by pair. Either way a pair at t = 0 runs the
    custom-curve check of gamma(x, 0) = x. points must hold one point of
    d coordinates per time (a scalar each at d = 1), else
    DomainValidationError.
    """

    ts = np.asarray(ts, dtype=float)
    if not np.all(np.abs(ts) <= 1):
        raise DomainValidationError(f"|t|={np.max(np.abs(ts))} exceeds the curve's time domain [-1, 1]")
    shape = np.shape(points)
    if shape != (len(ts), spec.d) and not (spec.d == 1 and shape == (len(ts),)):
        raise DomainValidationError(f"gamma needs {len(ts)} points of {spec.d} coordinates, a scalar each "
                                    f"at d = 1, one per time: got shape {shape}")
    if not spec.is_shift:
        rows = []
        for p, t in zip(points, ts.tolist()):
            x = np.atleast_1d(np.asarray(p, dtype=float))
            g = np.atleast_1d(np.asarray(spec.gamma_fn(p, t), dtype=float))
            if t == 0.0 and not np.array_equal(g, x):
                raise DomainValidationError("custom curve violates gamma(x,0) = x")
            rows.append(x if t == 0.0 else g)
        return np.array(rows).reshape(len(ts), spec.d)
    out = np.array(points, dtype=float).reshape(len(ts), spec.d)
    moved = ts != 0.0
    out[moved, 0] += spec._displacements(ts[moved].tolist())
    if spec.kind == CUSTOM and not moved.all() and spec.shift_fn(0.0) != 0.0:
        raise DomainValidationError("custom curve violates gamma(x,0) = x (shift_fn(0) != 0)")
    return out


@dataclass(frozen=True)
class RegularityReport:
    """Empirical curve-regularity constants from finite sampling."""

    bilip_lower: float
    bilip_upper: float
    holder_const: float
    sample_count: int

    def __post_init__(self):
        if not (self.bilip_lower <= self.bilip_upper):
            raise DomainValidationError("bilip_lower must not exceed bilip_upper")

    def to_dict(self):
        return {
            "bilip_lower": self.bilip_lower,
            "bilip_upper": self.bilip_upper,
            "holder_const": self.holder_const,
            "sample_count": self.sample_count,
        }


def _sample_points(n: int, d: int) -> np.ndarray:
    """n deterministic points in the unit ball, tensor grid plus jitter."""

    per_axis = max(2, int(round(n ** (1.0 / d))))
    axes = [np.linspace(-0.9, 0.9, per_axis) for _ in range(d)]
    mesh = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, d)
    jitter = (((np.arange(mesh.shape[0])[:, None] + 1) * _GOLDEN * (np.arange(d)[None, :] + 1)) % 1.0)
    pts = mesh + (jitter - 0.5) * (1.8 / per_axis) * 0.25
    norms = np.linalg.norm(pts, axis=1)
    return pts[norms < 1.0]


def verify_regularity(spec: CurveSpec, n_space: int = 40, n_time: int = 40) -> RegularityReport:
    """Empirical bilipschitz-in-x and alpha-Hölder-in-t constants.

    Samples >= 10^3 point/time pairs in B(0,1) x [0,1]. Degenerate
    (coincident) pairs are skipped; if everything degenerates this raises.
    """

    if n_space * n_time < 1000:
        raise DomainValidationError("sample spec too small: need >= 10^3 point/time pairs")
    pts = _sample_points(n_space * 4, spec.d)
    if len(pts) < 4:
        raise DomainValidationError("no usable space samples")
    ts = np.linspace(0.0, 1.0, n_time)
    ts = np.concatenate([ts, ((np.arange(n_time) + 1) * _GOLDEN) % 1.0])
    ts.sort()

    bil_lo, bil_hi = math.inf, -math.inf
    hol = 0.0
    count = 0

    points = pts if spec.d > 1 else pts[:, 0].tolist()
    for t in ts:
        gs = gamma_pairs(spec, points, np.full(len(pts), t))
        for i in range(len(pts) - 1):
            dx = np.linalg.norm(pts[i + 1] - pts[i])
            if dx == 0.0:
                continue
            dg = np.linalg.norm(gs[i + 1] - gs[i])
            r = dg / dx
            bil_lo = min(bil_lo, r)
            bil_hi = max(bil_hi, r)
            count += 1

    path = gamma_pairs(spec, [points[0]] * len(ts), ts)  # the curve through the first point
    for i in range(len(ts)):
        for j in (0, len(ts) // 3, 2 * len(ts) // 3):
            dt = abs(float(ts[i]) - float(ts[j]))
            if dt == 0.0:
                continue
            hol = max(hol, float(np.linalg.norm(path[i] - path[j])) / dt ** spec.alpha)
            count += 1

    if count == 0:
        raise DomainValidationError("all sample pairs degenerate")
    return RegularityReport(
        bilip_lower=float(bil_lo),
        bilip_upper=float(bil_hi),
        holder_const=float(hol),
        sample_count=count,
    )
