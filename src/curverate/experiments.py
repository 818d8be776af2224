"""Scaling experiments: power-law blow-up of the counterexample families.

For each R in a geometric sequence, build the family's profile, compute
the rate-weighted maximal field over its admissible window (critical
times injected), take the L^2 norm over the window, divide by the H^s
norm, and fit the log-log slope against the family's predicted exponent.
"""

from __future__ import annotations

import json
import math
from collections import OrderedDict
from dataclasses import dataclass, field, asdict, replace
from functools import partial
from typing import List, Optional, Sequence, Tuple

import numpy as np

from . import SCHEMA_VERSION
from .curves import CurveSpec
from .errors import CurverateError, DomainValidationError
from .initial_data import (
    BOURGAIN,
    BUMP_DILATED,
    BUMP_MODULATED,
    BUMP_TENSOR,
    INDICATOR_BAND,
    FrequencyProfile,
    bourgain_profile,
    bump_dilated,
    bump_modulated,
    bump_tensor,
    indicator_band,
    sobolev_norm,
)
from .maximal import (
    TimeGrid,
    admissible_window,
    calibrate_window_constant,
    critical_time,
    family_curve_kind,
    l2_over_ball,
    maximal_field,
    window_grid,
)
from .propagator import QuadratureSpec, pool_map

SLOPE_TOLERANCE = 0.15

CONSISTENT = "consistent"
INCONSISTENT = "inconsistent"


def fit_loglog(R_values: Sequence[float], ratios: Sequence[float]) -> Tuple[float, float]:
    """Ordinary least squares slope of log(ratio) vs log(R), with its
    standard error. Exact (to rounding) on exact power laws."""

    R_values = np.asarray(R_values, dtype=float)
    ratios = np.asarray(ratios, dtype=float)
    if len(R_values) < 2:
        raise DomainValidationError("need at least two samples to fit a slope")
    if np.any(ratios <= 0):
        raise DomainValidationError("ratios must be positive for a log-log fit")
    x = np.log(R_values)
    y = np.log(ratios)
    xm, ym = x.mean(), y.mean()
    sxx = float(np.sum((x - xm) ** 2))
    slope = float(np.sum((x - xm) * (y - ym)) / sxx)
    resid = y - (ym + slope * (x - xm))
    dof = max(1, len(x) - 2)
    stderr = float(math.sqrt(np.sum(resid ** 2) / dof / sxx))
    return slope, stderr


def predicted_slope(family: str, d: int, alpha: float, delta: float, s: float, epsilon: float = 0.0) -> float:
    """The family's predicted log-log exponent for ratio(R)."""

    if family == BOURGAIN:
        return delta + d / (2.0 * (d + 1)) - s
    if family == BUMP_TENSOR:
        return 2.0 * delta + epsilon / 2.0 - (1.0 + epsilon) * s
    if family == BUMP_DILATED:
        return 2.0 * delta - alpha - s + 0.5
    if family == BUMP_MODULATED:
        return 2.0 * delta - 2.0 * s + 0.5
    if family == INDICATOR_BAND:
        return delta / alpha - s
    raise DomainValidationError(f"unknown family {family!r}")


def default_time_grid(family: str, R: float, alpha: float, c: float, epsilon: float = 0.0) -> TimeGrid:
    """Octave window around the family's critical-time scale.

    The windows are deliberately tight: they cover every time scale the
    family's lower-bound mechanism uses while excluding far-away octaves
    whose contributions scale differently (the grid statistic is a lower
    bound either way). The bourgain family uses injected critical times
    only; at desk scale the wave-packet transit near t_c would otherwise
    dominate through the not-yet-decayed |f|.
    """

    lg = math.log2(R)
    if family == BUMP_MODULATED:
        return TimeGrid(max(0.0, 2 * lg - 4), 2 * lg + 6)
    if family == BUMP_DILATED:
        return TimeGrid(max(0.0, 2 * lg - 10), 2 * lg + 8)
    if family == BUMP_TENSOR:
        return TimeGrid(max(0.0, 2 * lg - 2), (2 + 2 * epsilon) * lg + 6)
    if family == INDICATOR_BAND:
        return TimeGrid(max(0.0, lg / alpha - 8), lg / alpha + math.log2(1.0 / c) + 4)
    if family == BOURGAIN:
        return TimeGrid(local_refinement=False)
    raise DomainValidationError(f"unknown family {family!r}")


def build_profile(family: str, R: float, epsilon: float, d: int = 1) -> FrequencyProfile:
    if family == BUMP_DILATED:
        return bump_dilated(R)
    if family == BUMP_MODULATED:
        return bump_modulated(R)
    if family == BUMP_TENSOR:
        return bump_tensor(R, epsilon, d=d)
    if family == INDICATOR_BAND:
        return indicator_band(R)
    if family == BOURGAIN:
        return bourgain_profile(R, d=d)
    raise DomainValidationError(f"unknown family {family!r}")


@dataclass(frozen=True)
class ExperimentPlan:
    """Full description of one scaling experiment (deterministic)."""

    family: str
    alpha: float
    delta: float
    s: float
    epsilon: float = 0.0
    m: float = 2.0
    d: int = 1
    R_sequence: tuple = tuple(float(2 ** j) for j in range(5, 11))
    c: Optional[float] = None            # window constant; None -> calibrated
    x_points: int = 129
    points_per_octave: int = 6
    quad: QuadratureSpec = field(default_factory=QuadratureSpec)
    workers: int = 1

    def __post_init__(self):
        if self.d != 1:
            raise DomainValidationError("scaling experiments run in dimension 1")
        if self.m != 2.0:
            raise DomainValidationError("the counterexample families use m = 2")
        if not 0 < self.alpha <= 1:
            raise DomainValidationError("alpha must lie in (0, 1]")
        if not 0.0 <= self.delta < self.alpha:
            raise DomainValidationError(
                f"delta={self.delta} must lie in [0, alpha={self.alpha})"
            )
        if self.s < 0:
            raise DomainValidationError("s must be >= 0")
        Rs = tuple(self.R_sequence)
        if len(Rs) < 4 or any(b <= a for a, b in zip(Rs, Rs[1:])):
            raise DomainValidationError("R_sequence must be strictly increasing, length >= 4")
        family_curve_kind(self.family)  # validates the family name
        if self.family == BUMP_DILATED and not self.alpha < 0.5:
            raise DomainValidationError("bump-dilated runs need alpha < 1/2")
        if self.family == INDICATOR_BAND and not self.alpha <= 0.5:
            raise DomainValidationError("indicator-band runs need alpha <= 1/2")
        if self.family in (BUMP_MODULATED,) and not self.alpha >= 0.25:
            raise DomainValidationError("bump-modulated runs need alpha >= 1/4")
        if self.family in (BUMP_TENSOR, BOURGAIN) and not self.alpha >= 0.5:
            raise DomainValidationError(f"{self.family} runs need alpha >= 1/2")
        if self.workers < 1:
            raise DomainValidationError("workers must be >= 1")

    def window_constant(self) -> float:
        if self.c is not None:
            return self.c
        return calibrate_window_constant(
            self.family, self.alpha, R_min=min(self.R_sequence), R_max=max(self.R_sequence)
        )

    def to_dict(self) -> dict:
        out = asdict(self)
        out["R_sequence"] = [float(R) for R in self.R_sequence]
        out["quad"] = asdict(self.quad)
        out.pop("workers")  # execution detail: reports are worker-count free
        return out

    @staticmethod
    def from_dict(data: dict) -> "ExperimentPlan":
        data = dict(data)
        quad = data.pop("quad", None)
        if "R_sequence" in data:
            data["R_sequence"] = tuple(data["R_sequence"])
        plan = ExperimentPlan(**data)
        if quad is not None:
            plan = replace(plan, quad=QuadratureSpec(**quad))
        return plan


@dataclass(frozen=True)
class ScalingReport:
    """Samples, fitted and predicted slopes, verdict, and provenance."""

    plan: ExperimentPlan
    window_constant: float
    samples: tuple                      # ((R, ratio), ...)
    fitted_slope: float
    slope_stderr: float
    predicted: float
    verdict: str
    diagnostics: tuple                  # per-R dicts

    def to_dict(self) -> dict:
        return {
            "schema_version": SCHEMA_VERSION,
            "plan": self.plan.to_dict(),
            "window_constant": self.window_constant,
            "samples": [[float(R), float(r)] for R, r in self.samples],
            "fitted_slope": self.fitted_slope,
            "slope_stderr": self.slope_stderr,
            "predicted_slope": self.predicted,
            "verdict": self.verdict,
            "diagnostics": list(self.diagnostics),
        }

    @staticmethod
    def from_dict(data: dict) -> "ScalingReport":
        return ScalingReport(
            plan=ExperimentPlan.from_dict(data["plan"]),
            window_constant=data["window_constant"],
            samples=tuple((R, r) for R, r in data["samples"]),
            fitted_slope=data["fitted_slope"],
            slope_stderr=data["slope_stderr"],
            predicted=data["predicted_slope"],
            verdict=data["verdict"],
            diagnostics=tuple(data["diagnostics"]),
        )

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=2) + "\n"

    @staticmethod
    def from_json(text: str) -> "ScalingReport":
        return ScalingReport.from_dict(json.loads(text))


def _numerator_one_R(plan: ExperimentPlan, c: float, R: float) -> dict:
    """L^2-over-window of the rate-weighted sup for one R (s-independent)."""

    curve = CurveSpec(family_curve_kind(plan.family), alpha=plan.alpha, d=1)
    profile = build_profile(plan.family, R, plan.epsilon)
    lo, hi = admissible_window(plan.family, R, plan.alpha, plan.epsilon, c)
    xs = window_grid(lo, hi, plan.x_points)
    tc = np.array(
        [critical_time(plan.family, curve, R, plan.epsilon, float(x), window_constant=c) for x in xs]
    )
    grid = default_time_grid(plan.family, R, plan.alpha, c, plan.epsilon)
    grid = replace(grid, points_per_octave=plan.points_per_octave)
    fld = maximal_field(
        profile, curve, plan.m, plan.delta, xs, grid, plan.quad, critical_times=tc
    )
    l2 = l2_over_ball(fld)
    return {
        "R": float(R),
        "l2": float(l2),
        "argmax_t_min": float(np.min(fld.argmax_times)),
        "argmax_t_max": float(np.max(fld.argmax_times)),
        "node_count_max": int(fld.node_count_max),
        "window": [float(lo), float(hi)],
    }


#: numerator rows of the most recently used (plan, window constant) pairs
NUMERATOR_CACHE_SIZE = 32
_NUMERATOR_CACHE: "OrderedDict[tuple, List[dict]]" = OrderedDict()


def _numerators(plan: ExperimentPlan, c: float) -> List[dict]:
    # rows depend on neither s nor the worker count
    key = (replace(plan, s=0.0, workers=1, R_sequence=tuple(plan.R_sequence)), c)
    hit = _NUMERATOR_CACHE.get(key)
    if hit is not None:
        _NUMERATOR_CACHE.move_to_end(key)
        return hit
    rows: List[dict] = []
    try:
        for row in pool_map(partial(_numerator_one_R, plan, c), plan.R_sequence, plan.workers):
            rows.append(row)
    except CurverateError as exc:
        # abort, but keep the completed per-R diagnostics on the error
        exc.partial_diagnostics = tuple(rows)
        raise
    _NUMERATOR_CACHE[key] = rows
    if len(_NUMERATOR_CACHE) > NUMERATOR_CACHE_SIZE:
        _NUMERATOR_CACHE.popitem(last=False)
    return rows


def run(plan: ExperimentPlan) -> ScalingReport:
    """Execute the scaling experiment and fit the log-log slope."""

    c = plan.window_constant()
    rows = _numerators(plan, c)
    samples = []
    diagnostics = []
    for row, R in zip(rows, plan.R_sequence):
        profile = build_profile(plan.family, R, plan.epsilon)
        nrm = sobolev_norm(profile, plan.s)
        ratio = row["l2"] / nrm
        samples.append((float(R), float(ratio)))
        diag = dict(row)
        diag["sobolev_norm"] = float(nrm)
        diag["ratio"] = float(ratio)
        diagnostics.append(diag)
    slope, stderr = fit_loglog([R for R, _ in samples], [r for _, r in samples])
    pred = predicted_slope(plan.family, plan.d, plan.alpha, plan.delta, plan.s, plan.epsilon)
    verdict = CONSISTENT if abs(slope - pred) <= SLOPE_TOLERANCE else INCONSISTENT
    return ScalingReport(
        plan=plan,
        window_constant=c,
        samples=tuple(samples),
        fitted_slope=slope,
        slope_stderr=stderr,
        predicted=pred,
        verdict=verdict,
        diagnostics=tuple(diagnostics),
    )


def sharpness_sweep(plan: ExperimentPlan, s_list: Sequence[float]):
    """Fitted slope per s, plus the zero crossing by linear interpolation.

    The maximal-field numerator does not depend on s, so the sweep runs
    one numerator pass and re-divides by each H^s norm; results coincide
    with independent run() calls.
    """

    if len(s_list) < 2:
        raise DomainValidationError("sweep needs at least two s values")
    rows = []
    for s in s_list:
        rep = run(replace(plan, s=float(s)))
        rows.append((float(s), rep.fitted_slope))
    crossing = None
    for (s0, m0), (s1, m1) in zip(rows, rows[1:]):
        if m0 == 0.0:
            crossing = s0
            break
        if m0 > 0.0 >= m1 or m0 < 0.0 <= m1:
            crossing = s0 + (s1 - s0) * m0 / (m0 - m1)
            break
    return rows, crossing


# ---------------------------------------------------------------------------
# lattice-family exceptional set (d = 2): direct numerical measurement


def measure_lattice_set(R: float, threshold_factor: float = 0.5, grid_points: int = 48):
    """Fraction of B(0,1) in R^2 where the lattice sum is large at its
    critical time. Measured directly at fixed R; no asymptotic in R is
    asserted (reported only)."""

    from .initial_data import lattice_points, lattice_scale

    D = lattice_scale(R, 2)
    ells = np.array(lattice_points(R, 2), dtype=float)
    if len(ells) == 0:
        return {"R": float(R), "fraction": 0.0, "lattice_count": 0, "target": 0.0}
    target = threshold_factor * math.sqrt(len(ells))
    xs = np.linspace(-0.95, 0.95, grid_points)
    count = 0
    total = 0
    for x1 in xs:
        ts = np.abs(x1) / (2.0 * R) + np.array([0.0, 0.25, 0.5]) * R ** -1.5
        for x2 in xs:
            if x1 * x1 + x2 * x2 >= 1.0:
                continue
            total += 1
            vals = [
                abs(np.sum(np.exp(1j * (D * ells * x2 + D * D * ells ** 2 * t)))) for t in ts
            ]
            if max(vals) >= target:
                count += 1
    return {
        "R": float(R),
        "fraction": count / max(1, total),
        "lattice_count": int(len(ells)),
        "target": float(target),
    }
