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
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, fields, asdict, replace
from functools import partial
from typing import List, Optional, Sequence, Tuple

import numpy as np

from . import SCHEMA_VERSION
from .errors import CurverateError, DomainValidationError
from .initial_data import FrequencyProfile, sobolev_norm
from .maximal import (BALL_CELLS, TimeGrid, calibrate_window_constant, check_window_constant,
                      family_field, family_spec, l2_over_ball)
from .reports import dumps

SLOPE_TOLERANCE = 0.15

CONSISTENT = "consistent"
INCONSISTENT = "inconsistent"


def fit_loglog(R_values: Sequence[float], ratios: Sequence[float]) -> Tuple[float, float]:
    """Ordinary least squares slope of log(ratio) vs log(R), with its
    standard error. Exact (to rounding) on exact power laws."""

    R_values = np.asarray(R_values, dtype=float)
    ratios = np.asarray(ratios, dtype=float)
    if len(np.unique(R_values)) < 2:
        raise DomainValidationError("need samples at two or more distinct R to fit a slope")
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
        if not 0 <= self.s < math.inf:
            raise DomainValidationError(f"s={self.s} must be finite and >= 0")
        if not math.isfinite(self.epsilon):
            raise DomainValidationError(f"epsilon={self.epsilon} must be finite")
        Rs = tuple(self.R_sequence)
        object.__setattr__(self, "R_sequence", Rs)  # a list of R makes an equal, hashable plan
        for R in Rs:
            if not 1 <= R < math.inf:
                raise DomainValidationError(f"R={R} in R_sequence must be finite and >= 1")
        if len(Rs) < 4 or any(b <= a for a, b in zip(Rs, Rs[1:])):
            raise DomainValidationError("R_sequence must be strictly increasing, length >= 4")
        # l2_over_ball needs the x spacing 2 radius / x_points <= radius / BALL_CELLS
        for name, least in (("x_points", 2 * BALL_CELLS), ("points_per_octave", 1)):
            value = getattr(self, name)
            if type(value) is not int or value < least:  # a bool is no count
                raise DomainValidationError(f"{name}={value} must be an integer >= {least}")
        family_spec(self.family, self.alpha)
        if self.c is not None:
            check_window_constant(self.c)

    def window_constant(self) -> float:
        if self.c is not None:
            return self.c
        return calibrate_window_constant(
            self.family, self.alpha, R_min=min(self.R_sequence), R_max=max(self.R_sequence)
        )

    def to_dict(self) -> dict:
        out = asdict(self)
        out["R_sequence"] = [float(R) for R in self.R_sequence]
        return out

    @staticmethod
    def from_dict(data: dict) -> "ExperimentPlan":
        if not isinstance(data, dict):
            raise DomainValidationError(f"bad plan config: {type(data).__name__} is not an object")
        unknown = sorted(set(data) - {f.name for f in fields(ExperimentPlan)})
        if unknown:
            raise DomainValidationError(f"bad plan config: unknown keys {', '.join(unknown)}")
        try:
            return ExperimentPlan(**data)
        except TypeError as exc:  # a missing key or a value of the wrong type
            raise DomainValidationError(f"bad plan config: {exc}") from None


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
        return dumps(self.to_dict())

    @staticmethod
    def from_json(text: str) -> "ScalingReport":
        return ScalingReport.from_dict(json.loads(text))


def _numerator_one_R(plan: ExperimentPlan, c: float, R: float) -> dict:
    """L^2-over-window of the rate-weighted sup for one R (s-independent)."""

    spec = family_spec(plan.family)
    octaves = spec.octaves(R, plan.alpha, plan.epsilon, c)
    grid = TimeGrid(*octaves, points_per_octave=plan.points_per_octave)
    fld = family_field(
        plan.family, R, plan.alpha, plan.epsilon, c, plan.m, plan.delta, plan.x_points, grid,
        inject=True,
    )
    return {
        "R": float(R),
        "l2": l2_over_ball(fld),
        "argmax_t_min": float(np.min(fld.argmax_times)),
        "argmax_t_max": float(np.max(fld.argmax_times)),
        "node_count_max": int(fld.node_count_max),
        "window": [float(v) for v in spec.window(R, plan.alpha, plan.epsilon, c)],
    }


def pool_map(fn, items, workers: int):
    """Yield fn(item) for each item in order, on min(workers, len(items)) processes.

    Results arrive in item order whatever the worker count, so a caller
    that stops at an exception keeps every earlier result.
    """

    workers = min(workers, len(items))
    if workers <= 1:
        yield from map(fn, items)
        return
    with ProcessPoolExecutor(max_workers=workers) as pool:
        yield from pool.map(fn, items)


#: numerator rows of the most recently used (plan, window constant) pairs
NUMERATOR_CACHE_SIZE = 32
_NUMERATOR_CACHE: "OrderedDict[tuple, List[dict]]" = OrderedDict()


def _numerators(plan: ExperimentPlan, c: float, workers: int) -> List[dict]:
    if not isinstance(workers, int) or workers < 1:
        raise DomainValidationError("workers must be an integer >= 1")
    # rows do not depend on s
    key = (replace(plan, s=0.0), c)
    hit = _NUMERATOR_CACHE.get(key)
    if hit is not None:
        _NUMERATOR_CACHE.move_to_end(key)
        return hit
    rows: List[dict] = []
    try:
        for row in pool_map(partial(_numerator_one_R, plan, c), plan.R_sequence, workers):
            rows.append(row)
    except CurverateError as exc:
        # abort, but keep the completed per-R diagnostics on the error
        exc.partial_diagnostics = tuple(rows)
        raise
    _NUMERATOR_CACHE[key] = rows
    if len(_NUMERATOR_CACHE) > NUMERATOR_CACHE_SIZE:
        _NUMERATOR_CACHE.popitem(last=False)
    return rows


def run(plan: ExperimentPlan, workers: int = 1) -> ScalingReport:
    """Execute the scaling experiment and fit the log-log slope.

    The numerator rows run on up to `workers` processes; the report does
    not depend on the count.
    """

    spec = family_spec(plan.family)
    c = plan.window_constant()
    rows = _numerators(plan, c, workers)
    samples = []
    diagnostics = []
    for row, R in zip(rows, plan.R_sequence):
        nrm = sobolev_norm(FrequencyProfile(plan.family, R=float(R), epsilon=plan.epsilon), plan.s)
        ratio = row["l2"] / nrm
        samples.append((float(R), float(ratio)))
        diag = dict(row)
        diag["sobolev_norm"] = float(nrm)
        diag["ratio"] = float(ratio)
        diagnostics.append(diag)
    slope, stderr = fit_loglog([R for R, _ in samples], [r for _, r in samples])
    pred = spec.slope(plan.d, plan.alpha, plan.delta, plan.s, plan.epsilon)
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


def sharpness_sweep(plan: ExperimentPlan, s_list: Sequence[float], workers: int = 1):
    """Fitted slope per s, plus the zero crossing by linear interpolation.

    The maximal-field numerator does not depend on s, so the sweep runs
    one numerator pass and re-divides by each H^s norm; results coincide
    with independent run() calls.
    """

    if len(s_list) < 2:
        raise DomainValidationError("sweep needs at least two s values")
    rows = [(float(s), run(replace(plan, s=float(s)), workers).fitted_slope) for s in s_list]
    crossing = None
    for (s0, m0), (s1, m1) in zip(rows, rows[1:]):
        if m0 == 0.0:
            crossing = s0
            break
        if m0 > 0.0 >= m1 or m0 < 0.0 <= m1:
            crossing = s0 + (s1 - s0) * m0 / (m0 - m1)
            break
    return rows, crossing

