"""Rate-weighted maximal functions, critical times, and local maximal bounds.

The central quantity is the grid statistic

    sup over a time grid of |U f(x, t) - f(x)| / t^delta,

a certified lower bound for the true supremum (a grid max never exceeds
the sup). The grid is a TimeGrid of dyadic octaves, and a time is
injected in one way only: maximal_field's critical_times, one time in
(0, 1] per point, the counterexample family's stationary time at that
point. That is exactly the evaluation the lower-bound arguments use. The
injected times cost one certified window pass per block of points.
With local refinement on, each point's sup is then refined by a
golden-section search between the grid neighbours of its argmax time.
The searches of all points run in lockstep, one paired certified_value
call per step, so a field costs 2 + GOLDEN_ITERATIONS pointwise calls
whatever its number of points.

Each counterexample family is described once, as a `Family` record in
`FAMILIES`: its curve, spatial window, window-constant predicate, critical
time, predicted exponent and default time window. Its datum is the
profile of its own kind, FrequencyProfile(family, R=R, epsilon=epsilon).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict, Optional, Sequence

import numpy as np

from .curves import CurveSpec, MINUS_SHIFT, PLUS_SHIFT
from .errors import (
    DomainValidationError,
    ResolutionError,
    UnsupportedRegimeError,
    WindowError,
)
from .exponents import Regime, law_for
from .initial_data import (
    BOURGAIN,
    BUMP_DILATED,
    BUMP_MODULATED,
    BUMP_TENSOR,
    INDICATOR_BAND,
    FrequencyProfile,
    annulus_bump,
    decay_threshold,
)
from .propagator import X_CHUNK
from .propagator import batch_values, certified_value, point_values

_GOLDEN_RATIO = (1.0 + math.sqrt(5.0)) / 2.0
GOLDEN_ITERATIONS = 24
BISECTION_ITERATIONS = 100  # critical-time root halvings, far past double precision
FIXED_POINT_CHECK = 4  # halvings between checks that the brackets still move
LEMMA_POINTS_PER_OCTAVE = 5  # lemma_profile master-grid density
LEMMA_PAD_OCTAVES = 5.0      # lemma_profile grid extension past the largest j
LEMMA_BLOCK_ELEMENTS = 2 ** 19  # lemma_profile window values per batch_values call: its one pass, 8 MiB at most


@dataclass(frozen=True)
class TimeGrid:
    """Dyadic-octave time grid t = 2^{-j}, j in [j_min, j_max].

    j_min = j_max = None is the empty grid, for maximal_field calls that
    evaluate only at their critical times.
    """

    j_min: Optional[float] = None
    j_max: Optional[float] = None
    points_per_octave: int = 8
    local_refinement: bool = True

    def __post_init__(self):
        if (self.j_min is None) != (self.j_max is None):
            raise DomainValidationError("j_min and j_max must be given together")
        if self.j_min is not None:
            if not 0 <= self.j_min <= self.j_max < math.inf:
                raise DomainValidationError("need finite 0 <= j_min <= j_max")
            if self.points_per_octave < 1:
                raise DomainValidationError("points_per_octave must be >= 1")

    def times(self) -> np.ndarray:
        """All grid times, increasing."""
        if self.j_min is None:
            raise DomainValidationError("empty time grid")
        n = max(1, int(round((self.j_max - self.j_min) * self.points_per_octave)))
        return np.unique(2.0 ** (-np.linspace(self.j_min, self.j_max, n + 1)))


@dataclass(frozen=True)
class MaximalField:
    """Per-x rate-weighted sup values with their argmax times."""

    xs: np.ndarray
    sup_values: np.ndarray
    argmax_times: np.ndarray
    delta: float
    ball: tuple
    node_count_max: int = 0

    def to_dict(self):
        return {
            "xs": [float(v) for v in self.xs],
            "sup_values": [float(v) for v in self.sup_values],
            "argmax_times": [float(v) for v in self.argmax_times],
            "delta": self.delta,
            "ball": list(self.ball),
            "node_count_max": int(self.node_count_max),
        }


# ---------------------------------------------------------------------------
# admissible windows and the window constant


#: descending ladder of candidate window constants; the entries below 0.005
#: calibrate indicator-band down to alpha = 1/8 (c^alpha + c <= 0.35)
WINDOW_LADDER = (3.2, 1.6, 0.9, 0.8, 0.64, 0.4, 0.32, 0.2, 0.16, 0.08, 0.04, 0.02, 0.01, 0.005,
                 0.0025, 0.00125, 0.0005, 0.0002)


@dataclass(frozen=True)
class Family:
    """One counterexample family: everything its lower-bound argument uses but
    its datum, the FrequencyProfile of the family's kind."""

    curve: str                      # kind of the shift curve
    x_sign: int                     # sign x_1 must have for a critical time (0: any)
    alpha_rule: str                 # admissible alpha, as text
    alpha_ok: Callable              # alpha -> bool
    window: Callable                # (R, alpha, epsilon, c) -> spatial window (lo, hi)
    calibrated: Callable            # (c, alpha, R_min, R_max) -> bool
    critical: Callable              # (x_1 array, R, alpha, epsilon, c) -> stationary time(s)
    slope: Callable                 # (d, alpha, delta, s, epsilon) -> predicted exponent
    octaves: Callable               # (R, alpha, epsilon, c) -> (j_min, j_max), or (None, None): no grid


def check_window_constant(c: float) -> None:
    """Reject a window constant that is not a finite c > 0 (NaN included)."""

    if not 0.0 < c < math.inf:
        raise DomainValidationError(f"window constant c={c} must be finite and > 0")


def _window_constant(family: str, c: Optional[float]) -> float:
    """c, for critical times that scale with the window constant."""

    if c is None:
        raise DomainValidationError(
            f"{family} critical times need the family's window constant "
            "(calibrate_window_constant)"
        )
    check_window_constant(c)
    return c


# The calibration predicates restate at desk scale the pointwise
# inequalities the lower-bound arguments need:
#   bump-modulated: the window clears the bump transform's decay threshold
#     at the smallest R (|f| <= 1/(8*pi) there) while the critical phase
#     t_x R^2 xi^2 <= c/4 stays small.
#   bump-dilated: window inside the unit ball at the smallest R, critical
#     phase budget c^{1/alpha}/4 <= 100 (the stationary-phase value is
#     R-free either way), and |f| decayed at the largest R.
#   bump-tensor: residual critical phase sqrt(c) <= 1/4.
#   indicator-band: first-order band phase c^alpha + c <= 0.35, so the
#     linearization dominates the Taylor tail with a factor-2 cushion.
#   bourgain: window inside the unit ball.
# The default octave windows are deliberately tight: they cover every time
# scale the family's mechanism uses and exclude far-away octaves whose
# contributions scale differently (the grid statistic is a lower bound
# either way). bourgain uses injected critical times only; at desk scale
# the wave-packet transit near t_c would otherwise dominate through the
# not-yet-decayed |f|. The critical times solve t^alpha = x (bump-dilated),
# t R^{1+eps} = x_1 (bump-tensor), x - t^alpha - 2 R^2 t = 0
# (bump-modulated) and x - t^alpha + 2 R t = 0 (bourgain, x < 0) by
# BISECTION_ITERATIONS halvings of a bracket; indicator-band's is
# c R^{-1/alpha}, x-free.
FAMILIES: Dict[str, Family] = {
    BUMP_DILATED: Family(
        curve=MINUS_SHIFT, x_sign=1, alpha_rule="alpha < 1/2", alpha_ok=lambda a: a < 0.5,
        window=lambda R, a, eps, c: (0.5 * c * R ** (-2.0 * a), c * R ** (-2.0 * a)),
        calibrated=lambda c, a, R_min, R_max: (
            c * R_min ** (-2.0 * a) <= 0.9
            and c ** (1.0 / a) / 4.0 <= 100.0
            and 0.5 * c * R_max ** (1.0 - 2.0 * a) >= decay_threshold()
        ),
        critical=lambda x1, R, a, eps, c: x1 ** (1.0 / a),
        slope=lambda d, a, delta, s, eps: 2.0 * delta - a - s + 0.5,
        octaves=lambda R, a, eps, c: (max(0.0, 2 * math.log2(R) - 10), 2 * math.log2(R) + 8),
    ),
    BUMP_MODULATED: Family(
        curve=MINUS_SHIFT, x_sign=1, alpha_rule="alpha >= 1/4", alpha_ok=lambda a: a >= 0.25,
        window=lambda R, a, eps, c: (0.5 * c, c),
        calibrated=lambda c, a, R_min, R_max: c <= 0.9 and 0.5 * c * R_min >= decay_threshold(),
        critical=lambda x1, R, a, eps, c: _bisect_root(
            lambda t: x1 - t ** a - 2.0 * R * R * t, 0.0, np.minimum(1.0, x1)
        ),
        slope=lambda d, a, delta, s, eps: 2.0 * delta - 2.0 * s + 0.5,
        octaves=lambda R, a, eps, c: (max(0.0, 2 * math.log2(R) - 4), 2 * math.log2(R) + 6),
    ),
    BUMP_TENSOR: Family(
        curve=MINUS_SHIFT, x_sign=1, alpha_rule="alpha >= 1/2", alpha_ok=lambda a: a >= 0.5,
        window=lambda R, a, eps, c: (0.5 * c * R ** (eps - 1.0), c * R ** (eps - 1.0)),
        calibrated=lambda c, a, R_min, R_max: math.sqrt(c) <= 0.25,
        critical=lambda x1, R, a, eps, c: x1 / R ** (1.0 + eps),
        slope=lambda d, a, delta, s, eps: 2.0 * delta + eps / 2.0 - (1.0 + eps) * s,
        octaves=lambda R, a, eps, c: (
            max(0.0, 2 * math.log2(R) - 2), (2 + 2 * eps) * math.log2(R) + 6
        ),
    ),
    INDICATOR_BAND: Family(
        curve=PLUS_SHIFT, x_sign=0, alpha_rule="alpha <= 1/2", alpha_ok=lambda a: a <= 0.5,
        window=lambda R, a, eps, c: (-c, c),
        calibrated=lambda c, a, R_min, R_max: c ** a + c <= 0.35,
        critical=lambda x1, R, a, eps, c: _window_constant(INDICATOR_BAND, c) * R ** (-1.0 / a),
        slope=lambda d, a, delta, s, eps: delta / a - s,
        octaves=lambda R, a, eps, c: (
            max(0.0, math.log2(R) / a - 8), math.log2(R) / a + math.log2(1.0 / c) + 4
        ),
    ),
    BOURGAIN: Family(
        curve=MINUS_SHIFT, x_sign=-1, alpha_rule="alpha >= 1/2", alpha_ok=lambda a: a >= 0.5,
        window=lambda R, a, eps, c: (-c, -0.5 * c),
        calibrated=lambda c, a, R_min, R_max: c <= 0.9,
        critical=lambda x1, R, a, eps, c: _bisect_root(
            lambda t: x1 - t ** a + 2.0 * R * t, 0.0, np.minimum(1.0, (np.abs(x1) + 1.0) / (2.0 * R))
        ),
        slope=lambda d, a, delta, s, eps: delta + d / (2.0 * (d + 1)) - s,
        octaves=lambda R, a, eps, c: (None, None),
    ),
}


def family_spec(family: str, alpha: Optional[float] = None) -> Family:
    """The family's record in FAMILIES; with an alpha, one its alpha_rule admits."""

    try:
        spec = FAMILIES[family]
    except KeyError:
        raise DomainValidationError(f"{family!r} is not a counterexample family") from None
    if alpha is not None and not spec.alpha_ok(alpha):
        raise DomainValidationError(f"{family} runs need {spec.alpha_rule}")
    return spec


def calibrate_window_constant(
    family: str,
    alpha: float,
    R_min: float = 64.0,
    R_max: float = 1024.0,
) -> float:
    """The first (largest) ladder constant satisfying the family's
    calibration predicate (see FAMILIES). An alpha outside the family's
    alpha_rule raises DomainValidationError."""

    spec = family_spec(family, alpha)
    for c in WINDOW_LADDER:
        if spec.calibrated(c, alpha, R_min, R_max):
            return c
    raise WindowError(f"no ladder constant satisfies the {family} calibration predicate")


# ---------------------------------------------------------------------------
# critical times


def _bisect_root(h, lo, hi):
    """The roots of h in [lo, hi], elementwise and in lockstep.

    h maps an array of times to an array; lo and hi broadcast to one
    bracket per root. Each bracket is halved BISECTION_ITERATIONS times,
    keeping the half whose ends differ in sign, and a root stops at an
    end or midpoint where h is exactly 0. A halving that moves no bracket
    leaves every later halving unchanged, so the loop stops at the first
    such halving it checks, every FIXED_POINT_CHECK halvings, with the
    roots of the full count. The first bracket without a sign change
    raises WindowError.
    """
    lo, hi = np.broadcast_arrays(np.asarray(lo, dtype=float), np.asarray(hi, dtype=float))
    flo, fhi = h(lo), h(hi)
    same = (flo != 0.0) & (fhi != 0.0) & ((flo > 0) == (fhi > 0))
    if same.any():
        i = int(np.flatnonzero(same)[0])
        raise WindowError(
            f"no sign change on ({float(lo[i])}, {float(hi[i])}); "
            "the point lies outside the admissible window"
        )
    # a root at an end or a midpoint closes its bracket on it, and the bracket stays closed
    hi = np.where(flo == 0.0, lo, hi)
    lo = np.where(fhi == 0.0, hi, lo)
    sign = np.sign(flo)
    for k in range(1, BISECTION_ITERATIONS + 1):
        mid = 0.5 * (lo + hi)
        side = sign * h(mid)  # > 0: h(mid) has h(lo)'s sign, so the root lies above mid
        halved = np.where(side >= 0.0, mid, lo), np.where(side <= 0.0, mid, hi)
        if k % FIXED_POINT_CHECK == 0 and all(a.tobytes() == b.tobytes() for a, b in zip(halved, (lo, hi))):
            break  # bit for bit, so a NaN end compares equal to itself
        lo, hi = halved
    return 0.5 * (lo + hi)


def _critical_times(family: str, curve: CurveSpec, R: float, epsilon: float, xs, window_constant=None):
    """Each point's time at which the family's oscillatory phase is stationary.

    xs holds scalars or points, of which the first coordinates count; the
    roots are found in lockstep (_bisect_root). window_constant is
    required for indicator-band, whose critical time c R^{-1/alpha}
    scales with it, and unused by the other families.
    """

    spec = family_spec(family)
    if curve.kind != spec.curve:
        raise DomainValidationError(f"{family} uses the {spec.curve} curve, got {curve.kind}")
    x1 = np.asarray(xs, dtype=float).reshape(len(xs), -1)[:, 0]
    if spec.x_sign and np.any(spec.x_sign * x1 <= 0):
        raise WindowError(f"{family} critical time needs x_1 {'>' if spec.x_sign > 0 else '<'} 0")
    return np.full(len(x1), spec.critical(x1, R, curve.alpha, epsilon, window_constant))


def critical_time(
    family: str,
    curve: CurveSpec,
    R: float,
    epsilon: float,
    x,
    window_constant: Optional[float] = None,
) -> float:
    """_critical_times at the one point x."""

    return float(_critical_times(family, curve, R, epsilon, [x], window_constant)[0])


# ---------------------------------------------------------------------------
# rate-weighted suprema


def rate_score(values, initial, ts, delta):
    """|U f(x, t) - f(x)| / t^delta, elementwise on arrays: the score of every field pass.

    numpy's array abs and power round unlike Python's scalar abs and **
    (and unlike numpy's own scalar paths) but alike in every lane, so a
    pair's score does not depend on the array it sits in.
    """
    return np.abs(values - initial) / ts ** delta


def _refine(profile, curve, m, delta, xs, initial, ts, sup, arg):
    """Golden-section refinement between the grid neighbours of each argmax.

    For every point x_i, maximizes |U f(x_i, t) - f(x_i)| / t^delta between
    the grid times on either side of arg[i] (deterministic,
    GOLDEN_ITERATIONS steps) and raises (sup[i], arg[i]) to the refined
    maximum if larger. The points step in lockstep: the brackets a, b,
    the probes c, d and their scores fc, fd are arrays, and each step is
    one paired certified_value call, so a field costs 2 + GOLDEN_ITERATIONS
    calls whatever its size. Per point, the steps and scores are those of
    a serial golden-section search scored by rate_score. Returns the new
    (sup, arg).
    """

    pos = np.searchsorted(ts, arg)
    a = ts[np.maximum(0, pos - 1)]
    b = ts[np.minimum(len(ts) - 1, pos + 1)]
    live = b > a
    if not live.any():
        return sup, arg
    xs, f0, a, b = xs[live], initial[live], a[live], b[live]

    def score(t):
        return rate_score(certified_value(profile, curve, m, xs, t)[0], f0, t, delta)

    c = b - (b - a) / _GOLDEN_RATIO
    d = a + (b - a) / _GOLDEN_RATIO
    fc, fd = score(c), score(d)
    for _ in range(GOLDEN_ITERATIONS):
        # left: the maximum lies in [a, d], so d becomes c and c is probed;
        # otherwise it lies in [c, b], c becomes d and d is probed
        left = fc > fd
        a, b = np.where(left, a, c), np.where(left, d, b)
        kept, f_kept = np.where(left, c, d), np.where(left, fc, fd)
        probe = np.where(left, b - (b - a) / _GOLDEN_RATIO, a + (b - a) / _GOLDEN_RATIO)
        f_probe = score(probe)
        c, fc = np.where(left, probe, kept), np.where(left, f_probe, f_kept)
        d, fd = np.where(left, kept, probe), np.where(left, f_kept, f_probe)
    t_best, s_best = np.where(fc > fd, c, d), np.where(fc > fd, fc, fd)
    better = s_best > sup[live]
    raised = np.flatnonzero(live)[better]
    sup, arg = sup.copy(), arg.copy()
    sup[raised], arg[raised] = s_best[better], t_best[better]
    return sup, arg


def maximal_field(
    profile: FrequencyProfile,
    curve: CurveSpec,
    m: float,
    delta: float,
    xs: np.ndarray,
    grid: TimeGrid,
    critical_times: Optional[np.ndarray] = None,
) -> MaximalField:
    """Rate-weighted sup over a nonempty set of points.

    One-dimensional shift curves evaluate the whole window at once
    (batch_values, the window path); other curves and d > 1 take the
    pointwise kernel (point_values). Either way the grid and f(x) are one
    certified pass. xs holds scalars for d = 1 and points of R^d
    otherwise. critical_times, when given, injects one extra time in
    (0, 1] per point (the counterexample families' stationary times;
    window path only); the grid may then be empty. Each block of at most
    X_CHUNK points (ceil(nx / X_CHUNK) equal blocks) is then one
    batch_values pass at its distinct critical times. The field's ball is
    the interval the midpoint grid xs covers (first coordinate for d > 1).
    """

    if not 0.0 <= delta < 1.0:
        raise DomainValidationError("delta must lie in [0, 1)")
    xs = np.asarray(xs, dtype=float)
    if len(xs) == 0:
        raise DomainValidationError("maximal_field needs at least one point")
    window = profile.d == 1 and curve.is_shift
    if critical_times is not None:
        if not window:
            raise DomainValidationError(
                "critical times are injected on the window path only (d = 1 and a shift curve)"
            )
        critical_times = np.asarray(critical_times, dtype=float)
        if critical_times.shape != xs.shape:
            raise DomainValidationError("critical_times must match the x grid")
        outside = critical_times[~((critical_times > 0.0) & (critical_times <= 1.0))]
        if len(outside):
            raise DomainValidationError(f"critical time {outside[0]} outside (0, 1]")
    # midpoint grids: the covered interval extends half a cell past the
    # extreme points on each side
    lead = xs.reshape(len(xs), -1)[:, 0]
    h = float(lead[1] - lead[0]) if len(lead) > 1 else 0.0
    ball = (float(0.5 * (lead.min() + lead.max())), float(0.5 * (lead.max() - lead.min() + h)))

    sup = np.zeros(len(xs))
    arg = np.zeros(len(xs))
    node_max = 0

    on_grid = grid.j_min is not None or critical_times is None
    if on_grid:
        ts = grid.times()
        kernel = batch_values if window else point_values
        values, initial, node_counts = kernel(profile, curve, m, xs, ts)
        node_max = int(node_counts.max())
        scores = rate_score(values, initial[:, None], ts[None, :], delta)
        idx = np.argmax(scores, axis=1)
        sup = scores[np.arange(len(xs)), idx]
        arg = ts[idx]

    if critical_times is not None:  # one window pass per block of at most X_CHUNK points
        for blk in np.array_split(np.arange(len(xs)), -(-len(xs) // X_CHUNK)):
            tcs, col = np.unique(critical_times[blk], return_inverse=True)
            vals, init, counts = batch_values(profile, curve, m, xs[blk], tcs)
            tc = tcs[col]  # each point reads the column of its own critical time
            sc = rate_score(vals[np.arange(len(blk)), col], init, tc, delta)
            better = sc > sup[blk]
            sup[blk[better]], arg[blk[better]] = sc[better], tc[better]
            node_max = max(node_max, int(counts.max()))

    if grid.local_refinement and on_grid and len(ts) >= 3:
        sup, arg = _refine(profile, curve, m, delta, xs, initial, ts, sup, arg)

    return MaximalField(
        xs=xs,
        sup_values=sup,
        argmax_times=arg,
        delta=delta,
        ball=ball,
        node_count_max=node_max,
    )


#: the least number of cells per ball radius for l2_over_ball's midpoint rule;
#: n midpoints over a ball are 2 radius / n apart, so n >= 2 * BALL_CELLS
BALL_CELLS = 64


def l2_over_ball(fld: MaximalField) -> float:
    """Midpoint-rule L^2 norm of the sup values over the field's ball."""

    center, radius = fld.ball
    xs = np.asarray(fld.xs, dtype=float)
    if len(xs) < 2:
        raise ResolutionError("need at least 2 grid points")
    h = (2.0 * radius) / len(xs)
    if h > radius / BALL_CELLS + 1e-15:
        raise ResolutionError(
            f"x spacing {h} too coarse for ball radius {radius} (need <= radius/{BALL_CELLS})"
        )
    diffs = np.diff(xs)
    if not np.allclose(diffs, h, rtol=1e-6, atol=1e-12 * max(1.0, radius)):
        raise ResolutionError("x grid must be uniform midpoints over the ball")
    return float(math.sqrt(np.sum(fld.sup_values ** 2) * h))


def window_grid(lo: float, hi: float, n: int = 129) -> np.ndarray:
    """n midpoints of equal cells tiling [lo, hi]."""
    return lo + (np.arange(n) + 0.5) * (hi - lo) / n


def family_field(
    family: str,
    R: float,
    alpha: float,
    epsilon: float,
    c: float,
    m: float,
    delta: float,
    x_points: int,
    grid: TimeGrid,
    inject: bool,
) -> MaximalField:
    """The family's maximal field at one R: its datum on its curve over
    x_points midpoints of its admissible window (window constant c), with
    each point's critical time injected when inject is set. An alpha
    outside the family's alpha_rule raises DomainValidationError."""

    spec = family_spec(family, alpha)
    check_window_constant(c)
    curve = CurveSpec(spec.curve, alpha=alpha, d=1)
    profile = FrequencyProfile(family, R=float(R), epsilon=epsilon)
    xs = window_grid(*spec.window(R, alpha, epsilon, c), x_points)
    tc = _critical_times(family, curve, R, epsilon, xs, window_constant=c) if inject else None
    return maximal_field(profile, curve, m, delta, xs, grid, critical_times=tc)


# ---------------------------------------------------------------------------
# local-in-time maximal bounds (single dyadic frequency block)


#: the m = 2 regimes with a local maximal bound; lemma n of the paper is LEMMA_REGIMES[n - 1]
LEMMA_REGIMES = ("lipschitz", "holder-high-alpha", "holder-low-alpha", "holder-mid-alpha")


def _lemma_selector(regime: Regime) -> str:
    rid = law_for(regime).regime_id
    if rid not in LEMMA_REGIMES:
        raise UnsupportedRegimeError(
            "local maximal bounds are available for the m = 2 regimes only"
        )
    return rid


def lemma_bound(regime: Regime, k: int, j: float) -> float:
    """Theoretical single-block bound 2^{e(k,j)} for sup over (0, 2^{-j}).

    The epsilon loss in the Lipschitz-regime exponent is reported at 0;
    all comparisons downstream are slope/trend based.
    """

    rid = _lemma_selector(regime)
    alpha = float(regime.alpha)
    if k < 1:
        raise DomainValidationError("need k >= 1")

    if rid == "lipschitz":
        if not k <= j <= 2 * k:
            raise DomainValidationError(f"j={j} outside [k, 2k] = [{k}, {2 * k}]")
        d = regime.d
        return 2.0 ** ((2 * k - j) * d / (2.0 * (d + 1)))

    if rid == "holder-high-alpha":
        if not k <= j <= 2 * k:
            raise DomainValidationError(f"j={j} outside [k, 2k] = [{k}, {2 * k}]")
        return 2.0 ** ((2 * k - j) / 4.0)

    if rid == "holder-low-alpha":
        if not 2 * k <= j <= k / alpha:
            raise DomainValidationError(f"j={j} outside [2k, k/alpha] = [{2 * k}, {k / alpha}]")
        return 2.0 ** ((k - alpha * j) / 2.0)

    # mid-alpha: three sub-ranges on [k, k/alpha]
    if not k <= j <= k / alpha:
        raise DomainValidationError(f"j={j} outside [k, k/alpha] = [{k}, {k / alpha}]")
    if j <= 4.0 * alpha * k:
        return 2.0 ** ((2 * k - j) / 4.0)
    if j <= 2 * k:
        return 2.0 ** ((0.5 - alpha) * k)
    return 2.0 ** ((k - alpha * j) / 2.0)


def lemma_profile(
    regime: Regime,
    k: int,
    js: Sequence[float],
    curve: CurveSpec,
) -> Dict[float, float]:
    """Empirical ||sup_{t in (0, 2^{-j})} |U f_k| ||_{L^2([-1,1])} for several j.

    Uses the unit-L^2 annulus bump at scale k and one shared master time
    grid, accumulating prefix suprema from the smallest times upward, so
    the nesting monotonicity (larger j, smaller value) holds exactly. The
    times run in ceil(nx (nt + 1) / LEMMA_BLOCK_ELEMENTS) equal blocks, at
    most one per time, one batch_values call each, smallest times first.
    Each time's magnitudes are read from its row of the block's pass, and
    the pass is dropped before the next block's call, so one pass is held
    at a time and memory stays bounded as k grows; a column's values do
    not depend on its block.
    """

    if regime.d != 1:
        raise DomainValidationError("empirical local-bound checks run at desk scale d = 1")
    if len(js) == 0:
        raise DomainValidationError("lemma_profile needs at least one j")
    for j in js:
        lemma_bound(regime, k, j)  # validates the (k, j) range
    profile = annulus_bump(k)
    targets = sorted(set(float(j) for j in js))
    j_lo, j_hi = targets[0], targets[-1] + LEMMA_PAD_OCTAVES
    n = int(round((j_hi - j_lo) * LEMMA_POINTS_PER_OCTAVE))
    master = np.unique(np.concatenate([np.linspace(j_lo, j_hi, n + 1), np.asarray(targets)]))
    ts = 2.0 ** (-master)  # decreasing in j, i.e. ts[0] is the largest time

    nx = 2 ** (k + 2)
    xs = window_grid(-1.0, 1.0, nx)
    blocks = min(len(ts), -(-nx * (len(ts) + 1) // LEMMA_BLOCK_ELEMENTS))
    h = 2.0 / nx
    out = {}
    sup = np.zeros(nx)
    for cols in reversed(np.array_split(np.arange(len(ts)), blocks)):
        values = batch_values(profile, curve, 2.0, xs, list(ts[cols]))[0]
        for c in range(len(cols) - 1, -1, -1):  # largest j (smallest t) first
            np.maximum(sup, np.abs(values[:, c]), out=sup)  # a time is a row of the time-major pass
            jv = master[cols[c]]
            if any(abs(jv - tj) < 1e-9 for tj in targets):
                out[float(jv)] = float(math.sqrt(np.sum(sup ** 2) * h))
        del values  # the next block's pass is made without this one
    return {float(j): out[float(j)] for j in js}


def lemma_empirical(
    regime: Regime,
    k: int,
    j: float,
    curve: CurveSpec,
) -> float:
    """Single-(k, j) empirical local maximal norm (see lemma_profile)."""

    return lemma_profile(regime, k, [j], curve)[float(j)]


# ---------------------------------------------------------------------------
# rate-ceiling demonstration


def rate_ceiling_demo(
    profile: FrequencyProfile,
    curve: CurveSpec,
    x_star: float = 0.3,
    j_lo: int = 4,
    j_hi: int = 20,
):
    """Ratios |U f(x*, t) - f(x*)| / t^alpha along t = 2^{-j}.

    delta equals the curve's Hölder exponent exactly (the rate ceiling);
    returns (pairs, running_infimum) where pairs is a list of (t, ratio).
    """

    if curve.kind not in (MINUS_SHIFT, PLUS_SHIFT):
        raise DomainValidationError("the rate ceiling concerns genuinely shifted curves")
    if j_lo > j_hi:
        raise DomainValidationError(f"need j_lo <= j_hi, not j_lo={j_lo} > j_hi={j_hi}")
    alpha = curve.alpha
    ts = 2.0 ** (-np.arange(j_lo, j_hi + 1, dtype=float))
    values, initial, _ = batch_values(profile, curve, 2.0, np.atleast_1d(float(x_star)), list(ts))
    ratios = rate_score(values[0], initial[0], ts, alpha)
    running = np.minimum.accumulate(ratios)
    pairs = [(float(t), float(r)) for t, r in zip(ts, ratios)]
    return pairs, [float(v) for v in running]
