"""Curve-shifted (fractional) Schrodinger propagator by oscillatory quadrature.

U f(x, t) = (2*pi)^{-d} * integral over the profile's support box of
e^{i(gamma(x,t).xi + t|xi|^m)} f^(xi) dxi.

Every kernel sums w f^(xi) e^{i((x + s_j) xi + t_j |xi|^m)} for each
column (s_j, t_j) over the nodes of a WeightedRule record, its rows
formed by one phase formula (_weighted_rows) and its segment scalars by
another (_segment_scalars). Two kernels differ only in the inner sum
over nodes: the Gauss-Legendre kernel, _gl_quadrature, reduces the
x = 0 row of pairs and multiplies a window's rows by the direct table
e^{i x u}, and the chirp-z plan convolves a window's rows. The first
reads composite Gauss-Legendre panels (_weighted_rule), the second
midpoint nodes (below). One certified front end, _columns, drives them.
A column is one displacement per coordinate plus one time. Pointwise
evaluation (certified_value) takes pairs (x_i, t_i) only, one point
being the one-pair call; a pair is the x = 0 column at its displacement
gamma(x_i, t_i). A window (batch_values) is one column per time whose
points add to coordinate 0. One bucketed
budget rule (_budgets) covers pairs and windows: each column gets its own
budget per coordinate, rounded up to PANEL_ORDER * 2^k, so a pair's value
and count are those of its one-pair call, and the columns whose budgets
agree run as one kernel call, so a golden-section step over a whole
field is one call. _check_domain rejects a bad m, t or x, or a curve
whose dimension differs from the datum's, with DomainValidationError
before any work, and _columns raises AccuracyError, with no estimates,
for a budget past the node cap before either kernel runs. f(x) comes
from the pass that computes U f, so a failing f(x) reports t=0.0 in the
AccuracyError context: the t = 0 column on a window, and on the
pointwise kernel the (x, 0) pairs of point_values' one paired call
(evaluate is point_values at one pair). Every value is certified:
quadrature._certify compares the kernel's values at the budgeted and at
doubled nodes and demands agreement relative to the column's L^1 mass
scale (computed on the same rule) before reporting them; it forms the
full bound only where the gap passes SELF_CHECK_TOL * mass. Pairs are
checked as one block, and each coordinate's pairs of one budget are one
_gl_quadrature call on its cached record that forms the phases of both
passes, every segment's, in one vectorised sequence, then sums each
segment's slice and applies its midpoint scalar in segment order, so a
value does not depend on which pairs share its call. A window is checked
one column block of about FFT_BLOCK elements at a time (_window_blocks):
the block's coarse values are compared with its fine ones and dropped,
and only the fine ones are written, into the one time-major (times,
points) pass that batch_values hands on transposed. So a window call holds one pass, not two passes and
their gap, and a failure still names the first failing entry in x-major
order, with its two estimates.

For m = 2 each segment's phase is expanded about the segment midpoint C,
t*xi^2 = t*C^2 + 2tC*u + t*u^2, and the wild constant t*C^2 is applied as
a single complex scalar. This keeps the quadrature phases small and makes
the node-doubling comparison immune to the rounding of astronomically
large phases (modulated profiles reach t*C^2 ~ 1e7 radians). For
non-integer m, segments ending at 0 are graded geometrically toward it.

A window takes one of two kernels, chosen before it is budgeted. At
m = 2, a uniform window of three points or more on a smooth factor
(CoordinateFactor.smooth: every family but indicator-band) goes to
_chirp_window: n midpoint nodes on the hull of the factor's segments,
centred on the hull midpoint C. With the window centred too, the window
sum is a chirp-z transform, one FFT convolution per time column, and no
nx-by-n table is formed. _chirp_window builds a budget group's plan once
per pass: its nodes as a one-segment WeightedRule of midpoint C (their
weights carrying the chirp e^{i beta q^2 / 2}), the chirp kernel's
spectrum and the post chirp. ChirpPlan.apply writes each column block's
rows (_weighted_rows, with the window midpoint joining the shifts) into
one reused FFT buffer, convolves them in place and applies the post
chirp and the segment scalars. On data that vanish smoothly at the hull
ends the midpoint rule is exact to rounding once its nodes sample faster
than the integrand's largest local frequency; below one node per 2 pi
radians it aliases. So a chirp-z window is budgeted at
CHIRP_NODES_PER_RADIAN, a quarter of the Gauss-Legendre rate: 2.5 nodes
per 2 pi radians, 2.5 times the aliasing rate. At an eighth the
self-check fails on the k = 6 and 8 lemma windows. The node-doubling
self-check compares two chirp-z passes, so it cannot see an error both
share. The chirp phases are exact to rounding
(_chirp), and a guard (_chirp_phase_error) sends the window to
Gauss-Legendre unless the window's distance from its uniform grid times
the hull half-width, plus what rounding the chirp step h h_xi can move a
phase, stays within PHASE_GUARD (1e-12 radians). Neither term depends on
n, so the guard runs once per window, ahead of the budget. Every other
window (indicator-band, one- and two-point windows, non-uniform windows
and m != 2) runs _gl_quadrature with the centred direct table: each
segment's table is e^{i x u}, u = xi - C about the same midpoint C, and
each window point's output is multiplied by e^{i x C} next to the column
scalars. Its matrix product puts the columns on the rows, padding a lone
column to two, so on two points or more BLAS rounds a column alike in a
group of any size and a time's value does not depend on its call or
block; on one point the product is numpy's matrix-vector one, whose
rounding can depend on the times beside it.

Gauss-Legendre rules come from _weighted_rule, the one rule cache: an
LRU of RULE_CACHE_SIZE records keyed by the budget n. A record
(WeightedRule) holds both passes' rules, n and 2n nodes, in one flat set
of read-only arrays: the nodes, each node less its segment's midpoint,
the weights with f^ multiplied in, and the segment offsets and
midpoints, so pairs and window tables read the same record and no call
concatenates anything. A record is cached only when its
2n-node pass has at most CACHED_RULE_NODES nodes, so the cache holds at
most 256 x (2048 + 4096) nodes x 32 B = 50 MB (68 MB of 8288-node
zero-graded records on two segments), against 256 x 4096 nodes x 24 B =
25 MB when each pass's rule was a cache entry of its own; a scaling
benchmark pass leaves about 1.3 MB in it. A larger budget (_each_pass)
builds one record per pass, the coarse one released before the fine one
is built, and caches the coarse one while it has at most
CACHED_RULE_NODES nodes, so it holds one pass's rule at a time. One
block rule (_runs) bounds the kernel's rows on pairs and windows alike:
each block holds at most X_CHUNK * NODE_BLOCK column-nodes. Pairs run a
record in runs of whole segments of at most that many nodes, each on
blocks of columns, a segment alone longer one column at a time. A window
runs each segment in slices of NODE_BLOCK nodes, each on blocks of
X_CHUNK columns or more, and builds its e^{i x u} tables, X_CHUNK points
by one slice, per block; so a long window holds one block of rows, not a
segment's rows for every column, at the cost of rebuilding its tables
per column block.

Node budgets. A column's phase is theta(xi) = gamma xi + t|xi|^m, with
gamma = x + s(t) one value for a pair and [min x, max x] + s(t) for a
window, and xi in the hull of the segments. Its phase variation is the
largest |theta'| on that box times the segments' width, and its budget
NODES_PER_RADIAN (10 nodes per 2 pi radians; CHIRP_NODES_PER_RADIAN on a
chirp-z window) times that, BASE_NODES (64) at least, and SEGMENT_NODES
(32) per segment where that is more, rounded up to PANEL_ORDER * 2^k
nodes; a certified pass over MAX_NODES (2^22) nodes raises
AccuracyError before any kernel runs. The budget is fixed, not a
setting: it trades only cost against that error, and the self-check
decides every value. BASE_NODES is the largest floor any
family's data needs: on f^ alone (x = 0, t = 0) every coordinate
factor's rule passes the node-doubling check at its floor, and
bump-modulated fails it at 32 (tests/test_propagator.py pins both). The
per-segment floor matters on bourgain's d = 2 lattice factor, with three
or more segments from R = 128. For m >= 1 theta' is monotone in gamma
and in xi, so two corners of the box give it (phase_variation). At the
stationary ("critical") times of the lower-bound arguments gamma + 2t xi
nearly cancels over the support and the budget shrinks with it; it never
exceeds the triangle-inequality bound (max|gamma| + m t
max|xi|^{m-1}) * width.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

import numpy as np

from .curves import STRAIGHT, CurveSpec, gamma_pairs
from .errors import AccuracyError, DomainValidationError
from .initial_data import FrequencyProfile, coordinate_factors
from .quadrature import PANEL_ORDER, _certify, panel_nodes

TWO_PI = 2.0 * math.pi
X_CHUNK = 96          # window points per table block
NODE_BLOCK = 8192     # nodes per window table slice; X_CHUNK * NODE_BLOCK column-nodes bound a block of rows
PHASE_GUARD = 1e-12   # largest phase error (radians) the chirp-z window path may add
UNIT_ROUNDOFF = 2.0 ** -53
SPLITTER = 2.0 ** 27 + 1  # Dekker's split of a double into two 26-bit halves
FFT_BLOCK = 2 ** 16   # complex elements per chirp-z FFT block
RULE_CACHE_SIZE = 256  # weighted Gauss-Legendre records kept by _weighted_rule
CACHED_RULE_NODES = 4096  # largest doubled-pass rule a cached record holds
GRADING_DEPTH = 40    # zero-graded rules break at 2^-k of the width, k = 40..0
BASE_NODES = 64       # node floor of every budget: the largest any family's f^ needs
SEGMENT_NODES = 2 * PANEL_ORDER  # node floor per segment, so the doubled pass refines each
NODES_PER_RADIAN = 10.0 / TWO_PI  # nodes per radian of phase variation
CHIRP_NODES_PER_RADIAN = NODES_PER_RADIAN / 4  # the midpoint rule's: 2.5 nodes per 2 pi radians
MAX_NODES = 2 ** 22   # node cap of a certified pass
_STRAIGHT = CurveSpec(STRAIGHT)


@dataclass(frozen=True)
class FieldSample:
    """One propagator evaluation: value = U f(x, t), initial = f(x)."""

    x: object
    t: float
    value: complex
    initial: complex
    node_count: int

    def to_dict(self):
        return {
            "x": list(np.atleast_1d(np.asarray(self.x, dtype=float))),
            "t": self.t,
            "value": [self.value.real, self.value.imag],
            "initial": [self.initial.real, self.initial.imag],
            "node_count": self.node_count,
        }


def _slope(xi: float, m: float) -> float:
    """sgn(xi) |xi|^{m-1}: d|xi|^m/dxi over m, infinite where the power overflows."""
    return math.copysign(np.float64(abs(xi)) ** (m - 1.0), xi) if xi else 0.0


def phase_variation(gamma_lo, gamma_hi, t, m: float, factor):
    """Budget: the phase's largest local frequency |theta'| times the total segment width.

    For m >= 1, theta' = gamma + m t sgn(xi)|xi|^{m-1} increases in gamma
    and in xi (t >= 0), so over [gamma_lo, gamma_hi] times the hull
    [lo, hi] it runs from theta'(gamma_lo, lo) to theta'(gamma_hi, hi):
    those two corners bound every point of the box. The result never
    exceeds the triangle-inequality bound (max|gamma| + m t
    max|xi|^{m-1}) * width, which m < 1 keeps, theta' being unbounded at
    0 there. gamma_lo, gamma_hi and t are floats or equal-length arrays,
    elementwise.
    """

    width = factor.width
    lo, hi = factor.hull
    # an overflowing power reads inf, and times t = 0 NaN: _budgets takes either past the cap
    with np.errstate(over="ignore", invalid="ignore"):
        if m >= 1.0:
            low, high = gamma_lo + t * m * _slope(lo, m), gamma_hi + t * m * _slope(hi, m)
            speed = np.maximum(np.abs(low), np.abs(high))
        else:
            speed = np.maximum(np.abs(gamma_lo), np.abs(gamma_hi)) + t * m * _slope(max(abs(lo), abs(hi)), m)
    return speed * width


def _graded_rule(lo: float, hi: float, min_nodes: int):
    """Composite rule with geometric grading into an endpoint at 0.

    Used for non-integer dispersion powers, where |xi|^m has unbounded
    derivatives at the origin: dyadic panels toward 0 restore certified
    accuracy at logarithmic extra cost. Each piece gets its width's share
    of min_nodes, one panel at least, so the outer piece, half the
    segment, gets half the nodes.
    """

    width = hi - lo
    ratios = [0.0] + [0.5 ** k for k in range(GRADING_DEPTH, -1, -1)]
    edges = [r * width for r in ratios] if lo == 0.0 else [-r * width for r in reversed(ratios)]
    offset = lo if lo == 0.0 else hi
    xs_all, ws_all = [], []
    for a, b in zip(edges[:-1], edges[1:]):
        share = max(PANEL_ORDER, int(math.ceil(min_nodes * abs(b - a) / width)))
        xs, ws = panel_nodes(offset + a, offset + b, share)
        xs_all.append(xs)
        ws_all.append(ws)
    return np.concatenate(xs_all), np.concatenate(ws_all)


@dataclass(frozen=True)
class WeightedRule:
    """factor's Gauss-Legendre rules on the passes of a budget, weighted by f^.

    One flat record of read-only arrays: nodes holds each pass's
    segments in turn (the budgeted rule's, then its double's, or one
    pass's alone); u is each node less its segment's midpoint and wf its
    weight times f^. Segment k is the slice offsets[k]:offsets[k + 1], of
    midpoint mids[k], and each pass has the factor's number of segments.
    mass[p] is pass p's sum of w |f^|, the self-check's scale.
    """

    nodes: np.ndarray
    u: np.ndarray
    wf: np.ndarray
    offsets: tuple
    mids: np.ndarray
    mass: tuple


def _segment_rule(factor, lo: float, hi: float, total: int, graded: bool):
    """Segment [lo, hi]'s share of a total-node rule: (midpoint, nodes, w f^, sum of w |f^|).

    The share is by width, and a segment ending at 0 is graded toward it
    when graded (m is not an integer).
    """

    share = max(PANEL_ORDER, int(math.ceil(total * (hi - lo) / factor.width)))
    xs, ws = _graded_rule(lo, hi, share) if graded and (lo == 0.0 or hi == 0.0) else panel_nodes(lo, hi, share)
    fv = np.asarray(factor.func(xs), dtype=np.complex128)
    return 0.5 * (lo + hi), xs, ws * fv, float(np.sum(ws * np.abs(fv)))


def _build_weighted_rule(factor, n: int, graded: bool, doublings=(1, 2)) -> WeightedRule:
    """factor's WeightedRule on the passes of n * d nodes, d in doublings.

    The default is both passes of the node-doubling check on a budget of
    n; (1,) or (2,) is one of them.
    """

    segments = [_segment_rule(factor, lo, hi, n * d, graded) for d in doublings for lo, hi in factor.segments]
    l1, per_pass = [s[3] for s in segments], len(factor.segments)
    mass = []
    for p in range(len(doublings)):  # in segment order, uncompensated (sum() compensates floats from Python 3.12)
        total = 0.0
        for v in l1[p * per_pass : (p + 1) * per_pass]:
            total += v
        mass.append(total)
    offsets = tuple(np.cumsum([0] + [len(s[1]) for s in segments]).tolist())
    mids = np.array([s[0] for s in segments])
    nodes = np.concatenate([s[1] for s in segments])
    wf = np.concatenate([s[2] for s in segments])
    del segments  # the pieces go once joined
    u = nodes - np.repeat(mids, np.diff(offsets))
    for arr in (nodes, u, wf, mids):
        arr.flags.writeable = False
    return WeightedRule(nodes, u, wf, offsets, mids, tuple(mass))


_cached_weighted_rule = lru_cache(maxsize=RULE_CACHE_SIZE)(_build_weighted_rule)


def _weighted_rule(factor, n: int, graded: bool, doublings=(1, 2)) -> WeightedRule:
    """_build_weighted_rule, cached when its largest pass has at most CACHED_RULE_NODES nodes.

    The one rule cache: an LRU of RULE_CACHE_SIZE entries keyed by the
    budget, (factor, n, graded, doublings), so a hit skips the rules and
    the evaluation of f^ on them. coordinate_factors is memoised, so the
    same profile keeps the same factors. A larger record feeds a kernel
    that costs far more than building it, and keeping it alive would pin
    memory, so it is built afresh.
    """

    build = _cached_weighted_rule if n * doublings[-1] <= CACHED_RULE_NODES else _build_weighted_rule
    return build(factor, n, graded, doublings)


def _each_pass(factor, n: int, graded: bool, m: float, shifts, ts, xs=None):
    """_gl_quadrature on both passes of budget n's node-doubling check: [(coarse, its mass), (fine, its mass)].

    A budget whose doubled pass has at most CACHED_RULE_NODES nodes runs
    both passes in one call, on its cached record. Past that each pass
    gets a record of its own (_weighted_rule caches the coarse one while it
    has at most CACHED_RULE_NODES nodes), released before the next one is
    built, so a large budget holds one pass's rule at a time.
    """

    out = []
    for doublings in [(1, 2)] if 2 * n <= CACHED_RULE_NODES else [(1,), (2,)]:
        rule = _weighted_rule(factor, n, graded, doublings)
        out += zip(_gl_quadrature(rule, m, shifts, ts, xs), rule.mass)
        del rule  # released before the next pass's record is built
    return out


def _weighted_rows(rule: WeightedRule, m: float, shifts, ts, a: int, b: int, out=None):
    """The weighted exponentials of the columns (shifts[j], ts[j]) on rule's nodes a .. b - 1.

    Row j is w f^(xi) e^{i(shifts[j] xi + ts[j] |xi|^m)} at those nodes,
    less each segment's constant phase (_segment_scalars). The phase is
    taken about the node's segment midpoint C: at m = 2,
    (shifts[j] + 2 ts[j] C) u + ts[j] u^2 with u = xi - C, which keeps
    it small; otherwise shifts[j] u + ts[j] |xi|^m. The one phase formula
    of both kernels. Returns the (columns, nodes) rows, written into
    out if given.
    """

    u, s, t = rule.u[a:b], shifts[:, None], ts[:, None]
    if m == 2.0:
        k0, k1 = bisect_right(rule.offsets, a) - 1, bisect_left(rule.offsets, b)  # the segments the nodes meet
        cuts = [a, *rule.offsets[k0 + 1 : k1], b]
        # s + 2 t C at each node, C its segment's midpoint
        phase = np.repeat(s + 2.0 * t * rule.mids[k0:k1], [hi - lo for lo, hi in zip(cuts, cuts[1:])], axis=1)
        phase *= u
        square = t * u
        square *= u
        phase += square
        del square
    else:
        phase = s * u
        phase += t * np.abs(rule.nodes[a:b]) ** m
    # rows are built in place: their temporaries would otherwise set the memory peak
    rows = np.multiply(1j, phase, out=out)
    del phase
    np.multiply(rule.wf[a:b], np.exp(rows, out=rows), out=rows)
    return rows


def _segment_scalars(mids, m: float, shifts, ts):
    """Each segment's constant phase, e^{i(shifts[j] C + ts[j] C^2)} at m = 2, else e^{i shifts[j] C}.

    C runs over the segment midpoints mids. Returns (segments, columns).
    """
    C = mids[:, None]
    return np.exp(1j * (C * shifts + C * ts * C)) if m == 2.0 else np.exp(1j * shifts * C)


def _runs(offsets, window: bool):
    """The block rule of _gl_quadrature: [(k0, k1, a, b, step)], in node order.

    Each run is the nodes a .. b - 1 of segments k0 .. k1 - 1, taken step
    columns at a time, so that a block's rows hold at most
    X_CHUNK * NODE_BLOCK column-nodes. Pairs run whole segments, as many
    as fit, a longer segment alone and one column at a time; a window runs
    each segment in slices of NODE_BLOCK nodes. Plain Python integers: a
    one-pair call pays for this on every evaluation.
    """
    limit, runs, k0 = X_CHUNK * NODE_BLOCK, [], 0
    for k in range(1, len(offsets)):
        if window or k == len(offsets) - 1 or offsets[k + 1] - offsets[k0] > limit:  # segments k0 .. k - 1
            size = NODE_BLOCK if window else offsets[k] - offsets[k0]
            for a in range(offsets[k0], offsets[k], size):
                b = min(a + size, offsets[k])
                runs.append((k0, k, a, b, max(1, limit // (b - a))))
            k0 = k
    return runs


def _gl_quadrature(rule: WeightedRule, m: float, shifts, ts, xs=None):
    """The Gauss-Legendre kernel: every pass of rule on pairs (xs=None) or on a window xs.

    Pass p's column j is the sum over pass p's segments of w f^(xi)
    e^{i((x + shifts[j]) xi + ts[j] |xi|^m)}, at x = 0 for pairs and at
    each window point x; shifts and ts are equal-length 1-d arrays. The
    rows are made in the blocks of _runs, so no call holds more than
    X_CHUNK * NODE_BLOCK column-nodes of them, or one column of one
    segment where a pair's segment alone is longer. A pair block sums
    each segment's slice; the segment's scalar is applied and each pass's
    segments are added in order. A window block multiplies its rows by
    the table e^{i x u}, u = xi - C about the segment midpoint C, X_CHUNK
    points at a time, and once a segment's last slice is in, its sum is
    multiplied by e^{i x C} and its scalars. That product puts the columns
    on the rows, padding a lone column to two, so on two points or more
    BLAS rounds a column alike in any block: no value depends on its run
    or block. (On one point numpy multiplies matrix by vector, whose
    rounding can depend on the columns beside it.) Returns one
    (columns,) array per pass for pairs, one time-major (columns, len(xs))
    array per pass on a window.
    """

    offsets, window = rule.offsets, xs is not None
    per_pass = (len(offsets) - 1) // len(rule.mass)
    if window:
        passes = [np.zeros((len(ts), len(xs)), dtype=np.complex128) for _ in rule.mass]  # time-major
        acc = np.zeros((len(ts), len(xs)), dtype=np.complex128)  # the segment's sum so far
    else:
        sums = np.empty((len(offsets) - 1, len(ts)), dtype=np.complex128)  # one row per segment
    for k0, k1, a, b, step in _runs(offsets, window):
        for c0 in range(0, len(ts), step):
            cols = slice(c0, c0 + step)
            rows = _weighted_rows(rule, m, shifts[cols], ts[cols], a, b)
            if window:  # a lone column is padded to two, which keeps it off the matrix-vector product
                lhs = rows if len(rows) > 1 else np.concatenate([rows, np.zeros_like(rows)])
                for x0 in range(0, len(xs), X_CHUNK):
                    block = slice(x0, x0 + X_CHUNK)
                    # the table is built in place: its temporaries would otherwise set the memory peak
                    table = 1j * np.multiply.outer(xs[block], rule.u[a:b])
                    np.exp(table, out=table)
                    acc[cols, block] += (lhs @ table.T)[: len(rows)]
                del lhs
            else:
                for k in range(k0, k1):
                    np.add.reduce(rows[:, offsets[k] - a : offsets[k + 1] - a], axis=-1, out=sums[k, cols])
            del rows  # released before the next block's are made
        if window and b == offsets[k1]:  # the segment is in: e^{i x C} times its scalars
            scalars = _segment_scalars(rule.mids[k0:k1], m, shifts, ts).T
            passes[k0 // per_pass] += np.exp(1j * xs * rule.mids[k0]) * scalars * acc
            acc[:] = 0.0
    if window:
        return passes
    # scalar first, into a new array: numpy's complex multiply rounds by
    # operand order, and on one element in place unlike in its lanes
    sums = _segment_scalars(rule.mids, m, shifts, ts) * sums
    return tuple(sum(sums[p * per_pass : (p + 1) * per_pass], 0j) for p in range(len(rule.mass)))


def _fft_length(n: int) -> int:
    """The smallest 2^a or 3 * 2^a of at least n: a length numpy.fft transforms fast."""
    two = 1 << max(0, n - 1).bit_length()
    return 3 * two // 4 if 3 * two // 4 >= n else two


def _chirp(beta: float, r):
    """e^{i beta r^2 / 2} at half-integers r, |r| < 2^25, with the phase exact to rounding.

    r^2 / 2 is exact, and Dekker's two-product writes beta r^2 / 2 as
    hi + lo exactly, so e^{i hi} (1 + i lo) rounds no large phase: its
    error stays near UNIT_ROUNDOFF whatever the size of the phase.
    """
    a = 0.5 * r * r
    hi = beta * a
    bh = SPLITTER * beta
    bh -= bh - beta
    ah = SPLITTER * a
    ah -= ah - a
    bl, al = beta - bh, a - ah
    lo = ((bh * ah - hi) + bh * al + bl * ah) + bl * al
    return np.exp(1j * hi) * (1.0 + 1j * lo)


def _chirp_phase_error(xs, half_width: float) -> float:
    """Phase error (radians) that both passes of _chirp_window share on xs, at any n.

    The node-doubling check cannot see it. Two terms: the window's
    distance from the uniform grid x_c + p h (p centred), times
    half_width, which bounds |u|; and the rounding of beta = h h_xi, the
    same relative error in both passes (halving h_xi is exact), which
    moves each phase beta p q by at most UNIT_ROUNDOFF |beta| n nx / 4.
    With h_xi = 2 half_width / n, n cancels: UNIT_ROUNDOFF |h| half_width
    nx / 2.
    """
    nx = len(xs)
    h = (xs[-1] - xs[0]) / (nx - 1)
    grid = xs - (0.5 * (xs[0] + xs[-1]) + (np.arange(nx) - 0.5 * (nx - 1)) * h)
    return float(np.max(np.abs(grid))) * half_width + UNIT_ROUNDOFF * abs(h) * half_width * nx / 2.0


@dataclass(frozen=True)
class ChirpPlan:
    """What every column block of a chirp-z window pass shares, on one window and node count.

    rule is the n midpoint nodes as a one-segment WeightedRule: nodes
    C + u about the hull midpoint C, weights h_xi f^(C + u)
    e^{i beta q^2 / 2}, and the L^1 mass of f^. kernel is the FFT of the
    chirp e^{-i beta r^2 / 2} and post each point's e^{i beta p^2 / 2}
    e^{i x C}.
    """

    rule: WeightedRule
    centre: float     # the window midpoint, which joins the shifts
    kernel: np.ndarray  # of the FFT length, _fft_length(n + nx - 1)
    post: np.ndarray

    def apply(self, shifts, ts, rows):
        """The window values of the columns (shifts[j], ts[j]), one row each.

        rows is the (len(ts), FFT length) buffer the FFT runs in; its
        contents are overwritten. Its first n entries take the rule's rows
        (_weighted_rows) and its values the segment scalars
        (_segment_scalars), as on the other kernels. Returns the
        (len(ts), nx) view of rows that holds the values.
        """
        n, nx = self.rule.offsets[1], len(self.post)
        rows[:, n:] = 0.0
        _weighted_rows(self.rule, 2.0, shifts + self.centre, ts, 0, n, rows[:, :n])
        np.fft.fft(rows, out=rows)
        rows *= self.kernel
        np.fft.ifft(rows, out=rows)
        scale = np.empty(nx, dtype=np.complex128)
        for row, scalar in zip(rows, _segment_scalars(self.rule.mids, 2.0, shifts, ts)[0]):
            np.multiply(self.post, scalar, out=scale)
            np.multiply(row[:nx], scale, out=row[:nx])
        return rows[:, :nx]


def _chirp_window(factor, n: int, xs) -> ChirpPlan:
    """The plan of _gl_quadrature's m = 2 window values by chirp-z transform, on n midpoint nodes.

    For a smooth factor on a uniform window x_k = x_c + p_k h. The nodes
    are the midpoints u_q = q h_xi of n equal cells tiling the hull
    [C - W, C + W] of the factor's segments, q centred, with weight h_xi.
    x_c joins the shifts, so the window sum is sum_q a_q e^{i beta p q},
    beta = h h_xi, and p q = (p^2 + q^2 - (p - q)^2) / 2 makes it one
    linear convolution with the chirp e^{-i beta r^2 / 2}: one FFT
    convolution per column, which ChirpPlan.apply runs in place on a block
    of columns. Centring p and q halves the largest |r|, and _chirp keeps
    every chirp phase exact to rounding. A column's values, _gl_quadrature's
    transposed, do not depend on the block it runs in.
    """

    lo, hi = factor.hull
    C, W = 0.5 * (lo + hi), 0.5 * (hi - lo)
    nx, h_xi = len(xs), 2.0 * W / n
    beta = (xs[-1] - xs[0]) / (nx - 1) * h_xi
    q = np.arange(n) - 0.5 * (n - 1)
    p = np.arange(nx) - 0.5 * (nx - 1)
    u = q * h_xi
    nodes = C + u
    fv = np.asarray(factor.func(nodes), dtype=np.complex128)
    mass = h_xi * float(np.sum(np.abs(fv)))
    rule = WeightedRule(nodes, u, h_xi * fv * _chirp(beta, q), (0, n), np.array([C]), (mass,))
    L = _fft_length(n + nx - 1)
    # output k reads the chirp at k - j for node j: offsets -(n - 1) .. nx - 1, mod L
    d = np.arange(L)
    return ChirpPlan(
        rule=rule,
        centre=0.5 * (xs[0] + xs[-1]),
        kernel=np.fft.fft(_chirp(-beta, np.where(d < nx, d, d - L) + 0.5 * (n - nx))),  # r = p - q
        post=_chirp(beta, p) * np.exp(1j * xs * C),
    )


def _check_domain(profile, curve, m: float, xs, ts) -> None:
    """Both kernels' domain check: m > 0 (so not NaN), every t in [0, 1], every x finite,
    the curve in the datum's dimension, and m = 2 in dimension d > 1."""
    if not m > 0:
        raise DomainValidationError(f"dispersion power m={m} must be positive")
    outside = ts[~((ts >= 0.0) & (ts <= 1.0))]
    if len(outside):
        raise DomainValidationError(f"t={outside[0]} outside [0, 1]")
    bad = xs[~np.isfinite(xs)]
    if len(bad):
        raise DomainValidationError(f"x coordinate {bad[0]} is not finite")
    if curve.d != profile.d:
        raise DomainValidationError("curve and profile dimensions disagree")
    if profile.d > 1 and m != 2.0:
        raise DomainValidationError("fractional dispersion (m != 2) is one-dimensional")


def _budgets(factors, m: float, lo, hi, ts, chirp: bool = False):
    """The one budget rule: each column's node budget per coordinate.

    Column i's displacements on coordinate j span [lo[i, j], hi[i, j]] at
    time ts[i]. Its budget there is NODES_PER_RADIAN per radian of phase
    variation (CHIRP_NODES_PER_RADIAN with chirp), BASE_NODES at least and
    SEGMENT_NODES per segment where that is more, in whole panels rounded
    up to PANEL_ORDER * 2^k nodes, so that nearby times share a rule; it
    depends on that column alone. Budgets past 2^52 nodes, far over any
    cap, read as 2^52. The per-segment floor gives each segment one panel
    at least, so on a factor of many narrow segments (bourgain's d = 2
    lattice) a budget and its double never run the same one-panel rule,
    which the node-doubling check would compare with itself. Returns a
    (columns, coordinates) int array.
    """
    rate = (CHIRP_NODES_PER_RADIAN if chirp else NODES_PER_RADIAN) / PANEL_ORDER  # panels per radian
    out = np.empty(np.shape(lo), dtype=np.int64)
    for j, factor in enumerate(factors):
        floor = max(BASE_NODES, SEGMENT_NODES * len(factor.segments)) // PANEL_ORDER
        V = phase_variation(lo[:, j], hi[:, j], ts, m, factor)
        panels = np.fmin(np.maximum(floor, np.ceil(rate * V)), 2.0 ** 48)
        out[:, j] = PANEL_ORDER * 2 ** np.frexp(panels - 1.0)[1].astype(np.int64)  # 2^bit_length(panels - 1)
    return out


def _window_blocks(factor, m: float, n: int, cols, shifts, ts, xs, chirp: bool, out):
    """Both passes of the node-doubling check on one budget group of a window, block by block.

    The group is the columns cols, of budget n. They run in blocks of
    about FFT_BLOCK elements: a block's coarse and fine values (on n and
    2n nodes, over 2 pi) are made, the fine ones written into their rows
    of the time-major pass out, and both handed to _certify as x-major
    (nx, block) views, with the mass and the block's column indices,
    before the next block is made. On the chirp-z kernel (chirp) the
    group builds its two plans once and runs both passes of every block
    in one FFT buffer; otherwise each block runs the direct table of
    _gl_quadrature, through _each_pass, whose own blocks bound its rows,
    and on two points or more its values do not depend on the block. All
    of it is freed when the group's last block is done.
    """

    if chirp:
        plans = [_chirp_window(factor, n * doubling, xs) for doubling in (1, 2)]
        step = max(1, FFT_BLOCK // len(plans[1].kernel))
        buffer = np.empty(min(step, len(cols)) * len(plans[1].kernel), dtype=np.complex128)
        mass = plans[1].rule.mass[0] / TWO_PI
    else:
        step = max(1, FFT_BLOCK // max(1, len(xs)))
    for c0 in range(0, len(cols), step):
        block = cols[c0 : c0 + step]
        if chirp:  # both passes run in the one buffer, so the coarse values leave it first
            rows = [buffer[: len(block) * len(plan.kernel)].reshape(len(block), -1) for plan in plans]
            coarse = plans[0].apply(shifts[block], ts[block], rows[0]) / TWO_PI
            fine = plans[1].apply(shifts[block], ts[block], rows[1])
        else:
            (coarse, _), (fine, mass) = _each_pass(factor, n, m != int(m), m, shifts[block], ts[block], xs)
            coarse /= TWO_PI
            mass /= TWO_PI
        fine /= TWO_PI
        out[block] = fine
        yield coarse.T, fine.T, mass, block


def _columns(profile, m: float, disp, ts, label, cap_label, xs=None, chirp: bool = False):
    """The certified front end of pairs and windows: U f on columns.

    A column is one displacement per coordinate, a row of the (columns,
    d) array disp, and one time ts[i]. With xs=None it is the x = 0 row
    of a pair, its displacement gamma(x, t) carrying x; with a 1-d window
    xs (d = 1) the window's points add to coordinate 0. In order: _budgets
    budgets every column per coordinate, over [min xs, max xs] + disp on
    a window, at the chirp-z rate if chirp; the first column whose
    certified pass, twice its budgets' sum, is past MAX_NODES raises
    AccuracyError, named by cap_label(i) and with no estimates, before
    either kernel runs. Pairs run as one block: each coordinate's columns
    of one budget run both passes through _each_pass, one _gl_quadrature
    call on the budget's cached record or one per pass past the cache,
    whose runs and column blocks move no bit; the first coordinate's integrals
    are assigned, and later ones multiplied in from real and imaginary
    parts (numpy's complex multiply rounds its vector lanes unlike its
    tail, which would tie a pair's last bit to its position), and each
    pass is divided by (2 pi)^d. A window runs one budget group
    after another, block by block (_window_blocks), so it holds one pass.
    _certify checks every block
    against a mass per column and names the first failure by label(k),
    or label(i, k) at window point i.
    Returns (values, counts): values of shape (columns,), or on a window
    (nx, columns), the x-major view of a time-major pass, and counts the
    nodes of each column's certified pass.
    """

    factors = coordinate_factors(profile)
    lo, hi = (disp + np.min(xs), disp + np.max(xs)) if xs is not None and len(xs) else (disp, disp)
    budgets = _budgets(factors, m, lo, hi, ts, chirp)
    counts = 2 * budgets.sum(axis=1)
    context = f"kind={profile.kind}"
    over = np.flatnonzero(counts > MAX_NODES)
    if len(over):
        i = int(over[0])
        raise AccuracyError(f"node budget {counts[i]} exceeds cap {MAX_NODES}", context=context + cap_label(i))
    if xs is not None:
        values = np.empty((len(ts), len(xs)), dtype=np.complex128)
        blocks = (block for n in np.unique(budgets[:, 0]) for block in _window_blocks(
            factors[0], m, int(n), np.flatnonzero(budgets[:, 0] == n), disp[:, 0], ts, xs, chirp, values))
        _certify(blocks, context, label)
        return values.T, counts
    passes = np.empty((2, len(ts)), dtype=np.complex128)  # coarse, fine
    mass = np.empty(len(ts))
    for j, factor in enumerate(factors):
        for n in np.unique(budgets[:, j]):
            group = np.flatnonzero(budgets[:, j] == n)
            both = _each_pass(factor, int(n), m != int(m), m, disp[group, j], ts[group])
            for values, (integral, _) in zip(passes, both):
                if j == 0:
                    values[group] = integral
                else:
                    v = values[group]
                    values.real[group] = v.real * integral.real - v.imag * integral.imag
                    values.imag[group] = v.real * integral.imag + v.imag * integral.real
            fine_mass = both[1][1]
            mass[group] = fine_mass if j == 0 else mass[group] * fine_mass
    passes /= TWO_PI ** profile.d
    mass /= TWO_PI ** profile.d
    coarse, values = passes
    _certify([(coarse, values, mass, np.arange(len(ts)))], context, label)
    return values, counts


def certified_value(
    profile: FrequencyProfile,
    curve: CurveSpec,
    m: float,
    x,
    t,
):
    """U f at the pairs (x[i], t[i]), with budget/self-check, without f(x).

    t is a 1-d sequence of times and x holds one point per time; one point
    is the one-pair call certified_value(..., [x], [t]). Each pair is the
    x = 0 column of _columns at its displacement gamma(x[i], t[i]), so its
    value and node count are those of its one-pair call. Returns (values,
    total, counts): counts holds each pair's certified-pass nodes, the
    ones _columns budgeted it, and total is their sum. A failure names the
    first failing pair's x and t in the AccuracyError context; a pair past
    the node cap fails before any pair runs.
    """

    if np.ndim(t) != 1 or np.ndim(x) == 0 or len(x) != len(t):
        got = [len(v) if np.ndim(v) else "a scalar" for v in (x, t)]
        raise DomainValidationError(
            f"certified_value takes pairs, one x per t ([x], [t] for one point): "
            f"got {got[0]} x for {got[1]} t"
        )
    ts = np.asarray(t, dtype=float)
    _check_domain(profile, curve, m, np.asarray(x, dtype=float), ts)

    def label(k):
        return f", x={x[k]}, t={ts[k]}"

    values, counts = _columns(profile, m, gamma_pairs(curve, x, ts), ts, label, label)
    return values, int(counts.sum()), counts


def point_values(profile: FrequencyProfile, curve: CurveSpec, m: float, xs, ts):
    """batch_values' contract on the pointwise kernel, for any curve and dimension.

    Returns (values[nx, nt], initial[nx], node_counts[nx, nt]) from one
    paired certified_value call: the nx*nt pairs (x, t), then the (x, 0)
    pairs. Every value and count is that of the pair's one-pair call; the
    counts are the ones that call returns, so the curve and the budget
    rule run once.
    """

    xs, ts = np.asarray(xs, dtype=float), np.asarray(ts, dtype=float)
    nx, nt = len(xs), len(ts)
    points = np.concatenate([np.repeat(xs, nt, axis=0), xs])
    times = np.concatenate([np.tile(ts, nx), np.zeros(nx)])
    values, _, used = certified_value(profile, curve, m, points, times)
    return values[: nx * nt].reshape(nx, nt), values[nx * nt :], used[: nx * nt].reshape(nx, nt)


def evaluate(
    profile: FrequencyProfile,
    curve: CurveSpec,
    m: float,
    x,
    t: float,
) -> FieldSample:
    """U f(x, t) and f(x), certified: point_values at its one pair, so U f(x, 0) == f(x)."""

    values, initial, used = point_values(profile, curve, m, [x], [t])
    return FieldSample(x, t, complex(values[0, 0]), complex(initial[0]), int(used[0, 0]))


def evaluate_grid(
    profile: FrequencyProfile,
    curve: CurveSpec,
    m: float,
    x_grid: Sequence,
    t_list: Sequence[float],
    workers: int = 1,
):
    """One evaluate() call per (x, t) pair, x-major, in the calling process.

    Returns (samples, failures) in grid order; a failure is (x, t, message)
    of an AccuracyError or DomainValidationError. `workers` must be an
    integer >= 1 (else DomainValidationError), but it starts no process.
    """

    if not isinstance(workers, int) or workers < 1:
        raise DomainValidationError("workers must be an integer >= 1")
    samples, failures = [], []
    for x in x_grid:
        for t in t_list:
            try:
                samples.append(evaluate(profile, curve, m, x, t))
            except (AccuracyError, DomainValidationError) as exc:
                failures.append((x, t, str(exc)))
    return samples, failures


# ---------------------------------------------------------------------------
# window evaluation (used by maximal fields and lemma checks, where
# thousands of (x, t) pairs share one spatial window)


def batch_values(
    profile: FrequencyProfile,
    curve: CurveSpec,
    m: float,
    xs: np.ndarray,
    ts: Sequence[float],
):
    """U f(x, t) on a 1-d spatial window times a list of times: one _columns
    window column per time, displaced by gamma(0, t).

    Returns (values[nx, nt], initial[nx], node_counts[nt]), node_counts
    being the nodes of each time's certified (doubled) pass, at the
    chirp-z rate on a chirp-z window. initial is f(x), the t = 0 column
    of the same pass: it shares the requested times' self-check, and
    their kernel call where its rule size matches one of theirs. The
    pass is time-major, values and initial views of its transpose. A
    time's budget depends only on the window's displacements [min x,
    max x] + s(t), so its rule and count, and its chirp-z values, do not
    depend on how work is split. The node-doubling self-check certifies
    every sample.
    """

    if profile.d != 1:
        raise DomainValidationError("batch evaluation is one-dimensional")
    if not curve.is_shift:
        raise DomainValidationError(
            "batch evaluation needs an x-independent curve displacement; "
            "evaluate general curves pointwise"
        )
    xs = np.asarray(xs, dtype=float)
    ts = np.array([float(t) for t in ts] + [0.0])  # last column: f(x)
    _check_domain(profile, curve, m, xs, ts)
    (factor,) = coordinate_factors(profile)
    lo, hi = factor.hull
    chirp = (m == 2.0 and factor.smooth and len(xs) >= 3
             and _chirp_phase_error(xs, 0.5 * (hi - lo)) <= PHASE_GUARD)

    def cap_label(j):  # an over-cap time names the window's farthest point, if it has one
        far = f", x={xs[np.argmax(np.abs(xs))]}" if len(xs) else ""
        return f"{far}, t={ts[j]}"

    def label(i, k):
        return f", x={xs[i]}, t={ts[k]}"

    shifts = gamma_pairs(curve, np.zeros(len(ts)), ts)  # gamma(0, t): the displacements
    values, counts = _columns(profile, m, shifts, ts, label, cap_label, xs, chirp)
    return values[:, :-1], values[:, -1], counts[:-1]


def batch_initial(profile: FrequencyProfile, xs: np.ndarray):
    """f(x) on a window: batch_values with no times, on the straight curve."""

    return batch_values(profile, _STRAIGHT, 2.0, xs, [])[1]
