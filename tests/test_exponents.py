"""Threshold atlas: dispatch, exact values, continuity, monotonicity."""

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from curverate.errors import DeltaRangeError, DomainValidationError, UnsupportedRegimeError
from curverate.exponents import (
    ABOVE,
    BELOW,
    BOUNDARY,
    LIPSCHITZ,
    RatePoint,
    Regime,
    classify,
    law_for,
    region_curve,
    threshold,
)

F = Fraction

# one concrete instance per threshold law
TEN_REGIMES = [
    Regime(d=1, alpha=1, m=2, smoothness=LIPSCHITZ),
    Regime(d=1, alpha=F(7, 10), m=2),
    Regime(d=1, alpha=F(1, 5), m=2),
    Regime(d=1, alpha=F(3, 10), m=2),
    Regime(d=1, alpha=F(4, 5), m=F(1, 2)),
    Regime(d=1, alpha=F(2, 5), m=F(1, 2)),
    Regime(d=1, alpha=F(3, 5), m=F(3, 1)),
    Regime(d=1, alpha=F(3, 20), m=F(3, 1)),
    Regime(d=1, alpha=F(1, 4), m=F(3, 1)),
    Regime(d=1, alpha=F(11, 20), m=F(3, 2)),
]

# the exact pieces (lo, hi, slope, intercept) and delta_max of each TEN_REGIMES law
TEN_LAWS = [
    ("lipschitz", "1", [("0", "1/4", "1", "1/4"), ("1/4", "1", "2", "0")]),
    ("holder-high-alpha", "7/10", [("0", "1/4", "1", "1/4"), ("1/4", "7/10", "2", "0")]),
    ("holder-low-alpha", "1/5", [("0", "1/10", "2", "3/10"), ("1/10", "1/5", "5", "0")]),
    ("holder-mid-alpha", "3/10",
     [("0", "1/20", "1", "1/4"), ("1/20", "3/20", "2", "1/5"), ("3/20", "3/10", "10/3", "0")]),
    ("subunit-m-high-alpha", "4/5",
     [("0", "3/20", "0", "3/8"), ("3/20", "2/5", "1/2", "3/10"), ("2/5", "4/5", "5/4", "0")]),
    ("subunit-m-low-alpha", "2/5", [("0", "1/5", "1/2", "2/5"), ("1/5", "2/5", "5/2", "0")]),
    ("superunit-m-high-alpha", "3/5", [("0", "1/4", "2", "1/4"), ("1/4", "3/5", "3", "0")]),
    ("superunit-m-low-alpha", "3/20",
     [("0", "3/40", "3", "11/40"), ("3/40", "3/20", "20/3", "0")]),
    # alpha = 1/(2(m-1)): the middle bound never leads
    ("superunit-m-mid-alpha", "1/4", [("0", "1/8", "2", "1/4"), ("1/8", "1/4", "4", "0")]),
    ("superunit-m-near-half-alpha", "11/20",
     [("0", "13/80", "1/2", "1/4"), ("13/80", "11/40", "3/2", "7/80"),
      ("11/40", "11/20", "20/11", "0")]),
]


def positive_fractions(hi):
    return st.fractions(min_value=0, max_value=hi, max_denominator=60).filter(lambda x: x > 0)


def test_threshold_examples_from_theory():
    lip = Regime(d=1, alpha=1, m=2, smoothness=LIPSCHITZ)
    assert threshold(lip, 0) == F(1, 4)
    assert threshold(lip, F(1, 2)) == 1
    assert threshold(Regime(d=1, alpha=0.2, m=2), 0.0) == pytest.approx(0.3, abs=1e-15)
    assert threshold(Regime(d=1, alpha=0.3, m=2), 0.1) == pytest.approx(0.4, abs=1e-15)
    assert threshold(Regime(d=1, alpha=0.8, m=0.5), 0.0) == pytest.approx(0.375, abs=1e-15)


def test_threshold_exact_fractions():
    r = Regime(d=2, alpha=1, m=2, smoothness=LIPSCHITZ)
    assert threshold(r, F(0)) == F(1, 3)
    assert threshold(r, F(1, 3)) == F(2, 3)
    r13 = Regime(d=1, alpha=F(1, 5), m=2)
    assert threshold(r13, F(1, 10)) == F(1, 2)  # breakpoint alpha/2, both pieces


def test_delta_range_errors_name_delta_max():
    r = Regime(d=1, alpha=0.5, m=2)
    with pytest.raises(DeltaRangeError) as err:
        threshold(r, 0.5)
    assert "0.5" in str(err.value)
    with pytest.raises(DeltaRangeError):
        threshold(r, -0.01)
    lip = Regime(d=1, alpha=1, m=2, smoothness=LIPSCHITZ)
    assert threshold(lip, 0.99) == pytest.approx(1.98)
    with pytest.raises(DeltaRangeError):
        threshold(lip, 1.0)


def test_regime_validation():
    with pytest.raises(DomainValidationError):
        Regime(d=0, alpha=1, m=2)
    with pytest.raises(DomainValidationError):
        Regime(d=1, alpha=0, m=2)
    with pytest.raises(DomainValidationError):
        Regime(d=1, alpha=0.5, m=2, smoothness=LIPSCHITZ)  # lipschitz needs alpha=1
    with pytest.raises(DomainValidationError):
        Regime(d=2, alpha=0.5, m=1.5)  # fractional is 1-d


def test_unsupported_regimes():
    with pytest.raises(UnsupportedRegimeError):
        law_for(Regime(d=1, alpha=0.7, m=1.0))  # m = 1 covered by no law
    with pytest.raises(UnsupportedRegimeError):
        law_for(Regime(d=2, alpha=0.7, m=2))  # Hölder d >= 2


@pytest.mark.parametrize("first", ["exact", "float"])
def test_law_memo_keeps_each_field_type_apart(first):
    # equal regimes of different field types hash alike but have different laws
    exact, inexact = Regime(d=1, alpha=F(1, 2), m=2), Regime(d=1, alpha=0.5, m=2)
    assert exact == inexact and hash(exact) == hash(inexact)
    for r in (exact, inexact) if first == "exact" else (inexact, exact):
        law_for(r)
    assert type(law_for(exact).pieces[0].lo) is F and law_for(exact).pieces[0].lo == 0
    assert type(law_for(inexact).pieces[0].lo) is float
    assert type(threshold(exact, F(1, 10))) is F and type(threshold(inexact, 0.1)) is float
    assert law_for(Regime(d=1, alpha=F(1, 2), m=2)) is law_for(exact)  # one law per value and type


def test_dispatch_ids():
    ids = [law_for(r).regime_id for r in TEN_REGIMES]
    assert len(set(ids)) == 10


def test_continuity_at_breakpoints_exact():
    for r in TEN_REGIMES:
        law = law_for(r)
        for i, bp in enumerate(law.breakpoints):
            left = law.pieces[i](bp)
            right = law.pieces[i + 1](bp)
            assert left == right, (law.regime_id, bp)  # exact rational identity


def test_pieces_tile_delta_range():
    for r in TEN_REGIMES:
        law = law_for(r)
        assert law.pieces[0].lo == 0
        assert law.pieces[-1].hi == law.delta_max
        for a, b in zip(law.pieces, law.pieces[1:]):
            assert a.hi == b.lo
            assert a.lo < a.hi


def test_ten_laws_have_their_exact_pieces():
    for r, (regime_id, delta_max, pieces) in zip(TEN_REGIMES, TEN_LAWS, strict=True):
        law = law_for(r)
        assert (law.regime_id, law.delta_max) == (regime_id, F(delta_max))
        assert [(p.lo, p.hi, p.slope, p.intercept) for p in law.pieces] == [
            tuple(F(v) for v in row) for row in pieces
        ], regime_id


@given(
    alpha=positive_fractions(1),
    m=st.one_of(st.just(F(2)), positive_fractions(4)),
    d=st.sampled_from([1, 2, 3]),
    lipschitz=st.booleans(),
)
def test_every_law_is_a_convex_tiling_of_its_delta_range(alpha, m, d, lipschitz):
    # an upper envelope of affine bounds: exact tiling, exact continuity,
    # strictly increasing slopes
    if lipschitz:
        regime = Regime(d=d if m == 2 else 1, alpha=1, m=m, smoothness=LIPSCHITZ)
    else:
        regime = Regime(d=1, alpha=alpha, m=m)
    try:
        law = law_for(regime)
    except UnsupportedRegimeError:
        return
    pieces = law.pieces
    assert pieces[0].lo == 0 and pieces[-1].hi == law.delta_max
    assert all(p.lo < p.hi for p in pieces)
    for a, b in zip(pieces, pieces[1:]):
        assert a.hi == b.lo
        assert a(a.hi) == b(b.lo)
        assert a.slope < b.slope


def delta_grid(regime, n, delta_min=0.0, delta_max=None):
    """n uniform deltas in [delta_min, delta_max), delta_max defaulting to the regime's ceiling."""
    ceiling = float(law_for(regime).delta_max)
    hi = ceiling if delta_max is None else float(delta_max)
    lo = float(delta_min)
    if not 0 <= lo < ceiling:
        raise DeltaRangeError(delta_min, ceiling)
    if not lo < hi <= ceiling:
        raise DeltaRangeError(delta_max, ceiling)
    step = (hi - lo) / n
    return [lo + i * step for i in range(n)]


def test_delta_grid_names_the_bound_out_of_range():
    r = Regime(d=1, alpha=0.5, m=2)
    cases = [
        (-0.1, 0.2, -0.1), (0.1, 0.7, 0.7), (0.6, None, 0.6), (0.3, 0.2, 0.2),
        (0.5, None, 0.5), (0.2, 0.2, 0.2),  # empty ranges: delta_max is excluded
    ]
    for lo, hi, bad in cases:
        with pytest.raises(DeltaRangeError) as err:
            delta_grid(r, 4, delta_min=lo, delta_max=hi)
        assert err.value.delta == bad


def test_monotone_nondecreasing_on_grid():
    for r in TEN_REGIMES:
        grid = delta_grid(r, 1000)
        vals = [threshold(r, d) for d in grid]
        assert all(b >= a - 1e-15 for a, b in zip(vals, vals[1:])), law_for(r).regime_id


def test_superunit_m2_reproduces_holder_high_law():
    # the m>1 high-alpha law at m=2 equals the m=2 high-alpha Hölder law
    from curverate.exponents import _regime_law

    alpha = F(3, 4)
    a = _regime_law("holder-high-alpha", 1, alpha, 2)
    b = _regime_law("superunit-m-high-alpha", 1, alpha, F(2))
    for i in range(200):
        d = alpha * i / 200
        assert a(d) == b(d)


@pytest.mark.parametrize("alpha,band", [(F(3, 4), "high"), (F(1, 3), "mid"), (F(1, 5), "low")])
def test_m2_holder_laws_are_the_superunit_laws_at_m2(alpha, band):
    # the three m = 2 Hölder bands are the superunit bands at m = 2, on the same lines
    from curverate.exponents import _regime_law

    holder = law_for(Regime(d=1, alpha=alpha, m=2))
    superunit = _regime_law(f"superunit-m-{band}-alpha", 1, alpha, F(2))
    assert holder.regime_id == f"holder-{band}-alpha"
    assert holder.pieces == superunit.pieces and holder.delta_max == superunit.delta_max
    assert len(holder.pieces) == {"high": 2, "mid": 3, "low": 2}[band]


def test_classify_examples():
    lip = Regime(d=1, alpha=1, m=2, smoothness=LIPSCHITZ)
    assert classify(lip, RatePoint(s=0.5, delta=0.1)) == ABOVE
    assert classify(lip, RatePoint(s=0.25, delta=0.0)) == BOUNDARY
    low = Regime(d=1, alpha=0.2, m=2)
    assert classify(low, RatePoint(s=0.2, delta=0.05)) == BELOW


@given(
    s=st.floats(min_value=0.0, max_value=3.0),
    delta=st.floats(min_value=0.0, max_value=0.69),
    bump=st.floats(min_value=1e-9, max_value=2.0),
)
def test_classify_upward_closure(s, delta, bump):
    r = Regime(d=1, alpha=0.7, m=2)
    if classify(r, RatePoint(s=s, delta=delta)) == ABOVE:
        assert classify(r, RatePoint(s=s + bump, delta=delta)) == ABOVE


def test_region_curve_examples():
    low = Regime(d=1, alpha=F(1, 5), m=2)
    samples, _ = region_curve(low, [F(0), F(1, 10), F(3, 20)])
    assert [s for _, s, _ in samples] == [F(3, 10), F(1, 2), F(3, 4)]

    high = Regime(d=1, alpha=F(3, 4), m=2)
    _, ann = region_curve(high, [])
    corners = [a for a in ann if a["kind"] == "corner"]
    assert corners == [{"kind": "corner", "delta": F(1, 4), "s": F(1, 2)}]

    lip = Regime(d=3, alpha=1, m=2, smoothness=LIPSCHITZ)
    samples, _ = region_curve(lip, [F(0)])
    assert samples == [(F(0), threshold(lip, F(0)), 0)]


def test_region_curve_empty_grid_ok():
    samples, ann = region_curve(Regime(d=1, alpha=0.5, m=2), [])
    assert samples == []
    assert ann[0]["kind"] == "onset"


def test_graph_landmarks_exact_rationals():
    # Lipschitz: s-onset d/(2(d+1)), corner s = d/(d+1)
    for d in (1, 2, 3):
        _, ann = region_curve(Regime(d=d, alpha=1, m=2, smoothness=LIPSCHITZ), [])
        assert ann[0]["s"] == F(d, 2 * (d + 1))
        corner = [a for a in ann if a["kind"] == "corner"][0]
        assert corner["delta"] == F(d, 2 * (d + 1))
        assert corner["s"] == F(d, d + 1)
