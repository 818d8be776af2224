"""Experiment harness: predicted slopes, OLS, round-trips, determinism."""

import json
import math
from dataclasses import fields

import pytest

from curverate import propagator
from curverate.errors import DomainValidationError
from curverate.experiments import (
    ExperimentPlan,
    ScalingReport,
    _NUMERATOR_CACHE,
    fit_loglog,
    run,
    sharpness_sweep,
)
from curverate.maximal import family_spec


def test_predicted_slope_examples():
    assert family_spec("bump-dilated").slope(1, 0.2, 0.05, 0.0, 0.0) == pytest.approx(0.4)
    assert family_spec("indicator-band").slope(1, 0.25, 0.1, 0.0, 0.0) == pytest.approx(0.4)
    assert family_spec("bump-modulated").slope(1, 0.5, 0.0, 0.25, 0.0) == pytest.approx(0.0)
    assert family_spec("bourgain").slope(1, 0.5, 0.1, 0.0, 0.0) == pytest.approx(0.35)
    assert family_spec("bourgain").slope(2, 0.5, 0.0, 0.0, 0.0) == pytest.approx(1.0 / 3.0)
    assert family_spec("bump-tensor").slope(1, 0.5, 0.1, 0.0, 0.1) == pytest.approx(0.25)


def test_predicted_slope_affine_coefficients_exact():
    for family, dds, dss in [
        ("bump-dilated", 2.0, -1.0),
        ("bump-modulated", 2.0, -2.0),
        ("indicator-band", 1.0 / 0.25, -1.0),
        ("bourgain", 1.0, -1.0),
        ("bump-tensor", 2.0, -(1.0 + 0.1)),
    ]:
        base = family_spec(family).slope(1, 0.25, 0.1, 0.2, 0.1)
        assert family_spec(family).slope(1, 0.25, 0.15, 0.2, 0.1) - base == pytest.approx(
            0.05 * dds
        )
        assert family_spec(family).slope(1, 0.25, 0.1, 0.3, 0.1) - base == pytest.approx(
            0.1 * dss
        )
    with pytest.raises(DomainValidationError):
        family_spec("mystery").slope(1, 0.5, 0.0, 0.0, 0.0)


def test_fit_loglog_exact_power_law():
    Rs = [2.0 ** j for j in range(5, 11)]
    for p in (-0.7, 0.0, 0.35, 2.0):
        slope, err = fit_loglog(Rs, [R ** p for R in Rs])
        assert slope == pytest.approx(p, abs=1e-12)
        assert err == pytest.approx(0.0, abs=1e-12)
    with pytest.raises(DomainValidationError):
        fit_loglog([1.0], [1.0])
    with pytest.raises(DomainValidationError):
        fit_loglog([1.0, 2.0], [1.0, -1.0])
    with pytest.raises(DomainValidationError, match="distinct R"):
        fit_loglog([2.0, 2.0, 2.0], [1.0, 2.0, 3.0])


def test_plan_validation():
    with pytest.raises(DomainValidationError):
        ExperimentPlan(family="bump-modulated", alpha=0.5, delta=0.5, s=0.0)  # delta >= alpha
    with pytest.raises(DomainValidationError):
        ExperimentPlan(family="bump-dilated", alpha=0.7, delta=0.1, s=0.0)
    with pytest.raises(DomainValidationError):
        ExperimentPlan(family="bump-modulated", alpha=0.5, delta=0.0, s=0.0, R_sequence=(8.0, 4.0, 16.0, 32.0))
    with pytest.raises(DomainValidationError, match="'nope' is not a counterexample family"):
        ExperimentPlan(family="nope", alpha=0.5, delta=0.0, s=0.0)


@pytest.mark.parametrize("field,value,message", [
    ("c", 0.0, "window constant c=0.0 must be finite and > 0"),
    ("c", -0.1, "window constant c=-0.1 must be finite and > 0"),
    ("c", math.nan, "window constant c=nan must be finite and > 0"),
    ("c", math.inf, "window constant c=inf must be finite and > 0"),
    ("x_points", 64.5, "x_points=64.5 must be an integer >= 128"),
    ("x_points", 127, "x_points=127 must be an integer >= 128"),
    ("points_per_octave", 2.5, "points_per_octave=2.5 must be an integer >= 1"),
    ("points_per_octave", 0, "points_per_octave=0 must be an integer >= 1"),
    ("points_per_octave", True, "points_per_octave=True must be an integer >= 1"),
    ("R_sequence", [8.0, math.nan, 32.0, 64.0], "R=nan in R_sequence must be finite and >= 1"),
    ("R_sequence", [32.0, 64.0, 128.0, math.inf], "R=inf in R_sequence must be finite and >= 1"),
    ("R_sequence", [0.25, 0.5, 1.0, 2.0], "R=0.25 in R_sequence must be finite and >= 1"),
    ("s", math.nan, "s=nan must be finite and >= 0"),
    ("s", math.inf, "s=inf must be finite and >= 0"),
    ("epsilon", math.nan, "epsilon=nan must be finite"),
])
def test_plan_rejects_a_field_out_of_its_range(field, value, message):
    plan = {"family": "indicator-band", "alpha": 0.5, "delta": 0.2, "s": 0.0, field: value}
    with pytest.raises(DomainValidationError) as err:
        ExperimentPlan.from_dict(plan)
    assert str(err.value) == message


@pytest.mark.parametrize("alpha,delta,c", [(0.2, 0.1, 0.0025), (0.15, 0.05, 0.0005),
                                           (0.125, 0.06, 0.0002)])
def test_indicator_band_below_a_quarter_is_consistent(alpha, delta, c):
    # the ladder's tail calibrates the band for every alpha its rule admits, down to 1/8
    report = run(ExperimentPlan(family="indicator-band", alpha=alpha, delta=delta, s=0.0))
    assert report.window_constant == c
    assert report.verdict == "consistent", (report.fitted_slope, report.predicted)


@pytest.mark.parametrize(
    "family,bad_alpha,rule",
    [
        ("bump-dilated", 0.5, "alpha < 1/2"),
        ("bump-modulated", 0.2, "alpha >= 1/4"),
        ("bump-tensor", 0.4, "alpha >= 1/2"),
        ("indicator-band", 0.6, "alpha <= 1/2"),
        ("bourgain", 0.4, "alpha >= 1/2"),
    ],
)
def test_plan_rejects_alpha_outside_the_family_rule(family, bad_alpha, rule):
    with pytest.raises(DomainValidationError) as err:
        ExperimentPlan(family=family, alpha=bad_alpha, delta=0.0, s=0.0)
    assert str(err.value) == f"{family} runs need {rule}"


SMALL_PLAN = ExperimentPlan(
    family="indicator-band",
    alpha=0.5,
    delta=0.2,
    s=0.0,
    R_sequence=(8.0, 16.0, 32.0, 64.0),
    x_points=129,
    points_per_octave=4,
)


def test_run_small_plan_structure_and_roundtrip():
    report = run(SMALL_PLAN)
    assert len(report.samples) == 4
    assert all(r > 0 for _, r in report.samples)
    assert report.verdict in ("consistent", "inconsistent")
    text = report.to_json()
    back = ScalingReport.from_json(text)
    assert back.to_json() == text
    assert back.plan == report.plan
    assert back.samples == report.samples


def test_plan_from_dict_names_unknown_keys():
    data = {**SMALL_PLAN.to_dict(), "mystery": 1, "another": 2}
    with pytest.raises(DomainValidationError, match="^bad plan config: unknown keys another, mystery$"):
        ExperimentPlan.from_dict(data)


@pytest.mark.parametrize("change,named", [
    ({"family": None}, "missing 1 required positional argument: 'family'"),
    ({"alpha": "0.5"}, "not supported between"),
    ({"R_sequence": 5}, "not iterable"),
])
def test_plan_from_dict_turns_a_missing_key_or_a_bad_value_into_a_domain_error(change, named):
    data = {**SMALL_PLAN.to_dict(), **change}
    data = {k: v for k, v in data.items() if v is not None}
    with pytest.raises(DomainValidationError, match="^bad plan config: ") as err:
        ExperimentPlan.from_dict(data)
    assert named in str(err.value)


def test_report_with_a_quadrature_plan_is_rejected_by_name():
    # reports written while the node budget was a plan setting carry plan.quad
    old = json.loads(run(SMALL_PLAN).to_json())
    old["plan"]["quad"] = {"base_nodes": 256, "max_nodes": 2 ** 22, "nodes_per_radian": 5.0 / math.pi}
    with pytest.raises(DomainValidationError, match="^bad plan config: unknown keys quad$"):
        ScalingReport.from_json(json.dumps(old))


def test_run_deterministic_across_cache_clears():
    r1 = run(SMALL_PLAN)
    _NUMERATOR_CACHE.clear()
    r2 = run(SMALL_PLAN)
    assert r1.to_json() == r2.to_json()


def test_run_deterministic_across_worker_counts():
    r1 = run(SMALL_PLAN, workers=1)
    _NUMERATOR_CACHE.clear()
    r2 = run(SMALL_PLAN, workers=4)
    assert r1.to_json() == r2.to_json()


@pytest.mark.parametrize("workers", [0, 1.5, "2"])
def test_a_bad_worker_count_is_rejected_before_any_row(monkeypatch, workers):
    from dataclasses import replace

    from curverate import experiments

    run(SMALL_PLAN)  # its rows are now cached

    def refuse(*args):
        raise AssertionError("a row was computed")

    monkeypatch.setattr(experiments, "_numerator_one_R", refuse)
    for plan in (SMALL_PLAN, replace(SMALL_PLAN, points_per_octave=3)):  # cached, then not
        with pytest.raises(DomainValidationError, match="^workers must be an integer >= 1$"):
            run(plan, workers)
        with pytest.raises(DomainValidationError, match="^workers must be an integer >= 1$"):
            sharpness_sweep(plan, [0.0, 0.3], workers)
    assert run(SMALL_PLAN, 1).samples  # the cached rows serve a good count


def test_a_plan_round_trips_through_its_dict():
    plan = ExperimentPlan(family="bump-tensor", alpha=0.75, delta=0.1, s=0.2, epsilon=0.1, m=2.0,
                          d=1, R_sequence=(32.0, 64.0, 128.0, 256.0), c=0.2, x_points=257,
                          points_per_octave=3)
    data = plan.to_dict()
    assert set(data) == {f.name for f in fields(ExperimentPlan)}
    assert ExperimentPlan.from_dict(data) == plan
    assert ExperimentPlan.from_dict(json.loads(json.dumps(data))) == plan
    assert ExperimentPlan.from_dict(SMALL_PLAN.to_dict()) == SMALL_PLAN


def test_sweep_consistent_with_runs_and_crossing_interpolation():
    s_list = [0.0, 0.3, 0.6]
    rows, crossing = sharpness_sweep(SMALL_PLAN, s_list)
    from dataclasses import replace

    for s, slope in rows:
        direct = run(replace(SMALL_PLAN, s=s))
        assert slope == pytest.approx(direct.fitted_slope, abs=1e-12)
    (s0, m0), (s1, m1) = [(s, m) for s, m in rows if m > 0][-1:] + [
        (s, m) for s, m in rows if m <= 0
    ][:1]
    assert crossing == pytest.approx(s0 + (s1 - s0) * m0 / (m0 - m1))


def test_numerator_cache_is_a_bounded_lru(monkeypatch):
    from collections import OrderedDict
    from dataclasses import replace

    from curverate import experiments

    calls = []

    def stub(plan, c, R):
        calls.append((c, R))
        return {"R": R}

    monkeypatch.setattr(experiments, "_numerator_one_R", stub)
    monkeypatch.setattr(experiments, "_NUMERATOR_CACHE", OrderedDict())
    size, rows = experiments.NUMERATOR_CACHE_SIZE, len(SMALL_PLAN.R_sequence)
    for c in range(size):
        experiments._numerators(SMALL_PLAN, float(c), 1)
    assert len(calls) == size * rows
    # s and the worker count are not part of the key; a hit makes c = 0 the most recent
    experiments._numerators(replace(SMALL_PLAN, s=0.3), 0.0, 2)
    assert len(calls) == size * rows
    experiments._numerators(SMALL_PLAN, float(size), 1)  # evicts c = 1, the least recent
    assert len(experiments._NUMERATOR_CACHE) == size
    calls.clear()
    experiments._numerators(SMALL_PLAN, 0.0, 1)
    assert calls == []
    experiments._numerators(SMALL_PLAN, 1.0, 1)
    assert calls == [(1.0, R) for R in SMALL_PLAN.R_sequence]


def test_importing_the_cli_loads_no_process_pool():
    # pool_map imports the pool when it starts one, so the package import stays light
    import subprocess
    import sys

    code = ("import curverate.cli, sys; "
            "print(sorted(m for m in ('concurrent.futures', 'multiprocessing') if m in sys.modules))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_pool_map_starts_no_more_processes_than_rows(monkeypatch):
    import concurrent.futures
    from collections import OrderedDict

    from curverate import experiments

    asked = []

    class RecordingExecutor:
        def __init__(self, max_workers):
            asked.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingExecutor)
    monkeypatch.setattr(experiments, "_numerator_one_R", lambda plan, c, R: {"R": R})
    monkeypatch.setattr(experiments, "_NUMERATOR_CACHE", OrderedDict())
    rows = experiments._numerators(SMALL_PLAN, 0.0, 8)
    assert asked == [len(SMALL_PLAN.R_sequence)] == [4]
    assert rows == [{"R": R} for R in SMALL_PLAN.R_sequence]
    # one worker, or one row, runs in the calling process
    assert list(experiments.pool_map(abs, [-1.0], 8)) == [1.0]
    assert list(experiments.pool_map(abs, [-1.0, 2.0], 1)) == [1.0, 2.0]
    assert asked == [4]


def capped_plan(monkeypatch):
    """A plan whose node cap, lowered to 2^11 nodes, is exceeded at R = 128.

    The numerator cache is emptied so the rows are computed under that cap;
    pool workers inherit the lowered cap by fork. Its chirp-z windows run a
    quarter of the Gauss-Legendre nodes, so the cap is a quarter of the
    2^13 that the Gauss-Legendre budget exceeded at R = 128.
    """
    monkeypatch.setattr(propagator, "MAX_NODES", 2 ** 11)
    _NUMERATOR_CACHE.clear()
    return ExperimentPlan(
        family="bump-modulated",
        alpha=0.5,
        delta=0.0,
        s=0.0,
        R_sequence=(32.0, 64.0, 128.0, 256.0),
        points_per_octave=4,
    )


def test_run_failure_preserves_partial_diagnostics(monkeypatch):
    from curverate.errors import AccuracyError

    with pytest.raises(AccuracyError) as err:
        run(capped_plan(monkeypatch))
    partial = err.value.partial_diagnostics
    assert 1 <= len(partial) < 4
    assert [row["R"] for row in partial] == [32.0, 64.0][: len(partial)]


def test_run_failure_partial_diagnostics_independent_of_workers(monkeypatch):
    from curverate.errors import AccuracyError

    partials = []
    for workers in (1, 2):
        with pytest.raises(AccuracyError) as err:
            run(capped_plan(monkeypatch), workers)
        assert str(err.value).startswith("node budget ") and "exceeds cap 2048" in str(err.value)
        assert err.value.coarse is None and err.value.fine is None
        partials.append(err.value.partial_diagnostics)
    assert partials[0] == partials[1]

