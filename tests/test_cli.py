"""CLI contract: exit codes, report envelopes, determinism."""

import json
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from curverate.reports import loads as load_report


def run_cli(*argv):
    proc = subprocess.run(
        [sys.executable, "-m", "curverate.cli", *argv],
        capture_output=True,
        text=True,
        timeout=600,
    )
    return proc


def test_exponent_table_csv():
    proc = run_cli(
        "exponent", "table", "--d", "1", "--alpha", "1", "--smoothness", "lipschitz",
        "--m", "2", "--delta-min", "0", "--delta-max", "0.9", "--steps", "10",
    )
    assert proc.returncode == 0
    lines = proc.stdout.strip().splitlines()
    assert lines[0] == "delta,s,piece_index"
    assert len(lines) == 11
    first = lines[1].split(",")
    assert float(first[0]) == 0.0 and float(first[1]) == 0.25 and first[2] == "0"


def test_exponent_table_bytes_at_a_fraction_alpha(tmp_path):
    from curverate.reports import csv_text

    want = (
        "delta,s,piece_index\n0.0,0.25,0\n0.05,0.3,0\n0.1,0.36666666666666664,1\n"
        "0.15,0.4666666666666667,1\n0.2,0.6,2\n"
    )
    out = tmp_path / "t.csv"
    proc = run_cli("exponent", "table", "--alpha", "1/3", "--delta-max", "1/4", "--steps", "5",
                   "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == want and out.read_text() == want
    rows = [(float(d), float(s), int(i)) for d, s, i in (line.split(",") for line in want.splitlines()[1:])]
    assert csv_text(["delta", "s", "piece_index"], rows) == want


def test_exponent_region_report(tmp_path):
    out = tmp_path / "region.json"
    proc = run_cli(
        "exponent", "region", "--d", "1", "--alpha", "3/4", "--m", "2",
        "--delta-max", "3/4", "--steps", "8", "--out", str(out),
    )
    assert proc.returncode == 0
    report = load_report(out.read_text())
    assert report["result"]["breakpoints"] == [0.25]
    corners = [a for a in report["result"]["annotations"] if a["kind"] == "corner"]
    assert corners == [{"kind": "corner", "delta": 0.25, "s": 0.5}]


def test_exponent_rejects_out_of_range_delta():
    proc = run_cli(
        "exponent", "table", "--d", "1", "--alpha", "0.5", "--m", "2",
        "--delta-min", "0", "--delta-max", "0.9", "--steps", "4",
    )
    assert proc.returncode == 1


def test_exponent_rejects_zero_steps():
    proc = run_cli("exponent", "table", "--delta-max", "0.5", "--steps", "0")
    assert proc.returncode == 1
    assert proc.stderr.startswith("error:"), proc.stderr


@pytest.mark.parametrize("mode", ["table", "region"])
def test_exponent_rejects_an_empty_delta_range(mode):
    for lo, hi in (("0.3", "0.1"), ("0.2", "0.2")):
        proc = run_cli(
            "exponent", mode, "--alpha", "1/2", "--delta-min", lo, "--delta-max", hi, "--steps", "4",
        )
        assert proc.returncode == 1, proc.stdout
        assert proc.stderr.startswith("error:"), proc.stderr
        assert proc.stdout == ""


def test_readme_cli_commands_parse():
    from curverate.cli import build_parser

    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## CLI", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    commands = [
        shlex.split(line, comments=True)
        for line in block.replace("\\\n", " ").splitlines()
        if line.startswith("curverate ")
    ]
    assert len(commands) == 10
    parser = build_parser()
    for words in commands:
        args = parser.parse_args(words[1:])
        assert callable(args.func), words


@pytest.mark.parametrize("samples", ["-5", "999"])
def test_curve_verify_rejects_fewer_than_a_thousand_samples(samples):
    proc = run_cli("curve", "verify", "--kind", "minus", "--samples", samples)
    assert proc.returncode == 1
    assert proc.stderr == f"error: --samples={samples} must be at least 1000\n" and proc.stdout == ""


def test_curve_verify_takes_a_thousand_samples_on_a_32_by_32_grid():
    # 1000 to 1023 samples round up to the 32 x 32 grid of 1024, which isqrt gives exactly
    low, exact = (run_cli("curve", "verify", "--kind", "minus", "--samples", n)
                  for n in ("1000", "1024"))
    assert low.returncode == exact.returncode == 0, low.stderr
    assert load_report(low.stdout)["result"] == load_report(exact.stdout)["result"]
    assert load_report(low.stdout)["config"]["samples"] == 1000


def test_curve_verify_json():
    proc = run_cli("curve", "verify", "--kind", "minus", "--alpha", "0.5", "--d", "1",
                   "--samples", "1600")
    assert proc.returncode == 0
    report = load_report(proc.stdout)
    assert report["result"]["bilip_lower"] == pytest.approx(1.0, abs=1e-9)
    assert report["result"]["holder_const"] <= 1.0 + 1e-9


def test_data_info():
    proc = run_cli("data", "info", "--family", "indicator-band", "--R", "8", "--s-values", "0,0.5")
    assert proc.returncode == 0
    report = load_report(proc.stdout)
    assert report["result"]["support_box"] == [[8.0, 9.0]]
    assert report["result"]["sobolev_norms"]["0.0"] == pytest.approx(1.0, rel=1e-9)
    tensor = [-(16.0 ** 1.1) - 8.0, -(16.0 ** 1.1) + 8.0]
    for family, d, box in [
        ("bump-dilated", 1, [[-8.0, 8.0]]),
        ("bump-modulated", 1, [[-264.0, -248.0]]),
        ("bump-tensor", 1, [tensor]),
        ("bump-tensor", 2, [tensor, [-0.5, 0.5]]),
        ("indicator-band", 1, [[16.0, 17.0]]),
        ("bourgain", 1, [[12.0, 20.0]]),
        ("bourgain", 2, [[12.0, 20.0], [11.699208415745595, 13.699208415745595]]),
        ("gaussian-like", 1, [[-8.0, 8.0]]),
    ]:
        proc = run_cli(
            "data", "info", "--family", family, "--R", "16", "--epsilon", "0.1", "--d", str(d)
        )
        assert proc.returncode == 0, proc.stderr
        got = load_report(proc.stdout)["result"]["support_box"]
        assert len(got) == len(box), family
        for iv, want in zip(got, box):
            assert iv == pytest.approx(want, rel=1e-12), (family, d)


@pytest.mark.parametrize(
    "family", ["bump-dilated", "bump-modulated", "indicator-band", "gaussian-like"]
)
def test_data_info_rejects_a_dimension_the_family_does_not_take(family):
    proc = run_cli("data", "info", "--family", family, "--R", "16", "--d", "2")
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr == f"error: {family} data are one-dimensional, not d=2\n"


def test_eval_success_and_accuracy_exit_codes():
    ok = run_cli("eval", "--family", "gaussian-like", "--x", "0.3", "--t", "0.2")
    assert ok.returncode == 0
    report = load_report(ok.stdout)
    assert len(report["result"]["value"]) == 2

    # the budget at x = 3e5, t = 1 is past the 2^22-node cap
    hard = run_cli("eval", "--family", "gaussian-like", "--x", "3e5", "--t", "1")
    assert hard.returncode == 2
    assert hard.stderr.startswith("accuracy error: node budget ") and "exceeds cap 4194304" in hard.stderr
    assert "coarse=" not in hard.stderr  # no pass ran, so the error carries no estimates
    assert hard.stderr.rstrip().endswith("[kind=gaussian-like, x=300000.0, t=1.0]")


@pytest.mark.parametrize("m", ["200", "400"])
def test_an_overflowing_dispersion_power_is_a_budget_past_the_cap(m):
    # |xi|^{m - 1} overflows at m = 400: the budget reads inf, past the cap, as at m = 200
    proc = run_cli("eval", "--family", "gaussian-like", "--m", m, "--x", "0.1", "--t", "0.5")
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr.startswith("accuracy error: node budget ") and proc.stderr.count("\n") == 1, proc.stderr
    assert "exceeds cap 4194304" in proc.stderr


def test_a_non_finite_sobolev_norm_exits_two():
    proc = run_cli("data", "info", "--family", "gaussian-like", "--s-values", "1e300")
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr.splitlines()[-1] == (
        "accuracy error: node-doubling self-check failed (coarse=inf, fine=inf) [kind=gaussian-like, s=1e+300]"
    )


@pytest.mark.parametrize("argv", [
    ["--family", "gaussian-like", "--s-values", "1e300"],
    ["--family", "bump-modulated", "--R", "1e8", "--s-values", "40"],
])
def test_an_overflowing_sobolev_norm_is_one_line(argv):
    proc = run_cli("data", "info", *argv)
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr.startswith("accuracy error: node-doubling self-check failed (coarse=")
    assert proc.stderr.count("\n") == 1, proc.stderr


MAXIMAL_GRID = ["maximal", "--family", "indicator-band", "--R", "64", "--alpha", "0.25",
                "--delta", "0.125", "--x-points", "9"]


@pytest.mark.parametrize("argv, message", [
    ([*MAXIMAL_GRID, "--j-min", "1070", "--j-max", "1080", "--points-per-octave", "1"], "j_max=1080.0 must be <= 1074"),
    ([*MAXIMAL_GRID, "--j-min", "16", "--j-max", "1e12"], "j_max=1000000000000.0 must be <= 1074"),
    ([*MAXIMAL_GRID, "--j-min", "16", "--j-max", "18", "--points-per-octave", "1000000000000"],
     "a grid of 2000000000001 times is more than 4194304"),
    ([*MAXIMAL_GRID, "--j-min", "16", "--j-max", "1e300"], "j_max=1e+300 must be <= 1074"),
    (["lemma-check", "--lemma", "2", "--k", "40", "--j", "60", "--alpha", "0.5"], "k=40 is past 16"),
    (["lemma-check", "--lemma", "2", "--k", "10000", "--j", "10000", "--alpha", "0.5"], "k=10000 is past 16"),
])
def test_a_grid_or_window_too_large_to_build_is_one_error_line(argv, message):
    proc = run_cli(*argv)
    assert proc.returncode == 1 and proc.stdout == ""
    assert proc.stderr.startswith(f"error: {message}") and proc.stderr.count("\n") == 1, proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("argv", [
    ["eval", "--family", "indicator-band", "--R", "1e300", "--x", "0.1", "--t", "0.5"],
    ["eval", "--family", "bourgain", "--R", "1e300", "--x", "0.1", "--t", "0.5"],
    ["eval", "--family", "bump-modulated", "--R", "1e17", "--x", "0.5", "--t", "0"],
    ["maximal", "--family", "indicator-band", "--R", "1e17", "--alpha", "0.25", "--inject-critical",
     "--x-points", "9"],
    ["data", "info", "--family", "indicator-band", "--R", "1e17", "--s-values", "0,1"],
    ["eval", "--family", "bump-tensor", "--R", "1e10", "--epsilon", "30", "--x", "0.1", "--t", "0.5"],
])
def test_a_datum_whose_support_rounds_away_is_one_error_line(argv):
    proc = run_cli(*argv)
    assert proc.returncode == 1 and proc.stdout == ""
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1, proc.stderr
    assert "Traceback" not in proc.stderr and " support " in proc.stderr


@pytest.mark.parametrize("x", ["nan", "inf", "-inf"])
def test_eval_rejects_a_non_finite_x(x):
    proc = run_cli("eval", "--family", "gaussian-like", f"--x={x}", "--t", "0.5")
    assert proc.returncode == 1, proc.stderr
    assert proc.stderr == f"error: x coordinate {x} is not finite\n" and proc.stdout == ""


@pytest.mark.parametrize("argv", [
    ["eval", "--family", "gaussian-like", "--x", "0.1", "--t", "0.5", "--m", "nan"],
    ["eval", "--family", "gaussian-like", "--x", "0.1", "--t", "0.5", "--alpha", "nan"],
    ["eval", "--family", "bump-dilated", "--R", "nan", "--x", "0.1", "--t", "0.5"],
    ["maximal", "--family", "indicator-band", "--R", "64", "--alpha", "0.25", "--m", "nan",
     "--j-min", "16", "--j-max", "18", "--x-points", "9"],
    ["maximal", "--family", "indicator-band", "--R", "64", "--alpha", "0.25",
     "--j-min", "nan", "--j-max", "18", "--x-points", "9"],
    ["data", "info", "--family", "bump-modulated", "--R", "nan"],
    ["data", "info", "--family", "bump-dilated", "--R", "inf"],
    ["data", "info", "--family", "bump-dilated", "--s-values", "nan"],
    ["data", "info", "--family", "bump-dilated", "--s-values", "0,inf"],
])
def test_a_non_finite_input_exits_one_with_an_error_line(argv):
    proc = run_cli(*argv)
    assert proc.returncode == 1, proc.stderr
    assert proc.stderr.startswith("error:") and proc.stderr.count("\n") == 1, proc.stderr
    assert proc.stdout == ""


@pytest.mark.parametrize("argv,flag,value", [
    (["data", "info", "--family", "gaussian-like", "--R", "nan"], "--R", "nan"),
    (["maximal", "--family", "indicator-band", "--R", "64", "--alpha", "0.25", "--j-min", "16",
      "--j-max", "18", "--x-points", "9", "--epsilon", "nan"], "--epsilon", "nan"),
    (["maximal", "--family", "indicator-band", "--R", "64", "--alpha", "0.25", "--j-min", "16",
      "--j-max", "18", "--x-points", "9", "--c", "nan"], "--c", "nan"),
    (["eval", "--family", "gaussian-like", "--x", "0.1", "--t", "inf"], "--t", "inf"),
    (["lemma-check", "--lemma", "2", "--k", "3", "--j", "nan"], "--j", "nan"),
    (["ceiling-demo", "--x-star=-inf"], "--x-star", "-inf"),
    (["curve", "verify", "--kind", "minus", "--alpha", "nan"], "--alpha", "nan"),
    (["exponent", "table", "--alpha", "nan", "--delta-max", "0.5"], "--alpha", "nan"),
    (["sweep", "--family", "indicator-band", "--alpha", "0.25", "--delta", "0.125",
      "--s-list", "0,nan"], "--s-list", "nan"),
    (["scaling", "--family", "indicator-band", "--alpha", "0.25", "--delta", "0.125",
      "--s", "nan"], "--s", "nan"),
])
def test_a_non_finite_flag_exits_one_naming_the_flag(argv, flag, value):
    # checked where the flags are parsed, also for flags the family never reads
    proc = run_cli(*argv)
    assert proc.returncode == 1, proc.stderr
    assert proc.stderr == f"error: {flag} {value} is not finite\n" and proc.stdout == ""


MAXIMAL_BAND = ["maximal", "--family", "indicator-band", "--R", "64", "--alpha", "0.25",
                "--delta", "0.125", "--j-min", "16", "--j-max", "18", "--x-points", "9"]


@pytest.mark.parametrize("argv,flag", [
    (["eval", "--family", "gaussian-like", "--x", "0.3", "--t", "0.2"], ["--curve", "minus"]),
    (MAXIMAL_BAND, ["--points-per-octave", "2"]),
    (MAXIMAL_BAND, ["--epsilon", "0.1"]),
    (MAXIMAL_BAND, ["--inject-critical"]),
    (["lemma-check", "--lemma", "2", "--k", "3", "--j", "4"], ["--alpha", "0.75"]),
    (["ceiling-demo"], ["--x-star", "0.2"]),
])
def test_reports_echo_every_argument_that_changes_them(argv, flag):
    plain, flagged = run_cli(*argv), run_cli(*argv, *flag)
    assert plain.returncode == flagged.returncode == 0, flagged.stderr
    assert load_report(plain.stdout)["config"] != load_report(flagged.stdout)["config"]


@pytest.mark.parametrize("argv", [
    ["exponent", "region", "--alpha", "1/2", "--delta-max", "1/4", "--steps", "4"],
    ["curve", "verify", "--kind", "plus", "--alpha", "0.5", "--samples", "1024"],
    ["data", "info", "--family", "bump-tensor", "--d", "2", "--s-values", "0,0.5"],
    ["eval", "--family", "gaussian-like", "--x", "0.3", "--t", "0.2", "--curve", "minus"],
    [*MAXIMAL_BAND, "--inject-critical", "--csv", "field.csv"],
    [*MAXIMAL_BAND, "--c", "0.1"],
    ["lemma-check", "--lemma", "2", "--k", "3", "--j", "4"],
    ["ceiling-demo", "--x-star", "0.2"],
], ids=["exponent-region", "curve-verify", "data-info", "eval", "maximal-calibrated-c",
        "maximal-given-c", "lemma-check", "ceiling-demo"])
def test_a_report_config_is_its_parsed_flags(argv, tmp_path, monkeypatch, capsys):
    from curverate.cli import build_parser, main
    from curverate.maximal import calibrate_window_constant

    monkeypatch.chdir(tmp_path)
    argv = [*argv, "--out", "report.json"]
    assert main(argv) == 0
    config = load_report(capsys.readouterr().out)["config"]
    flags = vars(build_parser().parse_args(argv))
    want = {k: v for k, v in flags.items() if k not in ("command", "func", "mode", "out", "csv")}
    if flags["command"] == "maximal" and flags["c"] is None:  # the calibrated constant
        want["c"] = calibrate_window_constant(flags["family"], flags["alpha"])
    assert config == json.loads(json.dumps(want))
    assert "c" not in want or config["c"] is not None


def test_scaling_validation_exit_code():
    proc = run_cli(
        "scaling", "--family", "bump-modulated", "--alpha", "0.5", "--delta", "0.6", "--s", "0",
    )
    assert proc.returncode == 1


def test_lemma_check_runs():
    proc = run_cli("lemma-check", "--lemma", "2", "--k", "5", "--j", "7", "--alpha", "0.5")
    assert proc.returncode == 0
    report = load_report(proc.stdout)
    res = report["result"]
    assert res["bound"] == pytest.approx(2.0 ** 0.75)
    assert res["ratio"] == pytest.approx(res["empirical"] / res["bound"])


@pytest.mark.parametrize("lemma,alpha,k,j,regime", [
    ("1", "0.5", "3", "4", "lipschitz"),
    ("2", "0.5", "3", "4", "holder-high-alpha"),
    ("3", "0.25", "3", "7", "holder-low-alpha"),
    ("4", "0.3", "3", "5", "holder-mid-alpha"),
])
def test_lemma_check_runs_the_bound_of_its_lemma(lemma, alpha, k, j, regime):
    from curverate.exponents import HOLDER, LIPSCHITZ, Regime
    from curverate.maximal import lemma_bound

    proc = run_cli("lemma-check", "--lemma", lemma, "--k", k, "--j", j, "--alpha", alpha)
    assert proc.returncode == 0, proc.stderr
    smoothness = LIPSCHITZ if regime == "lipschitz" else HOLDER
    want = Regime(d=1, alpha=1 if lemma == "1" else float(alpha), m=2, smoothness=smoothness)
    assert load_report(proc.stdout)["result"]["bound"] == lemma_bound(want, int(k), float(j))


@pytest.mark.parametrize("lemma,alpha,j,got", [
    ("3", "0.5", "5", "holder-high-alpha"),
    ("4", "0.5", "4", "holder-high-alpha"),
    ("2", "0.25", "7", "holder-low-alpha"),
    ("2", "0.3", "4", "holder-mid-alpha"),
    ("4", "0.25", "7", "holder-low-alpha"),
])
def test_lemma_check_rejects_an_alpha_of_another_regime(lemma, alpha, j, got):
    want = ("holder-high-alpha", "holder-low-alpha", "holder-mid-alpha")[int(lemma) - 2]
    proc = run_cli("lemma-check", "--lemma", lemma, "--k", "3", "--j", j, "--alpha", alpha)
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert want in proc.stderr and got in proc.stderr, proc.stderr


@pytest.mark.parametrize("lemma,alpha", [("2", "0.5"), ("3", "0.25"), ("4", "0.3")])
def test_lemma_check_rejects_d_above_one_for_the_holder_lemmas(lemma, alpha):
    proc = run_cli("lemma-check", "--lemma", lemma, "--k", "3", "--j", "6", "--alpha", alpha,
                   "--d", "2")
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert f"lemma {lemma} " in proc.stderr and "d=2" in proc.stderr, proc.stderr


def test_lemma_check_rejects_d_above_one_for_the_lipschitz_lemma_before_any_work():
    # j = 100 is outside [k, 2k], so reaching the bound would fail differently
    proc = run_cli("lemma-check", "--lemma", "1", "--k", "3", "--j", "100", "--d", "2")
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert "lemma 1 (lipschitz)" in proc.stderr and "d=2" in proc.stderr, proc.stderr


def test_scaling_small_plan_with_files(tmp_path):
    plan = {
        "family": "indicator-band",
        "alpha": 0.5,
        "delta": 0.2,
        "s": 0.0,
        "R_sequence": [8.0, 16.0, 32.0, 64.0],
        "points_per_octave": 4,
    }
    plan_path = tmp_path / "plan.json"
    plan_path.write_text(json.dumps(plan))
    out = tmp_path / "report.json"
    proc = run_cli("scaling", "--plan", str(plan_path), "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    report = load_report(out.read_text())
    assert report["result"]["verdict"] in ("consistent", "inconsistent")
    csv_lines = (tmp_path / "report.csv").read_text().strip().splitlines()
    assert csv_lines[0] == "R,ratio,log2R,logratio"
    assert len(csv_lines) == 5
    assert (tmp_path / "report.gp").exists()

    # byte-identical reruns
    out2 = tmp_path / "report2.json"
    proc2 = run_cli("scaling", "--plan", str(plan_path), "--out", str(out2))
    assert proc2.returncode == 0
    assert out.read_text() == out2.read_text()


def test_scaling_rejects_unknown_plan_keys(tmp_path):
    plan_path = tmp_path / "plan.json"
    plan_path.write_text(json.dumps({"family": "indicator-band", "alpha": 0.5, "delta": 0.1,
                                     "s": 0.0, "mystery_knob": 3}))
    proc = run_cli("scaling", "--plan", str(plan_path))
    assert proc.returncode == 1


@pytest.mark.parametrize("key,value", [("panel_order", 16), ("self_check", False)])
def test_plan_file_rejects_the_dropped_quadrature_keys(tmp_path, key, value):
    # the node budget is no plan setting: a quad key of any content is unknown
    plan = {"family": "indicator-band", "alpha": 0.5, "delta": 0.2, "s": 0.0,
            "R_sequence": [8.0, 16.0, 32.0, 64.0], "quad": {"base_nodes": 256, key: value}}
    (tmp_path / "plan.json").write_text(json.dumps(plan))
    proc = run_cli("scaling", "--plan", str(tmp_path / "plan.json"))
    assert proc.returncode == 1
    assert proc.stderr == "error: bad plan config: unknown keys quad\n", proc.stderr


SMALL_PLAN = {"family": "indicator-band", "alpha": 0.5, "delta": 0.2, "s": 0.0,
              "R_sequence": [8.0, 16.0, 32.0, 64.0], "points_per_octave": 4}


def record_workers(monkeypatch):
    """Patch the CLI's run and sweep to note the worker count each gets, then run on one."""
    from curverate import cli

    seen = []
    for name in ("run_experiment", "sharpness_sweep"):
        def call(*args, fn=getattr(cli, name)):
            seen.append(args[-1])
            return fn(*args[:-1])
        monkeypatch.setattr(cli, name, call)
    return seen


def test_the_worker_flag_reaches_run_under_a_plan_file(tmp_path, monkeypatch, capsys):
    from curverate.cli import main

    seen = record_workers(monkeypatch)
    plan = tmp_path / "plan.json"
    plan.write_text(json.dumps(SMALL_PLAN))
    assert main(["scaling", "--plan", str(plan), "--workers", "4"]) == 0
    assert main(["sweep", "--plan", str(plan), "--workers", "4", "--s-list", "0,0.3"]) == 0
    assert main(["scaling", "--plan", str(plan)]) == 0
    assert seen == [4, 4, 1]


def test_the_worker_environment_variable_changes_no_output(tmp_path, monkeypatch, capsys):
    from curverate.cli import main

    seen = record_workers(monkeypatch)
    plan = tmp_path / "plan.json"
    plan.write_text(json.dumps(SMALL_PLAN))
    outputs = []
    for value in (None, "4", "0", "abc"):
        if value is None:
            monkeypatch.delenv("CURVERATE_WORKERS", raising=False)
        else:
            monkeypatch.setenv("CURVERATE_WORKERS", value)
        for argv in (["scaling", "--plan", str(plan)],
                     ["sweep", "--plan", str(plan), "--s-list", "0,0.3"]):
            assert main(argv) == 0
            outputs.append(capsys.readouterr())
    assert outputs[0::2] == outputs[:1] * 4 and outputs[1::2] == outputs[1:2] * 4
    assert seen == [1] * 8


def test_plan_file_without_R_sequence_takes_the_default(tmp_path):
    from curverate.cli import _plan_from_args, build_parser
    from curverate.experiments import ExperimentPlan

    plan = {"family": "indicator-band", "alpha": 0.5, "delta": 0.2, "s": 0.0}
    default = tuple(float(2 ** j) for j in range(5, 11))
    assert ExperimentPlan.from_dict(plan).R_sequence == default
    (tmp_path / "plan.json").write_text(json.dumps(plan))
    args = build_parser().parse_args(["scaling", "--plan", str(tmp_path / "plan.json")])
    assert _plan_from_args(args).R_sequence == default


@pytest.mark.parametrize("argv", [
    ["eval", "--family", "gaussian-like", "--x", "0", "--t", "0.1", "--quad-base-nodes", "64"],
    ["maximal", "--family", "bump-modulated", "--R", "64", "--alpha", "0.5",
     "--quad-nodes-per-radian", "2"],
    ["lemma-check", "--lemma", "2", "--k", "6", "--j", "8", "--quad-max-nodes", "128"],
    ["ceiling-demo", "--quad-base-nodes", "64"],
])
def test_quad_flags_are_rejected(argv):
    # the node budget is fixed: no command takes a --quad-* flag
    proc = run_cli(*argv)
    assert proc.returncode == 1 and proc.stdout == ""
    assert proc.stderr.startswith("error: unrecognized arguments: --quad-"), proc.stderr
    assert proc.stderr.count("\n") == 1


def test_maximal_field_command(tmp_path):
    csv = tmp_path / "field.csv"
    proc = run_cli(
        "maximal", "--family", "indicator-band", "--R", "64", "--alpha", "0.5",
        "--delta", "0.1", "--x-points", "129", "--inject-critical", "--csv", str(csv),
    )
    assert proc.returncode == 0, proc.stderr
    report = load_report(proc.stdout)
    res = report["result"]
    assert len(res["sup_values"]) == 129
    assert all(v > 0 for v in res["sup_values"])
    assert res["delta"] == 0.1
    lines = csv.read_text().strip().splitlines()
    assert lines[0] == "x,sup_value,argmax_t" and len(lines) == 130


@pytest.mark.parametrize("n", ["0", "-3"])
def test_maximal_rejects_an_empty_window(n):
    proc = run_cli(
        "maximal", "--family", "indicator-band", "--R", "64", "--alpha", "0.25",
        "--delta", "0.125", "--j-min", "16", "--j-max", "18", "--x-points", n,
    )
    assert proc.returncode == 1, proc.stderr
    assert proc.stderr == "error: maximal_field needs at least one point\n" and proc.stdout == ""


def test_maximal_rejects_an_alpha_outside_the_family_rule():
    proc = run_cli(
        "maximal", "--family", "bump-modulated", "--R", "64", "--alpha", "0.1", "--x-points", "5",
        "--inject-critical",
    )
    assert proc.returncode == 1, proc.stderr
    assert proc.stderr == "error: bump-modulated runs need alpha >= 1/4\n" and proc.stdout == ""


def test_maximal_checks_the_alpha_rule_before_it_calibrates():
    proc = run_cli(
        "maximal", "--family", "bump-dilated", "--R", "64", "--alpha", "0.6", "--j-min", "2",
        "--j-max", "4", "--x-points", "5",
    )
    assert proc.returncode == 1
    assert proc.stderr == "error: bump-dilated runs need alpha < 1/2\n" and proc.stdout == ""


def test_data_info_rejects_a_bourgain_plane_without_a_lattice_point():
    proc = run_cli("data", "info", "--family", "bourgain", "--d", "2", "--R", "1")
    assert proc.returncode == 1
    assert proc.stderr == "error: bourgain d = 2 has no lattice point at R=1.0\n" and proc.stdout == ""


def test_maximal_without_times_fails_before_any_work(monkeypatch, capsys):
    from curverate import cli

    def refuse(*args, **kwargs):
        raise AssertionError("maximal ran without a time grid or critical times")

    monkeypatch.setattr(cli, "calibrate_window_constant", refuse)
    monkeypatch.setattr(cli, "family_field", refuse)
    argv = ["maximal", "--family", "bourgain", "--R", "64", "--alpha", "0.5", "--x-points", "17"]
    assert cli.main(argv) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: maximal needs a time grid (--j-min and --j-max) or --inject-critical\n"
    proc = run_cli(*argv)
    assert proc.returncode == 1 and proc.stderr == err and proc.stdout == ""


@pytest.mark.parametrize("argv,c", [
    (["scaling", "--family", "indicator-band", "--alpha", "0.25", "--delta", "0.1", "--c", "0"], 0.0),
    (["sweep", "--family", "indicator-band", "--alpha", "0.25", "--delta", "0.1", "--c", "-0.1",
      "--s-list", "0,0.5"], -0.1),
    (["maximal", "--family", "indicator-band", "--R", "64", "--alpha", "0.25", "--c", "-0.01",
      "--j-min", "16", "--j-max", "18", "--x-points", "9"], -0.01),
])
def test_a_window_constant_at_or_below_zero_is_one_error_line(argv, c, monkeypatch, capsys):
    from curverate import cli, maximal

    def refuse(*args, **kwargs):
        raise AssertionError("a kernel ran")

    for kernel in ("batch_values", "certified_value", "point_values"):
        monkeypatch.setattr(maximal, kernel, refuse)
    assert cli.main(argv) == 1
    out, err = capsys.readouterr()
    assert out == "" and err == f"error: window constant c={c} must be finite and > 0\n"


def test_a_plan_file_with_a_fractional_worker_count_exits_one(tmp_path):
    # the worker count is no plan setting: a workers key of any value is unknown
    for workers in (1.5, 4):
        plan = {"family": "indicator-band", "alpha": 0.5, "delta": 0.2, "s": 0.0, "workers": workers}
        (tmp_path / "plan.json").write_text(json.dumps(plan))
        proc = run_cli("scaling", "--plan", str(tmp_path / "plan.json"))
        assert proc.returncode == 1
        assert proc.stderr == "error: bad plan config: unknown keys workers\n" and proc.stdout == ""


@pytest.mark.parametrize("argv", [
    ["scaling", "--family", "indicator-band", "--alpha", "0.25", "--delta", "0.1", "--workers", "0"],
    ["sweep", "--family", "indicator-band", "--alpha", "0.25", "--delta", "0.1", "--workers", "-3",
     "--s-list", "0,0.5"],
])
def test_a_worker_count_below_one_is_one_error_line(argv, monkeypatch, capsys):
    from curverate import cli, experiments

    def refuse(*args, **kwargs):
        raise AssertionError("a row was computed")

    monkeypatch.setattr(experiments, "_numerator_one_R", refuse)
    assert cli.main(argv) == 1
    out, err = capsys.readouterr()
    assert out == "" and err == "error: workers must be an integer >= 1\n"


@pytest.mark.parametrize("text,message", [
    (None, "No such file or directory"),
    ('{"family": "indicator-band", "alpha": 0.5,', "Expecting property name"),
    ("[1, 2]", None),
])
def test_a_plan_file_that_is_not_a_plan_object_is_one_error_line(tmp_path, text, message):
    path = tmp_path / "plan.json"
    if text is not None:
        path.write_text(text)
    proc = run_cli("scaling", "--plan", str(path))
    assert proc.returncode == 1 and proc.stdout == ""
    assert proc.stderr.count("\n") == 1 and "Traceback" not in proc.stderr, proc.stderr
    if message is None:
        assert proc.stderr == "error: bad plan config: list is not an object\n"
    else:
        assert proc.stderr.startswith(f"error: cannot read plan file {path}: ")
        assert message in proc.stderr


@pytest.mark.parametrize("field,message", [
    ('"x_points": 64.5', "x_points=64.5 must be an integer >= 128"),
    ('"points_per_octave": 2.5', "points_per_octave=2.5 must be an integer >= 1"),
    ('"R_sequence": [8, NaN, 32, 64]', "R=nan in R_sequence must be finite and >= 1"),
    ('"R_sequence": [32, 64, 128, 1e400]', "R=inf in R_sequence must be finite and >= 1"),
])
def test_a_plan_field_out_of_range_fails_before_any_work(tmp_path, field, message, monkeypatch, capsys):
    from curverate import cli, maximal

    def refuse(*args, **kwargs):
        raise AssertionError("a kernel ran")

    for kernel in ("batch_values", "certified_value", "point_values"):
        monkeypatch.setattr(maximal, kernel, refuse)
    path = tmp_path / "plan.json"
    path.write_text('{"family": "indicator-band", "alpha": 0.5, "delta": 0.2, "s": 0.0, %s}' % field)
    assert cli.main(["scaling", "--plan", str(path)]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err == f"error: {message}\n"


@pytest.mark.parametrize("flags,message", [
    (["--R-min-pow", "-2"], "R=0.25 in R_sequence must be finite and >= 1"),
    (["--R-max-pow", "1100"], "--R-max-pow 1100 overflows a float"),
])
def test_an_R_power_out_of_range_is_one_error_line(flags, message):
    proc = run_cli("scaling", "--family", "indicator-band", "--alpha", "0.25", "--delta", "0.1", *flags)
    assert proc.returncode == 1
    assert proc.stderr == f"error: {message}\n" and proc.stdout == ""


@pytest.mark.parametrize("flags,message", [
    (["--R-min-pow", "-3000000", "--R-max-pow", "10"], "R=0.0 in R_sequence must be finite and >= 1"),
    (["--R-min-pow", "2000", "--R-max-pow", "3000000"], "--R-min-pow 2000 overflows a float"),
])
def test_an_R_power_range_is_checked_before_its_sequence_is_built(capsys, flags, message):
    # the sequence would hold one float per power: millions of them here
    import tracemalloc

    from curverate import cli

    tracemalloc.start()
    try:
        assert cli.main(["scaling", "--family", "indicator-band", "--alpha", "0.25", "--delta", "0.1", *flags]) == 1
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    out, err = capsys.readouterr()
    assert out == "" and err == f"error: {message}\n"
    assert peak < 2 ** 20


def test_ceiling_demo():
    proc = run_cli("ceiling-demo", "--alpha", "0.5", "--x-star", "0.3")
    assert proc.returncode == 0
    report = load_report(proc.stdout)
    assert report["result"]["floor"] > 0.0


def test_unknown_flag_exits_one():
    proc = run_cli("eval", "--frobnicate", "1")
    assert proc.returncode == 1
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1, proc.stderr


@pytest.mark.parametrize("argv,stderr", [
    (["eval", "--family", "gaussian-like", "--x", "abc", "--t", "0.5"],
     "error: argument --x: invalid float value: 'abc'\n"),
    (["data", "info", "--family", "bump-dilated", "--s-values", "0,x"],
     "error: argument --s-values: invalid float_list value: '0,x'\n"),
    (["eval", "--family", "gaussian-like", "--t", "0.5"],
     "error: the following arguments are required: --x\n"),
    (["eval", "--family", "gaussian-like", "--x", "0.1", "--t", "0.5", "--frobnicate", "1"],
     "error: unrecognized arguments: --frobnicate 1\n"),
    (["frobnicate"], None),
])
def test_a_parse_error_is_one_error_line(argv, stderr):
    proc = run_cli(*argv)
    assert proc.returncode == 1 and proc.stdout == ""
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1, proc.stderr
    assert stderr is None or proc.stderr == stderr


@pytest.mark.parametrize("argv,stdout", [(["--version"], "curverate "), (["eval", "--help"], "usage: ")])
def test_help_and_version_exit_zero(argv, stdout):
    proc = run_cli(*argv)
    assert proc.returncode == 0 and proc.stdout.startswith(stdout) and proc.stderr == ""
