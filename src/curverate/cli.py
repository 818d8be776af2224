"""Command-line front end.

Exit codes: 0 success, 1 domain/validation error, 2 numerical-accuracy
error. Every JSON report carries a version stamp and the full echoed
configuration; identical argv produce byte-identical primary outputs.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from fractions import Fraction

from . import __version__
from .curves import CurveSpec, MINUS_SHIFT, PLUS_SHIFT, STRAIGHT, verify_regularity
from .errors import AccuracyError, CurverateError, DomainValidationError
from .exponents import HOLDER, LIPSCHITZ, Regime, law_for, region_curve
from .experiments import ExperimentPlan, run as run_experiment, sharpness_sweep
from .initial_data import BUMP_MODULATED, GAUSSIAN_LIKE, FrequencyProfile, gaussian_like, sobolev_norm
from .maximal import (
    LEMMA_REGIMES,
    TimeGrid,
    calibrate_window_constant,
    family_field,
    family_spec,
    lemma_bound,
    lemma_profile,
    rate_ceiling_demo,
)
from .propagator import evaluate
from .reports import csv_text, envelope, write_csv, write_gnuplot, write_report

_CURVES = {"minus": MINUS_SHIFT, "plus": PLUS_SHIFT, "straight": STRAIGHT}


def _maybe_fraction(text: str, flag: str):
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        return _finite(float(text), flag)


def _finite(value: float, flag: str) -> float:
    if not math.isfinite(value):
        raise DomainValidationError(f"{flag} {value} is not finite")
    return value


def float_list(text: str):
    """A comma-separated list flag, such as --s-values 0,0.5."""
    return [float(v) for v in text.split(",")]


def _check_finite(args) -> None:
    """Reject a non-finite value of any float flag, list entries included, before a command runs."""
    for name, value in vars(args).items():
        for v in value if isinstance(value, list) else [value]:
            if isinstance(v, float):
                _finite(v, "x coordinate" if name == "x" else "--" + name.replace("_", "-"))


def _flags(args, **overrides) -> dict:
    """The config a report echoes: every parsed flag but the subcommand words and output paths."""
    skip = {"command", "func", "mode", "out", "csv"}
    return {**{k: v for k, v in vars(args).items() if k not in skip}, **overrides}


def _profile(args, d: int) -> FrequencyProfile:
    """--family's datum, the profile of its kind, at --R and --epsilon in dimension d."""
    if args.family == GAUSSIAN_LIKE:
        return FrequencyProfile(GAUSSIAN_LIKE, d=d)
    family_spec(args.family)  # annulus-bump or an unknown name: 'is not a counterexample family'
    return FrequencyProfile(args.family, d=d, R=float(args.R), epsilon=args.epsilon)


def _emit(args, command: str, config: dict, result: dict) -> None:
    text = write_report(getattr(args, "out", None), envelope(command, config, result))
    sys.stdout.write(text)


# ---------------------------------------------------------------------------
# subcommands


def cmd_exponent(args) -> int:
    regime = Regime(
        d=args.d,
        alpha=_maybe_fraction(args.alpha, "--alpha"),
        m=_maybe_fraction(args.m, "--m"),
        smoothness=args.smoothness,
    )
    law = law_for(regime)
    if args.steps < 1:
        raise DomainValidationError(f"--steps={args.steps} must be at least 1")
    lo = _maybe_fraction(args.delta_min, "--delta-min")
    hi = _maybe_fraction(args.delta_max, "--delta-max")
    if not lo < hi:
        raise DomainValidationError(
            f"--delta-min={args.delta_min} must be below --delta-max={args.delta_max}"
        )
    step = (hi - lo) / args.steps
    deltas = [lo + i * step for i in range(args.steps)]
    samples, annotations = region_curve(regime, deltas)
    rows = [(float(d), float(s), idx) for d, s, idx in samples]
    header = ["delta", "s", "piece_index"]
    if args.mode == "table":
        sys.stdout.write(csv_text(header, rows))
        if args.out:
            write_csv(args.out, header, rows)
        return 0
    result = {
        "regime_id": law.regime_id,
        "delta_max": float(law.delta_max),
        "samples": [[d, s, idx] for d, s, idx in rows],
        "breakpoints": [float(b) for b in law.breakpoints],
        "annotations": [
            {"kind": a["kind"], "delta": float(a["delta"]), "s": float(a["s"])}
            for a in annotations
        ],
    }
    _emit(args, "exponent-region", _flags(args), result)
    if args.out:
        write_csv(args.out.rsplit(".", 1)[0] + ".csv", header, rows)
    return 0


def cmd_curve(args) -> int:
    spec = CurveSpec(_CURVES[args.kind], alpha=args.alpha, d=args.d)
    if args.samples < 1000:
        raise DomainValidationError(f"--samples={args.samples} must be at least 1000")
    n = max(32, math.isqrt(args.samples))  # n^2 >= 1000 point/time pairs
    report = verify_regularity(spec, n_space=n, n_time=n)
    _emit(args, "curve-verify", _flags(args), report.to_dict())
    return 0


def cmd_data(args) -> int:
    profile = _profile(args, args.d)
    result = {
        "support_box": [list(iv) for iv in profile.support_box],
        "sobolev_norms": {str(s): sobolev_norm(profile, s) for s in args.s_values},
    }
    _emit(args, "data-info", _flags(args), result)
    return 0


def cmd_eval(args) -> int:
    profile = _profile(args, 1)
    curve = CurveSpec(_CURVES[args.curve], alpha=args.alpha, d=1)
    sample = evaluate(profile, curve, args.m, args.x, args.t)
    _emit(args, "eval", _flags(args), sample.to_dict())
    return 0


def cmd_maximal(args) -> int:
    if args.j_min is None and args.j_max is None and not args.inject_critical:
        raise DomainValidationError("maximal needs a time grid (--j-min and --j-max) or --inject-critical")
    c = args.c if args.c is not None else calibrate_window_constant(args.family, args.alpha)
    grid = TimeGrid(args.j_min, args.j_max, points_per_octave=args.points_per_octave)
    fld = family_field(
        args.family, args.R, args.alpha, args.epsilon, c, args.m, args.delta, args.x_points, grid,
        args.inject_critical,
    )
    _emit(args, "maximal", _flags(args, c=c), fld.to_dict())
    if args.csv:
        write_csv(
            args.csv,
            ["x", "sup_value", "argmax_t"],
            list(zip(fld.xs.tolist(), fld.sup_values.tolist(), fld.argmax_times.tolist())),
        )
    return 0


def cmd_lemma_check(args) -> int:
    want, holder = LEMMA_REGIMES[args.lemma - 1], args.lemma > 1
    if args.d != 1:
        raise DomainValidationError(
            f"lemma {args.lemma} ({want}) is checked empirically at d = 1 only, not d={args.d}"
        )
    smoothness, alpha = (HOLDER, args.alpha) if holder else (LIPSCHITZ, 1)
    regime = Regime(d=args.d, alpha=alpha, m=2, smoothness=smoothness)
    got = law_for(regime).regime_id
    if got != want:
        raise DomainValidationError(f"--alpha {args.alpha} gives {got}, not lemma {args.lemma}'s {want}")
    curve = CurveSpec(MINUS_SHIFT, alpha=regime.alpha if holder else 1.0, d=1)
    # before lemma_bound, whose 2^k can overflow: lemma_profile rejects a k past 16 first
    empirical = lemma_profile(regime, args.k, [args.j], curve)[float(args.j)]
    bound = lemma_bound(regime, args.k, args.j)
    result = {"empirical": empirical, "bound": bound, "ratio": empirical / bound}
    _emit(args, "lemma-check", _flags(args), result)
    return 0


def _plan_from_args(args) -> ExperimentPlan:
    if args.plan:
        import json

        try:
            with open(args.plan) as fh:
                data = json.load(fh)
        except (OSError, ValueError) as exc:  # no such file, or text that is not JSON
            raise DomainValidationError(f"cannot read plan file {args.plan}: {exc}") from None
        return ExperimentPlan.from_dict(data)
    # only 2^0 .. 2^1023 are valid finite R >= 1: check the powers before
    # building the sequence, whose length is their difference
    for flag, j in (("--R-min-pow", args.R_min_pow), ("--R-max-pow", args.R_max_pow)):
        if j < 0:
            raise DomainValidationError(f"R={math.ldexp(1.0, j)} in R_sequence must be finite and >= 1")
        if j >= sys.float_info.max_exp:
            raise DomainValidationError(f"{flag} {j} overflows a float")
    Rs = tuple(math.ldexp(1.0, j) for j in range(args.R_min_pow, args.R_max_pow + 1))
    return ExperimentPlan(
        family=args.family,
        alpha=args.alpha,
        delta=args.delta,
        s=args.s,
        epsilon=args.epsilon,
        R_sequence=Rs,
        c=args.c,
    )


def cmd_scaling(args) -> int:
    plan = _plan_from_args(args)
    report = run_experiment(plan, args.workers)
    _emit(args, "scaling", plan.to_dict(), report.to_dict())
    base = args.out.rsplit(".", 1)[0] if args.out else None
    if base:
        rows = [
            (R, ratio, math.log2(R), math.log2(ratio))
            for R, ratio in report.samples
        ]
        write_csv(base + ".csv", ["R", "ratio", "log2R", "logratio"], rows)
        write_gnuplot(
            base + ".gp", os.path.basename(base) + ".csv",
            f"{plan.family} scaling", "log2 R", "log2 ratio",
        )
    return 0


def cmd_sweep(args) -> int:
    plan = _plan_from_args(args)
    rows, crossing = sharpness_sweep(plan, args.s_list, args.workers)
    config = plan.to_dict()
    config["s_list"] = args.s_list
    result = {
        "slopes": [[s, m] for s, m in rows],
        "crossing": crossing,
    }
    _emit(args, "sweep", config, result)
    return 0


def cmd_ceiling_demo(args) -> int:
    curve = CurveSpec(MINUS_SHIFT, alpha=args.alpha, d=1)
    profile = gaussian_like()
    pairs, running = rate_ceiling_demo(profile, curve, x_star=args.x_star)
    result = {
        "pairs": [[t, r] for t, r in pairs],
        "running_infimum": running,
        "floor": running[-1],
    }
    _emit(args, "ceiling-demo", _flags(args), result)
    return 0


# ---------------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """Turns an argparse error into the one-line `error:` exit 1 of every other bad input."""

    def error(self, message):
        raise DomainValidationError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="curverate",
        description="Convergence-rate laboratory for Schrodinger evolution along curves.",
    )
    parser.add_argument("--version", action="version", version=f"curverate {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("exponent", help="threshold tables and region curves")
    p.add_argument("mode", choices=["table", "region"])
    p.add_argument("--d", type=int, default=1)
    p.add_argument("--alpha", type=str, default="1")
    p.add_argument("--m", type=str, default="2")
    p.add_argument("--smoothness", choices=[LIPSCHITZ, HOLDER], default=HOLDER)
    p.add_argument("--delta-min", type=str, default="0")
    p.add_argument("--delta-max", type=str, required=True)
    p.add_argument("--steps", type=int, default=32)
    p.add_argument("--out", type=str, default=None)
    p.set_defaults(func=cmd_exponent)

    p = sub.add_parser("curve", help="verify curve regularity")
    p.add_argument("mode", choices=["verify"])
    p.add_argument("--kind", choices=list(_CURVES), required=True)
    p.add_argument("--alpha", type=float, default=1.0)
    p.add_argument("--d", type=int, default=1)
    p.add_argument("--samples", type=int, default=2000)
    p.add_argument("--out", type=str, default=None)
    p.set_defaults(func=cmd_curve)

    p = sub.add_parser("data", help="initial-data info")
    p.add_argument("mode", choices=["info"])
    p.add_argument("--family", required=True)
    p.add_argument("--R", type=float, default=64.0)
    p.add_argument("--epsilon", type=float, default=0.0)
    p.add_argument("--d", type=int, default=1)
    p.add_argument("--s-values", type=float_list, default="0")
    p.add_argument("--out", type=str, default=None)
    p.set_defaults(func=cmd_data)

    p = sub.add_parser("eval", help="evaluate the propagator at one point")
    p.add_argument("--family", required=True)
    p.add_argument("--R", type=float, default=64.0)
    p.add_argument("--epsilon", type=float, default=0.0)
    p.add_argument("--curve", choices=list(_CURVES), default="straight")
    p.add_argument("--alpha", type=float, default=1.0)
    p.add_argument("--m", type=float, default=2.0)
    p.add_argument("--x", type=float, required=True)
    p.add_argument("--t", type=float, required=True)
    p.add_argument("--out", type=str, default=None, help="write the JSON report here")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("maximal", help="rate-weighted maximal field over a window")
    p.add_argument("--family", required=True)
    p.add_argument("--R", type=float, required=True)
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--m", type=float, default=2.0)
    p.add_argument("--delta", type=float, default=0.0)
    p.add_argument("--epsilon", type=float, default=0.0)
    p.add_argument("--x-points", type=int, default=129)
    p.add_argument("--j-min", type=float, default=None)
    p.add_argument("--j-max", type=float, default=None)
    p.add_argument("--points-per-octave", type=int, default=8)
    p.add_argument("--inject-critical", action="store_true")
    p.add_argument("--c", type=float, default=None)
    p.add_argument("--csv", type=str, default=None)
    p.add_argument("--out", type=str, default=None, help="write the JSON report here")
    p.set_defaults(func=cmd_maximal)

    p = sub.add_parser("lemma-check", help="local maximal bound vs empirical value")
    p.add_argument("--lemma", type=int, choices=range(1, len(LEMMA_REGIMES) + 1), required=True,
                   help="1 lipschitz, 2 holder-high-alpha (1/2 <= alpha < 1), 3 holder-low-alpha "
                   "(alpha <= 1/4), 4 holder-mid-alpha (1/4 < alpha < 1/2)")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--j", type=float, required=True)
    p.add_argument("--alpha", type=float, default=0.5)
    p.add_argument("--d", type=int, default=1,
                   help="dimension; the empirical check runs at d = 1, any other value exits 1")
    p.add_argument("--out", type=str, default=None, help="write the JSON report here")
    p.set_defaults(func=cmd_lemma_check)

    for name, fn in (("scaling", cmd_scaling), ("sweep", cmd_sweep)):
        p = sub.add_parser(name, help=f"{name} experiment")
        p.add_argument("--plan", type=str, default=None, help="JSON plan file")
        p.add_argument("--family", default=BUMP_MODULATED)
        p.add_argument("--alpha", type=float, default=0.5)
        p.add_argument("--delta", type=float, default=0.0)
        p.add_argument("--s", type=float, default=0.0)
        p.add_argument("--epsilon", type=float, default=0.0)
        p.add_argument("--c", type=float, default=None)
        p.add_argument("--R-min-pow", type=int, default=5)
        p.add_argument("--R-max-pow", type=int, default=10)
        p.add_argument("--workers", type=int, default=1)
        if name == "sweep":
            p.add_argument("--s-list", type=float_list, required=True)
        p.add_argument("--out", type=str, default=None)
        p.set_defaults(func=fn)

    p = sub.add_parser("ceiling-demo", help="rate-ceiling rigidity demonstration")
    p.add_argument("--alpha", type=float, default=0.5)
    p.add_argument("--x-star", type=float, default=0.3)
    p.add_argument("--out", type=str, default=None, help="write the JSON report here")
    p.set_defaults(func=cmd_ceiling_demo)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        _check_finite(args)
        return args.func(args)
    except SystemExit as exc:  # --help and --version
        return 0 if exc.code in (0, None) else 1
    except AccuracyError as exc:
        sys.stderr.write(f"accuracy error: {exc}\n")
        return 2
    except (CurverateError, DomainValidationError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
