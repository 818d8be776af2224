"""curverate benchmark: one workload, one seed, timed passes, checked outputs.

Run from the repository root (the package is used from `src/`, not
installed):

    python3 perfbench/run.py --workload scaling --seed 1 --seconds 55 --trace 0

Workloads are `scaling` and `lemma` (see workloads.py for why each
exists). The process pins BLAS/OpenMP to one thread before numpy is
imported. After set-up it repeats one pass of the workload for as many
whole passes as fit in `--seconds` (at least one). The last line of stdout
is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

`--trace 0` reports the end-to-end metrics (untraced):
  wall_s       wall seconds of one pass (median over the run's passes)
  cpu_s        user + sys seconds of the process and its children per
               pass (median)
  setup_s      process start to ready: importing curverate, generating
               the seeded inputs and filling the lazy caches; the median
               over 3 to 9 fresh processes
  peak_rss_mb  peak resident memory of this process plus that of its
               largest child (the pool workers of `scaling`)
  oracle_worst worst error / tolerance over the output checks (> 1 fails)
The fail ratio (failed / attempted operations) is carried by the
top-level `attempted` and `failed` fields and printed as `fail_ratio`.

`--trace 1` alternates untraced and traced passes and reports the
per-layer counters of one pass, self times as medians over traced passes,
and `trace.overhead_s` (traced minus untraced pass wall time). The
pointwise samples of `scaling` use one worker here so that their work
stays in the traced process.

Each run writes its result, with the environment it ran in, to
`.perfbench_out/result-*.json` (and a traced run its spans to
`spans-*.json`); `summarize.py` reports medians and tail percentiles
over those files.

`--smoke` shrinks every workload for a quick self-test; its numbers are
not comparable with full runs.

Exit status is 0 on a completed run (check `correct`) and non-zero
without a result line when the package source is missing or a pass
crashes.
"""

import os

# pin BLAS/OpenMP before numpy is imported, here and in every child
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import platform
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench_out")
SETUP_PROBES = (3, 9)    # at least 3, then more while under SETUP_BUDGET_S
SETUP_BUDGET_S = 3.0

END_TO_END_UNITS = {
    "wall_s": "s",
    "cpu_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "oracle_worst": "ratio",
}

# per-layer metric -> unit; layers a workload never calls read 0
PER_LAYER_UNITS = {}
for _layer, _extra in (
    ("quadrature.panel_nodes", ("nodes",)),
    ("propagator.certified_value", ("nodes",)),
    ("propagator.evaluate", ()),
    ("propagator.evaluate_grid", ("samples", "failures")),
    ("propagator.batch_values", ("samples", "nodes", "table_exp")),
    ("propagator.batch_initial", ("points",)),
    ("maximal.maximal_field", ()),
    ("maximal.critical_time", ()),
    ("maximal.lemma_profile", ()),
    ("initial_data.sobolev_norm", ()),
    ("experiments.run", ()),
    ("experiments.sharpness_sweep", ()),
):
    PER_LAYER_UNITS[_layer + ".calls"] = "count"
    PER_LAYER_UNITS[_layer + ".self_s"] = "s"
    for _name in _extra:
        PER_LAYER_UNITS[f"{_layer}.{_name}"] = "count"
PER_LAYER_UNITS.update({
    "maximal.refine.evals": "count",
    "maximal.refine.s": "s",
    "maximal.inject.calls": "count",
    "maximal.inject.s": "s",
    "experiments.numerator_cache.hit_ratio": "ratio",
    "trace.overhead_s": "s",
})


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=("scaling", "lemma"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="small inputs for a quick self-test")
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def is_time(metric):
    return metric.endswith(("_s", ".s"))


def nproc():
    return len(os.sched_getaffinity(0))


def environment(args, workers):
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):  # older numpy has no dict mode
        blas_name = "unknown"
    return {
        "nproc": nproc(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas_name,
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "workers": workers,
        "workload": args.workload,
        "seed": args.seed,
        "pythonpath": "src",
        "note": "single-thread speed of shared 2-core hosts drifts by 10-50% over "
                "seconds to minutes; times are medians over passes",
    }


def setup_seconds(args):
    """Median process-start-to-ready time over fresh interpreter processes."""
    cmd = [sys.executable, os.path.abspath(__file__), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed), "--seconds", "0"]
    if args.smoke:
        cmd.append("--smoke")
    times = []
    least, most = SETUP_PROBES
    while len(times) < least or (sum(times) < SETUP_BUDGET_S and len(times) < most):
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, cwd=ROOT)
        with proc:
            line = proc.stdout.readline()
            ready = time.perf_counter() - t0
            proc.stdout.read()
        if proc.returncode != 0 or line.strip() != b"ready":
            raise RuntimeError(f"set-up probe failed with status {proc.returncode}")
        times.append(ready)
    return statistics.median(times)


def cpu_seconds():
    """User + sys seconds of this process and of its waited-for children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def timed_pass(workload, workers, tracer=None):
    c0, w0 = cpu_seconds(), time.perf_counter()
    if tracer is None:
        result = workload.run_pass(workers)
    else:
        tracer.reset_counters()
        with tracer:
            result = workload.run_pass(workers)
    wall = time.perf_counter() - w0
    return result, wall, cpu_seconds() - c0


def peak_rss_mb():
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024.0  # ru_maxrss is in KiB on Linux


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "curverate")):
        print(f"curverate source not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import workloads

    workload = workloads.WORKLOADS[args.workload](args.seed, smoke=args.smoke)
    workload.warm()
    if args.setup_probe:
        print("ready", flush=True)
        return 0

    workers = 1 if args.trace else nproc()
    tracer = None
    if args.trace:
        from spans import Tracer

        tracer = Tracer()

    results, walls, cpus, traced_walls, layer_runs = [], [], [], [], []
    t_start = time.perf_counter()
    while True:
        traced = tracer is not None and len(walls) > len(traced_walls)
        result, wall, cpu = timed_pass(workload, workers, tracer if traced else None)
        results.append(result)
        if traced:
            tracer.task += 1
            traced_walls.append(wall)
            layer_runs.append(tracer.snapshot())
        else:
            walls.append(wall)
            cpus.append(cpu)
        # stop before a pass that would end after --seconds
        elapsed = time.perf_counter() - t_start
        typical = statistics.median(walls + traced_walls)
        need_traced = tracer is not None and not traced_walls
        if elapsed + typical > args.seconds and not need_traced:
            break
    rss = peak_rss_mb()

    attempted = sum(r.attempted for r in results)
    failed = sum(r.failed for r in results)
    worst = max(r.worst for r in results)
    correct = all(r.correct for r in results)
    for r in results:
        for line in r.failures:
            print(f"failure: {line}")
    env = environment(args, workers)
    env["passes"] = len(walls) + len(traced_walls)
    env["pass_wall_s"] = walls
    env["pass_cpu_s"] = cpus
    os.makedirs(OUT_DIR, exist_ok=True)
    tag = f"{args.workload}-{args.seed}-trace{args.trace}-{os.getpid()}"

    if tracer is None:
        values = {
            "wall_s": statistics.median(walls),
            "cpu_s": statistics.median(cpus),
            "setup_s": setup_seconds(args),
            "peak_rss_mb": rss,
            "oracle_worst": worst,
        }
        units = END_TO_END_UNITS
    else:
        # counts repeat exactly from pass to pass; times are medians
        counts = [{k: v for k, v in run.items() if not is_time(k)} for run in layer_runs]
        if any(c != counts[0] for c in counts):
            print("failure: per-layer counts differ between traced passes")
            correct = False
        values = {
            name: statistics.median(run.get(name, 0.0) for run in layer_runs)
            if is_time(name) else counts[0].get(name, 0)
            for name in PER_LAYER_UNITS
        }
        values["trace.overhead_s"] = statistics.median(traced_walls) - statistics.median(walls)
        units = PER_LAYER_UNITS
        env["traced_pass_wall_s"] = traced_walls
        tracer.dump(os.path.join(OUT_DIR, f"spans-{tag}.json"),
                    {"environment": env, "layers": layer_runs})

    print("environment: " + json.dumps(env, sort_keys=True))
    print(f"fail_ratio {failed / attempted:.6g} ratio ({failed} of {attempted} operations)")
    for name, value in values.items():
        print(f"{name} {value:.6g} {units[name]}")
    metrics = {name: {"value": value, "unit": units[name]} for name, value in values.items()}
    summary = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    with open(os.path.join(OUT_DIR, f"result-{tag}.json"), "w") as fh:
        json.dump(dict(summary, environment=env), fh)
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
