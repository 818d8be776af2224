"""In-memory span tracer that wraps curverate's public functions from outside.

The package is not instrumented: `Tracer.install()` replaces every module
binding of each traced function (`from .propagator import certified_value`
gives `curverate.maximal` its own binding, so patching the defining module
alone would miss callers) and `Tracer.remove()` puts the originals back.

Each call opens a frame. On exit its duration is added to the parent's
child time, so self time is the duration minus what child calls covered.
Layers with few calls become spans (name, start, end, parent span, task
id). High-count leaves (`panel_nodes`, `certified_value`, `evaluate`,
`critical_time`, `sobolev_norm`) are aggregated per parent span instead,
which keeps the trace bounded; their counters are exact either way.

Tracing is single-process: work done inside a `ProcessPoolExecutor`
child is invisible, so traced runs use one worker.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict

# (defining module, function, layer name, recorded as a span)
LAYERS = (
    ("curverate.quadrature", "panel_nodes", "quadrature.panel_nodes", False),
    ("curverate.propagator", "certified_value", "propagator.certified_value", False),
    ("curverate.propagator", "evaluate", "propagator.evaluate", False),
    ("curverate.propagator", "evaluate_grid", "propagator.evaluate_grid", True),
    ("curverate.propagator", "batch_values", "propagator.batch_values", True),
    ("curverate.propagator", "batch_initial", "propagator.batch_initial", True),
    ("curverate.maximal", "maximal_field", "maximal.maximal_field", True),
    ("curverate.maximal", "critical_time", "maximal.critical_time", False),
    ("curverate.maximal", "lemma_profile", "maximal.lemma_profile", True),
    ("curverate.maximal", "rate_ceiling_demo", "maximal.rate_ceiling_demo", True),
    ("curverate.initial_data", "sobolev_norm", "initial_data.sobolev_norm", False),
    ("curverate.experiments", "run", "experiments.run", True),
    ("curverate.experiments", "sharpness_sweep", "experiments.sharpness_sweep", True),
)

ROWS_REQUESTED = "experiments.numerator_cache.rows_requested"
ROWS_COMPUTED = "experiments.numerator_cache.rows_computed"


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _table_exp(nx, node_counts):
    # batch_values builds an nx-by-n table for each distinct coarse rule
    # size n and an nx-by-2n one for its fine pass; it returns the fine
    # sizes, so n = returned // 2
    return nx * sum(n // 2 + n for n in {int(c) for c in node_counts})


# layer -> counter update(counters, via, parent layer, args, kwargs, result, seconds)
def _panel_nodes(c, via, parent, args, kwargs, result, dt):
    c["quadrature.panel_nodes.nodes"] += len(result[0])


def _certified_value(c, via, parent, args, kwargs, result, dt):
    c["propagator.certified_value.nodes"] += result[1]
    if via == "curverate.maximal":  # golden refinement's own binding
        c["maximal.refine.evals"] += 1
        c["maximal.refine.s"] += dt


def _evaluate_grid(c, via, parent, args, kwargs, result, dt):
    c["propagator.evaluate_grid.samples"] += len(result[0])
    c["propagator.evaluate_grid.failures"] += len(result[1])


def _batch_values(c, via, parent, args, kwargs, result, dt):
    nx = len(_arg(args, kwargs, 3, "xs"))
    nt = len(_arg(args, kwargs, 4, "ts"))
    node_counts = result[2]
    c["propagator.batch_values.samples"] += nx * nt
    c["propagator.batch_values.nodes"] += int(sum(node_counts))
    c["propagator.batch_values.table_exp"] += _table_exp(nx, node_counts)
    if parent == "maximal.maximal_field" and nt == 1:  # critical-time injection
        c["maximal.inject.calls"] += 1
        c["maximal.inject.s"] += dt


def _batch_initial(c, via, parent, args, kwargs, result, dt):
    c["propagator.batch_initial.points"] += len(_arg(args, kwargs, 1, "xs"))


def _maximal_field(c, via, parent, args, kwargs, result, dt):
    if parent == "experiments.run":  # a numerator row the cache did not serve
        c[ROWS_COMPUTED] += 1


def _run(c, via, parent, args, kwargs, result, dt):
    c[ROWS_REQUESTED] += len(_arg(args, kwargs, 0, "plan").R_sequence)


COUNTERS = {
    "quadrature.panel_nodes": _panel_nodes,
    "propagator.certified_value": _certified_value,
    "propagator.evaluate_grid": _evaluate_grid,
    "propagator.batch_values": _batch_values,
    "propagator.batch_initial": _batch_initial,
    "maximal.maximal_field": _maximal_field,
    "experiments.run": _run,
}


class Tracer:
    """Spans and per-layer counters for one process."""

    def __init__(self):
        self.task = 0
        self.spans = []                      # (id, name, start, end, parent, task)
        self.leaves = defaultdict(lambda: [0, 0.0, 0.0])  # (span, name) -> calls, total, self
        self.counters = defaultdict(int)     # "layer.counter" -> value
        # open frames: [layer, start, child seconds, id of innermost span]
        self._stack = [[None, 0.0, 0.0, None]]
        self._next_id = 1
        self._patches = []

    # -- patching -----------------------------------------------------------

    def install(self):
        """Wrap every binding of every layer in LAYERS; undo with remove()."""
        for module_name, attr, layer, spanned in LAYERS:
            original = getattr(sys.modules[module_name], attr)
            for mod_name, module in list(sys.modules.items()):
                if mod_name != "curverate" and not mod_name.startswith("curverate."):
                    continue
                for binding, value in list(vars(module).items()):
                    if value is original:
                        wrapper = self._wrap(original, layer, spanned, via=mod_name)
                        self._patches.append((module, binding, original))
                        setattr(module, binding, wrapper)

    def remove(self):
        for module, binding, original in reversed(self._patches):
            setattr(module, binding, original)
        self._patches.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.remove()
        return False

    # -- frames -------------------------------------------------------------

    def _wrap(self, fn, layer, spanned, via):
        stack, counters, spans, leaves = self._stack, self.counters, self.spans, self.leaves
        calls_key, self_key = layer + ".calls", layer + ".self_s"
        count = COUNTERS.get(layer)
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            outer = stack[-1]
            if spanned:
                span_id = tracer._next_id
                tracer._next_id += 1
            frame = [layer, 0.0, 0.0, span_id if spanned else outer[3]]
            stack.append(frame)
            frame[1] = start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                dt = end - start
                self_s = dt - frame[2]
                outer[2] += dt
                counters[calls_key] += 1
                counters[self_key] += self_s
                if spanned:
                    spans.append((span_id, layer, start, end, outer[3], tracer.task))
                else:
                    leaf = leaves[(outer[3], layer)]
                    leaf[0] += 1
                    leaf[1] += dt
                    leaf[2] += self_s
            if count is not None:
                count(counters, via, outer[0], args, kwargs, result, dt)
            return result

        return wrapper

    # -- results ------------------------------------------------------------

    def reset_counters(self):
        self.counters.clear()

    def snapshot(self):
        """Counters of the work since the last reset, derived ratios included."""
        out = dict(self.counters)
        requested = out.pop(ROWS_REQUESTED, 0)
        computed = out.pop(ROWS_COMPUTED, 0)
        out["experiments.numerator_cache.hit_ratio"] = (
            (requested - computed) / requested if requested else 0.0
        )
        return out

    def dump(self, path, extra=None):
        """Write spans and aggregated leaves as JSON."""
        doc = dict(extra or {})
        doc["spans"] = [
            {"id": s, "name": n, "start": a, "end": b, "parent": p, "task": t}
            for s, n, a, b, p, t in self.spans
        ]
        doc["leaves"] = [
            {"parent": p, "name": n, "calls": v[0], "total_s": v[1], "self_s": v[2]}
            for (p, n), v in self.leaves.items()
        ]
        with open(path, "w") as fh:
            json.dump(doc, fh)
