"""Span tracing of calls into the package, installed from outside it.

The tracer replaces module attributes (and one class attribute,
``training.Adam.step``) with wrappers that record one span per call:
name, start, end, parent span, run id, the rows handed in and the work
reported back. Package code looks these names up at call time (cross-module
calls go through the module object, same-module calls through the module
globals, which are the same dict), so every call between traced layers is
seen. Nothing inside the package changes, and ``remove`` restores the
original attributes, so an untraced run executes exactly the package code.
"""

from __future__ import annotations

import csv
import statistics
import time


def _rows(index, item_ndim):
    """Batch size of positional argument ``index`` whose single item has ``item_ndim`` dims."""
    def rows(args):
        shape = getattr(args[index], "shape", ())
        return shape[0] if len(shape) > item_ndim else 1
    return rows


def _n_evals(result):
    return result.n_evals


def _newton_iters(result):
    return sum(len(norms) for norms in result.newton_norms)


# (module, attribute path, rows counter, work counter, per-layer stats)
LAYERS = [
    ("tensor_core", "invariants", None, None, ("calls", "self_s")),
    ("tensor_core", "invariant_bases", None, None, ("calls", "self_s")),
    ("tensor_core", "invariant_second_derivatives", None, None, ("calls", "self_s")),
    ("tensor_core", "structure_tensors", None, None, ("calls",)),
    ("picnn", "value_and_grad", _rows(1, 1), None, ("calls", "rows", "self_s")),
    ("picnn", "backprop", _rows(1, 1), None, ("calls", "rows", "self_s")),
    ("picnn", "hess_inputs", _rows(1, 1), None, ("calls", "rows", "self_s", "ms_per_call")),
    ("energy", "loss_and_param_gradients", None, None, ("calls", "self_s", "ms_per_call")),
    ("energy", "stress", _rows(1, 2), None, ("calls", "rows", "self_s", "ms_per_call")),
    ("energy", "tangent", _rows(1, 2), None, ("calls", "rows", "self_s", "ms_per_call")),
    ("energy", "normalization_coefficients", _rows(1, 1), None, ("calls", "rows")),
    ("datagen", "build_dataset", None, None, ("busy_s",)),
    ("training", "train", None, None, ("self_s",)),
    ("training", "Adam.step", None, None, ("calls", "self_s")),
    ("training", "extract_directions", None, None, ("busy_s",)),
    ("inverse", "invert_design", None, None, ("busy_s",)),
    ("inverse", "cma_es", None, _n_evals, ("evals", "self_s")),
    ("inverse", "nelder_mead", None, _n_evals, ("evals", "self_s")),
    ("inverse", "stress_mismatch", None, None, ("calls", "self_s")),
    ("fem", "assemble", None, None, ("calls", "self_s", "ms_per_call")),
    ("fem", "solve_displacement", None, _newton_iters, ("calls", "newton_iters", "self_s")),
    ("fem", "precompute_quadrature", None, None, ("calls", "busy_s")),
    ("fem", "invert_orientation", None, None, ("converged_ratio",)),
]

# Layers whose work happens while a workload is set up rather than timed.
SETUP_LAYERS = {"datagen.build_dataset"}

COUNT_STATS = ("calls", "rows", "evals", "newton_iters")
UNITS = {"calls": "count", "rows": "count", "evals": "count", "newton_iters": "count",
         "busy_s": "s", "self_s": "s", "ms_per_call": "ms", "converged_ratio": "ratio"}
BETTER = {"converged_ratio": "higher"}


def metric_specs():
    """(name, unit, better) of every per-layer metric, in report order."""
    specs = [(f"{module}.{attr}.{stat}", UNITS[stat], BETTER.get(stat, "lower"))
             for module, attr, _, _, stats in LAYERS for stat in stats]
    specs.append(("trace.overhead_ratio", "ratio", "lower"))
    return specs


class Tracer:
    """Records spans around the ``LAYERS`` entry points of an imported package."""

    def __init__(self, package):
        self._targets = []
        for module, attr, rows, work, _ in LAYERS:
            owner = getattr(package, module)
            *outer, name = attr.split(".")
            for part in outer:
                owner = getattr(owner, part)
            self._targets.append((owner, name, getattr(owner, name), f"{module}.{attr}", rows, work))
        self.spans = []  # (span, parent, name, start, end, rows, work, raised, run)
        self.run = None
        self._stack = []
        self._t0 = time.perf_counter()

    def install(self, run):
        self.run = run
        for owner, name, original, label, rows, work in self._targets:
            setattr(owner, name, self._wrap(original, label, rows, work))

    def remove(self):
        for owner, name, original, *_ in self._targets:
            setattr(owner, name, original)
        self.run = None

    def _wrap(self, fn, label, rows_of, work_of):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            span = len(spans) + len(stack)
            parent = stack[-1] if stack else -1
            rows = rows_of(args) if rows_of is not None else 0
            stack.append(span)
            start = clock()
            raised = True
            try:
                result = fn(*args, **kwargs)
                raised = False
                return result
            finally:
                end = clock()
                stack.pop()
                work = work_of(result) if work_of is not None and not raised else 0
                spans.append((span, parent, label, start, end, rows, work, raised, self.run))

        return traced

    def write(self, path):
        """Write every span as one CSV row, times in seconds from tracer creation."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", newline="") as f:
            out = csv.writer(f)
            out.writerow(["run", "span", "parent", "name", "start_s", "end_s", "rows", "work", "raised"])
            for span, parent, label, start, end, rows, work, raised, run in sorted(self.spans):
                out.writerow([run, span, parent, label, f"{start - self._t0:.9f}",
                              f"{end - self._t0:.9f}", rows, work, int(raised)])


def layer_stats(spans):
    """Per-layer totals over one run's spans: calls, rows, work, busy and self time.

    A span's self time is its duration minus that of its direct children;
    ``converged_ratio`` is the share of the solves started by an orientation
    search that returned instead of raising.
    """
    by_id = {s[0]: s for s in spans}
    child_time = {}
    for span, parent, _, start, end, *_ in spans:
        if parent in by_id:
            child_time[parent] = child_time.get(parent, 0.0) + (end - start)
    stats = {}
    solves = converged = 0
    for span, parent, label, start, end, rows, work, raised, _ in spans:
        st = stats.setdefault(label, {"calls": 0, "rows": 0, "work": 0, "busy_s": 0.0, "self_s": 0.0})
        st["calls"] += 1
        st["rows"] += rows
        st["work"] += work
        st["busy_s"] += end - start
        st["self_s"] += end - start - child_time.get(span, 0.0)
        if label == "fem.solve_displacement" and _has_ancestor(by_id, parent, "fem.invert_orientation"):
            solves += 1
            converged += not raised
    stats["fem.invert_orientation"] = dict(stats.get("fem.invert_orientation", {}),
                                           converged_ratio=converged / solves if solves else 0.0)
    return stats


def _has_ancestor(by_id, parent, label):
    while parent in by_id:
        if by_id[parent][2] == label:
            return True
        parent = by_id[parent][1]
    return False


def _stat(stats, label, stat):
    st = stats.get(label)
    if st is None:
        return 0
    if stat in ("evals", "newton_iters"):
        return st["work"]
    if stat == "ms_per_call":
        return 1e3 * st["busy_s"] / st["calls"]
    return st[stat]


def per_layer_metrics(setup_runs, timed_runs):
    """Per-layer metric values from the spans of traced set-ups and timed reps.

    Counts come from the first run of their phase (the others repeat them
    exactly); times and ratios are medians over the runs of the phase.
    """
    setup = [layer_stats(r) for r in setup_runs]
    timed = [layer_stats(r) for r in timed_runs]
    values = {}
    for module, attr, _, _, stats in LAYERS:
        label = f"{module}.{attr}"
        runs = setup if label in SETUP_LAYERS else timed
        for stat in stats:
            if stat in COUNT_STATS:
                values[f"{label}.{stat}"] = _stat(runs[0], label, stat)
            else:
                values[f"{label}.{stat}"] = statistics.median(_stat(r, label, stat) for r in runs)
    return values


def counts(spans):
    """The exact counts of one run, for checking that a run repeats."""
    stats = layer_stats(spans)
    return {f"{module}.{attr}.{stat}": _stat(stats, f"{module}.{attr}", stat)
            for module, attr, _, _, layer in LAYERS for stat in layer if stat in COUNT_STATS}
