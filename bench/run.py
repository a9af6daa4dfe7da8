"""anisoforge benchmark: end-to-end metrics per workload, or a traced per-layer run.

Run from the repository root:

    python3 bench/run.py --workload invert-design --seed 3 --seconds 20 --trace 0
    python3 bench/run.py --seed 3 --seconds 20        # every workload, one process each

A run imports the package from ``src/``, sets its workload up several
times (the median set-up counts), then repeats the workload's operations
until ``--seconds`` have passed. After each operation it times blocks of
the fixed reference kernel of ``reference.py`` for about half the
operation's time, so the run knows how fast the host was over the same
window: the host's speed drifts by tens of percent over seconds to minutes,
and times in units of a reference block cancel most of that drift.
Every operation's output is checked; the last line of standard output is
one JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``,
and the exit code is non-zero when any check failed.

``--trace 0`` reports the end-to-end metrics:

- ``setup_s``: package import and first BLAS/LAPACK calls, plus the median
  of the workload set-ups (input generation, surrogate training, warm-up);
- ``work_per_ref``: work done per reference-block time, counted in the
  workload's own unit (epochs, surrogate evaluations, orientation restarts,
  Newton iterations);
- ``peak_rss_mb``: peak resident memory of this process.

Printed beside them: ``wall_rel``, the mean time of one repetition over
the mean time of one reference block; the plain-second figures ``wall_s``,
``work_per_s`` and ``ref_block_s``; and ``fail_ratio``, failed over
attempted operations, which the ``attempted`` and ``failed`` fields carry.
``wall_rel`` is not a JSON metric because beam-refined's repetition takes
10 or 12 Newton iterations depending on the seed, which would spread it
across seeds by the work done rather than by the speed of doing it.

``--trace 1`` alternates untraced and traced repetitions, reports the
per-layer metrics of ``spans.LAYERS`` and the tracing overhead, and writes
every span to ``bench/out/``.

BLAS threads are pinned to one through this process's environment before
numpy loads, so every figure is a single-threaded baseline.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import spans

BENCH_DIR = Path(__file__).resolve().parent
SRC = BENCH_DIR.parent / "src"
OUT = BENCH_DIR / "out"

WORKLOADS = ("train-discovery", "invert-design", "beam-orient", "beam-refined")
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 3
# reference time after each operation, as a share of the operation's time
REF_SHARE = 0.5


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def run_all(args):
    """Every workload in its own child process, so each has its own peak RSS."""
    status = 0
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        status = max(status, subprocess.run(cmd).returncode)
    return status


def host_record():
    import numpy as np
    import scipy

    def blas(config):
        return config(mode="dicts")["Build Dependencies"]["blas"].get("version")

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "affinity_cpus": len(os.sched_getaffinity(0)), "cpu": cpu,
            "python": platform.python_version(), "numpy": np.__version__, "scipy": scipy.__version__,
            "numpy_openblas": blas(np.show_config), "scipy_openblas": blas(scipy.show_config),
            "blas_threads": {v: os.environ[v] for v in THREAD_VARS}}


def import_package():
    """Import the package from src/ and pay the first BLAS/LAPACK calls; returns seconds."""
    if not (SRC / "anisoforge" / "__init__.py").is_file():
        sys.exit(f"error: no package source at {SRC / 'anisoforge'}; run from a repository checkout")
    os.environ.update({v: "1" for v in THREAD_VARS})
    sys.path.insert(0, str(SRC))
    t0 = time.perf_counter()
    import numpy as np
    import scipy.linalg

    import anisoforge
    import workloads  # noqa: F401  (imports every measured module)

    if Path(anisoforge.__file__).resolve().parent != SRC / "anisoforge":
        sys.exit(f"error: anisoforge imported from {anisoforge.__file__}, not from {SRC}")
    A = np.eye(24) + 0.1 * np.ones((24, 24))
    scipy.linalg.cho_solve(scipy.linalg.cho_factor(A), np.ones(24))
    np.linalg.eigh(A)
    return time.perf_counter() - t0


class Runner:
    """Set-ups and repetitions of one workload, with failure counts."""

    def __init__(self, cls, seed, tracer):
        self.cls, self.seed, self.tracer = cls, seed, tracer
        self.attempted = self.failed = 0
        self.problems = []

    def record(self, where, problems):
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems += [f"{where}: {p}" for p in problems]
            for p in problems:
                print(f"check failed: {where}: {p}", file=sys.stderr)

    def setup(self, run_id):
        if self.tracer:
            self.tracer.install(run_id)
        t = time.perf_counter()
        try:
            workload = self.cls(self.seed)
        finally:
            elapsed = time.perf_counter() - t
            if self.tracer:
                self.tracer.remove()
        self.record(run_id, workload.setup_problems)
        return workload, elapsed

    def rep(self, workload, run_id=None):
        """One repetition: (seconds, work) or None if an operation raised."""
        wall, work, ok = 0.0, 0, True
        for op in workload.ops():
            if run_id is not None:
                self.tracer.install(run_id)
            t = time.perf_counter()
            try:
                result = op.call()
            except Exception:
                traceback.print_exc()
                self.record(op.name, ["raised"])
                ok = False
                continue
            finally:
                wall += time.perf_counter() - t
                if run_id is not None:
                    self.tracer.remove()
            op_work, problems = op.check(result)
            work += op_work
            self.record(op.name, problems)
        return (wall, work) if ok else None


def run_workload(args):
    import_s = import_package()
    import reference
    import workloads

    import anisoforge

    cls = workloads.WORKLOADS[args.workload]
    tracer = spans.Tracer(anisoforge) if args.trace else None
    runner = Runner(cls, args.seed, tracer)
    setup_times = []
    for k in range(SETUP_REPEATS):
        workload, elapsed = runner.setup(f"setup-{k}")
        setup_times.append(elapsed)

    ref = None if tracer else reference.Reference()
    ref_blocks = []
    if ref:
        ref.block()
    plain, traced = [], []
    deadline = time.perf_counter() + args.seconds
    while True:
        plain.append(runner.rep(workload))
        if ref and plain[-1]:
            ref_s = 0.0
            while not ref_blocks or ref_s < REF_SHARE * plain[-1][0]:
                ref_blocks.append(ref.block())
                ref_s += ref_blocks[-1]
        if tracer:
            run_id = f"rep-{len(traced)}"
            traced.append((run_id, runner.rep(workload, run_id)))
        if time.perf_counter() >= deadline:
            break
    plain = [r for r in plain if r is not None]
    traced = [(run_id, r) for run_id, r in traced if r is not None]
    if not plain or (tracer and not traced):
        sys.exit("error: no repetition completed")

    host = host_record()
    print("host " + json.dumps(host))
    print(f"workload {cls.name} seed {args.seed} work unit: {cls.work_unit} sizes " + json.dumps(workload.sizes))
    record = {"workload": cls.name, "seed": args.seed, "seconds": args.seconds, "host": host,
              "sizes": workload.sizes, "setup_times_s": setup_times, "import_s": import_s,
              "reps": plain}
    if tracer:
        units = {name: unit for name, unit, _ in spans.metric_specs()}
        metrics = trace_metrics(tracer, runner, plain, traced)
        record["traced_reps"] = [r for _, r in traced]
        tracer.write(OUT / f"spans-{cls.name}-seed{args.seed}.csv")
    else:
        units = {"setup_s": "s", "work_per_ref": "1/block", "peak_rss_mb": "MB"}
        wall_s = statistics.mean(w for w, _ in plain)
        work_per_s = sum(n for _, n in plain) / sum(w for w, _ in plain)
        ref_block_s = statistics.mean(ref_blocks)
        metrics = {
            "setup_s": import_s + statistics.median(setup_times),
            "work_per_ref": work_per_s * ref_block_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        record.update(wall_s=wall_s, work_per_s=work_per_s, ref_blocks_s=ref_blocks,
                      wall_rel=wall_s / ref_block_s)
        print(f"wall_rel {wall_s / ref_block_s:.6g} ratio  (mean repetition over mean reference block)")
        print(f"wall_s {wall_s:.6g} s  (mean repetition)")
        print(f"work_per_s {work_per_s:.6g} 1/s  ({cls.work_unit} per second)")
        print(f"ref_block_s {ref_block_s:.6g} s  (mean of {len(ref_blocks)} reference blocks)")
    for name, value in metrics.items():
        suffix = f"  ({cls.work_unit} per reference block)" if name == "work_per_ref" else ""
        print(f"{name} {value:.6g} {units[name]}{suffix}")
    print(f"fail_ratio {runner.failed / runner.attempted:.6g}  "
          f"({runner.failed} of {runner.attempted} operations failed)")

    record.update(metrics=metrics, attempted=runner.attempted, failed=runner.failed,
                  problems=runner.problems)
    OUT.mkdir(parents=True, exist_ok=True)
    (OUT / f"{cls.name}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(record, indent=1))
    result = {"correct": runner.failed == 0, "attempted": runner.attempted, "failed": runner.failed,
              "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()}}
    print(json.dumps(result))
    return 0 if runner.failed == 0 else 1


def trace_metrics(tracer, runner, plain, traced):
    """Per-layer metrics, per-call costs and the repeat check of a traced run."""
    by_run = {}
    for span in tracer.spans:
        by_run.setdefault(span[-1], []).append(span)
    setup_runs = [by_run.get(f"setup-{k}", []) for k in range(SETUP_REPEATS)]
    timed_runs = [by_run.get(run_id, []) for run_id, _ in traced]
    first = spans.counts(timed_runs[0])
    runner.record("traced counts repeat", [f"rep-{k} counts differ from rep-0"
                                          for k, run in enumerate(timed_runs[1:], 1)
                                          if spans.counts(run) != first])
    metrics = spans.per_layer_metrics(setup_runs, timed_runs)
    traced_wall = statistics.mean(w for _, (w, _) in traced)
    metrics["trace.overhead_ratio"] = traced_wall / statistics.mean(w for w, _ in plain) - 1.0

    stats = spans.layer_stats(timed_runs[0])
    print("per-call cost at this workload's row counts (first traced repetition):")
    for module, attr, _, _, layer in spans.LAYERS:
        label = f"{module}.{attr}"
        st = stats.get(label)
        if "ms_per_call" not in layer:
            continue
        if st is None:
            print(f"  {label}: not called")
            continue
        rows = f", {st['rows'] / st['calls']:.6g} rows/call" if "rows" in layer else ""
        print(f"  {label}: {st['calls']} calls{rows}, {1e3 * st['busy_s'] / st['calls']:.6g} ms/call")
    return metrics


def main(argv=None):
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
