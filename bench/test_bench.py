"""Checks of the benchmark itself. Run from the repository root:

    python3 -m pytest -q bench/test_bench.py

They take a few minutes: every workload runs twice traced.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import spans  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(workload, trace, cwd=ROOT, seed=5):
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", "1", "--trace", str(trace)]
    return subprocess.run(cmd, capture_output=True, text=True, cwd=cwd, timeout=600)


def result_of(proc, metrics):
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert [(k, v["unit"]) for k, v in result["metrics"].items()] == [(m["name"], m["unit"]) for m in metrics]
    return result


def test_spec_matches_code():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]] == spans.metric_specs()


def test_untraced_run_reports_end_to_end_metrics():
    result = result_of(bench("invert-design", 0), SPEC["end_to_end"])
    assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_traced_counts_repeat_at_one_seed(workload):
    first, second = (result_of(bench(workload, 1), SPEC["per_layer"]) for _ in range(2))

    def counts(result):
        return {k: v["value"] for k, v in result["metrics"].items()
                if k.rsplit(".", 1)[1] in spans.COUNT_STATS}

    assert counts(first) == counts(second)
    assert any(counts(first).values())


def test_fails_without_the_package():
    bare = BENCH / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "bench").mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for f in BENCH.glob("*.py"):
        shutil.copy(f, bare / "bench")
    proc = bench("train-discovery", 0, cwd=bare)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
