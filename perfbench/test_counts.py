"""Checks of the benchmark itself.

    python3 -m pytest perfbench/test_counts.py

The count check makes two traced runs of mk-sweep and root-curves (about a
minute in all).  Work counters must repeat exactly between them: they are
what a change on a 2-core machine can be judged by when times are too noisy.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

import run
import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# Counts at the commit that defined the benchmark.  A change that does less
# work updates them and reports the new counts as its result.
EXPECTED = {
    "mk-sweep": {"mk.expand_mk.calls": 26, "mk.terms": 120140},
    "root-curves": {
        "numerics.integrate_segments.calls": 17848,
        "numerics.segments": 69976,
        "numerics.panels": 90300,
    },
}


def traced_counts(workload, seed):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", "1"],
        capture_output=True, text=True, cwd=ROOT, timeout=180, check=True,
    )
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"], proc.stdout
    return {k: v["value"] for k, v in result["metrics"].items() if v["unit"] == "count"}


@pytest.mark.parametrize("workload", sorted(EXPECTED))
def test_work_counters_repeat_exactly(workload):
    first = traced_counts(workload, seed=1)
    second = traced_counts(workload, seed=2)
    assert first == second
    assert {name: first.get(name) for name in EXPECTED[workload]} == EXPECTED[workload]


def test_metrics_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        metric[:3] for metric in tracing.METRICS
    ]
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
