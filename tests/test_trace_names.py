"""Every name the benchmark's layer tracer looks up still exists.

``perfbench/tracing.py`` reports a name it cannot resolve as ``absent`` and
drops that name's metrics from a traced run's result, so renaming or moving
a traced function silently thins the benchmark.  Each workload runs one
cheap invocation of one of its commands through ``perfbench/child.py
--trace`` in a fresh interpreter, as the benchmark does, and so does a short
psi3 curve, whose grid goes through the lockstep quadrature that the
tracer does not wrap.  Nothing under ``perfbench/`` is changed.
"""

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import bellscope.cli  # noqa: F401  (loads every module the tracer resolves)

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"
sys.path.insert(0, str(PERFBENCH))
try:
    import tracing
    from workloads import WORKLOADS
finally:
    sys.path.remove(str(PERFBENCH))

CHEAP = {
    "mk-sweep": ("sign-ghz", "--m", "4"),
    "root-curves": ("prep-fidelity", "--alpha", "1"),
    "optimizer": ("sign-optimize", "--m", "2", "--d", "12", "--constraint", "nonneg"),
}
# Traced runs beyond the one per workload, by test id.
EXTRA = {"root-curves-psi3-curve": ("psi3-curve", "--alpha", "0.5:0.6:0.05")}
PER_LAYER = {
    metric["name"]
    for metric in json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))[
        "per_layer"
    ]
} - {"trace.overhead_ratio"}


def test_one_cheap_invocation_per_workload():
    assert CHEAP.keys() == WORKLOADS.keys()
    for workload, argv in CHEAP.items():
        assert argv[0] in {run[0] for _, run in WORKLOADS[workload]}


@pytest.mark.parametrize("workload", sorted(CHEAP) + sorted(EXTRA))
def test_traced_run_has_every_metric(tmp_path, workload):
    trace_file = tmp_path / "trace.json"
    proc = subprocess.run(
        [
            sys.executable, str(PERFBENCH / "child.py"), "--src", str(ROOT / "src"),
            "--trace", str(trace_file), "--spawned", repr(time.monotonic()),
            "--", *{**CHEAP, **EXTRA}[workload], "--out", str(tmp_path / "out"),
        ],
        capture_output=True, text=True, cwd=ROOT, timeout=120,
        env={k: v for k, v in os.environ.items() if k != "BELLSCOPE_JOBS"},
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.strip().splitlines()[-1])["exit_code"] == 0
    trace = json.loads(trace_file.read_text(encoding="utf-8"))
    assert trace["absent"] == []
    metrics, absent = tracing.layer_metrics([(trace, 1.0)], 0)
    assert absent == []
    assert PER_LAYER <= metrics.keys()
    if workload in EXTRA:  # the whole grid is one traced report call
        assert metrics["rootbin.psi3_bell_report.calls"] == 1


@pytest.mark.parametrize("path", tracing.SPANNED + tracing.COUNTED + (tracing.G_TABLE,))
def test_traced_name_resolves(path):
    assert tracing._resolve(path) is not None
