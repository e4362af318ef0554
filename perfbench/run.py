"""Fresh-process benchmark of the bellscope CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from ``src/``.
Each workload is a closed loop with one client.  A pass runs the workload's
CLI invocations one after another, each in a fresh interpreter started by
``child.py``, in an order shuffled by ``--seed``; passes repeat until the
next one would overrun ``--seconds``.  Every CSV is checked against the
reference under ``reference/``.

The host is shared and its speed drifts over seconds to minutes.  Before
each invocation the benchmark times the start of three bare interpreters,
and it scales every time of a pass to the reference speed: by
``CALIBRATION_REF_S`` over the median start-up time of the pass.  The times
as measured are printed too.

With ``--trace 0`` the last line reports the end-to-end metrics, each a
median: ``setup_s`` over every spawn, ``pass_s`` (spawn to exit, summed over
a pass) and ``main_s`` (``cli.main`` only, summed over a pass) over passes.
With ``--trace 1`` untraced and traced passes alternate, and the last line
reports the per-layer metrics of the traced passes plus
``trace.overhead_ratio``.  The lines before it give the host, sample
counts, quartiles, the time of each CLI command, and the error rate.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import itertools
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import NamedTuple

import reference
import tracing
from workloads import COMMANDS, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-work"
END_TO_END = (("setup_s", "s"), ("pass_s", "s"), ("main_s", "s"))
# Start-up time of a bare interpreter (python3 -S -c pass) taken as the
# reference speed: a round figure near its 9 ms median on the idle 2-core
# host where the benchmark was defined.  A pass's times are scaled by this
# over the median start-up time measured during the pass; see README.md.
CALIBRATION_REF_S = 0.010
# Every run, traced or not, ends well inside the 180 s a run may take.
HARD_LIMIT_S = 170.0
BLAS_THREAD_GETTERS = (
    "scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"
)


def host_block():
    """nproc, the Python and numpy versions, numpy's BLAS and its thread
    count (None when the library does not say)."""
    import numpy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    threads = None
    pattern = os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs", "*openblas*")
    for path in glob.glob(pattern):
        lib = ctypes.CDLL(path)
        getter = next((getattr(lib, name) for name in BLAS_THREAD_GETTERS if hasattr(lib, name)),
                      None)
        if getter is not None:
            getter.restype = ctypes.c_int
            threads = getter()
            break
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": threads,
    }


def child_env():
    env = dict(os.environ)
    env.pop("BELLSCOPE_JOBS", None)  # every command runs with the default --jobs 1
    return env


class Invocation(NamedTuple):
    command: str
    wall_s: float  # spawn to exit, as measured
    main_s: float  # cli.main alone, as measured
    setup_s: float  # spawn until bellscope.cli is imported, as measured
    trace: dict | None
    bytes_written: int


class Pass(NamedTuple):
    invocations: list
    calibration: list  # start-up times of the bare interpreters run in the pass

    @property
    def scale(self) -> float:
        """Factor that takes this pass's times to the reference speed."""
        return CALIBRATION_REF_S / statistics.median(self.calibration)


def pass_time(p, field, normalised=True, command=None):
    return (p.scale if normalised else 1.0) * sum(
        getattr(inv, field) for inv in p.invocations
        if command is None or inv.command == command
    )


class Runner:
    """Runs passes of one workload and keeps what they measured."""

    def __init__(self, workload, seed, workdir, deadline):
        self.invocations = WORKLOADS[workload]
        self.rng = random.Random(seed)
        self.workdir = workdir
        self.deadline = deadline
        self.env = child_env()
        self.attempted = 0
        self.failures = []
        self.passes = {False: [], True: []}  # traced -> list of passes
        self.longest_pass_s = 0.0
        self._count = 0

    def calibrate(self):
        """Start-up times of three bare interpreters."""
        times = []
        for _ in range(3):
            # No timeout: with one, subprocess polls for the exit with
            # growing sleeps, and the measured time snaps to about 16 ms.
            started = time.perf_counter()
            subprocess.run([sys.executable, "-S", "-c", "pass"], check=True,
                           env=self.env, cwd=ROOT)
            times.append(time.perf_counter() - started)
        return times

    def spawn(self, argv, trace_file=None):
        """Run one child; returns (wall seconds, child report or None, error)."""
        cmd = [sys.executable, str(HERE / "child.py"), "--src", str(SRC)]
        if trace_file is not None:
            cmd += ["--trace", str(trace_file)]
        timeout = max(self.deadline - time.monotonic(), 1.0)
        spawned = time.monotonic()
        try:
            proc = subprocess.run(
                [*cmd, "--spawned", repr(spawned), "--", *argv],
                capture_output=True, text=True, env=self.env, cwd=ROOT, timeout=timeout,
            )
        except subprocess.TimeoutExpired:  # run() has killed and reaped the child
            return time.monotonic() - spawned, None, f"timed out after {timeout:.0f} s"
        wall = time.monotonic() - spawned
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            return wall, None, f"exit status {proc.returncode}: {proc.stderr.strip()[-500:]}"
        return wall, json.loads(lines[-1]), ""

    def run_pass(self, traced):
        """One pass in seeded order; False when an invocation failed to run."""
        started = time.monotonic()
        done, calibration = [], []
        for invocation_id, argv in self.rng.sample(self.invocations, len(self.invocations)):
            self._count += 1
            out = self.workdir / str(self._count)
            out.mkdir()
            trace_file = out / "trace.json" if traced else None
            calibration += self.calibrate()
            wall, report, error = self.spawn([*argv, "--out", str(out / "cli")], trace_file)
            self.attempted += 1
            if report is None:
                self.failures.append(f"{invocation_id}: {error}")
                return False
            csv = out / "cli" / f"{argv[0]}.csv"
            problem = reference.compare(
                reference.reference_path(invocation_id).read_text(encoding="utf-8"),
                csv.read_text(encoding="utf-8") if csv.is_file() else "",
            )
            if problem is not None:
                self.failures.append(f"{invocation_id}: output differs from reference: {problem}")
            done.append(Invocation(
                argv[0], wall, report["main_s"], report["setup_s"],
                json.loads(trace_file.read_text(encoding="utf-8")) if traced else None,
                sum(p.stat().st_size for p in (out / "cli").iterdir()),
            ))
            shutil.rmtree(out)
        self.passes[traced].append(Pass(done, calibration))
        self.longest_pass_s = max(self.longest_pass_s, time.monotonic() - started)
        return True

    def warm_up(self):
        """Untimed: byte-compile the package and fill the file cache, which
        users do not pay on every run, and start the calibration warm."""
        subprocess.run(
            [sys.executable, "-c", "import sys; sys.path[:0] = sys.argv[1:]; "
             "import bellscope.cli, tracing", str(SRC), str(HERE)],
            check=True, env=self.env, cwd=ROOT, timeout=60,
        )
        self.calibrate()


def run(workload, seed, seconds, trace):
    """Passes until the next one would overrun ``seconds``; with ``trace``
    untraced and traced passes alternate, at least one of each."""
    started = time.monotonic()
    WORK.mkdir(exist_ok=True)
    workdir = WORK / f"{workload}-{seed}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir()
    runner = Runner(workload, seed, workdir, started + HARD_LIMIT_S)
    kinds = (False, True) if trace else (False,)
    try:
        runner.warm_up()
        for done in itertools.count():
            enough = all(runner.passes[k] for k in kinds)
            elapsed = time.monotonic() - started
            if runner.failures or enough and elapsed + runner.longest_pass_s > seconds:
                break
            if not runner.run_pass(kinds[done % len(kinds)]):
                break
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return runner


def summary(values):
    """(median, q1, q3, n) of a list of numbers."""
    if len(values) == 1:
        return values[0], values[0], values[0], 1
    q1, _, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), q1, q3, len(values)


def show(name, unit, values):
    median, q1, q3, n = summary(values)
    print(f"  {name:<44} {median:12.6g} {unit:<5} q1 {q1:.6g}  q3 {q3:.6g}  n={n}")


def end_to_end(passes, normalised=True):
    """setup_s over every spawn, pass_s and main_s over passes."""
    return {
        "setup_s": [inv.setup_s * (p.scale if normalised else 1.0)
                    for p in passes for inv in p.invocations],
        "pass_s": [pass_time(p, "wall_s", normalised) for p in passes],
        "main_s": [pass_time(p, "main_s", normalised) for p in passes],
    }


def per_layer(traced, plain):
    """Per-layer series over the traced passes, times at the reference speed."""
    per_pass = [
        tracing.layer_metrics([(inv.trace, p.scale) for inv in p.invocations],
                              sum(inv.bytes_written for inv in p.invocations))
        for p in traced
    ]
    absent = per_pass[0][1]
    series = {name: [metrics[name] for metrics, _ in per_pass] for name in per_pass[0][0]}
    series["trace.overhead_ratio"] = [
        statistics.median(pass_time(p, "wall_s") for p in traced)
        / statistics.median(pass_time(p, "wall_s") for p in plain)
    ]
    return series, absent


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    options = parser.parse_args(argv)

    if not (SRC / "bellscope" / "cli.py").is_file():
        print(f"perfbench: no bellscope package under {SRC}; run from a checkout", file=sys.stderr)
        return 2
    host = host_block()
    print("host:", json.dumps(host))
    if host["blas_threads"] is not None and host["blas_threads"] > host["nproc"]:
        print("perfbench: BLAS uses more threads than there are cores", file=sys.stderr)
        return 2

    runner = run(options.workload, options.seed, options.seconds, bool(options.trace))
    plain, traced = runner.passes[False], runner.passes[True]
    failed = len(runner.failures)
    for failure in runner.failures:
        print("FAILED", failure)
    print(f"workload {options.workload}, seed {options.seed}: closed loop, 1 client, "
          f"{len(plain)} untraced and {len(traced)} traced passes, "
          f"{runner.attempted} invocations")
    if not plain or (options.trace and not traced):
        print("perfbench: no complete pass", file=sys.stderr)
        return 1

    print(f"untraced, at the reference speed (calibration {CALIBRATION_REF_S} s):")
    e2e = end_to_end(plain)
    for name, unit in END_TO_END:
        show(name, unit, e2e[name])
    for command in COMMANDS:
        times = [pass_time(p, "main_s", command=command) for p in plain]
        if any(times):
            show(f"{command}_s", "s", times)
    print(f"  {'error_rate':<44} {failed / runner.attempted:12.6g} 1     "
          f"({failed} failed of {runner.attempted})")
    print("untraced, as measured:")
    for name, values in end_to_end(plain, normalised=False).items():
        show(name, "s", values)
    show("calibration_s", "s", [t for p in plain for t in p.calibration])

    if options.trace:
        series, absent = per_layer(traced, plain)
        if absent:
            print("absent:", ", ".join(absent))
        units = {name: unit for name, unit, _, _ in tracing.METRICS}
        print("per-layer, traced passes, at the reference speed:")
        for name, values in series.items():
            show(name, units[name], values)
            if units[name] == "count" and len(set(values)) > 1:
                print(f"  warning: {name} differs between passes: {values}")
        metrics = {name: {"value": statistics.median(values), "unit": units[name]}
                   for name, values in series.items()}
    else:
        metrics = {name: {"value": statistics.median(e2e[name]), "unit": unit}
                   for name, unit in END_TO_END}
    print(json.dumps({"correct": failed == 0, "attempted": runner.attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
