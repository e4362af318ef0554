"""Reference CSVs for every benchmark invocation, and the check against them.

Tolerances, by column:

- integer and boolean columns (``m``, ``r``, ``violates``): exact text;
- Bell-factor columns: relative 1e-9.  The CSV carries 12 significant
  digits, so this leaves room for a summation order that moves the last
  two or three of them, and for nothing more;
- ``probability_sum_error``: absolute 1e-8.  It is quadrature noise near
  1e-12, so a relative comparison would be meaningless;
- every other column (inputs, overlaps, fidelities, densities, state
  coefficients): relative 1e-9 plus absolute 1e-12, the absolute part for
  entries that are zero up to rounding.

Run this file as a script to rewrite the references from the code in
``src/``: ``python3 perfbench/reference.py``.  Only do that for a change
that is meant to alter the CLI's output, and say so in its description.
"""

from __future__ import annotations

import math
import os
import sys
import tempfile
from pathlib import Path

from workloads import WORKLOADS

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

EXACT_COLUMNS = frozenset({"m", "r", "violates"})
BELL_COLUMNS = frozenset(
    {"bell_factor", "analytic", "quantum_bound", "bell_x_unprimed", "bell_p_unprimed", "bell_best"}
)
BELL_REL = 1e-9
ABSOLUTE_COLUMNS = {"probability_sum_error": 1e-8}
OTHER_REL = 1e-9
OTHER_ABS = 1e-12


def _cell_matches(column: str, expected: str, actual: str) -> bool:
    if column in EXACT_COLUMNS:
        return expected == actual
    try:
        a, b = float(expected), float(actual)
    except ValueError:
        return False
    if not (math.isfinite(a) and math.isfinite(b)):
        return False
    if column in ABSOLUTE_COLUMNS:
        return abs(a - b) <= ABSOLUTE_COLUMNS[column]
    if column in BELL_COLUMNS:
        return abs(a - b) <= BELL_REL * max(abs(a), abs(b))
    return abs(a - b) <= OTHER_REL * max(abs(a), abs(b)) + OTHER_ABS


def compare(expected: str, actual: str):
    """None when ``actual`` CSV text matches ``expected``, else the first
    difference as a message."""
    exp_lines = expected.splitlines()
    act_lines = actual.splitlines()
    if not exp_lines or not act_lines or exp_lines[0] != act_lines[0]:
        return "header differs"
    if len(exp_lines) != len(act_lines):
        return f"{len(act_lines) - 1} rows, reference has {len(exp_lines) - 1}"
    header = exp_lines[0].split(",")
    for row, (exp, act) in enumerate(zip(exp_lines[1:], act_lines[1:]), start=1):
        exp_cells, act_cells = exp.split(","), act.split(",")
        if len(exp_cells) != len(header) or len(act_cells) != len(header):
            return f"row {row}: wrong number of cells"
        for column, e, a in zip(header, exp_cells, act_cells):
            if not _cell_matches(column, e, a):
                return f"row {row}, column {column}: {a} (reference {e})"
    return None


def reference_path(invocation_id: str) -> Path:
    return REFERENCE_DIR / f"{invocation_id}.csv"


def write_references(src: Path) -> None:
    """Run every invocation in this process and store the CSV it writes."""
    os.environ.pop("BELLSCOPE_JOBS", None)
    sys.path.insert(0, str(src))
    from bellscope import cli

    REFERENCE_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=src.parent) as out:
        for invocations in WORKLOADS.values():
            for invocation_id, argv in invocations:
                code = cli.main([*argv, "--out", out])
                if code != 0:
                    raise SystemExit(f"{invocation_id}: exit status {code}")
                csv = Path(out) / f"{argv[0]}.csv"
                reference_path(invocation_id).write_bytes(csv.read_bytes())
                print(f"wrote {reference_path(invocation_id)}")


if __name__ == "__main__":
    write_references(Path(__file__).resolve().parent.parent / "src")
