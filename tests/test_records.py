"""The result records are named tuples, the validated input records compare
by identity, and importing the CLI loads no module only the test oracles or
the record machinery need."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from bellscope.catprep import CoherentSuperposition
from bellscope.mk import MKExpansion, expand_mk
from bellscope.rootbin import Psi3Report, RootBinningSpec, psi3_bell_report
from bellscope.signbin import AngleSettings, FockCorrelatedState

SRC = Path(__file__).resolve().parent.parent / "src"

# tests/oracles.py builds Psi3Report by keyword; perfbench/tracing.py reads
# ``result.terms`` of expand_mk's result.
FIELDS = (
    (MKExpansion, ("m", "terms")),
    (
        Psi3Report,
        ("alpha", "bell_x_unprimed", "bell_p_unprimed", "correlators",
         "probability_sums", "min_probability"),
    ),
)


@pytest.mark.parametrize("record, names", FIELDS, ids=[r.__name__ for r, _ in FIELDS])
def test_field_names_and_keyword_construction(record, names):
    assert record._fields == names
    values = tuple(range(len(names)))
    built = record(**dict(zip(names, values)))
    assert built == record(*values) == values
    assert tuple(built) == values
    assert [getattr(built, name) for name in names] == list(values)


def test_records_from_the_package_unpack():
    m, terms = expand_mk(2)
    assert m == 2 and len(terms) == 4
    report = psi3_bell_report([1.0])[0]
    assert report.alpha == 1.0
    assert report.bell_best == max(report.bell_x_unprimed, report.bell_p_unprimed)
    assert report == Psi3Report(*report)


# Two equal-valued instances of each validated input record.
INPUTS = {
    "FockCorrelatedState": lambda: FockCorrelatedState.ghz(3),
    "AngleSettings": lambda: AngleSettings((0.0, 0.5), (1.0, 1.5)),
    "RootBinningSpec": lambda: RootBinningSpec(1.0, 0.5, 0.0, 3),
    "CoherentSuperposition": lambda: CoherentSuperposition([1.0, 1.0], [[0.5], [-0.5]]),
}


@pytest.mark.parametrize("build", INPUTS.values(), ids=INPUTS.keys())
def test_input_records_compare_and_hash_by_identity(build):
    """Equality of array-valued records would be ambiguous, so every input
    record is equal only to itself, and hashable."""
    first, second = build(), build()
    assert first != second and not first == second
    assert first == first and second == second
    assert hash(first) == hash(first)
    assert len({first, second, first}) == 2
    with pytest.raises(AttributeError):
        first.unknown_field = 0


def test_cli_import_leaves_fractions_unloaded():
    """Only the exact expansion, which no command runs, uses ``fractions``,
    and no record under ``src/`` is a dataclass."""
    path = os.pathsep.join(filter(None, (str(SRC), os.environ.get("PYTHONPATH"))))
    code = "import sys, bellscope.cli; print([m for m in {!r} if m in sys.modules])"
    proc = subprocess.run(
        [sys.executable, "-c", code.format(("fractions", "dataclasses"))],
        capture_output=True, text=True, timeout=120, env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
