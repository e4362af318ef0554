"""Every benchmark invocation in ``perfbench/workloads.py``, run in this
process through ``cli.main``, against its reference CSV under
``perfbench/reference/``, with the benchmark's own comparison
``perfbench/reference.compare``.  An output the benchmark would call
incorrect fails here first.

The tolerances are the ones ``perfbench/reference.py`` states: integer
columns exact, Bell-factor columns relative 1e-9, every other column
(inputs, state coefficients) relative 1e-9 plus absolute 1e-12.  Under
them the two unconstrained ``sign-optimize`` CSVs may move in their last
printed digits, since the top pair of the even/odd block from its Gram
matrix and a full eigensolve round differently; the non-negative ones and
the other six are expected unchanged.
"""

import sys
from pathlib import Path

import pytest

from bellscope import cli

PERFBENCH = str(Path(__file__).resolve().parent.parent / "perfbench")
sys.path.insert(0, PERFBENCH)
try:
    import reference
    from workloads import WORKLOADS
finally:
    sys.path.remove(PERFBENCH)

INVOCATIONS = [invocation for runs in WORKLOADS.values() for invocation in runs]


@pytest.mark.parametrize(
    "invocation_id, argv", INVOCATIONS, ids=[i for i, _ in INVOCATIONS]
)
def test_matches_reference(tmp_path, invocation_id, argv):
    assert cli.main([*argv, "--out", str(tmp_path)]) == 0
    actual = (tmp_path / f"{argv[0]}.csv").read_text(encoding="utf-8")
    expected = reference.reference_path(invocation_id).read_text(encoding="utf-8")
    assert reference.compare(expected, actual) is None
