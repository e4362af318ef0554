"""Byte identity of the CSV output of the optimizer and of the psi3 curve.

Each invocation runs in this process through ``cli.main`` and its CSV is
checked against either the committed benchmark reference under
``perfbench/reference/`` (read only) or a golden file under
``tests/golden/``.  The sign-optimize golden files hold the bytes the code
wrote before the support finish and the sign skip; the psi3-curve ones, the
bytes it wrote before the grid was integrated in one lockstep batch (one
amplitude at a time, down to 1e-9 and up to 30, and at ``--tol 1e-6``).

The last printed digit of a coefficient can move with the numpy and BLAS
build, and with the Python version wherever Python's own arithmetic rounds
it (the builtin ``sum`` of floats, for one, is compensated from 3.12 on), so
``tests/golden/build.json`` records the build that wrote the golden files
(Python and numpy versions, BLAS library and version, machine type).  On that build every CSV must
equal its file byte for byte; the sign-optimize bytes came out there with
OpenBLAS forced to its Haswell and Katmai kernels as with its SkylakeX
default.  On any other build the CSV must match within the benchmark's
tolerances (``perfbench/reference.compare``), as in
``test_reference_outputs.py``.

The m = 3, d = 60 reference differs from what the recorded build writes in
the twelfth significant digit of four coefficients, so its bytes are pinned
by a golden file instead.

A change that moves these bytes on purpose rewrites only the files it moves,
with ``PYTHONPATH=src python tests/test_golden_csv.py [stem ...]``, and
CHANGES.md names each file, the largest change and why.  On a build other
than the recorded one the script rewrites every golden file and the build
record together.
"""

import json
import platform
import sys
from pathlib import Path

import numpy as np
import pytest

from bellscope import cli

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"
BUILD = GOLDEN / "build.json"
REFERENCE = ROOT / "perfbench" / "reference"

sys.path.insert(0, str(ROOT / "perfbench"))
try:
    import reference
finally:
    sys.path.remove(str(ROOT / "perfbench"))

# (file, argv) for every pinned invocation
PINNED = (
    (REFERENCE / "sign-optimize-m2-d30-nonneg.csv", ("sign-optimize", "--m", "2", "--d", "30", "--constraint", "nonneg")),
    (GOLDEN / "sign-optimize-m3-d60-nonneg.csv", ("sign-optimize", "--m", "3", "--d", "60", "--constraint", "nonneg")),
    (GOLDEN / "sign-optimize-m2-d11-nonneg.csv", ("sign-optimize", "--m", "2", "--d", "11", "--constraint", "nonneg")),
    (GOLDEN / "sign-optimize-m3-d11-nonneg.csv", ("sign-optimize", "--m", "3", "--d", "11", "--constraint", "nonneg")),
    (GOLDEN / "sign-optimize-m2-d11.csv", ("sign-optimize", "--m", "2", "--d", "11")),
    (GOLDEN / "sign-optimize-m3-d11.csv", ("sign-optimize", "--m", "3", "--d", "11")),
    (REFERENCE / "psi3-curve-a0.5-3.csv", ("psi3-curve", "--alpha", "0.5:3.0:0.05")),
    (GOLDEN / "psi3-curve-a0.05-12-0.25.csv", ("psi3-curve", "--alpha", "0.05:12:0.25")),
    (GOLDEN / "psi3-curve-a1e-9.csv", ("psi3-curve", "--alpha", "1e-9")),
    (GOLDEN / "psi3-curve-a30.csv", ("psi3-curve", "--alpha", "30")),
    (GOLDEN / "psi3-curve-a0.5-3-tol1e-6.csv", ("psi3-curve", "--alpha", "0.5:3.0:0.05", "--tol", "1e-6")),
)


def running_build():
    """The Python and numpy versions, BLAS library and machine type of this
    process."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "machine": platform.machine(),
    }


def csv_bytes(argv, out):
    assert cli.main([*argv, "--out", str(out)]) == 0
    return (Path(out) / f"{argv[0]}.csv").read_bytes()


@pytest.mark.parametrize("path, argv", PINNED, ids=[path.stem for path, _ in PINNED])
def test_csv_bytes_unchanged(tmp_path, path, argv):
    actual, expected = csv_bytes(argv, tmp_path), path.read_bytes()
    if running_build() == json.loads(BUILD.read_text(encoding="utf-8")):
        assert actual == expected
    else:
        assert reference.compare(expected.decode(), actual.decode()) is None


if __name__ == "__main__":
    import tempfile

    build = running_build()
    stems = sys.argv[1:]
    if build != json.loads(BUILD.read_text(encoding="utf-8")):
        stems = []
        BUILD.write_text(json.dumps(build, indent=2) + "\n", encoding="utf-8")
        print(f"wrote {BUILD.relative_to(ROOT)}")
    for path, argv in PINNED:
        if path.parent == GOLDEN and (not stems or path.stem in stems):
            with tempfile.TemporaryDirectory() as out:
                path.write_bytes(csv_bytes(argv, out))
            print(f"wrote {path.relative_to(ROOT)}")
