"""Byte identity of the CSV output of the optimizer, the psi3 curve, the
preparation fidelity and a few extreme amplitudes and party counts.

Each invocation runs in this process through ``cli.main`` and its CSV is
checked against either the committed benchmark reference under
``perfbench/reference/`` (read only) or a golden file under
``tests/golden/``.  The sign-optimize golden files hold the bytes the code
wrote before the support finish and the sign skip; the psi3-curve ones, the
bytes it wrote before the grid was integrated in one lockstep batch (one
amplitude at a time, down to 1e-9 and up to 30, and at ``--tol 1e-6``)
or, for ``0.5:3.0:0.05`` and ``0.05:12:0.05`` at the default tol, before
the quadrature called its integrands on blocks of panel rows; the
prep-fidelity ones, the bytes it wrote with one pipeline call per x0, and
``<stem>.headline.json`` beside each the JSON headline of that run (its best
x0 breaks a tie at the top fidelity by the larger density); the README
examples, the bytes written before the lockstep quadrature kept its state in
arrays.

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
    (GOLDEN / "psi3-curve-a5e-324.csv", ("psi3-curve", "--alpha", "5e-324")),
    (GOLDEN / "psi3-curve-a30.csv", ("psi3-curve", "--alpha", "30")),
    (GOLDEN / "psi3-curve-a0.5-3-tol1e-6.csv", ("psi3-curve", "--alpha", "0.5:3.0:0.05", "--tol", "1e-6")),
    # the benchmark grid (its reference above can be rewritten with the
    # benchmark) and the wide grid, at the default tol
    (GOLDEN / "psi3-curve-a0.5-3-0.05.csv", ("psi3-curve", "--alpha", "0.5:3.0:0.05")),
    (GOLDEN / "psi3-curve-a0.05-12-0.05.csv", ("psi3-curve", "--alpha", "0.05:12:0.05")),
    (REFERENCE / "prep-fidelity-a1-4.csv", ("prep-fidelity", "--alpha", "1:4:1")),
    (GOLDEN / "prep-fidelity-a0.3-2-x0-3-3.csv", ("prep-fidelity", "--alpha", "0.3:2:0.1", "--x0=-3:3:0.25")),
    (GOLDEN / "prep-fidelity-a1e-9.csv", ("prep-fidelity", "--alpha", "1e-9")),
    (GOLDEN / "prep-fidelity-a5-8.csv", ("prep-fidelity", "--alpha", "5:8:1")),
    (GOLDEN / "prep-fidelity-a0.05-0.5.csv", ("prep-fidelity", "--alpha", "0.05:0.5:0.05")),
    (GOLDEN / "cat-vw-a1e-9.csv", ("cat-vw", "--alpha", "1e-9")),
    (GOLDEN / "cat-vw-a50.csv", ("cat-vw", "--alpha", "50")),
    (GOLDEN / "sign-ghz-m1000.csv", ("sign-ghz", "--m", "1000")),
    # the README examples not pinned above
    (GOLDEN / "sign-ghz-m3.csv", ("sign-ghz", "--m", "3")),
    (GOLDEN / "sign-optimize-m3-d20.csv", ("sign-optimize", "--m", "3", "--d", "20")),
    (GOLDEN / "sign-optimize-m3-d400-nonneg.csv", ("sign-optimize", "--m", "3", "--d", "400", "--constraint", "nonneg")),
    (GOLDEN / "root-max-m8.csv", ("root-max", "--m-max", "8")),
    (GOLDEN / "cat-vw-a0.5-6-0.5.csv", ("cat-vw", "--alpha", "0.5:6:0.5")),
    (GOLDEN / "noise-sweep-m3-10.csv", ("noise-sweep", "--m", "3:10:1", "--p", "0:0.12:0.01")),
    # the scans in m: parties past mk._BLOCK = 256, both labelings, a fixed phase
    (GOLDEN / "noise-sweep-m250-1000.csv", ("noise-sweep", "--m", "250:1000:250", "--p", "0:0.12:0.04")),
    (GOLDEN / "root-max-m300-best.csv", ("root-max", "--m-max", "300", "--labeling", "best")),
    (GOLDEN / "root-max-m12-theta0.3-p-unprimed.csv", ("root-max", "--m-max", "12", "--theta", "0.3", "--labeling", "p-unprimed")),
    # the benchmark's scans in m (its references hold them only within a band)
    # and one scan across both mk._BLOCK boundaries, 256 and 512 parties
    (GOLDEN / "noise-sweep-m3-14.csv", ("noise-sweep", "--m", "3:14:1", "--p", "0:0.12:0.01")),
    (REFERENCE / "root-max-m14.csv", ("root-max", "--m-max", "14")),
    (GOLDEN / "noise-sweep-m250-530.csv", ("noise-sweep", "--m", "250:530:10", "--p", "0:0.1:0.05")),
)
# The prep-fidelity JSON headline (best x0 per amplitude, its fidelity and
# density, and the swapped wiring's fidelity there) is pinned as well.
HEADLINED = "prep-fidelity"


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


def on_recorded_build():
    return running_build() == json.loads(BUILD.read_text(encoding="utf-8"))


def headline_path(path):
    return GOLDEN / f"{path.stem}.headline.json"


def csv_bytes(argv, out):
    assert cli.main([*argv, "--out", str(out)]) == 0
    return (Path(out) / f"{argv[0]}.csv").read_bytes()


def headline(out, argv):
    return json.loads((Path(out) / f"{argv[0]}.json").read_text(encoding="utf-8"))["headline"]


@pytest.mark.parametrize("path, argv", PINNED, ids=[path.stem for path, _ in PINNED])
def test_csv_bytes_unchanged(tmp_path, path, argv):
    actual, expected = csv_bytes(argv, tmp_path), path.read_bytes()
    if on_recorded_build():
        assert actual == expected
    else:
        assert reference.compare(expected.decode(), actual.decode()) is None
    if argv[0] == HEADLINED:
        check_headline(headline(tmp_path, argv), headline_path(path))


def check_headline(actual, path):
    """Every value equal on the recorded build.  Elsewhere the fidelities
    must lie within the benchmark's band of other columns: near fidelity 1
    neighbouring x0 can tie to the last bit, so the best x0 (and with it
    the density) may move between builds."""
    expected = json.loads(path.read_text(encoding="utf-8"))
    if on_recorded_build():
        assert actual == expected
        return
    assert actual["best_by_alpha"].keys() == expected["best_by_alpha"].keys()
    for alpha, best in expected["best_by_alpha"].items():
        for key in ("fidelity", "fidelity_swapped_wiring"):
            assert actual["best_by_alpha"][alpha][key] == pytest.approx(
                best[key], rel=reference.OTHER_REL, abs=reference.OTHER_ABS
            )


if __name__ == "__main__":
    import tempfile

    stems = sys.argv[1:]
    if not on_recorded_build():
        stems = []
        BUILD.write_text(json.dumps(running_build(), indent=2) + "\n", encoding="utf-8")
        print(f"wrote {BUILD.relative_to(ROOT)}")
    for path, argv in PINNED:
        if stems and path.stem not in stems:
            continue
        with tempfile.TemporaryDirectory() as out:
            written = csv_bytes(argv, out)
            if path.parent == GOLDEN:
                path.write_bytes(written)
                print(f"wrote {path.relative_to(ROOT)}")
            if argv[0] == HEADLINED:
                text = json.dumps(headline(out, argv), indent=2, sort_keys=True)
                headline_path(path).write_text(text + "\n", encoding="utf-8")
                print(f"wrote {headline_path(path).relative_to(ROOT)}")
