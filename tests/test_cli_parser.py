"""The CLI builds only the parser of the command it runs.

``cli._parse`` hands a command line whose first word is a command to that
command's parser alone, and every other one to the full parser of
``cli.build_parser``.  These tests hold the two to the same result: the same
``Namespace`` for every README example, golden invocation and benchmark
invocation, and the same exit code, standard output and standard error for
help and for each kind of bad command line.  A count of the
``ArgumentParser`` objects built keeps a run at one parser without timing
anything.
"""

import argparse
import shlex
import sys
from pathlib import Path

import pytest

from bellscope import cli
from test_golden_csv import PINNED

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))
try:
    from workloads import WORKLOADS
finally:
    sys.path.remove(str(ROOT / "perfbench"))


def readme_invocations():
    lines = (ROOT / "README.md").read_text(encoding="utf-8").splitlines()
    return [
        tuple(shlex.split(line, comments=True)[1:])
        for line in lines
        if line.startswith("bellscope ")
    ]


README = readme_invocations()
INVOCATIONS = tuple(dict.fromkeys(
    [*README, *(argv for _, argv in PINNED)]
    + [argv for runs in WORKLOADS.values() for _, argv in runs]
))
# abbreviations argparse accepts: --con for --constraint, --m for --m-max
ABBREVIATED = (
    ("sign-optimize", "--m", "2", "--d", "30", "--con", "nonneg"),
    ("root-max", "--m", "3"),
)
REJECTED = (
    ("-h",),
    ("sign-ghz", "-h"),
    ("sign-ghz",),
    ("sign-ghz", "--out", "x"),
    ("sign-optimize", "--m", "3", "--d", "20", "--constraint", "bogus"),
    ("cat-vw", "--alpha", "2", "--tol", "1e-8"),
    ("sign-ghz", "--m", "3", "--bogus"),
    ("sign-ghz", "--m", "3", "extra"),
    ("sign-ghz", "--m", "three"),
    ("sign-ghz", "--m", "3", "--"),
    ("frobnicate",),
    (),
    ("--", "sign-ghz", "--m", "3"),
) + tuple((name, "--help") for name in cli.COMMANDS)


def full_parse(argv):
    return cli.build_parser().parse_args(argv)


def count_parsers(monkeypatch):
    """The prog of every ArgumentParser built from now on, in order."""
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    return built


def range_before(text):
    """parse_range's values before it checked that each value moves past the
    one before, for a START:STOP:STEP whose loop ends."""
    start, stop, step = map(float, text.split(":"))
    values, k = [], 0
    while start + k * step <= stop + 1e-9 * step:
        values.append(start + k * step)
        k += 1
    return values


def test_invocations_gathered():
    assert len(README) == 9
    assert all(argv[0] in cli.COMMANDS for argv in INVOCATIONS)
    assert {argv[0] for argv in INVOCATIONS} == set(cli.COMMANDS)


def test_every_range_in_use_parses_as_before():
    ranges = {
        token.split("=")[-1]
        for argv in INVOCATIONS
        for token in argv
        if token.split("=")[-1].count(":") == 2
    }
    assert len(ranges) >= 10
    for text in sorted(ranges):
        assert cli.parse_range(text) == range_before(text), text


@pytest.mark.parametrize("argv", INVOCATIONS + ABBREVIATED, ids=" ".join)
def test_namespace_equals_full_parser(argv):
    for args in (argv, (*argv, "--out", "some/dir")):
        assert cli._parse(list(args)) == full_parse(list(args))


@pytest.mark.parametrize("argv", REJECTED, ids=lambda argv: " ".join(argv) or "empty")
def test_exit_and_text_equal_full_parser(capsys, argv):
    outcomes = []
    for parse in (cli._parse, full_parse):
        with pytest.raises(SystemExit) as exc:
            parse(list(argv))
        outcomes.append((exc.value.code, *capsys.readouterr()))
    assert outcomes[0] == outcomes[1]
    assert outcomes[0][0] == (0 if {"-h", "--help"} & set(argv) else 2)


def test_both_parsers_read_one_table():
    assert list(cli._OPTIONS) == list(cli.COMMANDS)


def test_a_run_builds_one_parser(tmp_path, monkeypatch):
    built = count_parsers(monkeypatch)
    cli.build_parser()
    assert len(built) == 1 + len(cli.COMMANDS)  # the counter sees subparsers
    built.clear()
    assert cli.main(["sign-ghz", "--m", "3", "--out", str(tmp_path)]) == 0
    assert built == ["bellscope sign-ghz"]
    for argv in INVOCATIONS + ABBREVIATED:
        built.clear()
        cli._parse(list(argv))
        assert built == [f"bellscope {argv[0]}"]


def test_main_reads_sys_argv(tmp_path, monkeypatch):
    monkeypatch.setattr(
        sys, "argv", ["bellscope", "sign-ghz", "--m", "3", "--out", str(tmp_path)]
    )
    assert cli.main() == 0
    lines = (tmp_path / "sign-ghz.csv").read_text(encoding="utf-8").splitlines()
    assert lines[0] == "m,bell_factor,analytic,violates"
    assert lines[1].startswith("3,")
