"""A plain command line is read from the option table with no parser built.

``cli._parse`` reads a plain command line (a command, then ``--flag value``
pairs spelled as in ``cli._OPTIONS``, no value starting with ``-``) itself
and hands every other one to the full parser of ``cli.build_parser``.  These
tests hold the two to the same result: the same ``Namespace`` for every
README example, golden invocation and benchmark invocation and for generated
command lines, and the same exit code, standard output and standard error
for help and for each kind of bad command line.  A count of the
``ArgumentParser`` objects built keeps a plain run at none without timing
anything.
"""

import argparse
import io
import shlex
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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


def test_a_plain_run_builds_no_parser(tmp_path, monkeypatch):
    built = count_parsers(monkeypatch)
    cli.build_parser()
    full = list(built)
    assert len(full) == 1 + len(cli.COMMANDS)  # the counter sees subparsers
    built.clear()
    assert cli.main(["sign-ghz", "--m", "3", "--out", str(tmp_path)]) == 0
    assert built == []
    spelled_with_equals = [argv for argv in INVOCATIONS if any("=" in t for t in argv)]
    assert spelled_with_equals == [
        ("prep-fidelity", "--alpha", "0.3:2:0.1", "--x0=-3:3:0.25")
    ]
    read_by_argparse = [*spelled_with_equals, *ABBREVIATED]
    for argv in INVOCATIONS + ABBREVIATED:
        built.clear()
        cli._parse(list(argv))
        assert built == (full if argv in read_by_argparse else [])


def test_plain_reader_knows_every_table_keyword():
    for _, options in cli._OPTIONS.values():
        for _, keywords, _ in (*options, cli._OUT):
            assert set(keywords) <= {"type", "required", "default", "choices", "help"}
            # argparse would convert a string default with the type
            assert not ("type" in keywords and isinstance(keywords.get("default"), str))


FLAGS = sorted({flag for _, options in cli._OPTIONS.values() for flag, *_ in options} | {"--out"})
# values each flag's table entry accepts: its choices, or by its type
GOOD = {
    int: ("2", "3", "16"),
    float: ("0.3", "1e-6", "nan"),
    str: ("0.5:3:0.5", "3:14:1", "0:0.12:0.04", "1e-9", "some/dir"),
}
# values with no leading -, which some flags accept and others do not
OTHER = ("three", "nan", "", "bogus", "none", "best", "1e-9", "3:14:1", "16")
# tokens only the full parser reads
ODD = (
    "--", "-h", "--help", "--con", "--lab", "--m-", "--al", "--t", "--o",
    "--m=3", "--x0=-3:3:0.25", "--theta=-0.3", "--alpha=0.5", "--p=0",
    "-3", "-0.3", "-1e-3", "-3:3:0.25",
)


@st.composite
def command_lines(draw):
    """A command (or an unknown word, or none) and most of its flags, in any
    order, mostly with values they accept; sometimes a flag given twice or
    one of another command; and up to two odd tokens spliced in anywhere:
    abbreviations, --flag=value, --, -h and negative numbers."""
    rnd = draw(st.randoms(use_true_random=True))
    command = rnd.choice((*cli.COMMANDS, "frobnicate", None))
    table = (*cli._OPTIONS.get(command, ("", ()))[1], cli._OUT)
    own = [flag for flag, *_ in table]
    words = []
    for flag, keywords, _ in table:
        good = keywords.get("choices") or GOOD[keywords.get("type", str)]
        value = rnd.choice((*good, *good, None, rnd.choice(OTHER)))
        if value is not None:
            words.append((flag, value))
    if rnd.random() < 0.3:
        words.append((rnd.choice((*FLAGS, *own)), rnd.choice(OTHER)))
    rnd.shuffle(words)
    words[:0] = [(command,)] if command else []
    for _ in range(rnd.choice((0, 0, 0, 1, 2))):
        odd = (rnd.choice((*FLAGS, *own)), rnd.choice(ODD)) if rnd.random() < 0.5 else (rnd.choice(ODD),)
        words.insert(rnd.randint(0, len(words)), odd)
    return [token for word in words for token in word]


def outcome(parse, argv):
    """The options, by repr (so nan equals nan and 3 differs from 3.0), or
    the exit code and the text written."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with redirect_stdout(stdout), redirect_stderr(stderr):
        try:
            return repr(sorted(vars(parse(list(argv))).items()))
        except SystemExit as exc:
            return exc.code, stdout.getvalue(), stderr.getvalue()


@settings(max_examples=300, derandomize=True, deadline=None)
@given(command_lines())
def test_generated_lines_parse_as_the_full_parser(argv):
    assert outcome(cli._parse, argv) == outcome(full_parse, argv)


def test_main_reads_sys_argv(tmp_path, monkeypatch):
    monkeypatch.setattr(
        sys, "argv", ["bellscope", "sign-ghz", "--m", "3", "--out", str(tmp_path)]
    )
    assert cli.main() == 0
    lines = (tmp_path / "sign-ghz.csv").read_text(encoding="utf-8").splitlines()
    assert lines[0] == "m,bell_factor,analytic,violates"
    assert lines[1].startswith("3,")
