"""Each option's domain lives in its ``cli._OPTIONS`` row, and the CLI keeps
to it: a value outside exits 2 with a message naming the option, and a
command line inside exits 0 with values the physics allows or 3 with one
line on stderr, never with a traceback, a RuntimeWarning or a nan.

A row's domain is (parse, low, high, rule): every value v of the option,
after ``parse_range`` or ``parse_int_range`` for a range option, must lie in
low <= v <= high.  The generated command lines below draw each option's
values from its row: inside, at the edges and just or far outside.
"""

import inspect
import io
import json
import math
import sys
import warnings
from contextlib import redirect_stderr

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bellscope import cli
from test_cli import SMALL_RUNS

# What the generated lines may cost: bounds on values no row bounds, and on
# the number of values per range.
CAPS = {"--m": 6000, "--m-max": 2000, "--d": 100}
MAX_VALUES = {"psi3-curve": 4}
# Inside its domain only these fail for want of precision (a vanishing
# conditional density, a quadrature that dropped mass); the others, within
# the caps, have nothing to fail on below FLOAT_RANGE_M modes.
MAY_FAIL = {"prep-fidelity", "psi3-curve"}
# Past this many modes the GHZ Bell value and the Bell matrix at every d
# leave the float range: those runs exit 3.
FLOAT_RANGE_M = 5873
# Python's own error texts, which the CLI must never pass on as its message
RAW = ("division by zero", "out of range')", "cannot convert", "np.float64")


def run(tmp_path, argv):
    """Exit status and standard error of one in-process run, with every
    RuntimeWarning an error (so it fails the test as a traceback would)."""
    err = io.StringIO()
    with warnings.catch_warnings(), redirect_stderr(err):
        warnings.simplefilter("error", RuntimeWarning)
        try:
            status = cli.main([*argv, "--out", str(tmp_path)])
        except SystemExit as exc:  # argparse's usage errors
            status = exc.code
    return status, err.getvalue()


def test_validate_names_no_command():
    source = inspect.getsource(cli._validate)
    assert not [name for name in cli.COMMANDS if name in source]


def test_every_number_option_has_a_domain():
    for _, options in cli._OPTIONS.values():
        for flag, keywords, domain in options:
            assert (domain is None) == ("choices" in keywords), flag


@pytest.mark.parametrize(
    "argv, message",
    (
        (("cat-vw", "--alpha", "1e-310"), "--alpha values must be >= 2.2250738585072014e-308"),
        (("psi3-curve", "--alpha", "1e300"), "--alpha values must lie in (0, 30]"),
        (("psi3-curve", "--alpha", "1000"), "--alpha values must lie in (0, 30]"),
        (("psi3-curve", "--alpha", "1e300", "--tol", "1"), "--alpha values must lie in (0, 30]"),
        (("psi3-curve", "--alpha", "1", "--tol", "1"), "--tol must lie in (0, 1e-2]"),
        (("prep-fidelity", "--alpha", "1e100"), "--alpha values must lie in (0, 30]"),
        (("prep-fidelity", "--alpha", "1e160"), "--alpha values must lie in (0, 30]"),
        (("prep-fidelity", "--alpha", "1e300"), "--alpha values must lie in (0, 30]"),
        (("prep-fidelity", "--alpha", "1", "--x0", "1e160"), "--x0 values must lie in [-1e100, 1e100]"),
        (("root-max", "--m-max", "3", "--theta", "inf"), "--theta must be finite"),
        (("noise-sweep", "--m", "1:3:1", "--p", "0"), "--m values must lie in [2, 6000]"),
        (("noise-sweep", "--m", "3", "--p", "0:1.5:0.5"), "--p values must lie in [0, 1]"),
        (("sign-optimize", "--m", "3", "--d", "1"), "--d must lie in [2, 2000]"),
        (("sign-optimize", "--m", "3", "--d", "2001"), "--d must lie in [2, 2000]"),
        (("sign-ghz", "--m", "6001"), "--m must lie in [2, 6000]"),
        (("sign-optimize", "--m", "6001", "--d", "3"), "--m must lie in [2, 6000]"),
        (("noise-sweep", "--m", "5999:6001:1", "--p", "0"), "--m values must lie in [2, 6000]"),
    ),
)
def test_outside_the_domain_exits_2(tmp_path, argv, message):
    assert run(tmp_path, argv) == (2, f"bellscope: configuration error: {message}\n")
    assert not (tmp_path / f"{argv[0]}.csv").exists()


def test_amplitude_bounds_hold_their_edge(tmp_path):
    for command in ("psi3-curve", "prep-fidelity"):
        assert run(tmp_path, (command, "--alpha", "30")) == (0, "")


@pytest.mark.parametrize("alpha, tol", (("30", "1e-4"), ("24.4", "1e-7"), ("2.8", "1e-2")))
def test_quadrature_that_dropped_mass_exits_3(tmp_path, alpha, tol):
    """At these loose tolerances a panel misses a narrow Gaussian and looks
    converged (Bell 7.5e-7 for 2.2159 at alpha = 30, tol = 1e-4); the
    outcome sums show it, so the run fails instead of printing that."""
    status, err = run(tmp_path, ("psi3-curve", "--alpha", alpha, "--tol", tol))
    assert status == 3
    assert err == (
        f"bellscope: numerical failure: psi3 probabilities at alpha = {float(alpha)!r}"
        f" do not sum to 1 within {float(tol)!r}\n"
    )
    assert run(tmp_path, ("psi3-curve", "--alpha", alpha, "--tol", "1e-9")) == (0, "")


@pytest.mark.parametrize(
    "argv", [(command, *args) for command, args in SMALL_RUNS.items()]
    + [("prep-fidelity", "--alpha", "1")],  # the default x0 grid
    ids=" ".join,
)
def test_rows_hold_plain_values(argv):
    """Commands hand the CSV writer Python floats, ints and bools only."""
    options = cli._parse(list(argv))
    cli._validate(options)
    _, rows, _ = cli.COMMANDS[argv[0]](options)
    assert {type(cell) for row in rows for cell in row} <= {float, int, bool}


def number(rnd, low, high, integral):
    """A value inside [low, high], often at or next to an edge, of any
    magnitude; or, one time in four, outside it: just past an edge,
    non-finite, or of the wrong sign."""
    if integral:
        if rnd.random() < 0.25:
            return low - rnd.randint(1, 3)
        return rnd.choice((low, low + rnd.randint(0, 10), rnd.randint(low, high)))
    if rnd.random() < 0.25:
        return rnd.choice((
            math.nextafter(low, -math.inf), math.nextafter(high, math.inf),
            -1.0, 0.0, math.inf, -math.inf, math.nan,
        ))
    r = rnd.random()
    magnitude = 10.0 ** rnd.uniform(-323.0, min(math.log10(high), 308.0) if high > 0 else 0.0)
    value = rnd.choice((
        low, high, math.nextafter(low, high), math.nextafter(high, low),
        (1.0 - r) * low + r * high,
        magnitude, -magnitude, math.nextafter(magnitude, -math.inf),
    ))
    return min(max(value, low), high)


def value_text(rnd, command, flag, keywords, domain):
    """The text of one value of the option (for a range option, half the
    time START:STOP:STEP) and whether every value it stands for lies in the
    row's domain (None if it is no valid range)."""
    parse, low, high, _ = domain
    integral = keywords.get("type") is int or parse is cli.parse_int_range
    cap = min(high, CAPS.get(flag, cli._HUGE))
    start = number(rnd, low, cap, integral)
    if parse is None or rnd.random() < 0.5:
        text = repr(start)
    else:
        count = rnd.randint(1, MAX_VALUES.get(command, 50))
        room = (cap - start) / max(count - 1, 1)
        if integral:
            step = rnd.randint(1, max(1, int(room)) if math.isfinite(room) else 50)
        else:
            fit = room * rnd.random() if math.isfinite(room) and room > 0 else 1.0
            step = rnd.choice((fit, fit, 1e-3, 0.25, 7.5, abs(start) * 1e-17))
        text = f"{start!r}:{start + (count - 1) * step!r}:{step!r}"
    if parse is None:
        return text, low <= start <= high
    try:
        values = parse(text, flag)
    except cli.ConfigError:
        return text, None
    return text, all(low <= v <= high for v in values)


@st.composite
def command_lines(draw):
    """A command and each of its options that has a domain (the optional
    ones not always): the argv, and whether every value lies in its domain."""
    rnd = draw(st.randoms(use_true_random=True))
    command = rnd.choice(tuple(cli.COMMANDS))
    argv, inside = [command], True
    for flag, keywords, domain in cli._OPTIONS[command][1]:
        if domain is None or not (keywords.get("required") or rnd.random() < 0.5):
            continue
        text, ok = value_text(rnd, command, flag, keywords, domain)
        inside = inside and ok
        # argparse reads a value starting with - only after =
        argv += [f"{flag}={text}"] if text.startswith("-") else [flag, text]
    return argv, inside


def check_invariants(path, argv):
    """What an exit-0 run printed lies where the physics allows it."""
    command = argv[0]
    lines = (path / f"{command}.csv").read_text(encoding="utf-8").splitlines()
    rows = [[float(x) if x not in ("true", "false") else x for x in line.split(",")] for line in lines[1:]]
    assert rows
    with open(path / f"{command}.json", encoding="utf-8") as fh:
        headline = json.load(fh)["headline"]

    def bell_ok(bell, m):  # the bound rounded to the 12 digits the CSV prints, inf past m = 2045
        return 0.0 <= bell and (m > 2045 or bell <= float(format(2.0 ** ((m + 1) / 2), ".12g")))

    if command == "sign-ghz":
        assert all(bell_ok(bell, m) for m, bell, *_ in rows)
    elif command == "sign-optimize":
        assert bell_ok(headline["bell_factor"], headline["m"])
    elif command == "root-max":
        assert all(bell_ok(bell, m) for m, _, bell, _ in rows)
    elif command == "noise-sweep":
        assert all(bell_ok(bell, m) for m, _, bell, _ in rows)
    elif command == "cat-vw":
        assert all(0.0 <= v <= 1.0 and 0.0 <= w <= 1.0 for _, v, w in rows)
    elif command == "psi3-curve":
        assert all(bell_ok(bell, 3) for row in rows for bell in row[1:4])
        tol = float(argv[argv.index("--tol") + 1]) if "--tol" in argv else cli.DEFAULT_TOL
        assert all(row[4] <= max(tol, 1e-12) for row in rows)  # the quadrature's floor is 1e-14
    elif command == "prep-fidelity":
        assert all(0.0 <= fidelity <= 1.0 and density >= 0.0 for _, _, fidelity, density in rows)
        # The CSV rounds to 12 digits; the headline holds the best fidelities
        # in full, within the few roundings of |<target|state>|^2 of 1.
        top = 1.0 + 4.0 * sys.float_info.epsilon
        assert all(max(best["fidelity"], best["fidelity_swapped_wiring"]) <= top
                   for best in headline["best_by_alpha"].values())


def may_fail(argv, err) -> bool:
    """Whether an exit-3 run inside the domains failed as it may."""
    if argv[0] in MAY_FAIL:
        return True
    if argv[0] not in ("sign-ghz", "sign-optimize", "noise-sweep"):
        return False
    modes = cli.parse_int_range(argv[argv.index("--m") + 1])
    return max(modes) > FLOAT_RANGE_M and err.endswith("exceeds the float range\n")


@settings(max_examples=120, derandomize=True, deadline=None)
@given(command_lines())
# a fidelity 1.0000000000009095 while the Gram exponent cancelled a b against
# (a^2 + b^2)/2, to about alpha^2 eps
@example(line=(["prep-fidelity", "--alpha", "26.790367892976587"], True))
def test_generated_lines_keep_to_the_domains(tmp_path_factory, line):
    argv, inside = line
    path = tmp_path_factory.mktemp("run")
    status, err = run(path, argv)
    assert "Traceback" not in err
    if not inside:
        assert status == 2 and err.startswith("bellscope: configuration error: "), (argv, err)
        return
    assert status == 0 or (status == 3 and may_fail(argv, err)), (argv, err)
    if status == 3:
        assert err.startswith("bellscope: numerical failure: ") and err.count("\n") == 1
        assert not [text for text in RAW if text in err], err
        return
    assert err == ""
    check_invariants(path, argv)
    assert "nan" not in (path / f"{argv[0]}.csv").read_text(encoding="utf-8")


@pytest.mark.parametrize("d", (2, 3, 12, 61))
def test_sign_optimize_over_the_range_of_m(tmp_path, d):
    """Both solves up to the --m bound, across the mode counts where the
    losing sign's entries dwarf its largest positive one (from 793 at d >=
    12) and where the block's squares leave the float range (from 1467):
    exit 0 with a finite Bell factor, and exit 3 once the Bell matrix
    itself leaves the float range."""
    for m in (792, 793, 1466, 1467, 3000, 5000, 6000):
        for constraint in ("none", "nonneg"):
            argv = ("sign-optimize", "--m", str(m), "--d", str(d), "--constraint", constraint)
            status, err = run(tmp_path, argv)
            if m > FLOAT_RANGE_M:
                failure = "bellscope: numerical failure: Bell matrix entries exceed the float range\n"
                assert (status, err) == (3, failure), argv
                continue
            assert (status, err) == (0, ""), argv
            with open(tmp_path / "sign-optimize.json", encoding="utf-8") as fh:
                bell = json.load(fh)["headline"]["bell_factor"]
            assert math.isfinite(bell) and bell > 2.0, argv
