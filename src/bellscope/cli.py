"""Command-line front end: batch sweeps with CSV + JSON output.

Every command writes <command>.csv and <command>.json into --out.  CSV files
are deterministic byte-for-byte for a given configuration (fixed iteration
order, 12 significant digits, no timestamps); wall time lives only in the
JSON summary.  Exit status: 0 success, 2 configuration error, 3 numerical
failure: the package raises ArithmeticError for every numerical failure
(``numerics.IntegrationError`` is one), and this module only maps it to 3.
``bellscope --help`` lists the commands, ``bellscope <command> --help``
shows a command's options.  A plain command line (each option
spelled out, ``--flag value``, no value starting with ``-``) is read from the
option table with no argparse parser built; argparse takes every other line.
Once ``main`` has run, what is alive at exit is frozen, not collected (that
saves the exit-time heap sweep), so a file left open may never be closed.
"""

from __future__ import annotations

import argparse
import atexit
import gc
import itertools
import json
import math
import sys
import time
from pathlib import Path

from . import catprep, erasure, mk, rootbin, signbin

DEFAULT_TOL = 1e-9
# Ranges become lists of floats before any command runs, so their size is capped.
MAX_RANGE_VALUES = 10**6


class ConfigError(ValueError):
    pass


def parse_range(text: str, name: str = "range"):
    """start:stop:step (inclusive start, step > 0 and large enough to move
    every value past the one before, at most MAX_RANGE_VALUES values) or a
    single value, all finite."""
    try:
        numbers = [float(p) for p in text.split(":")]
        if len(numbers) not in (1, 3):
            raise ValueError
    except ValueError:
        raise ConfigError(
            f"malformed {name} {text!r}: expected VALUE or START:STOP:STEP"
        ) from None
    if not all(map(math.isfinite, numbers)):
        raise ConfigError(f"{name} values must be finite, got {text!r}")
    if len(numbers) == 1:
        return numbers
    start, stop, step = numbers
    if step <= 0:
        raise ConfigError(f"{name} step must be > 0")
    if stop < start:
        raise ConfigError(f"{name} stop must be >= start")
    if (stop - start) / step + 1e-9 >= MAX_RANGE_VALUES:
        raise ConfigError(f"{name} {text!r} has more than {MAX_RANGE_VALUES} values")
    values = []
    for k in range(MAX_RANGE_VALUES + 1):
        v = start + k * step
        if v > stop + 1e-9 * step:
            return values
        if values and v <= values[-1]:
            raise ConfigError(f"{name} step {step!r} is below the float resolution at {v!r}")
        values.append(v)
    raise ConfigError(f"{name} {text!r} has more than {MAX_RANGE_VALUES} values")


def parse_int_range(text: str, name: str = "range"):
    values = parse_range(text, name)
    out = []
    for v in values:
        if abs(v - round(v)) > 1e-9:
            raise ConfigError(f"{name} must contain integers, got {v!r}")
        out.append(int(round(v)))
    return out


def _fmt(value) -> str:
    kind = type(value)
    if kind is float:
        return format(value, ".12g")
    if kind is int:
        return str(value)
    if kind is bool:
        return "true" if value else "false"
    raise TypeError(f"CSV cell {value!r} is not a plain float, int or bool")


def write_csv(path: Path, header, rows):
    lines = [",".join(header)]
    lines += [",".join(map(_fmt, row)) for row in rows]
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def write_json(path: Path, payload):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def cmd_sign_ghz(options):
    m = options.m
    state = signbin.FockCorrelatedState.ghz(m)
    angles = signbin.ghz_like_angles(m)
    bell = signbin.bell_factor_sign(state, angles)
    analytic = math.sqrt(2.0) * (4.0 / math.pi) ** (m / 2.0)
    rows = [(m, bell, analytic, bell > 2.0)]
    header = ("m", "bell_factor", "analytic", "violates")
    headline = {"m": m, "bell_factor": bell, "analytic": analytic}
    return header, rows, headline


def cmd_sign_optimize(options):
    m, d = options.m, options.d
    constraint = None if options.constraint == "none" else "nonnegative"
    angles = signbin.default_optimizer_angles(m)
    convergence = {}
    if d - 10 >= 2:
        result = signbin.converged_optimum(
            m, angles, d=d, d_step=10, constraint=constraint
        )
        bell, state = result.bell, result.state
        convergence = {"convergence_delta": result.delta, "converged": result.converged}
    else:
        bell, state = signbin.optimize_state(m, d, angles, constraint=constraint)
    headline = {
        "m": m,
        "d": d,
        "constraint": options.constraint,
        "bell_factor": bell,
        "theta": angles.theta.tolist(),
        "theta_prime": angles.theta_prime.tolist(),
        **convergence,
    }
    rows = list(enumerate(state.coefficients.tolist()))
    return ("r", "c_r"), rows, headline


def cmd_root_max(options):
    rows = []
    for m in range(2, options.m_max + 1):
        theta = options.theta if options.theta is not None else rootbin.optimal_phase(m)
        spec = rootbin.RootBinningSpec(1.0, 1.0, theta, m)
        bell = rootbin.bell_factor_root(spec, options.labeling)
        bound = mk.quantum_bound(m)
        rows.append((m, theta, bell, bound))
    headline = {
        "m_max": options.m_max,
        "bell_at_m_max": rows[-1][2],
        "all_at_quantum_bound": all(abs(r[2] - r[3]) <= 1e-10 for r in rows)
        if options.theta is None
        else None,
    }
    return ("m", "theta", "bell_factor", "quantum_bound"), rows, headline


def cmd_cat_vw(options):
    rows = [(alpha, *rootbin.overlaps_VW(alpha)) for alpha in options.alpha]
    last = rows[-1]
    headline = {"alpha_max": last[0], "V": last[1], "W": last[2]}
    return ("alpha", "V", "W"), rows, headline


def cmd_psi3_curve(options):
    rows = [
        (r.alpha, r.bell_x_unprimed, r.bell_p_unprimed, r.bell_best,
         max(abs(s - 1.0) for s in r.probability_sums.values()))
        for r in rootbin.psi3_bell_report(options.alpha, options.tol)
    ]
    column = {"x-unprimed": 1, "p-unprimed": 2, "best": 3}[options.labeling]
    crossing = next((r[0] for r in rows if r[column] >= 2.0), None)
    headline = {
        "labeling": options.labeling,
        "first_alpha_above_2": crossing,
        "bell_at_alpha_max": rows[-1][column],
        "max_probability_sum_error": max(r[4] for r in rows),
    }
    header = (
        "alpha",
        "bell_x_unprimed",
        "bell_p_unprimed",
        "bell_best",
        "probability_sum_error",
    )
    return header, rows, headline


def cmd_noise_sweep(options):
    rows = []
    p_max_by_m = {}
    for m, clean in zip(options.m, signbin.ghz_bell_factors(options.m)):
        result = erasure.p_max_ghz(m)
        p_max_by_m[str(m)] = {"p_max": result.p_max, "clamped": result.clamped}
        for p in options.p:
            noisy = erasure.noisy_bell_factor(clean, p, m)
            rows.append((m, p, noisy, noisy > 2.0))
    headline = {"p_max_ghz": p_max_by_m}
    return ("m", "p", "bell_factor", "violates"), rows, headline


def cmd_prep_fidelity(options):
    rows, best_by_alpha = [], {}
    for alpha in options.alpha:
        if options.x0 is not None:
            x0_values = options.x0
        else:
            center = -math.sqrt(2.0) * alpha
            x0_values = [center + (-2.0 + 0.1 * k) for k in range(41)]  # np.linspace(-2, 2, 41)
        fidelity, density = catprep.generation_pipeline(alpha, x0_values, wiring="sum-first")
        rows += zip(itertools.repeat(alpha), x0_values, fidelity, density)
        x0, fid, dens = max(zip(x0_values, fidelity, density), key=lambda row: (row[1], row[2]))
        best_by_alpha[str(alpha)] = {"x0": x0, "fidelity": fid, "density": dens}
    for key, best in best_by_alpha.items():
        alternate = catprep.generation_pipeline(float(key), [best["x0"]], wiring="swapped")
        best["fidelity_swapped_wiring"] = alternate.fidelity[0]
    headline = {"best_by_alpha": best_by_alpha}
    return ("alpha", "x0", "fidelity", "density"), rows, headline


COMMANDS = {
    "sign-ghz": cmd_sign_ghz,
    "sign-optimize": cmd_sign_optimize,
    "root-max": cmd_root_max,
    "cat-vw": cmd_cat_vw,
    "psi3-curve": cmd_psi3_curve,
    "noise-sweep": cmd_noise_sweep,
    "prep-fidelity": cmd_prep_fidelity,
}


LABELINGS = ("x-unprimed", "p-unprimed", "best")
_TINY, _HUGE = math.ulp(0.0), sys.float_info.max  # the least float > 0, the largest finite
# Each command's help line and its options but --out, in the order its help
# lists them: (flag, add_argument keywords, domain).  The full parser and the
# plain reader of _parse both read this table; the reader knows the keywords
# type, required, default, choices and help.  A domain (parse, low, high,
# rule) holds every valid value v in low <= v <= high, after parse_range or
# parse_int_range has turned a range option's text into values (parse None
# for a scalar); rule is its message.  None: type and choices say it all.
_OPTIONS = {
    "sign-ghz": ("GHZ state, sign binning, GHZ-like angles", (
        # past 5873 the Bell value leaves the float range (exit 3); arrays grow as m
        ("--m", dict(type=int, required=True), (None, 2, 6000, "must lie in [2, 6000]")),
    )),
    "sign-optimize": ("optimal state at fixed angles", (
        # past 5873 the Bell matrix leaves the float range at every d; its MK sums
        # run in chunks: 38 MB at 6000, d 2000
        ("--m", dict(type=int, required=True), (None, 2, 6000, "must lie in [2, 6000]")),
        # time grows as d^3, memory as d^2: at 2000, nonneg, on 2 cores, m = 2 takes
        # 3.0-4.1 s and 129 MB, m = 3 1.2-1.3 s and 120 MB
        ("--d", dict(type=int, required=True), (None, 2, 2000, "must lie in [2, 2000]")),
        ("--constraint", dict(choices=("none", "nonneg"), default="none"), None),
    )),
    "root-max": ("root binning at V = W = 1", (
        ("--m-max", dict(type=int, required=True), (None, 2, math.inf, "must be >= 2")),
        ("--theta", dict(type=float, default=None), (None, -_HUGE, _HUGE, "must be finite")),
        ("--labeling", dict(choices=LABELINGS, default="x-unprimed"), None),
    )),
    "cat-vw": ("overlaps V, W of the cat pair", (
        # below, mu = sqrt(2) alpha is subnormal and has lost digits
        ("--alpha", dict(required=True), (parse_range, sys.float_info.min, math.inf,
                                          f"values must be >= {sys.float_info.min!r}")),
    )),
    "psi3-curve": ("three-mode candidate state Bell curve", (
        # memory grows as alpha^2 (9 MB at 30); the Bell factors are flat from 11.3 on
        ("--alpha", dict(required=True), (parse_range, _TINY, 30.0, "values must lie in (0, 30]")),
        ("--labeling", dict(choices=LABELINGS, default="best"), None),
        ("--tol", dict(type=float, default=DEFAULT_TOL, help="quadrature tolerance"),
         (None, _TINY, 1e-2, "must lie in (0, 1e-2]")),
    )),
    "noise-sweep": ("erasure-noise scaling for GHZ states", (
        # as for sign-ghz
        ("--m", dict(required=True), (parse_int_range, 2, 6000, "values must lie in [2, 6000]")),
        ("--p", dict(required=True), (parse_range, 0.0, 1.0, "values must lie in [0, 1]")),
    )),
    "prep-fidelity": ("conditional-generation fidelity", (
        # Gram exponents -sum (a - b)^2 / 2 cancel nothing: over 300 amplitudes to 30 the best fidelity is 1.0
        ("--alpha", dict(required=True), (parse_range, _TINY, 30.0, "values must lie in (0, 30]")),
        # (x0 - sqrt(2) a)^2 overflows past 1e154; the density vanishes (exit 3) past 130
        ("--x0", dict(default=None),
         (parse_range, -1e100, 1e100, "values must lie in [-1e100, 1e100]")),
    )),
}
_OUT = ("--out", dict(default=".", help="output directory"), None)


def _add_options(parser, name) -> None:
    for flag, keywords, _ in (*_OPTIONS[name][1], _OUT):
        parser.add_argument(flag, **keywords)


def build_parser() -> argparse.ArgumentParser:
    """The full parser: every command as a subparser."""
    parser = argparse.ArgumentParser(
        prog="bellscope",
        description="Bell factors for multimode continuous-variable states "
        "under homodyne detection with binned outcomes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_line, _) in _OPTIONS.items():
        _add_options(sub.add_parser(name, help=help_line), name)
    return parser


def _parse(argv) -> argparse.Namespace:
    """Read a plain command line straight from ``_OPTIONS``, building no
    parser: a command, then ``<flag> <value>`` pairs, each flag spelled as
    in the table (or ``--out``) and each value not starting with ``-``,
    converting with the flag's ``type`` and lying in its ``choices``, with
    every required flag given.  The full parser takes every other line
    (help, no or an unknown command, ``--``, abbreviations, ``--flag=value``,
    negative numbers and every error), so argparse writes all help and
    usage text."""
    argv = sys.argv[1:] if argv is None else list(argv)
    options = _parse_plain(argv)
    return build_parser().parse_args(argv) if options is None else options


def _parse_plain(argv):
    """The Namespace the full parser would give for a plain command line,
    or None for any other."""
    if not argv or argv[0] not in _OPTIONS or len(argv) % 2 == 0:
        return None
    table = (*_OPTIONS[argv[0]][1], _OUT)
    keywords_of = {flag: keywords for flag, keywords, _ in table}
    given = {}
    for flag, text in zip(argv[1::2], argv[2::2]):
        keywords = keywords_of.get(flag)
        if keywords is None or text.startswith("-"):
            return None
        try:
            value = keywords.get("type", str)(text)
        except (TypeError, ValueError):
            return None
        if "choices" in keywords and value not in keywords["choices"]:
            return None
        given[flag] = value  # a repeated flag keeps its last value, as in argparse
    options = argparse.Namespace(command=argv[0])
    for flag, keywords, _ in table:
        if flag not in given and keywords.get("required"):
            return None
        setattr(options, flag[2:].replace("-", "_"), given.get(flag, keywords.get("default")))
    return options


def _validate(options) -> None:
    """Check the command's options against their domains, in table order,
    and replace each range option's text by its list of values."""
    for flag, _, domain in _OPTIONS[options.command][1]:
        dest = flag[2:].replace("-", "_")
        value = getattr(options, dest)
        if domain is not None and value is not None:
            parse, low, high, rule = domain
            values = [value] if parse is None else parse(value, flag)
            if not all(low <= v <= high for v in values):
                raise ConfigError(f"{flag} {rule}")
            setattr(options, dest, value if parse is None else values)


_exit_hook_registered = False


def main(argv=None) -> int:
    """Run one command and return its exit status.  From the first call on,
    an atexit hook freezes what is alive at exit, so it is not collected
    (nor finalised) then: close your files."""
    global _exit_hook_registered
    if not _exit_hook_registered:  # one hook, however often main runs
        atexit.register(gc.freeze)
        _exit_hook_registered = True
    # What is alive now (the package, numpy and the interpreter's modules)
    # outlives the run, so the collections during it need not scan it again;
    # a generation-1 collection of those objects cost about 1.5 ms per run.
    # A caller that froze objects itself keeps its frozen set as it is.
    if gc.get_freeze_count():
        return _run(argv)
    gc.freeze()
    try:
        return _run(argv)
    finally:
        gc.unfreeze()


def _run(argv) -> int:
    options = _parse(argv)
    try:
        _validate(options)
    except ConfigError as exc:
        print(f"bellscope: configuration error: {exc}", file=sys.stderr)
        return 2

    out_dir = Path(options.out)
    started = time.perf_counter()
    try:
        header, rows, headline = COMMANDS[options.command](options)
    except ArithmeticError as exc:
        print(f"bellscope: numerical failure: {exc}", file=sys.stderr)
        return 3
    wall_time = time.perf_counter() - started

    out_dir.mkdir(parents=True, exist_ok=True)
    csv_path = out_dir / f"{options.command}.csv"
    json_path = out_dir / f"{options.command}.json"
    write_csv(csv_path, header, rows)
    parameters = {
        k: v for k, v in vars(options).items() if k not in ("command", "out")
    }
    summary = {
        "command": options.command,
        "parameters": parameters,
        "headline": headline,
        "rows": len(rows),
        "wall_time_s": wall_time,
    }
    if "tol" in parameters:  # only psi3-curve integrates
        summary["tolerances"] = {"quadrature_tol": options.tol}
    write_json(json_path, summary)
    return 0


if __name__ == "__main__":
    sys.exit(main())
