import gc
import json
import math
import os
import subprocess
import sys
import warnings
import weakref
from pathlib import Path

import numpy as np
import pytest

from bellscope import cli, numerics, signbin
from bellscope.numerics import IntegrationError


SRC = Path(__file__).resolve().parents[1] / "src"


def run(tmp_path, *args):
    return cli.main([*args, "--out", str(tmp_path)])


def read_json(tmp_path, command):
    with open(tmp_path / f"{command}.json", encoding="utf-8") as fh:
        return json.load(fh)


def read_csv(tmp_path, command):
    return (tmp_path / f"{command}.csv").read_text(encoding="utf-8")


class TestRangeParsing:
    def test_single_value(self):
        assert cli.parse_range("2.5") == [2.5]

    def test_inclusive_start_range(self):
        values = cli.parse_range("0.5:0.7:0.1")
        assert values == pytest.approx([0.5, 0.6, 0.7])

    def test_integer_range(self):
        assert cli.parse_int_range("2:5:1") == [2, 3, 4, 5]

    # a non-finite number anywhere would make the range loop forever
    @pytest.mark.parametrize(
        "bad",
        ("a", "1:2", "1:2:3:4", "1:0:1", "1:2:0", "1:2:-1")
        + ("nan", "inf", "1e400", "1:nan:0.1", "0.5:inf:0.1", "nan:1:0.1", "0:1:inf"),
    )
    def test_malformed(self, bad):
        with pytest.raises(cli.ConfigError):
            cli.parse_range(bad)

    # START + k * STEP rounds back to a value already listed: the loop once
    # repeated 1e20 8,193 times, and 1e300 until memory ran out
    @pytest.mark.parametrize("bad", ("1e20:1e20:1", "1e300:1e300:1", "1e16:1.0000000000001e16:1.5"))
    def test_step_below_float_resolution(self, bad):
        with pytest.raises(cli.ConfigError, match="below the float resolution"):
            cli.parse_range(bad)
        assert cli.parse_range("1e20:1e20:32768") == [1e20]

    def test_non_integer_rejected(self):
        with pytest.raises(cli.ConfigError):
            cli.parse_int_range("2:3:0.5")

    def test_value_count_limit(self):
        assert len(cli.parse_range("1:1000000:1")) == cli.MAX_RANGE_VALUES
        for bad in ("0:1000000:1", "0.5:1e12:1e-3", "-1e308:1e308:1e-300"):
            with pytest.raises(cli.ConfigError, match="more than 1000000 values"):
                cli.parse_range(bad)


class TestCommands:
    def test_sign_ghz(self, tmp_path):
        assert run(tmp_path, "sign-ghz", "--m", "3") == 0
        payload = read_json(tmp_path, "sign-ghz")
        assert payload["headline"]["bell_factor"] == pytest.approx(2.0318, abs=1e-3)
        assert read_csv(tmp_path, "sign-ghz").splitlines()[0] == (
            "m,bell_factor,analytic,violates"
        )

    def test_sign_optimize(self, tmp_path):
        assert run(tmp_path, "sign-optimize", "--m", "3", "--d", "20") == 0
        payload = read_json(tmp_path, "sign-optimize")
        assert payload["headline"]["bell_factor"] == pytest.approx(2.204, abs=2e-3)
        assert payload["headline"]["converged"] is True
        lines = read_csv(tmp_path, "sign-optimize").splitlines()
        assert lines[0] == "r,c_r"
        assert len(lines) == 21
        reference = signbin.converged_optimum(3, signbin.ghz_like_angles(3), d=20)
        assert payload["headline"]["convergence_delta"] == reference.delta

    @pytest.mark.parametrize("constraint", ("none", "nonneg"))
    def test_sign_optimize_d11_has_no_convergence_check(self, tmp_path, constraint):
        """d - 10 = 1 is too small a truncation to compare against."""
        assert run(
            tmp_path, "sign-optimize", "--m", "3", "--d", "11", "--constraint", constraint
        ) == 0
        headline = read_json(tmp_path, "sign-optimize")["headline"]
        assert "converged" not in headline and "convergence_delta" not in headline
        assert len(read_csv(tmp_path, "sign-optimize").splitlines()) == 12

    @pytest.mark.parametrize("d", ("11", "30", "31"))
    @pytest.mark.parametrize("constraint", ("none", "nonneg"))
    def test_sign_optimize_solves_the_block_alone(self, tmp_path, monkeypatch, constraint, d):
        """No d x d Bell matrix is built and no full-matrix check runs, at
        even and odd d, with and without the d - 10 convergence solve."""

        def refuse(*args, **kwargs):
            raise AssertionError("sign-optimize formed a d x d matrix")

        monkeypatch.setattr(numerics, "_check_bipartite", refuse)
        monkeypatch.setattr(signbin, "bell_matrix", refuse)
        assert run(tmp_path, "sign-optimize", "--m", "3", "--d", d, "--constraint", constraint) == 0
        assert len(read_csv(tmp_path, "sign-optimize").splitlines()) == int(d) + 1

    def test_sign_optimize_json_angles_are_the_ghz_like_floats(self, tmp_path):
        """The JSON angle lists hold plain floats equal, bit for bit, to the
        scalar formula of the GHZ-like family (sign +1 at odd m)."""
        m = 3
        assert run(tmp_path, "sign-optimize", "--m", str(m), "--d", "11") == 0
        headline = read_json(tmp_path, "sign-optimize")["headline"]
        theta = [1.0 * math.pi * k / (2.0 * m) for k in range(m)]
        for key, expected in (("theta", theta), ("theta_prime", [t + math.pi / 2.0 for t in theta])):
            assert all(type(value) is float for value in headline[key])
            assert [v.hex() for v in headline[key]] == [v.hex() for v in expected]

    def test_sign_ghz_large_m(self, tmp_path):
        assert run(tmp_path, "sign-ghz", "--m", "1000") == 0
        headline = read_json(tmp_path, "sign-ghz")["headline"]
        assert headline["bell_factor"] == pytest.approx(4.0324994306789e52, rel=1e-10)
        assert headline["bell_factor"] == pytest.approx(headline["analytic"], rel=1e-10)

    def test_root_max(self, tmp_path):
        assert run(tmp_path, "root-max", "--m-max", "5") == 0
        payload = read_json(tmp_path, "root-max")
        assert payload["headline"]["all_at_quantum_bound"] is True
        assert payload["headline"]["bell_at_m_max"] == pytest.approx(8.0, abs=1e-10)

    def test_cat_vw(self, tmp_path):
        assert run(tmp_path, "cat-vw", "--alpha", "6") == 0
        payload = read_json(tmp_path, "cat-vw")
        assert payload["headline"]["V"] >= 0.999
        assert payload["headline"]["W"] == pytest.approx(2 / math.pi, abs=5e-3)

    def test_psi3_curve_and_headline(self, tmp_path):
        assert run(tmp_path, "psi3-curve", "--alpha", "1.0:1.3:0.1") == 0
        payload = read_json(tmp_path, "psi3-curve")
        assert payload["headline"]["first_alpha_above_2"] == pytest.approx(1.1)
        assert payload["headline"]["max_probability_sum_error"] < 1e-8
        lines = read_csv(tmp_path, "psi3-curve").splitlines()
        assert len(lines) == 5

    def test_noise_sweep(self, tmp_path):
        assert run(tmp_path, "noise-sweep", "--m", "3:4:1", "--p", "0:0.1:0.05") == 0
        lines = read_csv(tmp_path, "noise-sweep").splitlines()
        assert lines[0] == "m,p,bell_factor,violates"
        assert len(lines) == 7
        assert lines[1].endswith("true")  # p = 0 for m = 3 violates
        payload = read_json(tmp_path, "noise-sweep")
        assert payload["headline"]["p_max_ghz"]["3"]["clamped"] is False

    def test_prep_fidelity(self, tmp_path):
        x0 = -math.sqrt(2.0) * 3.0
        assert run(
            tmp_path, "prep-fidelity", "--alpha", "3", "--x0", f"{x0}"
        ) == 0
        payload = read_json(tmp_path, "prep-fidelity")
        best = payload["headline"]["best_by_alpha"]["3.0"]
        assert best["fidelity"] >= 0.99
        assert "fidelity_swapped_wiring" in best

    def test_prep_fidelity_ties_at_the_top_go_to_the_larger_density(self, tmp_path):
        """At alpha = 6 every fidelity of the default scan rounds to 1.0, so
        the headline's best x0 is the one with the largest density."""
        assert run(tmp_path, "prep-fidelity", "--alpha", "6") == 0
        rows = [line.split(",") for line in read_csv(tmp_path, "prep-fidelity").splitlines()[1:]]
        assert {float(fidelity) for _, _, fidelity, _ in rows} == {1.0}
        best = read_json(tmp_path, "prep-fidelity")["headline"]["best_by_alpha"]["6.0"]
        assert best["fidelity"] == 1.0
        assert format(best["density"], ".12g") == max(rows, key=lambda r: float(r[3]))[3]
        assert best["density"] > 0.1


class TestDeterminismAndErrors:
    def test_csv_bytes_reproducible(self, tmp_path):
        first = tmp_path / "a"
        second = tmp_path / "b"
        for out in (first, second):
            assert cli.main(
                ["psi3-curve", "--alpha", "0.8:1.2:0.2", "--out", str(out)]
            ) == 0
        assert (first / "psi3-curve.csv").read_bytes() == (
            second / "psi3-curve.csv"
        ).read_bytes()

    def test_malformed_range_exits_2(self, tmp_path, capsys):
        assert run(tmp_path, "psi3-curve", "--alpha", "nope") == 2
        assert "configuration error" in capsys.readouterr().err

    def test_invalid_values_exit_2(self, tmp_path):
        assert run(tmp_path, "sign-ghz", "--m", "1") == 2
        assert run(tmp_path, "noise-sweep", "--m", "3", "--p", "0:2:0.5") == 2
        assert run(tmp_path, "cat-vw", "--alpha", "-1") == 2
        assert run(tmp_path, "sign-optimize", "--m", "3", "--d", "1") == 2

    @pytest.mark.parametrize(
        "args",
        (
            ("prep-fidelity", "--alpha", "1", "--x0", "nan"),
            ("cat-vw", "--alpha", "nan"),
            ("cat-vw", "--alpha", "1:nan:0.1"),
            ("psi3-curve", "--alpha", "0.5:inf:0.1"),
            ("noise-sweep", "--m", "3:inf:1", "--p", "0"),
            ("noise-sweep", "--m", "3", "--p", "0:nan:0.1"),
            ("root-max", "--m-max", "3", "--theta", "nan"),
            ("root-max", "--m-max", "3", "--theta", "inf"),
        ),
    )
    def test_non_finite_values_exit_2(self, tmp_path, capsys, args):
        assert run(tmp_path, *args) == 2
        assert "must be finite" in capsys.readouterr().err
        assert not (tmp_path / f"{args[0]}.csv").exists()

    def test_huge_range_exits_2(self, tmp_path, capsys):
        assert run(tmp_path, "cat-vw", "--alpha", "0.5:1e12:1e-3") == 2
        assert "more than 1000000 values" in capsys.readouterr().err
        assert not (tmp_path / "cat-vw.csv").exists()

    def test_step_below_float_resolution_exits_2(self, tmp_path, capsys):
        assert run(tmp_path, "cat-vw", "--alpha", "1e300:1e300:1") == 2
        assert "below the float resolution at 1e+300" in capsys.readouterr().err
        assert not (tmp_path / "cat-vw.csv").exists()

    def test_unknown_command_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            cli.main(["frobnicate"])
        assert exc.value.code == 2

    def test_numerical_failure_exits_3(self, tmp_path, monkeypatch, capsys):
        def explode(*args, **kwargs):
            raise IntegrationError("synthetic", achieved_error=1.0)

        monkeypatch.setattr(cli.rootbin, "overlaps_VW", explode)
        assert run(tmp_path, "cat-vw", "--alpha", "1.0") == 3
        assert "numerical failure" in capsys.readouterr().err

    def test_every_numerical_failure_is_an_arithmetic_error(self):
        """The CLI maps ArithmeticError alone to exit 3, so it names neither
        numpy nor the quadrature's error type."""
        assert issubclass(IntegrationError, ArithmeticError)
        assert not hasattr(cli, "np") and not hasattr(cli, "IntegrationError")

    def test_eigensolve_failure_exits_3(self, tmp_path, monkeypatch, capsys):
        def no_convergence(*args, **kwargs):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigh", no_convergence)
        for constraint in ("none", "nonneg"):
            argv = ("sign-optimize", "--m", "3", "--d", "20", "--constraint", constraint)
            assert run(tmp_path, *argv) == 3
            err = capsys.readouterr().err
            assert err == "bellscope: numerical failure: Eigenvalues did not converge\n"
        assert not (tmp_path / "sign-optimize.csv").exists()

    def test_lost_prep_normalisation_exits_3(self, tmp_path, monkeypatch, capsys):
        target = cli.catprep.psi3_prime_state(1.0)
        heavy = cli.catprep.CoherentSuperposition(2.0 * target.weights, target.amplitudes)
        monkeypatch.setattr(cli.catprep, "psi3_prime_state", lambda alpha: heavy)
        assert run(tmp_path, "prep-fidelity", "--alpha", "1") == 3
        err = capsys.readouterr().err
        assert err == "bellscope: numerical failure: fidelity expects normalized states\n"

    @pytest.mark.parametrize(
        "x0, named",
        (("60", "60.0"), ("-1:61:20", "39.0")),  # grid -1, 19, 39, 59: 39 fails first
    )
    def test_vanishing_prep_density_exits_3(self, tmp_path, capsys, x0, named):
        assert run(tmp_path, "prep-fidelity", "--alpha", "1", f"--x0={x0}") == 3
        err = capsys.readouterr().err
        assert f"numerical failure: conditional state at x0 = {named} has vanishing density" in err
        assert not (tmp_path / "prep-fidelity.csv").exists()

    def test_sign_ghz_beyond_float_range_exits_3(self, tmp_path, capsys):
        assert run(tmp_path, "sign-ghz", "--m", "6000") == 3
        assert "numerical failure" in capsys.readouterr().err
        assert not (tmp_path / "sign-ghz.csv").exists()

    @pytest.mark.parametrize(
        "argv, message",
        (
            (("root-max", "--m-max", "2047"), "Mermin-Klyshko sum exceeds the float range"),
            (("noise-sweep", "--m", "5872:5876:1", "--p", "0"), "Bell value e^709.821 exceeds the float range"),
            (("noise-sweep", "--m", "5874", "--p", "0"), "Bell value e^709.821 exceeds the float range"),
        ),
    )
    def test_scan_beyond_float_range_exits_3(self, tmp_path, capsys, argv, message):
        assert run(tmp_path, *argv) == 3
        assert capsys.readouterr().err == f"bellscope: numerical failure: {message}\n"
        assert not (tmp_path / f"{argv[0]}.csv").exists()

    @pytest.mark.parametrize(
        "argv", (("root-max", "--m-max", "2046"), ("noise-sweep", "--m", "5872:5873:1", "--p", "0"))
    )
    def test_scan_to_the_edge_of_float_range_exits_0(self, tmp_path, capsys, argv):
        assert run(tmp_path, *argv) == 0
        assert capsys.readouterr().err == ""

    def test_objects_unfrozen_after_a_run(self, tmp_path):
        """main freezes the objects alive when it starts, for the length of
        the run only, so an in-process caller's garbage stays collectable."""
        assert run(tmp_path, "root-max", "--m-max", "3") == 0
        assert run(tmp_path, "sign-ghz", "--m", "1") == 2
        assert gc.get_freeze_count() == 0

    def test_callers_frozen_objects_stay_frozen(self, tmp_path):
        """A caller that froze objects before calling main (a server about
        to fork, say) finds them still frozen afterwards."""
        class Node:
            pass

        cycle = Node()
        cycle.self = cycle
        alive = weakref.ref(cycle)
        gc.freeze()
        try:
            del cycle  # garbage now, but frozen garbage is never collected
            assert run(tmp_path, "root-max", "--m-max", "3") == 0
            assert run(tmp_path, "sign-ghz", "--m", "1") == 2
            gc.collect()
            assert alive() is not None
        finally:
            gc.unfreeze()
        gc.collect()
        assert alive() is None

    def test_json_reports_tolerances(self, tmp_path):
        assert run(tmp_path, "psi3-curve", "--alpha", "1", "--tol", "1e-8") == 0
        payload = read_json(tmp_path, "psi3-curve")
        assert payload["tolerances"]["quadrature_tol"] == 1e-8

    def test_tol_only_where_something_integrates(self, tmp_path, capsys):
        """cat-vw evaluates closed forms, so it has no --tol to set."""
        with pytest.raises(SystemExit) as exc:
            run(tmp_path, "cat-vw", "--alpha", "2", "--tol", "1e-8")
        assert exc.value.code == 2
        assert "--tol" in capsys.readouterr().err
        assert not (tmp_path / "cat-vw.csv").exists()
        assert run(tmp_path, "cat-vw", "--alpha", "2") == 0
        assert "tolerances" not in read_json(tmp_path, "cat-vw")


# One small run of each command.
SMALL_RUNS = {
    "sign-ghz": ("--m", "3"),
    "sign-optimize": ("--m", "3", "--d", "11"),
    "root-max": ("--m-max", "3"),
    "cat-vw": ("--alpha", "1"),
    "psi3-curve": ("--alpha", "1"),
    "noise-sweep": ("--m", "3", "--p", "0:0.1:0.05"),
    "prep-fidelity": ("--alpha", "1", "--x0", "1"),
}


@pytest.mark.parametrize("command", cli.COMMANDS)
def test_no_file_left_to_the_collector(tmp_path, command):
    """At exit the CLI freezes what is alive instead of collecting it, so a
    file it left open would silently lose its unflushed data; in process a
    collection finds such a file and warns."""
    unraisable, hook = [], sys.unraisablehook
    sys.unraisablehook = unraisable.append  # a warning raised in __del__ lands here
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error", ResourceWarning)
            assert run(tmp_path, command, *SMALL_RUNS[command]) == 0
            gc.collect()
    finally:
        sys.unraisablehook = hook
    assert [u.exc_value for u in unraisable] == []


def python(*args):
    """Start the interpreter on args with bellscope importable and stdout
    piped, hence block-buffered (PYTHONUNBUFFERED unset)."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    return subprocess.Popen(
        [sys.executable, *args], stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env
    )


def finish(proc):
    """Exit status, stdout and stderr of a process from python()."""
    try:
        out, err = proc.communicate(timeout=120)
    finally:
        proc.kill()  # only if it timed out
    return proc.returncode, out, err


# The probe is registered before bellscope is imported, so (atexit runs its
# handlers last in, first out) it runs after any hook bellscope registers.
EXIT_PROBE = """\
import atexit, gc, sys
atexit.register(lambda: print("frozen at exit:", gc.get_freeze_count() > 0))
from bellscope import cli
"""


def test_exit_hook_freezes_once_and_output_is_flushed(tmp_path):
    """After main has run, what is alive at exit is frozen (the final
    collections skip it), two runs register one hook, and block-buffered
    output printed by the last atexit handler still arrives."""
    code = EXIT_PROBE + """\
before = atexit._ncallbacks()
for _ in range(2):
    assert cli.main(["sign-ghz", "--m", "3", "--out", sys.argv[1]]) == 0
print("hooks added:", atexit._ncallbacks() - before)
"""
    status, out, err = finish(python("-c", code, str(tmp_path)))
    assert status == 0, err
    assert out.splitlines() == ["hooks added: 1", "frozen at exit: True"]


def test_import_alone_freezes_nothing_at_exit():
    status, out, err = finish(python("-c", EXIT_PROBE))
    assert status == 0, err
    assert out.splitlines() == ["frozen at exit: False"]


PEAK = """\
import resource, sys
from bellscope import cli
status = cli.main(sys.argv[1:])
print(status, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
"""


def test_bell_block_memory_does_not_grow_with_m(tmp_path):
    """The MK sums of a Bell block run in chunks of orders: at m = 6000 and
    d = 400 the peak resident size stays within 32 MB of a d = 12 run's
    (3 MB above it on x86-64 Linux; 163 MB above it when all 200 orders ran
    at once), and the run still exits 3 at the float-range check."""
    runs = [
        python("-c", PEAK, "sign-optimize", "--m", m, "--d", d, "--out", str(tmp_path))
        for m, d in (("3", "12"), ("6000", "400"))
    ]
    (base_status, base_out, _), (status, out, err) = map(finish, runs)
    assert base_status == status == 0, err
    assert base_out.split()[0] == "0" and out.split()[0] == "3"
    kib = 1 if sys.platform.startswith("linux") else 1024  # ru_maxrss is in bytes on macOS
    assert (int(out.split()[1]) - int(base_out.split()[1])) / kib <= 32 * 1024


def test_python_m_exit_status(tmp_path):
    """Exit statuses 0, 2 and 3 through ``python -m``, the three runs at once."""
    runs = {
        status: python("-m", "bellscope.cli", *argv, "--out", str(tmp_path))
        for argv, status in (
            (("sign-ghz", "--m", "3"), 0), (("frobnicate",), 2), (("sign-ghz", "--m", "6000"), 3)
        )
    }
    for status, proc in runs.items():
        assert finish(proc)[0] == status
