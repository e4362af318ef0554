import gc
import json
import math
import weakref

import pytest

from bellscope import cli, signbin
from bellscope.numerics import IntegrationError


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

    def test_sign_ghz_beyond_float_range_exits_3(self, tmp_path, capsys):
        assert run(tmp_path, "sign-ghz", "--m", "6000") == 3
        assert "numerical failure" in capsys.readouterr().err
        assert not (tmp_path / "sign-ghz.csv").exists()

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
