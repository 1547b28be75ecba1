"""CLI: golden outputs, serialization round-trips, exit codes."""

import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from click.testing import CliRunner
from hypothesis import given
from hypothesis import strategies as st

import wallisprod
from wallisprod.cli import MAX_ALPHABETA_ORDER, fmt_complex, main, parse_complex_literal
from wallisprod.coeffs import CoeffSeries, Family, cache_sizes, wallis_nu


@pytest.fixture()
def runner():
    return CliRunner()


def invoke(runner, *args, env=None):
    return runner.invoke(main, list(args), env=env, catch_exceptions=False)


class TestComplexLiterals:
    @pytest.mark.parametrize("text,value", [
        ("1", 1 + 0j),
        ("-0.5", -0.5 + 0j),
        ("1/3", complex(1 / 3, 0)),
        ("i", 1j),
        ("-i", -1j),
        ("2i", 2j),
        ("1+2i", 1 + 2j),
        ("1-1/2i", 1 - 0.5j),
        ("0.5-0.25i", 0.5 - 0.25j),
        ("-3/4+2.5i", complex(-0.75, 2.5)),
        ("1e5", 1e5 + 0j),
        ("1e-3", 1e-3 + 0j),
        ("2.5E+4i", 2.5e4j),
        ("1e-3-2e-4i", complex(1e-3, -2e-4)),
    ])
    def test_parses(self, text, value):
        assert parse_complex_literal(text) == value

    @pytest.mark.parametrize("bad", ["", "i2", "1+2", "2+i3", "one", "1e", "1e5/2",
                                     "1e999", "-1e999i", "1/0",
                                     pytest.param("1" + "0" * 400 + "/1", id="1e400/1")])
    def test_rejects(self, bad):
        with pytest.raises(ValueError):
            parse_complex_literal(bad)

    @given(st.complex_numbers(allow_nan=False, allow_infinity=False))
    def test_printed_values_read_back(self, z):
        assert parse_complex_literal(fmt_complex(z)) == z


class TestCoeffsCommand:
    def test_nu_plain_golden(self, runner):
        result = invoke(runner, "coeffs", "--family", "nu", "--order", "3")
        assert result.exit_code == 0
        assert result.output == "1, -1/4\n2, 1/8\n3, -5/96\n"

    def test_alphabeta_plain_golden(self, runner):
        result = invoke(runner, "coeffs", "--family", "alphabeta", "--order", "2")
        assert result.exit_code == 0
        assert result.output == "(-1/4, 5/8), (3/256, 7/12)\n"

    def test_a_polynomial_golden(self, runner):
        result = invoke(runner, "coeffs", "--family", "a", "--order", "1")
        assert result.exit_code == 0
        assert result.output == "1/2*p^2 - q\n"

    def test_a_evaluated_at_point(self, runner):
        result = invoke(runner, "coeffs", "--family", "a", "--order", "1",
                        "--p", "1", "--q", "1/2")
        assert result.exit_code == 0
        assert result.output.strip() == "1, 0"

    def test_json_round_trip(self, runner):
        result = invoke(runner, "coeffs", "--family", "nu", "--order", "7",
                        "--format", "json")
        data = json.loads(result.output)
        values = tuple(map(Fraction, data["values"]))
        series = CoeffSeries(Family(data["family"]), data["order"], values)
        assert series == wallis_nu(7)

    def test_json_rationals_not_decimal(self, runner):
        result = invoke(runner, "coeffs", "--family", "mu", "--order", "3",
                        "--format", "json")
        data = json.loads(result.output)
        assert data["values"] == ["-1/4", "5/32", "-11/128"]

    def test_csv(self, runner):
        result = invoke(runner, "coeffs", "--family", "omega", "--order", "2",
                        "--format", "csv")
        assert result.output == "index,value\n1,-1/4\n2,1/96\n"

    def test_determinism(self, runner):
        args = ("coeffs", "--family", "alphabeta", "--order", "4", "--format", "json")
        assert invoke(runner, *args).output == invoke(runner, *args).output
        plain = ("eval", "--target", "wproduct", "--n", "50", "--p", "1+1i", "--q", "0.5-1i")
        assert invoke(runner, *plain).output == invoke(runner, *plain).output

    def test_unknown_family_exit_2(self, runner):
        result = runner.invoke(main, ["coeffs", "--family", "zeta", "--order", "2"])
        assert result.exit_code == 2

    def test_invalid_order_exit_2(self, runner):
        result = runner.invoke(main, ["coeffs", "--family", "nu", "--order", "0"])
        assert result.exit_code == 2

    @pytest.mark.parametrize("argv", [
        ["coeffs", "--family", "alphabeta"],
        ["eval", "--target", "expansion:alphabeta", "--n", "100"],
    ])
    def test_alphabeta_order_cap_exit_2(self, runner, argv):
        before = cache_sizes()
        result = runner.invoke(main, [*argv, "--order", str(MAX_ALPHABETA_ORDER + 1)])
        assert result.exit_code == 2
        assert "Usage:" in result.output
        assert f"--order must be <= {MAX_ALPHABETA_ORDER} for alphabeta" in result.output
        assert cache_sizes() == before  # refused before any coefficient work

    def test_signs_flag(self, runner):
        result = runner.invoke(main, ["coeffs", "--family", "omega", "--order", "5",
                                      "--signs"])
        assert result.exit_code == 0
        assert "signs: - + - + -" in result.output


class TestEvalCommand:
    def test_wallis_value(self, runner):
        result = invoke(runner, "eval", "--target", "wallis", "--n", "5")
        value = float(result.output.strip())
        expected = 1.0
        for k in range(1, 6):
            expected *= 4.0 * k * k / (4.0 * k * k - 1.0)
        assert value == pytest.approx(expected, rel=1e-12)

    def test_closed_matches_product(self, runner):
        closed = invoke(runner, "eval", "--target", "wclosed", "--n", "100",
                        "--p", "1", "--q", "0.5")
        product = invoke(runner, "eval", "--target", "wproduct", "--n", "100",
                         "--p", "1", "--q", "0.5", "--format", "json")
        closed_value = float(closed.output.strip())
        product_value = json.loads(product.output)["value"]["re"]
        assert closed_value == pytest.approx(product_value, rel=1e-11)

    def test_expansion_error_report(self, runner):
        result = invoke(runner, "eval", "--target", "expansion:omega", "--n", "100",
                        "--order", "5", "--format", "json")
        data = json.loads(result.output)
        assert data["family"] == "wallis_omega"
        assert data["abs_err"] <= 1e-13

    def test_expansion_report_csv_schema(self, runner):
        result = invoke(runner, "eval", "--target", "expansion:mu", "--n", "100",
                        "--order", "4", "--format", "csv")
        header = result.output.splitlines()[0]
        assert header == "family,order,n,approx,exact,abs_err,rel_err,est_order"

    def test_product_json_fields(self, runner):
        result = invoke(runner, "eval", "--target", "rproduct", "--n", "10",
                        "--p", "-2", "--q", "0", "--format", "json")
        data = json.loads(result.output)
        assert data["phase_or_sign"] == -1.0
        assert data["value"]["re"] < 0
        assert data["zero_factor_at"] is None

    def test_exponent_literals(self, runner):
        small = invoke(runner, "eval", "--target", "wproduct", "--n", "10",
                       "--p", "1e-3", "--q", "-2.5E-4i", "--format", "json")
        assert small.exit_code == 0
        assert json.loads(small.output)["terms"] == 10
        result = runner.invoke(main, ["eval", "--target", "wproduct", "--n", "10",
                                      "--p", "1e999", "--q", "0"])
        assert result.exit_code == 2
        assert "not a finite number" in result.output

    def test_huge_parameter_prints_its_log(self, runner):
        # |q| passes the largest double: the log form is printed, not an OverflowError
        result = invoke(runner, "eval", "--target", "wproduct", "--n", "3",
                        "--p", "0", "--q", "1.7e308+1.7e308i")
        assert result.exit_code == 0
        assert "log_abs: 2126.63" in result.output

    def test_missing_pq_exit_2(self, runner):
        result = runner.invoke(main, ["eval", "--target", "wproduct", "--n", "5"])
        assert result.exit_code == 2

    def test_pole_exit_3(self, runner):
        for argv in (["eval", "--target", "expansion:w", "--n", "50",
                      "--order", "3", "--p", "-2", "--q", "1"],
                     # the truncated nu sum at n = 1 is about 8000: exp overflows
                     ["eval", "--target", "expansion:nu", "--n", "1", "--order", "25"],
                     # the phase sum of the damping terms -Im(p)/j leaves the double range
                     ["eval", "--target", "rproduct", "--n", "3", "--p", "1e300+1.7e308i",
                      "--q", "0"]):
            result = runner.invoke(main, argv)
            assert result.exit_code == 3, argv
            assert "domain error" in result.output
            assert "Traceback" not in result.output

    @pytest.mark.parametrize("target", ["wclosed", "rclosed", "expansion:w"])
    @pytest.mark.parametrize("p,q", [("1e200", "0"), ("0", "1.7e308+1.7e308i")])
    def test_overflowing_discriminant_exit_3(self, runner, target, p, q):
        # p^2 - 4q leaves the double range for finite p and q
        result = runner.invoke(main, ["eval", "--target", target, "--n", "3", "--order", "2",
                                      "--p", p, "--q", q])
        assert result.exit_code == 3
        assert "domain error" in result.output
        assert "leaves the double range at p = " in result.output
        assert "Traceback" not in result.output

    @pytest.mark.parametrize("family,order", [("elezovic", "7"), ("mu", "0"), ("w", "0")])
    def test_order_out_of_range_exit_2(self, runner, family, order):
        result = runner.invoke(main, ["eval", "--target", f"expansion:{family}", "--n", "50",
                                      "--order", order, "--p", "1", "--q", "0.5"])
        assert result.exit_code == 2
        assert "order must be" in result.output
        assert "Traceback" not in result.output

    def test_small_n_note_on_stderr(self, runner):
        result = runner.invoke(
            main,
            ["eval", "--target", "expansion:mu", "--n", "2", "--order", "9"],
            catch_exceptions=False,
        )
        assert result.exit_code == 0
        assert "asymptotic regime not reached" in result.output


class TestVerifyCommand:
    def test_bounds_suite_passes(self, runner):
        result = runner.invoke(main, ["verify", "--suite", "bounds"])
        assert result.exit_code == 0
        assert "PASS bounds.zero_violations_n<=1e4" in result.output

    def test_limits_suite_passes(self, runner):
        result = runner.invoke(main, ["verify", "--suite", "limits"])
        assert result.exit_code == 0

    def test_passing_checks_report_their_margin(self, runner):
        result = runner.invoke(main, ["verify", "--suite", "limits", "--format", "json"])
        assert result.exit_code == 0
        checks = json.loads(result.output)["checks"]
        assert checks and all(c["passed"] and c["detail"] for c in checks)

    def test_closedforms_checks_report_their_margin(self, runner):
        result = runner.invoke(main, ["verify", "--suite", "closedforms", "--format", "json"])
        assert result.exit_code == 0
        checks = json.loads(result.output)["checks"]
        assert len(checks) == 4 and all(c["passed"] and c["detail"] for c in checks)

    def test_coeffs_suite_passes(self, runner):
        result = runner.invoke(main, ["verify", "--suite", "coeffs"])
        assert result.exit_code == 0
        assert "FAIL" not in result.output

    def test_unknown_suite_exit_2(self, runner):
        result = runner.invoke(main, ["verify", "--suite", "nonsense"])
        assert result.exit_code == 2


class TestConstantsCommand:
    def test_plain_output(self, runner):
        result = invoke(runner, "constants")
        assert "euler_gamma = 0.5772156649015328606065120900824024310421" in result.output
        assert "exp_euler_gamma = 1.7810724179" in result.output
        assert "pi_over_2 = 1.570796326794896" in result.output
        assert "wilf = 0.8968712421673790" in result.output

    def test_json_gamma_has_30_digits(self, runner):
        data = json.loads(invoke(runner, "constants", "--format", "json").output)
        assert len(data["euler_gamma"].split(".")[1]) >= 30

    def test_digits_env_override(self, runner):
        result = invoke(runner, "constants", env={"WALLISPROD_DIGITS": "5"})
        assert "pi_over_2 = 1.5708\n" in result.output


def test_console_entry_point_runs():
    # the child imports the package under test, installed or not
    src = str(Path(wallisprod.__file__).parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    proc = subprocess.run(
        [sys.executable, "-m", "wallisprod.cli", "coeffs", "--family", "nu",
         "--order", "2"],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0
    assert proc.stdout == "1, -1/4\n2, 1/8\n"
