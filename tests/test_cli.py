"""CLI: golden outputs, serialization round-trips, exit codes."""

import csv
import io
import json
import math
import os
import re
import subprocess
import sys
import time
import traceback
from collections import namedtuple
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given
from hypothesis import strategies as st

import wallisprod
from wallisprod import cli, coeffs, expansions, products, special, verify
from wallisprod.bernoulli import _CAPS
from wallisprod.cli import (
    fmt_complex,
    main,
    parse_complex_literal,
)
from wallisprod.coeffs import (
    CoeffSeries,
    Family,
    a_poly,
    alpha_beta,
    cache_sizes,
    eval_bipoly,
    omega,
    wallis_mu,
    wallis_nu,
)


class _Stream(io.StringIO):
    """One output stream that also writes into the interleaved ``output``."""

    def __init__(self, output):
        super().__init__()
        self.output = output

    def write(self, text):
        self.output.write(text)
        return super().write(text)


Result = namedtuple("Result", "exit_code output stdout stderr")


class Runner:
    """Runs ``main(args)`` in-process with stdout and stderr captured.

    ``output`` is both streams in the order they were written.  A library
    exception becomes exit code 1, as an uncaught one does in a real run,
    unless ``catch_exceptions`` is false.
    """

    def invoke(self, cli, args, env=None, catch_exceptions=True):
        output = io.StringIO()
        out, err = _Stream(output), _Stream(output)
        with mock.patch.dict(os.environ, env or {}), redirect_stdout(out), redirect_stderr(err):
            try:
                cli(args)
                code = 0
            except SystemExit as exc:
                code = exc.code or 0
            except Exception:
                if not catch_exceptions:
                    raise
                traceback.print_exc()
                code = 1
        return Result(code, output.getvalue(), out.getvalue(), err.getvalue())


@pytest.fixture()
def runner():
    return Runner()


@pytest.fixture()
def no_work(monkeypatch):
    """Every library entry point ``coeffs`` and ``eval`` call fails the test if it runs."""
    def fail(*args):
        raise AssertionError("the refused command did library work")
    for module, name in [(coeffs, "a_poly"), (coeffs, "b_poly"), (coeffs, "eval_bipoly"),
                         (coeffs, "wallis_nu"), (coeffs, "wallis_mu"), (coeffs, "omega"),
                         (coeffs, "alpha_beta"), (products, "wallis_seq"),
                         (products, "w_product"), (products, "r_product"),
                         (special, "w_closed"), (special, "r_closed"),
                         (expansions, "family_report")]:
        monkeypatch.setattr(module, name, fail)


def invoke(runner, *args, env=None):
    return runner.invoke(main, list(args), env=env, catch_exceptions=False)


def run_python(*args):
    """A child interpreter that imports the package under test."""
    src = str(Path(wallisprod.__file__).parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    return subprocess.run([sys.executable, *args],
                          capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path})


def run_module(*args):
    """``python -m wallisprod.cli`` in a child that imports the package under test."""
    return run_python("-m", "wallisprod.cli", *args)


PQ = ("--p", "1", "--q", "0.5")


def cx(z):
    """A complex value as the JSON prints it."""
    return f'{{"re": {z.real!r}, "im": {z.imag!r}}}'


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
        result = runner.invoke(main, [*argv, "--order", str(_CAPS["alpha_beta"] + 1)])
        assert result.exit_code == 2
        assert "Usage:" in result.output
        assert f"--order must be <= {_CAPS['alpha_beta']} for alphabeta" in result.output
        assert cache_sizes() == before  # refused before any coefficient work

    # alphabeta's cap has its own test above
    @pytest.mark.parametrize("argv,name", [
        *((["coeffs", "--family", family], family) for family in ("a", "b", "nu", "mu", "omega")),
        *((["eval", "--target", f"expansion:{key}", "--n", "100", *(PQ if key in "wr" else ())],
           key) for key in ("w", "r", "nu", "mu", "omega")),
    ])
    def test_order_cap_exit_2(self, runner, argv, name):
        cap = _CAPS[cli._CAP_KEYS[name]]
        before = cache_sizes()
        result = runner.invoke(main, [*argv, "--order", str(cap + 1)])
        assert result.exit_code == 2
        assert "Usage:" in result.output
        assert f"--order must be <= {cap} for {name} " in result.output
        assert cache_sizes() == before  # refused before any coefficient work

    def test_order_caps_cover_the_benchmark_and_show_in_help(self, runner):
        # the benchmark's CLI mix asks for orders up to 13, alphabeta up to its 12
        assert all(_CAPS[family] >= 13 for family in ("a", "b", "nu", "mu", "omega"))
        # --help writes the caps out so that it imports nothing: each literal is the library's
        def caps_in_help(command):
            text = " ".join(invoke(runner, command, "--help").output.split())
            return {name: int(cap) for cap, name in re.findall(r"(\d+) \((\w+)\)", text)}

        families = ("a", "b", "nu", "mu", "omega", "alphabeta")
        assert caps_in_help("coeffs") == {f: _CAPS[cli._CAP_KEYS[f]] for f in families}
        assert caps_in_help("eval") == {
            key: expansions._FAMILIES[expansions.ExpansionTag(tag)].max_order
            for key, tag in cli._EXPANSION_TAGS.items()}

    @pytest.mark.parametrize("family", ["nu", "mu", "omega", "alphabeta"])
    @pytest.mark.parametrize("pq", [PQ, PQ[:2], PQ[2:]], ids=["p-q", "p", "q"])
    def test_pq_refused_for_series_families(self, runner, family, pq):
        before = cache_sizes()
        result = runner.invoke(main, ["coeffs", "--family", family, "--order", "2", *pq,
                                      "--format", "json"])
        assert result.exit_code == 2
        assert "Usage:" in result.output
        assert f"--p and --q do not apply to --family {family}" in result.output
        assert cache_sizes() == before  # refused before any coefficient work

    @pytest.mark.parametrize("argv", [
        ["--family", "a", "--order", "3", "--p", "1e308", "--q", "1e308"],
        ["--family", "b", "--order", "5", "--p", "1e200", "--q", "1"],
    ])
    def test_overflowing_point_exit_3(self, runner, argv):
        # a power of p or q passes the double range inside eval_bipoly
        result = runner.invoke(main, ["coeffs", *argv])
        assert result.exit_code == 3
        assert result.stdout == ""
        assert result.stderr.startswith("domain error: ")
        assert "complex exponentiation" in result.stderr

    def test_overflowing_sum_exit_3(self, runner):
        # every power of p and q is finite, but the sums of a_97..a_100 are not:
        # no NaN in the JSON, which RFC 8259 does not allow
        result = runner.invoke(main, ["coeffs", "--family", "a", "--order", "100", "--p", "1000",
                                      "--q", "1e6", "--format", "json"])
        assert result.exit_code == 3
        assert result.stdout == ""
        assert result.stderr.startswith("domain error: ")
        assert "monomial sum leaves the double range" in result.stderr

    def test_signs_flag(self, runner):
        result = runner.invoke(main, ["coeffs", "--family", "omega", "--order", "5",
                                      "--signs"])
        assert result.exit_code == 0
        assert "signs: - + - + -" in result.output

    @pytest.mark.parametrize("family", ["a", "b"])
    def test_signs_refused_for_polynomial_families(self, runner, family):
        result = runner.invoke(main, ["coeffs", "--family", family, "--order", "2", "--signs"])
        assert result.exit_code == 2
        assert "Usage:" in result.output
        assert "--signs applies to the nu, mu, omega and alphabeta families only" in result.output


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

    def test_expansion_at_the_order_cap(self, runner):
        # mu_261 .. mu_750 pass the double range, and their terms are far below the sum's last bit
        result = invoke(runner, "eval", "--target", "expansion:mu", "--n", "1000000",
                        "--order", "750", "--format", "json")
        assert result.exit_code == 0
        data = json.loads(result.output)
        assert (data["order"], data["approx"]["re"]) == (750, 1.5707959340960604)

    def test_expansion_report_csv_schema(self, runner):
        result = invoke(runner, "eval", "--target", "expansion:mu", "--n", "100",
                        "--order", "4", "--format", "csv")
        header = result.output.splitlines()[0]
        assert header == ("target,family,order,n,approx.re,approx.im,exact.re,exact.im,"
                          "abs_err,rel_err,note")

    def test_product_json_fields(self, runner):
        result = invoke(runner, "eval", "--target", "rproduct", "--n", "10",
                        "--p", "-2", "--q", "0", "--format", "json")
        data = json.loads(result.output)
        assert data["phase_or_sign"] == -1.0
        assert data["value"]["re"] < 0
        assert data["zero_factor_at"] is None

    @pytest.mark.parametrize("target,p,q,zero_at", [
        ("wproduct", "-3", "2", "1"), ("rproduct", "-3", "0", "2")])
    def test_zero_product_strict_json(self, runner, target, p, q, zero_at):
        # log_abs is -inf: JSON writes null, CSV an empty cell, plain output -inf
        args = ["eval", "--target", target, "--n", "5", f"--p={p}", f"--q={q}"]

        def reject(name):
            raise ValueError(f"non-standard JSON constant {name}")

        data = json.loads(invoke(runner, *args, "--format", "json").stdout,
                          parse_constant=reject)
        assert data["log_abs"] is None and data["value"] == {"re": 0.0, "im": 0.0}
        assert data["zero_factor_at"] == (int(zero_at) if zero_at else None)
        row = list(csv.DictReader(io.StringIO(invoke(runner, *args, "--format", "csv").stdout)))
        assert (row[0]["log_abs"], row[0]["zero_factor_at"]) == ("", zero_at)
        assert "log_abs: -inf\n" in invoke(runner, *args).stdout

    @pytest.mark.parametrize("target,fn", [("wproduct", products.w_product),
                                           ("rproduct", products.r_product)])
    def test_factor_rounding_to_zero_is_not_a_zero_product(self, runner, target, fn):
        # 1 + p + q rounds to 0.0 at j = 1 without being a root: a finite log, no zero index
        args = ["eval", "--target", target, "--n", "5", "--p=-1e-17", "--q=-1", "--format", "json"]
        data = json.loads(invoke(runner, *args).stdout)
        assert (data["zero_factor_at"], data["near_zero_at"]) == (None, 1)
        assert data["log_abs"] == fn(5, -1e-17, -1).log_abs
        assert data["value"]["re"] < 0

    def test_infinite_phase_strict_json(self, runner):
        # the damping phases overflow, so the phase sum is -inf: JSON writes null
        args = ["eval", "--target", "wproduct", "--n", "3", "--p", "1.7e308+1.7e308i",
                "--q", "0"]

        def reject(name):
            raise ValueError(f"non-standard JSON constant {name}")

        data = json.loads(invoke(runner, *args, "--format", "json").stdout,
                          parse_constant=reject)
        assert (data["log_abs"], data["phase_or_sign"]) == (None, None)
        assert "phase_or_sign: -inf\n" in invoke(runner, *args).stdout

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

    @pytest.mark.parametrize("target,pq,limit", [
        ("wclosed", PQ, "0.89687124216737757"),
        ("rclosed", PQ, "0.91326639581895752"),
        ("expansion:w", PQ, "0.89687124216737757"),
        ("expansion:r", PQ, "0.91326639581895752"),
        *((f"expansion:{k}", (), "1.5707963267948966")
          for k in ("mu", "nu", "alphabeta", "omega", "elezovic")),
    ])
    def test_n_past_the_double_range_prints_the_limit(self, runner, target, pq, limit):
        args = ["eval", "--target", target, "--n", str(10**400), *pq]
        if target.startswith("expansion:"):
            args += ["--order", "3"]
        result = invoke(runner, *args)
        assert result.exit_code == 0 and result.stderr == ""
        want = limit if target.endswith("closed") else f"approx: {limit}"
        assert want in result.output.splitlines()

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

    @pytest.mark.parametrize("argv, message", [
        (["--target", "wclosed", "--n", "10", "--p=-1000000000.5", "--q", "0"],
         "outside the domain Re >= -1e6"),
        (["--target", "expansion:w", "--n", "10", "--order", "2", "--p=-1000000000.5",
          "--q", "0"], "outside the domain Re >= -1e6"),
        # a root on a gamma pole beyond n: the product, whose head is all 10^12 factors
        (["--target", "wclosed", "--n", "1000000000000", "--p=-2000000000000", "--q", "0"],
         "takes a head of 1000000000000 factors one by one, more than 100000000"),
    ], ids=["argv0", "argv1", "argv2"])
    def test_far_left_gamma_argument_exit_3(self, runner, argv, message):
        # refused before a shift of about 10^9 steps or a head of 10^12 factors
        start = time.perf_counter()
        result = runner.invoke(main, ["eval", *argv])
        assert time.perf_counter() - start < 1.0
        assert result.exit_code == 3
        assert result.stdout == ""
        assert result.stderr.startswith("domain error: ")
        assert message in result.stderr
        assert "Traceback" not in result.output

    @pytest.mark.parametrize("target", ["wclosed", "rclosed"])
    @pytest.mark.parametrize("argv", [
        # |W_n| near exp(22792), the benchmark's known out-of-range input
        ["--n", "100000", "--p=-3000.0+0.5i", "--q", "100.0"],
        ["--n", "1000000", "--p", "0", "--q", "1000000"],
    ], ids=["complex", "real"])
    def test_value_past_the_double_range_exit_3(self, runner, target, argv):
        # the closed form's exp overflows: a domain error that still names OverflowError
        result = runner.invoke(main, ["eval", "--target", target, *argv])
        assert result.exit_code == 3
        assert result.stdout == ""
        assert result.stderr.startswith(f"domain error: {target} at n = {argv[1]}, ")
        assert "outside the double range (OverflowError: " in result.stderr
        assert "Traceback" not in result.output

    def test_root_near_a_pole_is_not_a_zero(self, runner):
        # factor 30 of W_35(-30.1, 3) is 4e-14, not 0: the product's value, with no note
        result = runner.invoke(main, ["eval", "--target", "wclosed", "--n", "35", "--p=-30.1",
                                      "--q", "3", "--format", "json"])
        assert result.exit_code == 0
        assert result.stderr == ""
        value = json.loads(result.stdout)["value"]
        assert abs(value["re"] / 1.5473510956049562e32 - 1) <= 1e-13
        assert value["im"] == 0.0

    @pytest.mark.parametrize("target,p,q,order,step", [
        ("expansion:w", "-30.1", "3", "4", 1),
        ("expansion:r", "-29.1", "2.9", "3", 2),
    ], ids=["w", "r"])
    def test_limit_near_a_pole_is_not_a_zero(self, runner, target, p, q, order, step):
        # the limits w_inf(-30.1, 3) and r_inf(-29.1, 2.9) have a root within 1e-12 of a
        # gamma pole but no exactly zero factor: the expansion is defined
        import mpmath as mp
        result = runner.invoke(main, ["eval", "--target", target, "--n", "100", f"--p={p}",
                                      "--q", q, "--order", order, "--format", "json"])
        assert result.exit_code == 0
        assert result.stderr == ""
        exact = json.loads(result.stdout)["exact"]
        with mp.workdps(50):
            want = mp.fprod(mp.exp(-mp.mpf(float(p)) / d) * (1 + mp.mpf(float(p)) / d
                                                           + mp.mpf(float(q)) / d**2)
                            for d in range(1, step * 99 + 2, step))
        assert abs(exact["re"] / float(want) - 1) <= 1e-13
        assert exact["im"] == 0.0

    def test_underflowing_limit_is_not_called_a_pole(self, runner):
        # R_inf(1e100, 0) is below the double range; no gamma argument is near a pole
        result = runner.invoke(main, ["eval", "--target", "expansion:r", "--n", "50",
                                      "--order", "2", "--p", "1e100", "--q", "0"])
        assert result.exit_code == 3
        assert result.stderr.startswith("domain error: r_inf(p, q) is 0 in double precision")
        assert "vanishes through a gamma pole" not in result.stderr
        assert "Traceback" not in result.output

    @pytest.mark.parametrize("target", ["wclosed", "rclosed", "expansion:w"])
    @pytest.mark.parametrize("p,q", [("1e200", "0"), ("0", "1.7e308+1.7e308i")])
    def test_overflowing_discriminant_exit_3(self, runner, target, p, q):
        # p^2 - 4q leaves the double range for finite p and q
        order = ["--order", "2"] if target.startswith("expansion:") else []
        result = runner.invoke(main, ["eval", "--target", target, "--n", "3", *order,
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

    def test_zero_factor_note_on_stderr(self, runner):
        # the library's RuntimeWarning becomes a note, without the CLI's source line
        args = ["eval", "--target", "wclosed", "--n", "10", "--p", "-2", "--q", "0"]
        note = "note: W_10((-2+0j), 0j) has a zero factor at j = 2\n"
        result = invoke(runner, *args)
        assert (result.exit_code, result.stdout, result.stderr) == (0, "0\n", note)
        proc = run_module(*args)
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, "0\n", note)
        assert "cli.py" not in proc.stderr

    def test_plain_product_shows_near_zero_at(self, runner):
        result = invoke(runner, "eval", "--target", "wproduct", "--n", "5", "--p", "1",
                        "--q", "-5.999999999999999")
        assert "zero_factor_at: None\nnear_zero_at: 2\nterms: 5\n" in result.stdout
        result = invoke(runner, "eval", "--target", "wproduct", *PRODUCT_ARGS)
        assert "zero_factor_at: None\nnear_zero_at: None\nterms: 50\n" in result.stdout

    @pytest.mark.parametrize("argv,message", [
        pytest.param(["--target", "wallis", "--n", "5", "--p", "1"],
                     "--p and --q do not apply", id="wallis-p"),
        pytest.param(["--target", "wallis", "--n", "5", "--q", "1"],
                     "--p and --q do not apply", id="wallis-q"),
        *(pytest.param(["--target", f"expansion:{k}", "--n", "50", "--order", "2", *PQ],
                       "--p and --q do not apply", id=f"expansion:{k}-pq")
          for k in ("mu", "nu", "alphabeta", "omega", "elezovic")),
        pytest.param(["--target", "wallis", "--n", "5", "--order", "2"],
                     "--order applies to expansion", id="wallis-order"),
        *(pytest.param(["--target", t, "--n", "5", "--order", "2", *PQ],
                       "--order applies to expansion", id=f"{t}-order")
          for t in ("wproduct", "rproduct", "wclosed", "rclosed")),
    ])
    def test_ignored_option_exit_2(self, runner, no_work, argv, message):
        result = runner.invoke(main, ["eval", *argv])
        assert result.exit_code == 2
        assert "Usage:" in result.output
        assert message in result.output

    @pytest.mark.parametrize("target,extra", [
        ("wallis", []),
        ("wproduct", PQ),
        ("rproduct", PQ),
        ("expansion:mu", ["--order", "2"]),
        ("expansion:w", ["--order", "2", *PQ]),
        ("wclosed", PQ),
        ("rclosed", PQ),
    ])
    def test_any_n_exit_0(self, runner, target, extra):
        # the products take a head of at most 7 factors here (D = 8) plus the zeta tail,
        # and the closed forms a fixed number of steps, whatever n is
        for n in (10**8 + 1, 10**12):
            result = runner.invoke(main, ["eval", "--target", target, "--n", str(n), *extra])
            assert result.exit_code == 0, result.output
            assert result.stderr == ""

    @pytest.mark.parametrize("target", ["wproduct", "rproduct"])
    def test_head_past_the_library_bound_exit_3(self, runner, target):
        # D = 4 * 10^8 + 1: all 2 * 10^8 factors of W, and of R, lie in the head
        start = time.perf_counter()
        result = runner.invoke(main, ["eval", "--target", target, "--n", "200000000",
                                      "--p", "1e8", "--q", "0"])
        assert time.perf_counter() - start < 1.0
        assert result.exit_code == 3
        assert result.stdout == ""
        assert result.stderr.startswith("domain error: ")
        assert "takes a head of 200000000 factors one by one, more than 100000000" \
            in result.stderr

    @pytest.mark.parametrize("target, p, q", [
        ("wproduct", "-30000001", "30000000"),
        ("rproduct", "-60000001", "60000000"),
    ])
    def test_zero_factor_past_the_head_bound_exit_0(self, runner, target, p, q):
        # factor 1 is 1 + p + q = 0, although the head passes the library bound
        start = time.perf_counter()
        result = runner.invoke(main, ["eval", "--target", target, "--n", "200000000",
                                      f"--p={p}", "--q", q, "--format", "json"])
        assert time.perf_counter() - start < 1.0
        assert result.exit_code == 0
        data = json.loads(result.stdout)
        assert (data["value"], data["zero_factor_at"]) == ({"re": 0.0, "im": 0.0}, 1)


class TestVerifyCommand:
    def test_bounds_suite_passes(self, runner):
        result = runner.invoke(main, ["verify", "--suite", "bounds"])
        assert result.exit_code == 0
        assert "PASS bounds.zero_violations_n<=1e4" in result.output

    def test_bounds_suite_names_the_certificate_start(self, runner):
        result = runner.invoke(main, ["verify", "--suite", "bounds", "--format", "json"])
        assert result.exit_code == 0
        checks = {c["name"]: c for c in json.loads(result.output)["checks"]}
        assert len(checks) == 4
        certificate = checks["bounds.tail_certificate"]
        assert certificate["passed"] and "every n >= 2 by the ratio test" in certificate["detail"]

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

    def test_unknown_suite_raises_in_the_library(self):
        with pytest.raises(ValueError, match=r"^unknown suite: 'nope'$"):
            verify.run_suite("nope")

    def test_key_error_inside_a_suite_is_not_an_unknown_suite(self, monkeypatch):
        def broken():
            raise KeyError("inside")

        monkeypatch.setitem(verify.SUITES, "limits", broken)
        with pytest.raises(KeyError, match="inside"):
            verify.run_suite("limits")


class TestUsageContract:
    """Exit 2, ``Usage:`` on stderr and nothing on stdout for every malformed command line."""

    @pytest.mark.parametrize("argv", [
        pytest.param([], id="missing-subcommand"),
        pytest.param(["nonsense"], id="unknown-subcommand"),
        pytest.param(["coeffs", "--family", "nu", "--order", "2", "--bogus"],
                     id="unknown-option"),
        pytest.param(["coeffs", "--fam", "nu", "--order", "2"], id="abbreviated-option"),
        pytest.param(["coeffs", "--family", "nu"], id="missing-order"),
        pytest.param(["eval", "--n", "5"], id="missing-target"),
        pytest.param(["verify"], id="missing-suite"),
        pytest.param(["coeffs", "--family", "zeta", "--order", "2"], id="bad-family"),
        pytest.param(["coeffs", "--family", "nu", "--order", "2", "--format", "xml"],
                     id="bad-format"),
        pytest.param(["verify", "--suite", "nonsense"], id="bad-suite"),
        pytest.param(["coeffs", "--family", "nu", "--order", "2.5"], id="float-order"),
        pytest.param(["eval", "--target", "wallis", "--n", "x"], id="word-n"),
        pytest.param(["eval", "--target", "expansion:mu", "--n", "50", "--order", "1e2"],
                     id="exponent-order"),
    ])
    def test_usage_error_exit_2(self, runner, argv):
        result = runner.invoke(main, argv)
        assert result.exit_code == 2
        assert result.stdout == ""
        assert "Usage:" in result.stderr
        assert "Traceback" not in result.stderr

    @pytest.mark.parametrize("argv,code,line", [
        pytest.param(["coeffs", "--family", "a", "--order", "2", "--p", "1"], 2,
                     "Error: --p and --q must be given together", id="coeffs-p-alone"),
        pytest.param(["coeffs", "--family", "b", "--order", "2", "--q", "1"], 2,
                     "Error: --p and --q must be given together", id="coeffs-q-alone"),
        pytest.param(["eval", "--target", "wallis", "--n", "0"], 2,
                     "Error: --n must be >= 1", id="eval-n-0"),
        pytest.param(["eval", "--target", "zproduct", "--n", "5"], 2,
                     "Error: unknown target 'zproduct'", id="eval-unknown-target"),
        pytest.param(["eval", "--target", "expansion:zeta", "--n", "5", "--order", "2"], 2,
                     "Error: unknown expansion family 'zeta' (choose from ['alphabeta', "
                     "'elezovic', 'mu', 'nu', 'omega', 'r', 'w'])", id="eval-unknown-family"),
        pytest.param(["eval", "--target", "expansion:mu", "--n", "5"], 2,
                     "Error: --order is required for expansion targets", id="eval-no-order"),
        pytest.param(["verify", "--suite", "limits"], 1, "FAIL limits.planted  (off by one)",
                     id="verify-failed"),
    ])
    def test_exit_code_paths(self, runner, no_work, monkeypatch, argv, code, line):
        # a usage error exits 2 before any library work; a failing check makes verify exit 1
        monkeypatch.setitem(verify.SUITES, "limits",
                            lambda: [verify.CheckResult("limits.planted", False, "off by one")])
        result = runner.invoke(main, argv)
        assert result.exit_code == code
        assert line in result.output.splitlines()
        assert "Traceback" not in result.output
        assert (result.stdout == "") == (code == 2)

    @pytest.mark.parametrize("pq", [
        ("--p", "-3000.0+0.5i", "--q", "2"),
        ("--p", "-1e-3", "--q", "1"),
        ("--p", "1", "--q", "-i"),
        ("--p=-1", "--q", "1"),
        ("--p", "-.5", "--q", "-2.5E+4i"),
    ])
    def test_values_that_begin_with_a_minus_sign(self, runner, pq):
        result = invoke(runner, "eval", "--target", "wproduct", "--n", "3", *pq,
                        "--format", "json")
        assert result.exit_code == 0
        assert json.loads(result.stdout)["terms"] == 3

    def test_subcommand_help_and_version(self, runner):
        for argv in (["--help"], ["coeffs", "--help"], ["eval", "--help"],
                     ["verify", "--help"], ["constants", "--help"]):
            result = invoke(runner, *argv)
            assert result.exit_code == 0 and result.stderr == ""
            assert result.stdout.startswith("Usage:")
        result = invoke(runner, "--version")
        assert result.exit_code == 0
        assert result.stdout.endswith(", version 0.1.0\n")

    @pytest.mark.parametrize("argv", [
        ["coeffs", "--family", "nu", "--order", "2"],
        ["eval", "--target", "wallis", "--n", "3"],
        ["verify", "--suite", "limits"],
        ["constants"],
    ])
    def test_parser_built_for_one_command_prints_the_same_help(self, argv):
        # only the named command gets its options; the top-level help and that
        # command's help read as from the parser with every option
        full, lazy = cli._parser([]), cli._parser(argv)
        assert lazy.format_help() == full.format_help()
        sub_full, sub_lazy = (vars(p.parse_known_args(argv)[0])["parser"] for p in (full, lazy))
        assert sub_lazy.format_help() == sub_full.format_help()


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

    def test_digits_env_not_an_integer_keeps_17(self, runner):
        result = invoke(runner, "constants", env={"WALLISPROD_DIGITS": "abc"})
        assert result.exit_code == 0
        assert result.output == invoke(runner, "constants").output
        assert "pi_over_2 = 1.5707963267948966\n" in result.output

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    @pytest.mark.parametrize("args", [
        ("constants",),
        ("eval", "--target", "expansion:mu", "--n", "100", "--order", "4"),
    ])
    def test_digits_env_leaves_machine_output_alone(self, runner, args, fmt):
        default = invoke(runner, *args, "--format", fmt).stdout
        short = invoke(runner, *args, "--format", fmt, env={"WALLISPROD_DIGITS": "5"}).stdout
        assert short == default


def test_console_entry_point_runs():
    proc = run_module("coeffs", "--family", "nu", "--order", "2")
    assert proc.returncode == 0
    assert proc.stdout == "1, -1/4\n2, 1/8\n"


def test_version_from_a_source_checkout():
    proc = run_module("--version")
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout.rstrip().endswith("version 0.1.0")


def test_package_runs_as_a_module():
    # python -m wallisprod is the same command line as python -m wallisprod.cli
    proc = run_python("-m", "wallisprod", "--version")
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout == run_module("--version").stdout
    proc = run_python("-m", "wallisprod", "eval", "--target", "wallis", "--n", "3")
    assert (proc.returncode, proc.stdout) == (0, run_module("eval", "--target", "wallis",
                                                            "--n", "3").stdout)


def test_tables_written_out_for_import_match_the_library():
    # the CLI's refusal of an expansion order reads the cap its family reads in the library
    for key, tag in cli._EXPANSION_TAGS.items():
        cap = expansions._FAMILIES[expansions.ExpansionTag(tag)].max_order
        assert _CAPS[cli._CAP_KEYS[key]] == cap if key != "elezovic" else key not in cli._CAP_KEYS
    assert cli._SUITE_NAMES == verify.SUITE_NAMES
    assert sorted(cli._EXPANSION_TAGS.values()) == sorted(t.value for t in expansions.ExpansionTag)
    assert {k for k, tag in cli._EXPANSION_TAGS.items()
            if expansions._FAMILIES[expansions.ExpansionTag(tag)].needs_params} == set(cli._PQ_EXPANSIONS)


class TestImportGraph:
    """The ``wallisprod`` modules a fresh interpreter holds after each command."""

    REPORT = ("\nprint(json.dumps(sorted(m for m in sys.modules if m.startswith('wallisprod'))),"
              " file=sys.stderr)")
    RUN_CLI = ("from wallisprod.cli import main\n"
               "try:\n"
               "    main(sys.argv[1:])\n"
               "except SystemExit as exc:\n"
               "    assert not exc.code, exc.code")

    def loaded(self, code, *argv):
        proc = run_python("-c", "import json, sys\n" + code + self.REPORT, *argv)
        assert proc.returncode == 0, proc.stderr
        return json.loads(proc.stderr.splitlines()[-1])

    def test_package_import_loads_no_submodule(self):
        assert self.loaded("import wallisprod") == ["wallisprod"]

    def test_cli_import_loads_no_library_module(self):
        assert self.loaded("import wallisprod.cli") == ["wallisprod", "wallisprod.cli"]

    @pytest.mark.parametrize("argv,modules", [
        (["--help"], []),
        (["eval", "--help"], []),
        (["coeffs", "--family", "nu", "--order", "3"], ["bernoulli", "coeffs"]),
        (["coeffs", "--family", "a", "--order", "2", "--format", "json"],
         ["bernoulli", "coeffs"]),
        (["eval", "--target", "wallis", "--n", "5", "--format", "json"],
         ["_fixed", "bernoulli", "products"]),
        (["eval", "--target", "wproduct", "--n", "5", *PQ], ["_fixed", "bernoulli", "products"]),
        (["eval", "--target", "rproduct", "--n", "5", *PQ], ["_fixed", "bernoulli", "products"]),
        (["eval", "--target", "wclosed", "--n", "5", *PQ], ["bernoulli", "special"]),
        (["constants", "--format", "json"], ["bernoulli", "special"]),
        (["eval", "--target", "expansion:mu", "--n", "50", "--order", "2"],
         ["_fixed", "bernoulli", "coeffs", "expansions", "products", "special"]),
    ])
    def test_subcommand_loads_what_it_uses(self, argv, modules):
        expected = ["wallisprod", *(f"wallisprod.{m}" for m in ["cli", *modules])]
        assert self.loaded(self.RUN_CLI, *argv) == sorted(expected)


    STDLIB_ONLY = ("import json, runpy, sys\n"
                   "try:\n"
                   "    runpy.run_module('wallisprod.cli', run_name='__main__')\n"
                   "finally:\n"
                   "    print(json.dumps(sorted({'click', 'dataclasses', 'inspect'}"
                   " & set(sys.modules))), file=sys.stderr)")

    @pytest.mark.parametrize("argv", [
        ["--help"],
        ["--version"],
        ["coeffs", "--family", "a", "--order", "3", "--format", "json"],
        ["eval", "--target", "wproduct", "--n", "20", "--p", "-1e-3", "--q", "-i"],
        ["eval", "--target", "expansion:mu", "--n", "50", "--order", "2", "--format", "csv"],
        ["verify", "--suite", "limits", "--format", "json"],
        ["constants"],
    ])
    def test_cli_runs_on_the_standard_library_alone(self, argv):
        # -S: no site-packages, so no third-party module can be imported
        bare = run_python("-S", "-c", self.STDLIB_ONLY, *argv)
        normal = run_module(*argv)
        assert normal.returncode == 0
        assert (bare.returncode, bare.stdout) == (normal.returncode, normal.stdout)
        assert json.loads(bare.stderr.splitlines()[-1]) == []


class TestCoeffSeriesOutput:
    """The exact series values as the CLI prints them."""

    def test_json_round_trip(self, runner):
        # the exact strings read back with Fraction, as a consumer of the JSON reads them
        for family, build, order in (("nu", wallis_nu, 5), ("mu", wallis_mu, 4),
                                     ("omega", omega, 3), ("alphabeta", alpha_beta, 3)):
            result = invoke(runner, "coeffs", "--family", family, "--order", str(order),
                            "--format", "json")
            data = json.loads(result.stdout)
            read = [tuple(map(Fraction, v)) if isinstance(v, list) else Fraction(v)
                    for v in data["values"]]
            series = CoeffSeries(Family(data["family"]), data["order"], tuple(read))
            assert series == build(order)

    def test_json_values_are_exact_strings(self, runner):
        result = invoke(runner, "coeffs", "--family", "nu", "--order", "3", "--format", "json")
        data = json.loads(result.stdout)
        assert data == {"family": "nu", "order": 3, "values": ["-1/4", "1/8", "-5/96"]}

    def test_csv_rows(self, runner):
        result = invoke(runner, "coeffs", "--family", "alphabeta", "--order", "2",
                        "--format", "csv")
        rows = list(csv.reader(io.StringIO(result.stdout)))
        assert rows[0] == ["index", "alpha", "beta"]
        assert rows[1] == ["1", "-1/4", "5/8"]


P_POINT, Q_POINT = complex(1, 2), complex(0, -0.5)  # the literals 1+2i and -0.5i
PRODUCT_ARGS = ("--n", "50", "--p", "1+1i", "--q", "0.5-1i")


def _product():
    result = products.w_product(50, complex(1, 1), complex(0.5, -1))
    assert result.zero_factor_at is None and result.near_zero_at is None
    return result


def _mu_report(n, order):
    family = expansions.ExpansionFamily(expansions.ExpansionTag.WALLIS_MU, order)
    return expansions.family_report(family, n)


def _constants():
    eg = special.EXP_EULER_GAMMA
    floats = {"pi_over_2": math.pi / 2, "wilf": special.wilf_constant(),
              "two_over_pi": 2 / math.pi, "neg_two_exp_gamma": -2 * eg,
              "half_exp_neg_gamma": 1 / (2 * eg)}
    return {"euler_gamma": special.EULER_GAMMA_STR,
            "exp_euler_gamma": special.EXP_EULER_GAMMA_STR,
            **{k: f"{x:.17g}" for k, x in floats.items()}}


class TestJsonRecords:
    """Byte-exact JSON, one test per record kind; the values come from the library."""

    @staticmethod
    def stdout(runner, *args):
        result = invoke(runner, *args, "--format", "json")
        assert result.exit_code == 0
        return result.stdout

    def test_series(self, runner):
        values = ", ".join(f'"{v}"' for v in wallis_nu(4).values)
        assert self.stdout(runner, "coeffs", "--family", "nu", "--order", "4") == (
            f'{{"family": "nu", "order": 4, "values": [{values}]}}\n')

    def test_alpha_beta_pairs(self, runner):
        pairs = ", ".join(f'["{a}", "{b}"]' for a, b in alpha_beta(3).values)
        assert self.stdout(runner, "coeffs", "--family", "alphabeta", "--order", "3") == (
            f'{{"family": "alpha_beta", "order": 3, "values": [{pairs}]}}\n')

    def test_polynomials(self, runner):
        polys = ", ".join(f'"{a_poly(j)}"' for j in (1, 2, 3))
        assert self.stdout(runner, "coeffs", "--family", "a", "--order", "3") == (
            f'{{"family": "a", "order": 3, "values": [{polys}]}}\n')

    def test_polynomials_at_a_point(self, runner):
        values = ", ".join(cx(eval_bipoly(a_poly(j), P_POINT, Q_POINT)) for j in (1, 2))
        out = self.stdout(runner, "coeffs", "--family", "a", "--order", "2",
                          "--p", "1+2i", "--q", "-0.5i")
        assert out == (f'{{"family": "a", "order": 2, "p": {cx(P_POINT)}, "q": {cx(Q_POINT)}, '
                       f'"values": [{values}]}}\n')

    def test_wallis(self, runner):
        value = complex(products.wallis_seq(5))
        assert self.stdout(runner, "eval", "--target", "wallis", "--n", "5") == (
            f'{{"target": "wallis", "value": {cx(value)}}}\n')

    def test_wclosed(self, runner):
        value = special.w_closed(100, complex(1, 0), complex(0.5, 0))
        out = self.stdout(runner, "eval", "--target", "wclosed", "--n", "100",
                          "--p", "1", "--q", "0.5")
        assert out == f'{{"target": "wclosed", "value": {cx(value)}}}\n'

    def test_wproduct(self, runner):
        r = _product()
        assert self.stdout(runner, "eval", "--target", "wproduct", *PRODUCT_ARGS) == (
            f'{{"target": "wproduct", "value": {cx(r.value)}, "log_abs": {r.log_abs!r}, '
            f'"phase_or_sign": {r.phase_or_sign!r}, "zero_factor_at": null, "terms": 50, '
            f'"near_zero_at": null}}\n')

    def test_expansion_report(self, runner):
        rep = _mu_report(100, 4)
        out = self.stdout(runner, "eval", "--target", "expansion:mu", "--n", "100",
                          "--order", "4")
        assert out == (
            f'{{"target": "expansion:mu", "family": "wallis_mu", "order": 4, "n": 100, '
            f'"approx": {cx(rep.approx)}, "exact": {cx(rep.exact)}, '
            f'"abs_err": {rep.abs_err!r}, "rel_err": {rep.rel_err!r}, "note": null}}\n')

    def test_constants(self, runner):
        fields = ", ".join(f'"{k}": "{v}"' for k, v in _constants().items())
        assert self.stdout(runner, "constants") == f"{{{fields}}}\n"

    def test_verify(self, runner):
        checks = ", ".join(
            f'{{"name": {json.dumps(r.name)}, "passed": {json.dumps(r.passed)}, '
            f'"detail": {json.dumps(r.detail)}}}' for r in verify.run_suite("limits"))
        assert self.stdout(runner, "verify", "--suite", "limits") == (
            f'{{"suite": "limits", "passed": 9, "failed": 0, "checks": [{checks}]}}\n')

    def test_verify_keys_and_rows(self, runner):
        data = json.loads(self.stdout(runner, "verify", "--suite", "limits"))
        assert list(data) == ["suite", "passed", "failed", "checks"]
        assert (data["suite"], data["passed"], data["failed"]) == ("limits", 9, 0)
        assert len(data["checks"]) == 9
        for check in data["checks"]:
            assert list(check) == ["name", "passed", "detail"]
            assert check["name"].startswith("limits.") and check["passed"] is True
            assert isinstance(check["detail"], str)


class TestCsvShapes:
    """The CSV table each record kind derives."""

    @staticmethod
    def stdout(runner, *args):
        result = invoke(runner, *args, "--format", "csv")
        assert result.exit_code == 0
        return result.stdout

    def test_alpha_beta_pairs(self, runner):
        out = self.stdout(runner, "coeffs", "--family", "alphabeta", "--order", "2")
        assert out == "index,alpha,beta\n1,-1/4,5/8\n2,3/256,7/12\n"

    def test_polynomials(self, runner):
        out = self.stdout(runner, "coeffs", "--family", "a", "--order", "2")
        assert out == f"index,value\n1,{a_poly(1)}\n2,{a_poly(2)}\n"

    def test_polynomials_at_a_point(self, runner):
        rows = "".join(f"{j},{v.real!r},{v.imag!r}\n" for j, v in
                       ((j, eval_bipoly(a_poly(j), P_POINT, Q_POINT)) for j in (1, 2)))
        out = self.stdout(runner, "coeffs", "--family", "a", "--order", "2",
                          "--p", "1+2i", "--q", "-0.5i")
        assert out == "index,re,im\n" + rows

    def test_scalar(self, runner):
        value = products.wallis_seq(5)
        out = self.stdout(runner, "eval", "--target", "wallis", "--n", "5")
        assert out == f"target,value.re,value.im\nwallis,{value!r},0.0\n"

    def test_product(self, runner):
        r = _product()
        out = self.stdout(runner, "eval", "--target", "wproduct", *PRODUCT_ARGS)
        assert out == (
            "target,value.re,value.im,log_abs,phase_or_sign,zero_factor_at,terms,near_zero_at\n"
            f"wproduct,{r.value.real!r},{r.value.imag!r},{r.log_abs!r},{r.phase_or_sign!r},"
            ",50,\n")

    def test_report_with_note(self, runner):
        rep = _mu_report(2, 9)
        out = self.stdout(runner, "eval", "--target", "expansion:mu", "--n", "2",
                          "--order", "9")
        assert out == (
            "target,family,order,n,approx.re,approx.im,exact.re,exact.im,abs_err,rel_err,note\n"
            f"expansion:mu,wallis_mu,9,2,{rep.approx.real!r},{rep.approx.imag!r},"
            f"{rep.exact.real!r},{rep.exact.imag!r},{rep.abs_err!r},{rep.rel_err!r},"
            "asymptotic regime not reached (n < order)\n")

    def test_verify_rows(self, runner):
        rows = list(csv.reader(io.StringIO(self.stdout(runner, "verify", "--suite", "limits"))))
        assert rows[0] == ["index", "name", "passed", "detail"]
        assert [row[0] for row in rows[1:]] == [str(k) for k in range(1, 10)]
        assert all(row[1].startswith("limits.") and row[2] == "true" for row in rows[1:])

    def test_verify_bytes(self, runner):
        buf = io.StringIO()
        csv.writer(buf, lineterminator="\n").writerows(
            [["index", "name", "passed", "detail"],
             *([str(k), r.name, "true" if r.passed else "false", r.detail]
               for k, r in enumerate(verify.run_suite("limits"), start=1))])
        assert self.stdout(runner, "verify", "--suite", "limits") == buf.getvalue()

    def test_constants_one_wide_row(self, runner):
        fields = _constants()
        assert self.stdout(runner, "constants") == (
            ",".join(fields) + "\n" + ",".join(fields.values()) + "\n")
