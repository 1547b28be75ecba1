"""Command-line front end.

Subcommands:

* ``coeffs``     exact coefficient tables (nu, mu, omega, alphabeta) and the
                 bivariate polynomial families a/b, optionally evaluated at
                 a complex point (p, q)
* ``eval``       products, closed forms, the Wallis sequence, and truncated
                 expansions with an error report against the brute force
* ``verify``     run the built-in identity suites; exit 1 on any failure
* ``constants``  the classical constants this package revolves around

Exit codes: 0 ok, 1 verification failure, 2 usage error, 3 domain error
(a gamma pole).  Output goes to stdout, diagnostics to stderr.  Floats
print with 17 significant digits by default; set ``WALLISPROD_DIGITS``
to override.  Exact rationals are always printed as ``num/den``.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
import re
import sys
from fractions import Fraction

import click

from . import expansions, products, special, verify
from .bernoulli import format_rational
from .coeffs import (
    CoeffSeries,
    Family,
    a_poly,
    alpha_beta,
    b_poly,
    eval_bipoly,
    omega,
    wallis_mu,
    wallis_nu,
)
from .expansions import ExpansionFamily, ExpansionTag
from .special import PoleError

EXIT_VERIFY_FAILED = 1
EXIT_USAGE = 2
EXIT_DOMAIN = 3

MAX_ALPHABETA_ORDER = expansions._FAMILIES[ExpansionTag.WALLIS_ALPHA_BETA].max_order

_ATOM = r"[+-]?(?:\d+(?:\.\d*)?|\.\d+)(?:[eE][+-]?\d+|/\d+)?"
_COMPLEX_RE = re.compile(rf"^({_ATOM})?((?:{_ATOM})|[+-])?(i)?$")


def parse_complex_literal(text: str) -> complex:
    """Parse ``a``, ``bi``, ``a+bi`` or ``a-bi`` with rational or decimal parts.

    Examples: ``1``, ``-0.5``, ``1/3``, ``i``, ``-i``, ``2i``, ``1+2i``,
    ``1-1/2i``, ``0.5-0.25i``, ``2.5E+4i``, ``1e-3-2e-4i``; not ``1e999``.
    """
    t = text.strip().replace(" ", "")
    if not t:
        raise ValueError("empty complex literal")
    match = _COMPLEX_RE.match(t)
    if match is None:
        raise ValueError(f"cannot parse complex literal: {text!r}")
    real_part, imag_part, has_i = match.groups()
    if has_i is None:
        if imag_part is not None or real_part is None:
            raise ValueError(f"cannot parse complex literal: {text!r}")
        return complex(_parse_real(real_part), 0.0)
    if imag_part is None:
        # the whole body is the imaginary coefficient: "2i", "i", "-i"
        coeff = real_part
        if coeff is None or coeff == "":
            coeff = "1"
        elif coeff in ("+", "-"):
            coeff += "1"
        return complex(0.0, _parse_real(coeff))
    if imag_part in ("+", "-"):
        imag_part += "1"
    return complex(_parse_real(real_part) if real_part else 0.0, _parse_real(imag_part))


def _parse_real(text: str) -> float:
    try:
        value = float(Fraction(text)) if "/" in text else float(text)
    except (ZeroDivisionError, OverflowError):
        value = math.inf
    if not math.isfinite(value):
        raise ValueError(f"not a finite number: {text!r}")
    return value


def _digits() -> int:
    raw = os.environ.get("WALLISPROD_DIGITS", "17")
    try:
        d = int(raw)
    except ValueError:
        return 17
    return min(max(d, 1), 17)


def fmt_float(x: float) -> str:
    if math.isnan(x):
        return "nan"
    return f"{x:.{_digits()}g}"


def fmt_complex(z: complex) -> str:
    if z.imag == 0.0:
        return fmt_float(z.real)
    sign = "+" if z.imag >= 0 else "-"
    return f"{fmt_float(z.real)}{sign}{fmt_float(abs(z.imag))}i"


def _echo_csv(rows: list[list[str]]) -> None:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerows(rows)
    click.echo(buf.getvalue(), nl=False)


@click.group()
@click.version_option(package_name="wallisprod")
def main() -> None:
    """Exact expansion coefficients and numeric checks for Wallis-type products."""


# ---------------------------------------------------------------------------
# coeffs
# ---------------------------------------------------------------------------

_SERIES_BUILDERS = {
    "nu": wallis_nu,
    "mu": wallis_mu,
    "omega": omega,
    "alphabeta": alpha_beta,
}


@main.command("coeffs")
@click.option("--family", required=True,
              type=click.Choice(["a", "b", "nu", "mu", "omega", "alphabeta"]),
              help="Coefficient family.")
@click.option("--order", required=True, type=int,
              help=f"Number of coefficients (alphabeta: at most {MAX_ALPHABETA_ORDER}).")
@click.option("--p", "p_text", default=None, help="Complex literal; evaluates a/b at (p, q).")
@click.option("--q", "q_text", default=None, help="Complex literal; evaluates a/b at (p, q).")
@click.option("--format", "fmt", type=click.Choice(["plain", "json", "csv"]), default="plain")
@click.option("--signs", is_flag=True, help="Also print the sign pattern (to stderr).")
def cmd_coeffs(family: str, order: int, p_text: str | None, q_text: str | None,
               fmt: str, signs: bool) -> None:
    """Print exact expansion coefficients.

    \b
    Examples:
      wallisprod coeffs --family nu --order 3
      wallisprod coeffs --family alphabeta --order 2
      wallisprod coeffs --family a --order 1
      wallisprod coeffs --family a --order 3 --p 1 --q 1/2
    """
    if order < 1:
        raise click.UsageError("--order must be >= 1")
    if family == "alphabeta":
        _check_alphabeta_order(order)
    if family in ("a", "b"):
        _emit_poly_family(family, order, p_text, q_text, fmt)
        return
    series = _SERIES_BUILDERS[family](order)
    if signs:
        _emit_signs(series)
    if fmt == "json":
        click.echo(json.dumps(series.to_json_dict()))
    elif fmt == "csv":
        _echo_csv(series.csv_rows())
    else:
        if series.family is Family.ALPHA_BETA:
            click.echo(", ".join(
                f"({format_rational(a)}, {format_rational(b)})" for a, b in series.values))
        else:
            for k, value in enumerate(series.values, start=1):
                click.echo(f"{k}, {format_rational(value)}")


def _check_alphabeta_order(order: int) -> None:
    if order > MAX_ALPHABETA_ORDER:
        raise click.UsageError(f"--order must be <= {MAX_ALPHABETA_ORDER} for alphabeta "
                               "(its rationals triple in bit length per level)")


def _emit_signs(series: CoeffSeries) -> None:
    if series.family is Family.ALPHA_BETA:
        pattern = " ".join("+" if a > 0 else "-" for a, _ in series.values)
    else:
        pattern = " ".join("+" if v > 0 else ("-" if v < 0 else "0") for v in series.values)
    click.echo(f"signs: {pattern}", err=True)


def _emit_poly_family(family: str, order: int, p_text: str | None, q_text: str | None,
                      fmt: str) -> None:
    build = a_poly if family == "a" else b_poly
    polys = [build(j) for j in range(1, order + 1)]
    if (p_text is None) != (q_text is None):
        raise click.UsageError("--p and --q must be given together")
    if p_text is None:
        if fmt == "json":
            click.echo(json.dumps(
                {"family": family, "order": order, "values": [str(poly) for poly in polys]}))
        elif fmt == "csv":
            _echo_csv([["index", "polynomial"],
                       *[[str(j), str(poly)] for j, poly in enumerate(polys, start=1)]])
        else:
            for poly in polys:
                click.echo(str(poly))
        return
    try:
        p = parse_complex_literal(p_text)
        q = parse_complex_literal(q_text)
    except ValueError as exc:
        raise click.UsageError(str(exc)) from exc
    values = [eval_bipoly(poly, p, q) for poly in polys]
    if fmt == "json":
        click.echo(json.dumps({
            "family": family, "order": order,
            "p": {"re": p.real, "im": p.imag}, "q": {"re": q.real, "im": q.imag},
            "values": [{"re": v.real, "im": v.imag} for v in values],
        }))
    elif fmt == "csv":
        _echo_csv([["index", "re", "im"],
                   *[[str(j), repr(v.real), repr(v.imag)] for j, v in enumerate(values, start=1)]])
    else:
        for j, v in enumerate(values, start=1):
            click.echo(f"{j}, {fmt_complex(v)}")


# ---------------------------------------------------------------------------
# eval
# ---------------------------------------------------------------------------

_EXPANSION_TAGS = {
    "w": ExpansionTag.W_PQ,
    "r": ExpansionTag.R_PQ,
    "mu": ExpansionTag.WALLIS_MU,
    "nu": ExpansionTag.WALLIS_NU_EXP,
    "alphabeta": ExpansionTag.WALLIS_ALPHA_BETA,
    "omega": ExpansionTag.WALLIS_OMEGA,
    "elezovic": ExpansionTag.ELEZOVIC,
}


@main.command("eval")
@click.option("--target", required=True,
              help="wproduct | rproduct | wallis | wclosed | rclosed | expansion:<family>")
@click.option("--n", "n", required=True, type=int)
@click.option("--p", "p_text", default=None, help="Complex literal.")
@click.option("--q", "q_text", default=None, help="Complex literal.")
@click.option("--order", type=int, default=None,
              help=f"Truncation order for expansions (alphabeta: at most {MAX_ALPHABETA_ORDER}).")
@click.option("--format", "fmt", type=click.Choice(["plain", "json", "csv"]), default="plain")
def cmd_eval(target: str, n: int, p_text: str | None, q_text: str | None,
             order: int | None, fmt: str) -> None:
    """Evaluate a product, a closed form, or a truncated expansion.

    \b
    Examples:
      wallisprod eval --target wallis --n 5
      wallisprod eval --target wproduct --n 100 --p 1 --q 0.5
      wallisprod eval --target wclosed  --n 100 --p 1 --q 0.5
      wallisprod eval --target expansion:omega --n 100 --order 5
    """
    if n < 1:
        raise click.UsageError("--n must be >= 1")
    try:
        if target == "wallis":
            _emit_scalar("wallis", products.wallis_seq(n), fmt)
        elif target in ("wproduct", "rproduct"):
            p, q = _require_pq(p_text, q_text)
            fn = products.w_product if target == "wproduct" else products.r_product
            try:
                result = fn(n, p, q)
            except ValueError as exc:  # the phase sum leaves the double range
                click.echo(f"domain error: {exc}", err=True)
                sys.exit(EXIT_DOMAIN)
            _emit_product(target, result, fmt)
        elif target in ("wclosed", "rclosed"):
            p, q = _require_pq(p_text, q_text)
            fn = special.w_closed if target == "wclosed" else special.r_closed
            try:
                value = fn(n, p, q)
            except ValueError as exc:  # the discriminant p^2 - 4q leaves the double range
                click.echo(f"domain error: {exc}", err=True)
                sys.exit(EXIT_DOMAIN)
            _emit_scalar(target, value, fmt)
        elif target.startswith("expansion:"):
            key = target.split(":", 1)[1]
            if key not in _EXPANSION_TAGS:
                raise click.UsageError(
                    f"unknown expansion family {key!r} (choose from {sorted(_EXPANSION_TAGS)})")
            tag = _EXPANSION_TAGS[key]
            if order is None:
                raise click.UsageError("--order is required for expansion targets")
            if key == "alphabeta":
                _check_alphabeta_order(order)
            params = None
            if expansions._FAMILIES[tag].needs_params:
                params = _require_pq(p_text, q_text)
            try:
                family = ExpansionFamily(tag, order, params)
            except ValueError as exc:  # an order outside the family's range
                raise click.UsageError(str(exc)) from exc
            try:
                report = expansions.family_report(family, n)
            except (OverflowError, ValueError) as exc:  # a sum or p^2 - 4q leaves the double range
                click.echo(f"domain error: {target} at n = {n}, order {order}: {exc}", err=True)
                sys.exit(EXIT_DOMAIN)
            _emit_report(target, family, report, fmt)
        else:
            raise click.UsageError(f"unknown target {target!r}")
    except PoleError as exc:
        click.echo(f"domain error: {exc}", err=True)
        sys.exit(EXIT_DOMAIN)


def _require_pq(p_text: str | None, q_text: str | None) -> tuple[complex, complex]:
    if p_text is None or q_text is None:
        raise click.UsageError("--p and --q are required for this target")
    try:
        return parse_complex_literal(p_text), parse_complex_literal(q_text)
    except ValueError as exc:
        raise click.UsageError(str(exc)) from exc


def _emit_scalar(name: str, value: complex, fmt: str) -> None:
    value = complex(value)
    if fmt == "json":
        click.echo(json.dumps({"target": name, "value": {"re": value.real, "im": value.imag}}))
    elif fmt == "csv":
        _echo_csv([["target", "re", "im"], [name, repr(value.real), repr(value.imag)]])
    else:
        click.echo(fmt_complex(value))


def _emit_product(name: str, result: products.ProductResult, fmt: str) -> None:
    if fmt == "json":
        click.echo(json.dumps({"target": name, **result.to_json_dict()}))
    elif fmt == "csv":
        _echo_csv([
            ["target", "re", "im", "log_abs", "phase_or_sign", "zero_factor_at", "terms"],
            [name, repr(result.value.real), repr(result.value.imag), repr(result.log_abs),
             repr(result.phase_or_sign),
             "" if result.zero_factor_at is None else str(result.zero_factor_at),
             str(result.terms)],
        ])
    else:
        click.echo(f"value: {fmt_complex(result.value)}")
        click.echo(f"log_abs: {fmt_float(result.log_abs)}")
        click.echo(f"phase_or_sign: {fmt_float(result.phase_or_sign)}")
        click.echo(f"zero_factor_at: {result.zero_factor_at}")
        click.echo(f"terms: {result.terms}")


def _emit_report(name: str, family: ExpansionFamily, report, fmt: str) -> None:
    if fmt == "json":
        click.echo(json.dumps({
            "target": name, "family": family.tag.value, "order": family.order,
            **report.to_json_dict(),
        }))
    elif fmt == "csv":
        _echo_csv([
            ["family", "order", "n", "approx", "exact", "abs_err", "rel_err", "est_order"],
            [family.tag.value, str(family.order), str(report.n),
             fmt_complex(report.approx), fmt_complex(report.exact),
             repr(report.abs_err),
             "" if report.rel_err is None else repr(report.rel_err), ""],
        ])
    else:
        click.echo(f"family: {family.tag.value}")
        click.echo(f"order: {family.order}")
        click.echo(f"n: {report.n}")
        click.echo(f"approx: {fmt_complex(report.approx)}")
        click.echo(f"exact: {fmt_complex(report.exact)}")
        click.echo(f"abs_err: {fmt_float(report.abs_err)}")
        click.echo("rel_err: " + ("n/a" if report.rel_err is None else fmt_float(report.rel_err)))
        if report.note:
            click.echo(f"note: {report.note}", err=True)


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

@main.command("verify")
@click.option("--suite", required=True, type=click.Choice(list(verify.SUITE_NAMES)))
@click.option("--format", "fmt", type=click.Choice(["plain", "json", "csv"]), default="plain")
def cmd_verify(suite: str, fmt: str) -> None:
    """Run an identity suite; exit 0 iff every check passes."""
    results = verify.run_suite(suite)
    failed = [r for r in results if not r.passed]
    if fmt == "json":
        click.echo(json.dumps({
            "suite": suite,
            "passed": len(results) - len(failed),
            "failed": len(failed),
            "checks": [{"name": r.name, "passed": r.passed, "detail": r.detail}
                       for r in results],
        }))
    elif fmt == "csv":
        _echo_csv([["name", "passed", "detail"],
                   *[[r.name, str(r.passed).lower(), r.detail] for r in results]])
    else:
        for r in results:
            mark = "PASS" if r.passed else "FAIL"
            suffix = f"  ({r.detail})" if r.detail else ""
            click.echo(f"{mark} {r.name}{suffix}")
        click.echo(f"{len(results) - len(failed)}/{len(results)} checks passed")
    if failed:
        sys.exit(EXIT_VERIFY_FAILED)


# ---------------------------------------------------------------------------
# constants
# ---------------------------------------------------------------------------

@main.command("constants")
@click.option("--format", "fmt", type=click.Choice(["plain", "json", "csv"]), default="plain")
def cmd_constants(fmt: str) -> None:
    """Print the classical constants (gamma to 40+ digits)."""
    eg = special.EXP_EULER_GAMMA
    entries = [
        ("euler_gamma", special.EULER_GAMMA_STR),
        ("exp_euler_gamma", special.EXP_EULER_GAMMA_STR),
        ("pi_over_2", fmt_float(math.pi / 2)),
        ("wilf", fmt_float(special.wilf_constant())),
        ("two_over_pi", fmt_float(2 / math.pi)),
        ("neg_two_exp_gamma", fmt_float(-2 * eg)),
        ("half_exp_neg_gamma", fmt_float(1 / (2 * eg))),
    ]
    if fmt == "json":
        click.echo(json.dumps(dict(entries)))
    elif fmt == "csv":
        _echo_csv([["name", "value"], *[[k, v] for k, v in entries]])
    else:
        for key, value in entries:
            click.echo(f"{key} = {value}")


if __name__ == "__main__":
    main()
