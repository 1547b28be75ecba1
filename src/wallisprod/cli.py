"""Command-line front end.

Subcommands:

* ``coeffs``     exact coefficient tables (nu, mu, omega, alphabeta) and the
                 bivariate polynomial families a/b, optionally evaluated at
                 a complex point (p, q)
* ``eval``       products, closed forms, the Wallis sequence, and truncated
                 expansions with an error report against the brute force
* ``verify``     run the built-in identity suites; exit 1 on any failure
* ``constants``  the classical constants this package revolves around

Each subcommand builds one record, an ordered dict, and ``--format json``
prints it as one JSON object with these keys:

* ``coeffs``     ``family, order, values``: ``num/den`` strings (nu, mu,
                 omega), ``[alpha, beta]`` pairs (alphabeta) or polynomial
                 strings (a, b); with ``--p``/``--q`` the keys are
                 ``family, order, p, q, values``
* ``eval``       ``target, value`` (wallis, wclosed, rclosed); the products
                 add ``log_abs, phase_or_sign, zero_factor_at, terms,
                 near_zero_at``; an expansion has ``target, family, order, n,
                 approx, exact, abs_err, rel_err, note``
* ``verify``     ``suite, passed, failed, checks``, each check with
                 ``name, passed, detail``
* ``constants``  one decimal string per constant

A complex value is ``{"re": ..., "im": ...}`` and an exact rational is
always a ``num/den`` string, never a decimal.  ``--format csv`` derives a table from the record.  A
record with a list field prints one row per item after an ``index`` column;
the item's columns are its keys (a dict), ``re,im`` (a complex),
``alpha,beta`` (an alpha-beta pair) or else ``value``.  Any other record
prints one header of its keys and one row, where a complex field ``k``
becomes the columns ``k.re,k.im``.  Floats print with ``repr``, ``None`` as
an empty cell and booleans as ``true``/``false``.  ``--format plain``, the
default, prints each command's own lines.

Exit codes: 0 ok, 1 verification failure, 2 usage error, 3 domain error
(a gamma pole).  Output goes to stdout, diagnostics (``note:``, ``domain
error:``) to stderr.  Plain output prints floats with 17 significant
digits; ``WALLISPROD_DIGITS`` overrides that and changes no JSON or CSV
byte.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
import re
import sys
import warnings
from dataclasses import asdict
from fractions import Fraction
from typing import NamedTuple, NoReturn

import click

from . import coeffs, expansions, products, special, verify
from .bernoulli import format_rational
from .expansions import ExpansionFamily, ExpansionTag
from .special import PoleError

EXIT_VERIFY_FAILED = 1
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


# ---------------------------------------------------------------------------
# output: one record per command, rendered by _emit
# ---------------------------------------------------------------------------

class _AlphaBeta(NamedTuple):
    """One ``(alpha_l, beta_l)`` level; JSON writes it as a 2-element array."""

    alpha: Fraction
    beta: Fraction


def _json_value(value: object) -> object:
    if isinstance(value, complex):
        return {"re": value.real, "im": value.imag}
    if isinstance(value, Fraction):
        return format_rational(value)
    if isinstance(value, coeffs.BiPoly):
        return str(value)
    raise TypeError(f"{type(value).__name__} is not part of a record")


def _cell(value: object) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, Fraction):
        return format_rational(value)
    return str(value)  # a float's str is its repr


def _item_columns(item: object) -> dict:
    if isinstance(item, dict):
        return item
    if isinstance(item, complex):
        return _json_value(item)
    if isinstance(item, _AlphaBeta):
        return item._asdict()
    return {"value": item}


def _csv_table(record: dict) -> list[list[str]]:
    """The CSV rows of ``record``, by the rule in the module docstring."""
    items = next((v for v in record.values() if isinstance(v, list)), None)
    if items is not None:
        rows = [_item_columns(item) for item in items]
        return [["index", *rows[0]], *([str(k), *map(_cell, row.values())]
                                       for k, row in enumerate(rows, start=1))]
    columns = {}
    for key, value in record.items():
        if isinstance(value, complex):
            columns[f"{key}.re"], columns[f"{key}.im"] = value.real, value.imag
        else:
            columns[key] = value
    return [list(columns), [_cell(v) for v in columns.values()]]


def _emit(fmt: str, record: dict, plain: list[str]) -> None:
    """Print ``record`` as JSON or CSV, or the command's own ``plain`` lines."""
    if fmt == "json":
        click.echo(json.dumps(record, default=_json_value))
    elif fmt == "csv":
        buf = io.StringIO()
        csv.writer(buf, lineterminator="\n").writerows(_csv_table(record))
        click.echo(buf.getvalue(), nl=False)
    else:
        for line in plain:
            click.echo(line)


def _domain_error(message: str) -> NoReturn:
    click.echo(f"domain error: {message}", err=True)
    sys.exit(EXIT_DOMAIN)


_FORMAT = click.option("--format", "fmt", type=click.Choice(["plain", "json", "csv"]),
                       default="plain")


@click.group()
@click.version_option(package_name="wallisprod")
def main() -> None:
    """Exact expansion coefficients and numeric checks for Wallis-type products."""


# ---------------------------------------------------------------------------
# coeffs
# ---------------------------------------------------------------------------

_SERIES_BUILDERS = {
    "nu": coeffs.wallis_nu,
    "mu": coeffs.wallis_mu,
    "omega": coeffs.omega,
    "alphabeta": coeffs.alpha_beta,
}


@main.command("coeffs")
@click.option("--family", required=True,
              type=click.Choice(["a", "b", "nu", "mu", "omega", "alphabeta"]),
              help="Coefficient family.")
@click.option("--order", required=True, type=int,
              help=f"Number of coefficients (alphabeta: at most {MAX_ALPHABETA_ORDER}).")
@click.option("--p", "p_text", default=None, help="Complex literal; evaluates a/b at (p, q).")
@click.option("--q", "q_text", default=None, help="Complex literal; evaluates a/b at (p, q).")
@_FORMAT
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
        _emit(fmt, *_poly_record(family, order, p_text, q_text))
        return
    series = _SERIES_BUILDERS[family](order)
    if family == "alphabeta":
        values = [_AlphaBeta(a, b) for a, b in series.values]
        plain = [", ".join(f"({format_rational(a)}, {format_rational(b)})" for a, b in values)]
        leading = [v.alpha for v in values]
    else:
        values = leading = list(series.values)
        plain = [f"{k}, {format_rational(v)}" for k, v in enumerate(values, start=1)]
    if signs:
        pattern = " ".join("+" if v > 0 else ("-" if v < 0 else "0") for v in leading)
        click.echo(f"signs: {pattern}", err=True)
    _emit(fmt, {"family": series.family.value, "order": series.order, "values": values}, plain)


def _check_alphabeta_order(order: int) -> None:
    if order > MAX_ALPHABETA_ORDER:
        raise click.UsageError(f"--order must be <= {MAX_ALPHABETA_ORDER} for alphabeta "
                               "(its rationals triple in bit length per level)")


def _poly_record(family: str, order: int, p_text: str | None,
                 q_text: str | None) -> tuple[dict, list[str]]:
    if (p_text is None) != (q_text is None):
        raise click.UsageError("--p and --q must be given together")
    build = coeffs.a_poly if family == "a" else coeffs.b_poly
    polys = [build(j) for j in range(1, order + 1)]
    if p_text is None:
        return {"family": family, "order": order, "values": polys}, [str(f) for f in polys]
    p, q = _require_pq(p_text, q_text)
    values = [coeffs.eval_bipoly(poly, p, q) for poly in polys]
    plain = [f"{j}, {fmt_complex(v)}" for j, v in enumerate(values, start=1)]
    return {"family": family, "order": order, "p": p, "q": q, "values": values}, plain


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

_PQ_TARGETS = {
    "wproduct": products.w_product,
    "rproduct": products.r_product,
    "wclosed": special.w_closed,
    "rclosed": special.r_closed,
}


@main.command("eval")
@click.option("--target", required=True,
              help="wproduct | rproduct | wallis | wclosed | rclosed | expansion:<family>")
@click.option("--n", "n", required=True, type=int)
@click.option("--p", "p_text", default=None, help="Complex literal.")
@click.option("--q", "q_text", default=None, help="Complex literal.")
@click.option("--order", type=int, default=None,
              help=f"Truncation order for expansions (alphabeta: at most {MAX_ALPHABETA_ORDER}).")
@_FORMAT
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
    # a library warning (a zero factor of a closed form) becomes a note
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            record, plain = _eval_record(target, n, p_text, q_text, order)
        except PoleError as exc:
            _domain_error(str(exc))
    _emit(fmt, record, plain)
    notes = [str(w.message) for w in caught]
    if record.get("note"):
        notes.append(record["note"])
    for note in notes:
        click.echo(f"note: {note}", err=True)


def _eval_record(target: str, n: int, p_text: str | None, q_text: str | None,
                 order: int | None) -> tuple[dict, list[str]]:
    if target == "wallis":
        value = complex(products.wallis_seq(n))
        return {"target": target, "value": value}, [fmt_complex(value)]
    if target in _PQ_TARGETS:
        p, q = _require_pq(p_text, q_text)
        try:
            result = _PQ_TARGETS[target](n, p, q)
        except ValueError as exc:  # the phase sum or p^2 - 4q leaves the double range
            _domain_error(str(exc))
        if not isinstance(result, products.ProductResult):
            value = complex(result)
            return {"target": target, "value": value}, [fmt_complex(value)]
        return {"target": target, **asdict(result)}, [
            f"value: {fmt_complex(result.value)}",
            f"log_abs: {fmt_float(result.log_abs)}",
            f"phase_or_sign: {fmt_float(result.phase_or_sign)}",
            f"zero_factor_at: {result.zero_factor_at}",
            f"near_zero_at: {result.near_zero_at}",
            f"terms: {result.terms}",
        ]
    if not target.startswith("expansion:"):
        raise click.UsageError(f"unknown target {target!r}")
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
        _domain_error(f"{target} at n = {n}, order {order}: {exc}")
    record = {"target": target, "family": tag.value, "order": order, **asdict(report)}
    return record, [
        f"family: {tag.value}",
        f"order: {order}",
        f"n: {report.n}",
        f"approx: {fmt_complex(report.approx)}",
        f"exact: {fmt_complex(report.exact)}",
        f"abs_err: {fmt_float(report.abs_err)}",
        "rel_err: " + ("n/a" if report.rel_err is None else fmt_float(report.rel_err)),
    ]


def _require_pq(p_text: str | None, q_text: str | None) -> tuple[complex, complex]:
    if p_text is None or q_text is None:
        raise click.UsageError("--p and --q are required for this target")
    try:
        return parse_complex_literal(p_text), parse_complex_literal(q_text)
    except ValueError as exc:
        raise click.UsageError(str(exc)) from exc


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

@main.command("verify")
@click.option("--suite", required=True, type=click.Choice(list(verify.SUITE_NAMES)))
@_FORMAT
def cmd_verify(suite: str, fmt: str) -> None:
    """Run an identity suite; exit 0 iff every check passes."""
    results = verify.run_suite(suite)
    failed = sum(not r.passed for r in results)
    plain = [("PASS " if r.passed else "FAIL ") + r.name + (f"  ({r.detail})" if r.detail else "")
             for r in results]
    plain.append(f"{len(results) - failed}/{len(results)} checks passed")
    _emit(fmt, {"suite": suite, "passed": len(results) - failed, "failed": failed,
                "checks": [asdict(r) for r in results]}, plain)
    if failed:
        sys.exit(EXIT_VERIFY_FAILED)


# ---------------------------------------------------------------------------
# constants
# ---------------------------------------------------------------------------

@main.command("constants")
@_FORMAT
def cmd_constants(fmt: str) -> None:
    """Print the classical constants (gamma to 40+ digits)."""
    eg = special.EXP_EULER_GAMMA
    exact = {"euler_gamma": special.EULER_GAMMA_STR,
             "exp_euler_gamma": special.EXP_EULER_GAMMA_STR}
    floats = {
        "pi_over_2": math.pi / 2,
        "wilf": special.wilf_constant(),
        "two_over_pi": 2 / math.pi,
        "neg_two_exp_gamma": -2 * eg,
        "half_exp_neg_gamma": 1 / (2 * eg),
    }
    record = {**exact, **{k: f"{x:.17g}" for k, x in floats.items()}}
    shown = {**exact, **{k: fmt_float(x) for k, x in floats.items()}}
    _emit(fmt, record, [f"{k} = {v}" for k, v in shown.items()])


if __name__ == "__main__":
    main()
