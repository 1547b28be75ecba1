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
                 near_zero_at``, with ``log_abs`` null for a zero product;
                 an expansion has ``target, family, order, n, approx,
                 exact, abs_err, rel_err, note``
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
(a gamma pole).  ``eval`` refuses, with exit 2, an option its target does
not read (``--p``/``--q`` for ``wallis`` and the Wallis-sequence
expansions, ``--order`` outside ``expansion:*``) and, for the targets that
multiply ``n`` factors one by one, an ``--n`` above ``MAX_BRUTE_FORCE_N``.
``coeffs`` refuses ``--p``/``--q`` for the series families (nu, mu, omega,
alphabeta).  Both refuse an ``--order`` above the family's cap in
``MAX_ORDER``, which ``expansion:w`` and ``expansion:r`` share with ``a``
and ``b``.  Every refusal comes before any library work.
Output goes to stdout, diagnostics (``note:``, ``domain error:``) to
stderr.  Plain output prints floats with 17 significant digits;
``WALLISPROD_DIGITS`` overrides that and changes no JSON or CSV byte.

The module imports no library module at its top: each subcommand imports
what it uses, so ``wallisprod --help`` loads only ``click``, and ``eval
--target wallis`` only ``products``.
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

from . import __version__

EXIT_VERIFY_FAILED = 1
EXIT_DOMAIN = 3

# coeffs.MAX_ALPHA_BETA_ORDER, written out so that the --help texts import nothing
MAX_ALPHABETA_ORDER = 12
# the largest --order of each coefficient family, for coeffs and for the expansion
# targets that read it; a cold coeffs run up to the cap takes at most about 2 s
# (mu), and about 0.6 s for a and 0.7 s for b since their terms are built in integers
MAX_ORDER = {"a": 120, "b": 120, "nu": 1800, "mu": 750, "omega": 400,
             "alphabeta": MAX_ALPHABETA_ORDER}
# wallis, wproduct, rproduct and expansion:* multiply n factors, 130-800 ns each
MAX_BRUTE_FORCE_N = 10**8

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


def _rational(x: Fraction) -> str:
    from .bernoulli import format_rational
    return format_rational(x)


def _json_value(value: object) -> object:
    if isinstance(value, complex):
        return {"re": value.real, "im": value.imag}
    if isinstance(value, Fraction):
        return _rational(value)
    raise TypeError(f"{type(value).__name__} is not part of a record")


def _cell(value: object) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, Fraction):
        return _rational(value)
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
@click.version_option(version=__version__)
def main() -> None:
    """Exact expansion coefficients and numeric checks for Wallis-type products."""


# ---------------------------------------------------------------------------
# coeffs
# ---------------------------------------------------------------------------

@main.command("coeffs")
@click.option("--family", required=True,
              type=click.Choice(["a", "b", "nu", "mu", "omega", "alphabeta"]),
              help="Coefficient family.")
@click.option("--order", required=True, type=int,
              help="Number of coefficients, at most "
                   + ", ".join(f"{cap} ({family})" for family, cap in MAX_ORDER.items()) + ".")
@click.option("--p", "p_text", default=None, help="Complex literal; evaluates a/b at (p, q).")
@click.option("--q", "q_text", default=None, help="Complex literal; evaluates a/b at (p, q).")
@_FORMAT
@click.option("--signs", is_flag=True,
              help="Also print the sign pattern to stderr (nu, mu, omega, alphabeta).")
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
    _check_order(family, family, order)
    if signs and family in ("a", "b"):
        raise click.UsageError("--signs applies to the nu, mu, omega and alphabeta families only")
    if family not in ("a", "b") and (p_text is not None or q_text is not None):
        raise click.UsageError(f"--p and --q do not apply to --family {family}")
    if family in ("a", "b"):
        _emit(fmt, *_poly_record(family, order, p_text, q_text))
        return
    from . import coeffs
    build = {"nu": coeffs.wallis_nu, "mu": coeffs.wallis_mu, "omega": coeffs.omega,
             "alphabeta": coeffs.alpha_beta}[family]
    series = build(order)
    if family == "alphabeta":
        values = [_AlphaBeta(a, b) for a, b in series.values]
        plain = [", ".join(f"({_rational(a)}, {_rational(b)})" for a, b in values)]
        leading = [v.alpha for v in values]
    else:
        values = leading = list(series.values)
        plain = [f"{k}, {_rational(v)}" for k, v in enumerate(values, start=1)]
    if signs:
        pattern = " ".join("+" if v > 0 else ("-" if v < 0 else "0") for v in leading)
        click.echo(f"signs: {pattern}", err=True)
    _emit(fmt, {"family": series.family.value, "order": series.order, "values": values}, plain)


def _check_order(name: str, family: str, order: int) -> None:
    # refuse, before any work, an --order past the cap of the coefficient family
    if order > MAX_ORDER[family]:
        raise click.UsageError(f"--order must be <= {MAX_ORDER[family]} for {name} "
                               "(the cold build grows steeply with the order)")


def _poly_record(family: str, order: int, p_text: str | None,
                 q_text: str | None) -> tuple[dict, list[str]]:
    if (p_text is None) != (q_text is None):
        raise click.UsageError("--p and --q must be given together")
    from .coeffs import a_poly, b_poly, eval_bipoly
    build = a_poly if family == "a" else b_poly
    polys = [build(j) for j in range(1, order + 1)]
    if p_text is None:
        lines = [str(f) for f in polys]
        return {"family": family, "order": order, "values": lines}, lines
    p, q = _require_pq(p_text, q_text)
    values = [eval_bipoly(poly, p, q) for poly in polys]
    plain = [f"{j}, {fmt_complex(v)}" for j, v in enumerate(values, start=1)]
    return {"family": family, "order": order, "p": p, "q": q, "values": values}, plain


# ---------------------------------------------------------------------------
# eval
# ---------------------------------------------------------------------------

# the ExpansionTag value of each expansion:<family>; w and r take --p and --q
_EXPANSION_TAGS = {
    "w": "w_pq",
    "r": "r_pq",
    "mu": "wallis_mu",
    "nu": "wallis_nu_exp",
    "alphabeta": "wallis_alpha_beta",
    "omega": "wallis_omega",
    "elezovic": "elezovic",
}
_PQ_EXPANSIONS = ("w", "r")
# the coefficient family whose --order cap each expansion shares
_EXPANSION_COEFFS = {"w": "a", "r": "b", "mu": "mu", "nu": "nu", "alphabeta": "alphabeta",
                     "omega": "omega"}
# len(expansions.ELEZOVIC_TERMS), the library's own cap on expansion:elezovic
_ELEZOVIC_TERMS = 6
_PRODUCTS = ("wproduct", "rproduct")
_CLOSED_FORMS = ("wclosed", "rclosed")


@main.command("eval")
@click.option("--target", required=True,
              help="wproduct | rproduct | wallis | wclosed | rclosed | expansion:<family>")
@click.option("--n", "n", required=True, type=int,
              help=f"At most {MAX_BRUTE_FORCE_N} for wallis, wproduct, rproduct and "
                   "expansion:*, which multiply n factors one by one.")
@click.option("--p", "p_text", default=None,
              help="Complex literal (wproduct, rproduct, wclosed, rclosed, expansion:w|r).")
@click.option("--q", "q_text", default=None,
              help="Complex literal (wproduct, rproduct, wclosed, rclosed, expansion:w|r).")
@click.option("--order", type=int, default=None,
              help="Truncation order for expansions, at most "
                   + ", ".join(f"{MAX_ORDER[family]} ({key})"
                               for key, family in _EXPANSION_COEFFS.items())
                   + f", {_ELEZOVIC_TERMS} (elezovic).")
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
        record, plain = _eval_record(target, n, p_text, q_text, order)
    _emit(fmt, record, plain)
    notes = [str(w.message) for w in caught]
    if record.get("note"):
        notes.append(record["note"])
    for note in notes:
        click.echo(f"note: {note}", err=True)


def _eval_record(target: str, n: int, p_text: str | None, q_text: str | None,
                 order: int | None) -> tuple[dict, list[str]]:
    key = target.split(":", 1)[1] if target.startswith("expansion:") else None
    if key is None and target not in ("wallis", *_PRODUCTS, *_CLOSED_FORMS):
        raise click.UsageError(f"unknown target {target!r}")
    if key is not None and key not in _EXPANSION_TAGS:
        raise click.UsageError(
            f"unknown expansion family {key!r} (choose from {sorted(_EXPANSION_TAGS)})")
    if order is not None and key is None:
        raise click.UsageError("--order applies to expansion targets only")
    if n > MAX_BRUTE_FORCE_N and target not in _CLOSED_FORMS:
        raise click.UsageError(f"--n must be <= {MAX_BRUTE_FORCE_N} for {target}, "
                               "which multiplies n factors one by one")
    if key is not None:
        return _expansion_record(target, key, n, p_text, q_text, order)
    if target == "wallis":
        if p_text is not None or q_text is not None:
            raise click.UsageError("--p and --q do not apply to --target wallis")
        from .products import wallis_seq
        value = complex(wallis_seq(n))
        return {"target": target, "value": value}, [fmt_complex(value)]
    p, q = _require_pq(p_text, q_text)
    if target in _CLOSED_FORMS:
        from .special import PoleError, r_closed, w_closed
        try:
            value = complex((w_closed if target == "wclosed" else r_closed)(n, p, q))
        except (PoleError, ValueError) as exc:  # a gamma pole, or p^2 - 4q leaves the double range
            _domain_error(str(exc))
        return {"target": target, "value": value}, [fmt_complex(value)]
    from .products import r_product, w_product
    try:
        result = (w_product if target == "wproduct" else r_product)(n, p, q)
    except ValueError as exc:  # the phase sum leaves the double range
        _domain_error(str(exc))
    # a zero product has no log, and its phase sum may not be finite:
    # strict JSON writes null, not -Infinity
    data = result.to_json_dict()
    return {"target": target, **asdict(result), "log_abs": data["log_abs"],
            "phase_or_sign": data["phase_or_sign"]}, [
        f"value: {fmt_complex(result.value)}",
        f"log_abs: {fmt_float(result.log_abs)}",
        f"phase_or_sign: {fmt_float(result.phase_or_sign)}",
        f"zero_factor_at: {result.zero_factor_at}",
        f"near_zero_at: {result.near_zero_at}",
        f"terms: {result.terms}",
    ]


def _expansion_record(target: str, key: str, n: int, p_text: str | None, q_text: str | None,
                      order: int | None) -> tuple[dict, list[str]]:
    if order is None:
        raise click.UsageError("--order is required for expansion targets")
    if key in _EXPANSION_COEFFS:
        _check_order(key, _EXPANSION_COEFFS[key], order)
    from .expansions import ExpansionFamily, ExpansionTag, family_report
    from .special import PoleError
    tag = ExpansionTag(_EXPANSION_TAGS[key])
    params = _require_pq(p_text, q_text) if key in _PQ_EXPANSIONS else None
    try:
        family = ExpansionFamily(tag, order, params)
    except ValueError as exc:  # an order outside the family's range
        raise click.UsageError(str(exc)) from exc
    if params is None and (p_text is not None or q_text is not None):
        raise click.UsageError(f"--p and --q do not apply to --target {target}")
    try:
        report = family_report(family, n)
    except PoleError as exc:
        _domain_error(str(exc))
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

# verify.SUITE_NAMES, written out so that --help imports nothing
_SUITE_NAMES = ("bernoulli", "coeffs", "closedforms", "limits", "bounds", "all")


@main.command("verify")
@click.option("--suite", required=True, type=click.Choice(_SUITE_NAMES))
@_FORMAT
def cmd_verify(suite: str, fmt: str) -> None:
    """Run an identity suite; exit 0 iff every check passes."""
    from .verify import run_suite
    results = run_suite(suite)
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
    from . import special
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
