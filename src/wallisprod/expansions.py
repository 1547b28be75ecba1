"""Truncated asymptotic expansions, their measured errors, and sharp bounds.

Every family is one entry of the table ``_FAMILIES``, keyed by
:class:`ExpansionTag`.  An entry states the terms ``c_k / (n + s_k)^e_k``
(coefficient source, shift and exponent), the outer form ``1 + s`` or
``exp(s)``, the prefactor (``pi/2``, ``W_inf`` or ``R_inf``), the
brute-force oracle, the shift used for order estimation and, for a finite
or costly family, its largest order.  Two evaluators read the table: one
in floats (complex for the two (p, q) families) behind the public
``eval_*`` functions, and one in fixed-point integers behind
:func:`wallis_error_exact`.  The ``(n + 5/8)`` series of Elezovic, Lin and
Vuksic is the ``mu`` series re-expanded at shift 5/8, so
:data:`ELEZOVIC_TERMS` is derived, not typed.

Errors are always measured against the brute-force product oracle, never
against the gamma closed form.  The Wallis-sequence families are measured
exactly, because their truncation errors drop far below double precision
(the order-5 odd family is at 1e-24 by ``n = 100``).  The kernel works on
integers scaled by ``2^G``: ``pi`` from Machin's formula, ``exp`` from a
Taylor series with argument halving, each term ``c_k / (n + s_k)^e_k``
rounded once, and ``W_n`` as the running product ``x <- x 4k^2 // (4k^2 - 1)``.
Every step carries an integer bound on its rounding.  ``G`` starts at
``(2 order + 4) log2(n) + 128`` bits and doubles until the total bound is
below ``2^-60`` of the error (Ziv's strategy, Brent and Zimmermann, *Modern
Computer Arithmetic*, ch. 3-4), so a measured error costs ``O(n)``
operations on ``G``-bit integers.  The two (p, q) families are measured in
double precision, where their errors sit far above the float noise for the
orders of interest; estimates that would be dominated by noise are flagged
as NaN.
"""

from __future__ import annotations

import cmath
import functools
import itertools
import math
import sys
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Callable, Iterator

from .coeffs import (
    MAX_ALPHA_BETA_ORDER,
    _alpha_beta_levels,
    a_poly,
    alpha_beta,
    b_poly,
    eval_bipoly,
    omega,
    wallis_mu,
    wallis_nu,
)
from .products import r_product, w_product, wallis_seq
from .special import PoleError, r_inf, w_inf

__all__ = [
    "ExpansionTag",
    "ExpansionFamily",
    "ErrorReport",
    "error_report",
    "family_oracle",
    "family_report",
    "eval_w_expansion",
    "eval_r_expansion",
    "eval_wallis_mu",
    "eval_wallis_nu_exp",
    "eval_wallis_alpha_beta",
    "eval_wallis_omega",
    "eval_elezovic",
    "ELEZOVIC_TERMS",
    "wallis_error_exact",
    "convergence_order",
    "BoundsReport",
    "check_bounds",
    "DENG_ALPHA",
    "deng_beta",
]

_HALF = Fraction(1, 2)
_FIVE_EIGHTHS = Fraction(5, 8)


class ExpansionTag(str, Enum):
    W_PQ = "w_pq"
    R_PQ = "r_pq"
    WALLIS_MU = "wallis_mu"
    WALLIS_NU_EXP = "wallis_nu_exp"
    WALLIS_ALPHA_BETA = "wallis_alpha_beta"
    WALLIS_OMEGA = "wallis_omega"
    ELEZOVIC = "elezovic"


@dataclass(frozen=True)
class ExpansionFamily:
    """A truncated expansion: which family, how many terms, which (p, q)."""

    tag: ExpansionTag
    order: int
    params: tuple[complex, complex] | None = None

    def __post_init__(self) -> None:
        spec = _FAMILIES[self.tag]
        spec.check_order(self.order)
        if spec.needs_params != (self.params is not None):
            raise ValueError("params are required exactly for the (p, q) families")


@dataclass(frozen=True)
class ErrorReport:
    """Approximation vs oracle at a single ``n``."""

    n: int
    approx: complex
    exact: complex
    abs_err: float
    rel_err: float | None
    note: str | None = None


def error_report(n: int, approx: complex, exact: complex, note: str | None = None) -> ErrorReport:
    approx = complex(approx)
    exact = complex(exact)
    abs_err = abs(approx - exact)
    rel_err = abs_err / abs(exact) if exact != 0 else None
    return ErrorReport(n, approx, exact, abs_err, rel_err, note)


# ---------------------------------------------------------------------------
# The family table
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class _Spec:
    """``prefactor * F(sum_k c_k / (n + s_k)^e_k)`` with ``F(s)`` = ``1 + s`` or ``exp(s)``."""

    terms: Callable[[int, tuple | None], list[tuple]]  # (order, params) -> [(c_k, s_k, e_k)]
    exp_form: bool
    oracle: Callable[[int, tuple | None], complex]
    est_shift: Callable[[int], float]  # x = n + shift in convergence_order
    limit: Callable[[complex, complex], complex] | None = None  # prefactor; pi/2 if None
    max_order: int | None = None

    @property
    def needs_params(self) -> bool:
        return self.limit is not None

    def check_order(self, order: int) -> None:
        if order < 1:
            raise ValueError("order must be >= 1")
        if self.max_order is not None and order > self.max_order:
            raise ValueError(f"order must be in 1..{self.max_order}")


def _powers(values, shift) -> list[tuple]:
    """Terms ``c_j / (n + shift)^j``."""
    return [(c, shift, j) for j, c in enumerate(values, start=1)]


def _next_beta(levels: int) -> float:
    """Shift ``beta_{levels+1}`` of the first omitted alpha-beta term, as a float.

    That level is solved by the alpha-beta kernel from the exact mu series
    and the cached pairs rounded to 256 bits, so it is never built exactly
    (an exact level 13 adds about 1.3 s to the 0.2 s of a cold level 12;
    this takes about 2 ms).  Where the rounded ``alpha`` is within
    its rounding bound the level may degenerate, and the shift is 1/2.
    """
    pairs = [(Fraction(_scaled(a, 256), 1 << 256), Fraction(_scaled(b, 256), 1 << 256))
             for a, b in alpha_beta(levels).values]
    # each a_k b_k^m C(2 levels, m), m = 2(levels + 1 - k), moves by at most this
    # when a_k and b_k move by 2^-257 (a factor 2 to spare)
    slack = 2.0 ** -256 * math.fsum(
        math.comb(2 * levels, m) * (1 + m * abs(float(a))) * (1 + abs(float(b))) ** m
        for m, (a, b) in zip(range(2 * levels, 0, -2), pairs))
    try:
        alpha, beta = next(_alpha_beta_levels(list(wallis_mu(2 * levels + 2).values),
                                              pairs, levels + 1))
    except ZeroDivisionError:
        return 0.5
    return 0.5 if abs(alpha) <= slack else float(beta)


def _reexpand(values, shift: Fraction, top: int) -> list[Fraction]:
    """Coefficients of ``1/(n + shift)^m``, ``m <= top``, of ``sum_j values[j-1] / n^j``.

    Uses ``n^-j = sum_{m>=j} C(m-1, m-j) shift^(m-j) (n + shift)^-m``.
    """
    return [sum(values[j - 1] * math.comb(m - 1, m - j) * shift ** (m - j)
                for j in range(1, m + 1))
            for m in range(1, top + 1)]


# Shifted expansion of Elezovic, Lin and Vuksic: coefficient and power of
# 1/(n + 5/8) for each nonzero term of the mu series re-expanded at 5/8, up
# to the power 7.  The power-2 coefficient vanishes.
ELEZOVIC_TERMS: tuple[tuple[Fraction, int], ...] = tuple(
    (c, m) for m, c in enumerate(_reexpand(wallis_mu(7).values, _FIVE_EIGHTHS, 7), start=1) if c
)


def _wallis_oracle(n: int, _params: None) -> float:
    return wallis_seq(n)


_FAMILIES: dict[ExpansionTag, _Spec] = {
    ExpansionTag.W_PQ: _Spec(
        lambda k, pq: _powers([eval_bipoly(a_poly(j), *pq) for j in range(1, k + 1)], 1),
        exp_form=True, oracle=lambda n, pq: w_product(n, *pq).value,
        est_shift=lambda k: 1.0, limit=w_inf),
    ExpansionTag.R_PQ: _Spec(
        lambda k, pq: _powers([eval_bipoly(b_poly(j), *pq) for j in range(1, k + 1)], _HALF),
        exp_form=True, oracle=lambda n, pq: r_product(n, *pq).value,
        est_shift=lambda k: 0.5, limit=r_inf),
    ExpansionTag.WALLIS_MU: _Spec(
        lambda k, _: _powers(wallis_mu(k).values, 0),
        exp_form=False, oracle=_wallis_oracle, est_shift=lambda k: 0.0),
    ExpansionTag.WALLIS_NU_EXP: _Spec(
        lambda k, _: _powers(wallis_nu(k).values, 0),
        exp_form=True, oracle=_wallis_oracle, est_shift=lambda k: 0.0),
    ExpansionTag.WALLIS_ALPHA_BETA: _Spec(
        lambda k, _: [(a, b, 2 * l - 1) for l, (a, b) in enumerate(alpha_beta(k).values, start=1)],
        exp_form=False, oracle=_wallis_oracle, est_shift=_next_beta,
        max_order=MAX_ALPHA_BETA_ORDER),
    ExpansionTag.WALLIS_OMEGA: _Spec(
        lambda k, _: [(c, _HALF, 2 * l - 1) for l, c in enumerate(omega(k).values, start=1)],
        exp_form=True, oracle=_wallis_oracle, est_shift=lambda k: 0.5),
    ExpansionTag.ELEZOVIC: _Spec(
        lambda k, _: [(c, _FIVE_EIGHTHS, e) for c, e in ELEZOVIC_TERMS[:k]],
        exp_form=False, oracle=_wallis_oracle, est_shift=lambda k: 0.625,
        max_order=len(ELEZOVIC_TERMS)),
}


def _evaluate(tag: ExpansionTag, order: int, n: int, params: tuple | None = None):
    """The truncated family at ``n``: a float, or a complex for the (p, q) families."""
    spec = _FAMILIES[tag]
    if n < 1:
        raise ValueError("n must be >= 1")
    spec.check_order(order)
    if not spec.needs_params:
        s = math.fsum(float(c) / (n + float(sh)) ** e for c, sh, e in spec.terms(order, None))
        return math.pi / 2 * (math.exp(s) if spec.exp_form else 1 + s)
    limit = spec.limit(*params)
    if limit == 0:
        raise PoleError(f"{spec.limit.__name__}(p, q) vanishes through a gamma pole; "
                        "expansion undefined")
    s = 0j  # complex terms: summed in order, as fsum takes only reals
    for c, sh, e in spec.terms(order, params):
        s += c / (n + float(sh)) ** e
    return limit * (cmath.exp(s) if spec.exp_form else 1 + s)


# ---------------------------------------------------------------------------
# Fixed-point kernel of the exact errors
# ---------------------------------------------------------------------------
# A real x is held at precision ``bits`` as an integer X near x 2^bits,
# with an integer bound on |X - x 2^bits| in units of 2^-bits.

_TERM_GUARD = 64  # extra bits of the rounded coefficients and shifts
_EXP_MAX = 1024  # largest exp argument; the float evaluator overflows past 709.78
_MAX_DOUBLINGS = 8  # 256 times the starting precision: past that the error is not resolved
_LOG_BITS = 160  # precision of the log of an error ratio in convergence_order


def _div_round(a: int, b: int) -> int:
    """The integer nearest ``a / b`` for ``b > 0``, within half a unit."""
    return (2 * a + b) // (2 * b)


def _scaled(x: Fraction | int, bits: int) -> int:
    """``x 2^bits`` rounded to the nearest integer."""
    return _div_round(x.numerator << bits, x.denominator)


def _atan_inv(x: int, bits: int) -> int:
    """``atan(1/x) 2^bits`` from its Taylor series, within ``2 terms + 1`` units."""
    term = (1 << bits) // x  # floor(2^bits / x^(2k+1)): a floor of a floor is exact
    total, k = 0, 1
    while term:
        total += term // k if k % 4 == 1 else -(term // k)
        term //= x * x
        k += 2
    return total


@functools.lru_cache(maxsize=16)
def _pi_scaled(bits: int) -> int:
    """``pi 2^bits`` within one unit, by Machin's ``pi = 16 atan(1/5) - 4 atan(1/239)``."""
    # the series err by under 8 w + 100 units at w bits, below 2^(guard-1)
    guard = bits.bit_length() + 10
    w = bits + guard
    total = 16 * _atan_inv(5, w) - 4 * _atan_inv(239, w)
    return (total + (1 << (guard - 1))) >> guard


def _atanh_scaled(t: int, bits: int) -> int:
    """``atanh(t / 2^bits) 2^bits`` for ``|t| <= 2^bits / 3``, within ``2 terms + 1`` units."""
    if t < 0:
        return -_atanh_scaled(-t, bits)
    t2 = t * t >> bits
    total, power, k = 0, t, 1
    while power:  # each power and quotient is floored: under two units per term
        total += power // k
        power = power * t2 >> bits
        k += 2
    return total


def _log_ratio(a: Fraction, b: Fraction) -> float:
    """``ln(a / b)`` for ``a, b > 0``, rounded once to a double.

    With ``a / b = 2^k m``, ``1/2 < m < 2``, the log is
    ``k ln 2 + 2 atanh((m - 1) / (m + 1))``, the atanh argument within
    1/3; both series are summed at ``_LOG_BITS`` bits, so the result is the
    correctly rounded log bar ties within ``2^-140`` of a rounding boundary.
    A double ratio would cost up to an ulp of the log.
    """
    r = a / b
    num, den = r.numerator, r.denominator
    k = num.bit_length() - den.bit_length()
    if k >= 0:
        den <<= k
    else:
        num <<= -k
    ln_m = 2 * _atanh_scaled(_div_round((num - den) << _LOG_BITS, num + den), _LOG_BITS)
    ln_2 = 2 * _atanh_scaled(_div_round(1 << _LOG_BITS, 3), _LOG_BITS)
    return float(Fraction(k * ln_2 + ln_m, 1 << _LOG_BITS))


def _exp_scaled(s: int, bits: int) -> tuple[int, int]:
    """``exp(s / 2^bits) 2^bits`` and its error bound, for an exact ``s``.

    Sums the Taylor series of ``y = s / 2^(bits + r)``, ``|y| < 2^-8``, and
    squares the sum ``r`` times, at ``bits + extra`` bits; the bound is
    carried through every squaring.
    """
    if s > _EXP_MAX << bits:
        raise OverflowError(f"exp argument above {_EXP_MAX}: the truncated series overflows")
    r = max(0, abs(s).bit_length() - bits + 8)
    extra = 2 * r + 2 * bits.bit_length() + 16
    w = bits + extra
    y = s << (extra - r)  # y / 2^w = s / 2^(bits + r)
    z = term = 1 << w
    k = 0
    while term:  # each term is within 1 + 2^-8 units, and so is the first one dropped
        k += 1
        term = term * y // (k << w)
        z += term
    err = 2 * k + 2
    for _ in range(r):
        err = (err * (2 * z + err) >> w) + 2
        z = z * z >> w
    return (z + (1 << (extra - 1))) >> extra, (err >> extra) + 2


def _wallis_scaled(bits: int) -> Iterator[int]:
    """``W_n 2^bits`` for n = 1, 2, ..., each at most ``2n`` units low.

    One running product: every step rounds down by under one unit, and
    the earlier errors grow by at most ``W_n / W_1 < 1.18``.
    """
    x = 1 << bits
    for k in itertools.count(1):
        d = 4 * k * k
        x = x * d // (d - 1)
        yield x


def _scaled_terms(spec: _Spec, order: int, bits: int) -> list[tuple[int, int, int]]:
    """The family's ``(c_k, s_k, e_k)``, coefficient and shift rounded to ``bits + 64`` bits.

    Rounding first keeps the powers small: an alpha-beta ``beta_12`` has
    some 233k bits.
    """
    h = bits + _TERM_GUARD
    return [(_scaled(c, h), _scaled(sh, h), e) for c, sh, e in spec.terms(order, None)]


def _approx_scaled(spec: _Spec, terms: list[tuple[int, int, int]], n: int,
                   bits: int) -> tuple[int, int]:
    """``(pi/2) F(sum_k c_k / (n + s_k)^e_k) 2^bits`` and its error bound, from
    :func:`_scaled_terms`.

    Every shift is at least 0, so ``n + s_k >= 1``.  A term moves by at most
    ``e |t| / |x|`` units when its shift ``x`` moves by half a unit, and by
    ``2^(bits-h) / (n + s_k)^e`` when its coefficient does.
    """
    h = bits + _TERM_GUARD
    s = bound = 0
    for c, sh, e in terms:
        x = (n << h) + sh
        xe = x**e
        k = bits + h * (e - 1)
        t = _div_round(c << k, xe)
        s += t
        bound += -(-(1 << k) // xe) + (abs(t) + 1) * e // x + 2
    if spec.exp_form:
        # exp is increasing: enclose it by its values at the ends of s's interval
        lo, lo_err = _exp_scaled(s - bound, bits)
        hi, hi_err = _exp_scaled(s + bound, bits)
        f = (lo + hi) // 2
        bound = max(f - lo + lo_err, hi + hi_err - f)
    else:
        f = (1 << bits) + s
    pi = _pi_scaled(bits)
    # |pi F - pi~ f| <= |pi - pi~| |F| + pi~ |F - f|, all in units of 2^-2bits
    return pi * f >> (bits + 1), ((abs(f) + bound + pi * bound) >> (bits + 1)) + 2


def _wallis_errors(tag: ExpansionTag, order: int, ns: list[int]) -> list[Fraction]:
    """``|(pi/2) F(s) - W_n|`` for each ``n`` of the increasing ``ns``, within ``2^-60`` relative.

    All points share one precision and one walk of the running product.
    """
    spec = _FAMILIES[tag]
    if spec.needs_params:
        raise ValueError(f"not a Wallis-sequence family: {tag}")
    spec.check_order(order)
    if ns[0] < 1:
        raise ValueError("n must be >= 1")
    bits = (2 * order + 4) * ns[-1].bit_length() + 128
    for _ in range(_MAX_DOUBLINGS):
        terms = _scaled_terms(spec, order, bits)
        errors = []
        walk = _wallis_scaled(bits)
        for n, prev in zip(ns, [0, *ns]):
            w = next(itertools.islice(walk, n - prev - 1, None))
            a, bound = _approx_scaled(spec, terms, n, bits)
            bound += 2 * n
            err = abs(w - a)
            if bound << 60 > err - bound:
                break
            errors.append(Fraction(err, 1 << bits))
        else:
            return errors
        bits *= 2
    raise ArithmeticError(f"error of {tag.value} order {order} not resolved at {bits // 2} bits")


# ---------------------------------------------------------------------------
# Evaluators
# ---------------------------------------------------------------------------

def eval_w_expansion(n: int, p: complex, q: complex, order: int) -> complex:
    """``W_inf(p,q) * exp(sum_{j<=order} a_j(p,q) / (n+1)^j)``."""
    return _evaluate(ExpansionTag.W_PQ, order, n, (p, q))


def eval_r_expansion(n: int, p: complex, q: complex, order: int) -> complex:
    """``R_inf(p,q) * exp(sum_{j<=order} b_j(p,q) / (n+1/2)^j)``."""
    return _evaluate(ExpansionTag.R_PQ, order, n, (p, q))


def eval_wallis_mu(n: int, order: int) -> float:
    """``(pi/2) (1 + sum_{j<=order} mu_j / n^j)``."""
    return _evaluate(ExpansionTag.WALLIS_MU, order, n)


def eval_wallis_nu_exp(n: int, order: int) -> float:
    """``(pi/2) exp(sum_{j<=order} nu_j / n^j)``."""
    return _evaluate(ExpansionTag.WALLIS_NU_EXP, order, n)


def eval_wallis_alpha_beta(n: int, levels: int) -> float:
    """``(pi/2) (1 + sum_{l<=levels} alpha_l / (n + beta_l)^(2l-1))``."""
    return _evaluate(ExpansionTag.WALLIS_ALPHA_BETA, levels, n)


def eval_wallis_omega(n: int, levels: int) -> float:
    """``(pi/2) exp(sum_{l<=levels} omega_l / (n + 1/2)^(2l-1))``."""
    return _evaluate(ExpansionTag.WALLIS_OMEGA, levels, n)


def eval_elezovic(n: int, terms: int) -> float:
    """Truncation of the published ``(n + 5/8)``-shifted series, 1..6 terms."""
    return _evaluate(ExpansionTag.ELEZOVIC, terms, n)


def family_oracle(family: ExpansionFamily, n: int) -> complex:
    """Brute-force reference value for the family at ``n``."""
    return _FAMILIES[family.tag].oracle(n, family.params)


def family_report(family: ExpansionFamily, n: int) -> ErrorReport:
    """ErrorReport of the truncated family against its brute-force oracle."""
    note = "asymptotic regime not reached (n < order)" if n < family.order else None
    approx = _evaluate(family.tag, family.order, n, family.params)
    return error_report(n, approx, family_oracle(family, n), note)


def wallis_error_exact(tag: ExpansionTag, order: int, n: int) -> Fraction:
    """|truncation - W_n| for a Wallis-sequence family, to ``2^-60`` relative.

    The result is a dyadic ``Fraction`` ``E / 2^G``.  The kernel computes
    ``W_n`` and the truncated family in integers scaled by ``2^G`` and adds
    up an explicit bound on every rounding; ``G`` starts at
    ``(2 order + 4) log2(n) + 128`` bits and doubles until that bound is
    below ``2^-60`` of the error.  The cost is ``O(n)`` operations on
    ``G``-bit integers.  An ``exp`` argument above 1024 raises
    ``OverflowError``, as the float evaluator does past 709.78.
    """
    return _wallis_errors(tag, order, [n])[0]


# ---------------------------------------------------------------------------
# Empirical convergence order
# ---------------------------------------------------------------------------

def convergence_order(family: ExpansionFamily, n_values: list[int]) -> list[float]:
    """Estimated decay exponents ``log(err(n)/err(n')) / log(x'/x)``.

    One estimate per consecutive pair of ``n_values`` (which must be
    strictly increasing), with ``x = n + shift`` in the family's own
    expansion variable.  The Wallis-sequence errors come from one walk of
    the fixed-point kernel across the grid, and the log of each ratio of
    them is rounded once to a double.  Entries whose errors are
    degenerate (at the double-precision noise floor for the (p, q)
    families) are returned as NaN.
    """
    if len(n_values) < 2:
        raise ValueError("need at least two n values")
    if any(b <= a for a, b in zip(n_values, n_values[1:])):
        raise ValueError("n values must be strictly increasing")
    spec = _FAMILIES[family.tag]
    shift = spec.est_shift(family.order)

    if spec.needs_params:
        errors: list[Fraction | float] = []
        for n in n_values:
            report = family_report(family, n)
            noise = 64 * sys.float_info.epsilon * abs(report.exact)
            errors.append(report.abs_err if report.abs_err > noise else math.nan)
    else:
        errors = _wallis_errors(family.tag, family.order, n_values)

    # exact errors get a correctly rounded log, so an estimate does not move
    # by an ulp with how the ratio happens to round to a double
    log_ratio = (lambda e1, e2: math.log(e1 / e2)) if spec.needs_params else _log_ratio
    # errors are >= 0 or NaN, so one test catches every degenerate pair
    return [log_ratio(e1, e2) / math.log((n2 + shift) / (n1 + shift))
            if e1 > 0 and e2 > 0 else math.nan
            for n1, n2, e1, e2 in zip(n_values, n_values[1:], errors, errors[1:])]


# ---------------------------------------------------------------------------
# Sharp two-sided bounds for the Wallis sequence
# ---------------------------------------------------------------------------

DENG_ALPHA = 2.5


def deng_beta() -> float:
    """``(32 - 9 pi) / (3 pi - 8)``; makes the upper bound exact at n = 1."""
    return (32 - 9 * math.pi) / (3 * math.pi - 8)


@dataclass(frozen=True)
class BoundsReport:
    """Outcome of checking ``(pi/2)(1 - 1/(4n+alpha)) < W_n <= (pi/2)(1 - 1/(4n+beta))``."""

    n_max: int
    violations: int
    first_violation: int | None
    tight_upper_n: int | None
    tight_upper_gap: float  # a bound on |W_n - upper| at tight_upper_n
    alpha: float
    beta: float


def check_bounds(n_max: int) -> BoundsReport:
    """Verify the two-sided bound for every ``1 <= n <= n_max``, certified.

    With ``beta = (32 - 9 pi) / (3 pi - 8)`` the bounds read
    ``pi (8n + 3) < W_n (16n + 10)`` and ``2 W_n B_n <= pi A_n``, where
    ``A_n = 12 (n - 1) pi - 8 (4n - 5)`` and ``B_n = (12n - 9) pi - 32 (n - 1) > 0``.
    They are compared in integers scaled by ``2^P``, ``P = 4 log2(n_max) + 64``,
    with ``W_n`` from the kernel's running product and ``pi`` from Machin's
    formula, each side enclosed by its rounding bound: no float slack.  The
    lower margin, about ``0.018 / n^3``, stays far above that rounding.  The
    upper bound at n = 1, an equality by design of beta, stays unresolved and
    is reported as ``tight_upper_n``; any other unresolved comparison raises
    ``ArithmeticError``.
    """
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    bits = 4 * n_max.bit_length() + 64
    pi, one = _pi_scaled(bits), 1 << bits
    # Every form is linear in n and starts at n = 1: m = 16n + 10,
    # low = (pi + 1)(8n + 3) >= pi (8n + 3), b2 = 2 B_n and up = pi A_n - E_n.
    # E_n = n 2^shift >= 512 n^2 2^bits bounds how far pi A - 2 W B moves
    # when pi moves by one unit and W by 2n.
    shift = bits + 9 + n_max.bit_length()
    m, low = 26, 11 * (pi + 1)
    b2, up = 6 * pi, 8 * pi * one - (1 << shift)
    up_step = 12 * pi * pi - 32 * pi * one - (1 << shift)
    violations = 0
    first_violation = tight_n = None
    tight_gap = math.nan
    for n, x in zip(range(1, n_max + 1), _wallis_scaled(bits)):
        if x * m <= low or x * b2 > up:  # not certain to hold: test both ends
            slack = n << shift
            low_broken = (x + 2 * n) * m <= low - m
            up_broken = x * b2 > up + 2 * slack
            up_open = x * b2 > up and not up_broken
            if x * m <= low and not low_broken or up_open and n > 1:
                raise ArithmeticError(f"Wallis bounds at n = {n} not resolved at {bits} bits")
            if low_broken or up_broken:
                violations += 1
                first_violation = first_violation or n
            else:  # the n = 1 equality: |W - upper| = |pi A - 2 W B| / 2B, 2B >= b2 - 24n
                tight_n = n
                tight_gap = float(Fraction(abs(up + slack - x * b2) + slack, (b2 - 24 * n) << bits))
        m += 16
        low += 8 * (pi + 1)
        b2 += 24 * pi - 64 * one
        up += up_step
    return BoundsReport(n_max, violations, first_violation, tight_n, tight_gap,
                        DENG_ALPHA, deng_beta())
