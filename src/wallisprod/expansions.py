"""Truncated asymptotic expansions, their measured errors, and sharp bounds.

Every family is one entry of the table ``_FAMILIES``, keyed by
:class:`ExpansionTag`.  An entry states the terms ``c_k / (n + s_k)^e_k``
(coefficient source, shift and exponent), the outer form ``1 + s`` or
``exp(s)``, the prefactor (``pi/2``, ``W_inf`` or ``R_inf``), the
product oracle, the shift used for order estimation and its largest
order: the cap in ``bernoulli._CAPS`` of the coefficients it reads, or
Elezović's six terms.  Two evaluators read the table: one in floats
(complex for the two (p, q) families) behind the public
``eval_*`` functions, and one in fixed-point integers behind
:func:`wallis_error_exact`.  For the five Wallis-sequence families the float
evaluator reads a per-family table of doubles, ``_FLOAT_TERMS``, built once per
process by prefix as far as a call asks; a coefficient past the double range
keeps its binary exponent beside its mantissa there.  The ``(n + 5/8)``
series of Elezovic, Lin and Vuksic is the ``mu`` series re-expanded at shift
5/8, so :data:`ELEZOVIC_TERMS` is derived, not typed.

Errors are always measured against the product oracle, never
against the gamma closed form.  The Wallis-sequence families are measured
exactly, because their truncation errors drop far below double precision
(the order-5 odd family is at 1e-24 by ``n = 100``).  The kernel works on
integers scaled by ``2^G``: ``pi`` and ``exp`` from ``_fixed``, each term
``c_k / (n + s_k)^e_k`` rounded once, and ``W_n`` in one of two ways.  Up to
``n = 3G/2`` it is the running product ``x <- x 4k^2 // (4k^2 - 1)``; past
that, ``(pi/2) exp(S)`` with ``S = ln(2 W_n / pi)`` summed by Euler–Maclaurin
in about ``G / (2 log2 n)`` terms (:func:`_wallis_tail`).  Every step carries an integer bound on its
rounding.  ``G`` starts at ``(2 order + 4) log2(n) + 128`` bits and doubles
until the total bound is below ``2^-60`` of the error (Ziv's strategy,
Brent and Zimmermann, *Modern Computer Arithmetic*, ch. 3-4).  The two
(p, q) families are measured in double precision, where their errors sit
far above the float noise for the orders of interest; estimates that would
be dominated by noise are flagged as NaN.  The sharp two-sided Wallis
bounds are proved in ``Fraction`` by one ratio test: ``W_n (4n + c)/(4n + c
- 1)`` is monotone toward ``pi/2`` wherever a polynomial linear in ``n``
keeps its sign.  That covers every ``n`` but the upper bound at ``n = 1``,
which is the identity that defines beta (:func:`check_bounds`).
"""

from __future__ import annotations

import cmath
import itertools
import math
import sys
from collections import namedtuple
from enum import Enum
from fractions import Fraction
from typing import Iterator

from ._fixed import _atanh_scaled, _div_round, _exp_scaled, _log_ratio, _pi_scaled, _scaled
from .bernoulli import _CAPS, _count, _grow, bernoulli_number
from .coeffs import (
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


class ExpansionFamily(namedtuple("ExpansionFamily", "tag order params")):
    """A truncated expansion: which family, how many terms, which (p, q) or ``None``."""

    __slots__ = ()

    def __new__(cls, tag: ExpansionTag, order: int,
                params: tuple[complex, complex] | None = None) -> ExpansionFamily:
        spec = _FAMILIES[tag]
        order = spec.check_order(order)
        if spec.needs_params != (params is not None):
            raise ValueError("params are required exactly for the (p, q) families")
        return super().__new__(cls, tag, order, params)


class ErrorReport(namedtuple("ErrorReport", "n approx exact abs_err rel_err note",
                             defaults=(None,))):
    """Approximation vs oracle at a single ``n``; ``rel_err`` is ``None`` when the oracle is 0."""

    __slots__ = ()


def error_report(n: int, approx: complex, exact: complex, note: str | None = None) -> ErrorReport:
    approx = complex(approx)
    exact = complex(exact)
    abs_err = abs(approx - exact)
    rel_err = abs_err / abs(exact) if exact != 0 else None
    return ErrorReport(n, approx, exact, abs_err, rel_err, note)


# ---------------------------------------------------------------------------
# The family table
# ---------------------------------------------------------------------------

class _Spec(namedtuple("_Spec", "terms exp_form oracle est_shift max_order limit",
                       defaults=(None,))):
    """``prefactor * F(sum_k c_k / (n + s_k)^e_k)`` with ``F(s)`` = ``1 + s`` or ``exp(s)``.

    ``terms(order, params)`` gives the ``(c_k, s_k, e_k)``; ``oracle(n, params)``
    the product oracle's value; ``est_shift(order)`` the ``x = n + shift`` used by
    ``convergence_order``; ``max_order`` the largest order; ``limit(p, q)`` the
    prefactor, ``pi/2`` when it is ``None``.
    """

    __slots__ = ()

    @property
    def needs_params(self) -> bool:
        return self.limit is not None

    def check_order(self, order: int) -> int:
        return _count(order, "order", 1, self.max_order)


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
        est_shift=lambda k: 1.0, max_order=_CAPS["a"], limit=w_inf),
    ExpansionTag.R_PQ: _Spec(
        lambda k, pq: _powers([eval_bipoly(b_poly(j), *pq) for j in range(1, k + 1)], _HALF),
        exp_form=True, oracle=lambda n, pq: r_product(n, *pq).value,
        est_shift=lambda k: 0.5, max_order=_CAPS["b"], limit=r_inf),
    ExpansionTag.WALLIS_MU: _Spec(
        lambda k, _: _powers(wallis_mu(k).values, 0),
        exp_form=False, oracle=_wallis_oracle, est_shift=lambda k: 0.0, max_order=_CAPS["mu"]),
    ExpansionTag.WALLIS_NU_EXP: _Spec(
        lambda k, _: _powers(wallis_nu(k).values, 0),
        exp_form=True, oracle=_wallis_oracle, est_shift=lambda k: 0.0, max_order=_CAPS["nu"]),
    ExpansionTag.WALLIS_ALPHA_BETA: _Spec(
        lambda k, _: [(a, b, 2 * l - 1) for l, (a, b) in enumerate(alpha_beta(k).values, start=1)],
        exp_form=False, oracle=_wallis_oracle, est_shift=_next_beta,
        max_order=_CAPS["alpha_beta"]),
    ExpansionTag.WALLIS_OMEGA: _Spec(
        lambda k, _: [(c, _HALF, 2 * l - 1) for l, c in enumerate(omega(k).values, start=1)],
        exp_form=True, oracle=_wallis_oracle, est_shift=lambda k: 0.5, max_order=_CAPS["omega"]),
    ExpansionTag.ELEZOVIC: _Spec(
        lambda k, _: [(c, _FIVE_EIGHTHS, e) for c, e in ELEZOVIC_TERMS[:k]],
        exp_form=False, oracle=_wallis_oracle, est_shift=lambda k: 0.625,
        max_order=len(ELEZOVIC_TERMS)),
}


# Float terms of the Wallis-sequence families, grown by prefix under ``bernoulli._grow``'s
# lock as far as a float evaluation asks: index ``k - 1`` holds ``(c, s, e, b)`` for the term
# ``c 2^b (n + s)^-e`` of ``spec.terms``.  ``c`` is the coefficient as a double and ``b`` 0, or,
# for a coefficient past the double range, ``c`` is its mantissa and ``b`` its binary exponent.
_FLOAT_TERMS: dict[ExpansionTag, list[tuple[float, float, int, int]]] = {
    tag: [] for tag, spec in _FAMILIES.items() if not spec.needs_params}


def _float_entries(table: list, count: int, spec: _Spec):
    for c, s, e in spec.terms(count, None)[len(table):]:
        try:
            c, b = float(c), 0
        except OverflowError:  # |c| > 2^1024: one correctly rounded quotient in (1/2, 2)
            b = c.numerator.bit_length() - c.denominator.bit_length()
            c = c.numerator / (c.denominator << b)
        yield c, float(s), e, b


def _wide_term(c: float, b: int, t: float, e: int) -> float:
    """``c 2^b t^-e`` for ``t >= 1``, kept as a mantissa and a binary exponent until the end.

    ``t^-e`` is taken as ``f^-e 2^(-g e)`` with ``t = f 2^g``, ``f`` in ``[1/2, 1)``, and
    ``f^-e`` in steps of at most ``2^1000``, each renormalized; so the term is a few
    roundings from the exact one, and only the final ``ldexp`` can overflow or underflow.
    """
    f, g = math.frexp(t)
    b -= g * e
    while e:
        step = min(e, 1000)
        c, j = math.frexp(c * f ** -step)
        b += j
        e -= step
    return math.ldexp(c, b)


def _evaluate(tag: ExpansionTag, order: int, n: int, params: tuple | None = None):
    """The truncated family at ``n``: a float, or a complex for the (p, q) families.

    An ``n`` past the double range is taken as ``inf``: every term is 0 and
    the value is the family's limit.
    """
    spec = _FAMILIES[tag]
    n = _count(n, "n")
    order = spec.check_order(order)
    try:
        x = float(n)
    except OverflowError:  # n past the double range
        x = math.inf
    # each term is c (x + s)^-e: where (x + s)^e would pass the double range, the power
    # underflows to a term far below the last bit of the sum
    if not spec.needs_params:
        table = _FLOAT_TERMS[tag]
        # entries are only appended, so a table long enough is read without the lock
        terms = table[:order] if len(table) >= order else _grow(table, _float_entries, order, spec)
        s = math.fsum(c * (x + sh) ** -e if not b else _wide_term(c, b, x + sh, e)
                      for c, sh, e, b in terms)
        return math.pi / 2 * (math.exp(s) if spec.exp_form else 1 + s)
    limit = spec.limit(*params)
    if limit == 0:
        raise PoleError(f"{spec.limit.__name__}(p, q) is 0 in double precision (an exactly zero "
                        "factor, or a value below the double range); expansion undefined")
    s = 0j  # complex terms: summed in order, as fsum takes only reals
    for c, sh, e in spec.terms(order, params):
        s += c * (x + float(sh)) ** -e
    return limit * (cmath.exp(s) if spec.exp_form else 1 + s)


# ---------------------------------------------------------------------------
# Fixed-point kernel of the exact errors, on the primitives of ``_fixed``
# ---------------------------------------------------------------------------

_TERM_GUARD = 64  # extra bits of the rounded coefficients and shifts
_MAX_DOUBLINGS = 8  # 256 times the starting precision: past that the error is not resolved
_MAX_N_BITS = 1000  # n < 2^1000, a double in the estimates; the cost grows with log2(n)


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


def _wallis_tail(n: int, bits: int) -> tuple[int, int]:
    """``W_n 2^bits`` and its error bound, from the Euler–Maclaurin sum of ``ln(2 W_n / pi)``.

    ``ln(2 W_n / pi) = sum_(k >= N) f(k)`` with ``f(t) = ln(1 - 1/(4t^2))`` and
    ``N = n + 1``.  Its integral and half of ``f(N)`` come to ``(2N - 1) atanh(1/(8N^2 - 1))
    - atanh(1/(2N))``, less the corrections ``B_2m/(2m(2m - 1)) f_m`` with ``f_m =
    f^(2m-1)(N) / (2m - 2)! = (N - 1/2)^(1-2m) + (N + 1/2)^(1-2m) - 2 N^(1-2m)``.
    Every even derivative of ``f`` is negative, so the remainder after any
    number of corrections lies between 0 and the first omitted one (Olver,
    *Asymptotics and Special Functions*, ch. 8).  The sum stops at the first
    correction within two units, or at the last Bernoulli number of the table,
    and bounds the remainder by that one.  The logs are summed ``guard`` bits
    finer, as ``2N`` times a log's error comes through; each of the three
    powers in a correction is one quotient rounded to half a unit.
    """
    big_n = n + 1
    guard = (2 * big_n).bit_length() + bits.bit_length() + 4
    w = bits + guard
    s = ((2 * big_n - 1) * _atanh_scaled(_div_round(1 << w, 8 * big_n * big_n - 1), w)
         - _atanh_scaled(_div_round(1 << w, 2 * big_n), w))
    # an atanh series of w bits has at most w/2 + 1 terms: within w + 3 units, and
    # one more for its rounded argument
    bound = 2 * big_n * (w + 4)
    # (N -+ 1/2)^(1-2m) and N^(1-2m) are 2^(2m-1) / x^(2m-1) for these x
    powers = [2 * big_n - 1, 2 * big_n + 1, 2 * big_n]
    squares = [x * x for x in powers]
    for m in itertools.count(1):
        b = bernoulli_number(2 * m)
        num, den = b.numerator << (w + 2 * m - 1), b.denominator * 2 * m * (2 * m - 1)
        low, high, mid = (_div_round(num, den * x) for x in powers)
        t = low + high - 2 * mid
        if abs(t) <= 2 or 2 * m + 2 > _CAPS["bernoulli"]:
            bound += abs(t) + 2  # the first omitted correction, in magnitude
            break
        s -= t
        bound += 2
        powers = [x * y for x, y in zip(powers, squares)]
    # S < 0, so exp moves by less than S does: enclose exp(S) and take pi/2 of it
    e, e_bound = _exp_scaled(s >> guard, bits)
    return _half_pi(e, e_bound + (bound >> guard) + 2, bits)


def _wallis_at(n: int, bits: int) -> tuple[int, int]:
    """``W_n 2^bits`` and its error bound.

    Up to ``n = 3 bits / 2`` the running product is the cheaper; past that
    :func:`_wallis_tail`, whose cost does not grow with ``n``.  At 352 bits the
    two cost the same near ``n = 500`` (0.12 ms for a walk to 500, 0.4 ms to
    10^3 and 4 ms to 10^4).
    """
    if 2 * n > 3 * bits:
        return _wallis_tail(n, bits)
    return next(itertools.islice(_wallis_scaled(bits), n - 1, None)), 2 * n


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
    return _half_pi(f, bound, bits)


def _half_pi(f: int, bound: int, bits: int) -> tuple[int, int]:
    """``(pi/2) F 2^bits`` and its bound, for ``f`` within ``bound`` units of ``F 2^bits``."""
    pi = _pi_scaled(bits)
    # |pi F - pi~ f| <= |pi - pi~| |F| + pi~ |F - f|, all in units of 2^-2bits
    return pi * f >> (bits + 1), ((abs(f) + bound + pi * bound) >> (bits + 1)) + 2


def _wallis_errors(tag: ExpansionTag, order: int, ns: list[int]) -> list[Fraction]:
    """``|(pi/2) F(s) - W_n|`` for each ``n`` of the increasing ``ns``, within ``2^-60`` relative.

    Each point has its own precision, so an error does not depend on the
    other points.
    """
    spec = _FAMILIES[tag]
    if spec.needs_params:
        raise ValueError(f"not a Wallis-sequence family: {tag}")
    order = _count(order, "order", 1, min(spec.max_order, _CAPS["error_order"]))
    if ns[-1].bit_length() > _MAX_N_BITS:
        raise ValueError(f"n must be < 2^{_MAX_N_BITS}: the exact kernel's precision grows "
                         "with log2(n)")
    errors = []
    for n in ns:
        bits = (2 * order + 4) * n.bit_length() + 128
        for _ in range(_MAX_DOUBLINGS):
            a, bound = _approx_scaled(spec, _scaled_terms(spec, order, bits), n, bits)
            w, w_bound = _wallis_at(n, bits)
            bound += w_bound
            err = abs(w - a)
            if bound << 60 <= err - bound:
                errors.append(Fraction(err, 1 << bits))
                break
            bits *= 2
        else:
            raise ArithmeticError(f"error of {tag.value} order {order} not resolved at "
                                  f"{bits // 2} bits")
    return errors


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


def family_report(family: ExpansionFamily, n: int) -> ErrorReport:
    """ErrorReport of the truncated family against its product oracle."""
    note = "asymptotic regime not reached (n < order)" if n < family.order else None
    approx = _evaluate(family.tag, family.order, n, family.params)
    return error_report(n, approx, _FAMILIES[family.tag].oracle(n, family.params), note)


def wallis_error_exact(tag: ExpansionTag, order: int, n: int) -> Fraction:
    """|truncation - W_n| for a Wallis-sequence family, to ``2^-60`` relative.

    A dyadic ``Fraction`` from the kernel of the module docstring, for any
    integer ``n`` below ``2^1000``: its precision grows with ``log2(n)``, so an
    order-20 call takes a few ms at ``n = 10^7`` or ``10^12`` and about a second
    near ``2^1000``.  Its term powers grow steeply with the order, capped at
    ``_CAPS["error_order"]`` (``ValueError`` past either cap, ``TypeError`` for a
    float).  An ``exp`` argument above 1024 raises ``OverflowError``, as the
    float evaluator does past 709.78.
    """
    return _wallis_errors(tag, order, [_count(n, "n")])[0]


# ---------------------------------------------------------------------------
# Empirical convergence order
# ---------------------------------------------------------------------------

def convergence_order(family: ExpansionFamily, n_values: list[int]) -> list[float]:
    """Estimated decay exponents ``log(err(n)/err(n')) / log(x'/x)``.

    One estimate per consecutive pair of ``n_values`` (which must be
    strictly increasing), with ``x = n + shift`` in the family's own
    expansion variable.  The Wallis-sequence errors are those of
    :func:`wallis_error_exact`, point by point, so their ``n`` are integers
    below ``2^1000``, and the log of each ratio of them is rounded once to a
    double.  Entries whose errors are
    degenerate (at the double-precision noise floor for the (p, q)
    families) are returned as NaN.
    """
    n_values = [_count(n, "n") for n in n_values]  # all refused before any work
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
_PI_ABOVE = Fraction(355, 113)  # above pi by 2.7e-7
# beta at pi = 355/113, which is 421/161: beta falls as pi rises, so this lies below beta
_BETA_BELOW = (32 - 9 * _PI_ABOVE) / (3 * _PI_ABOVE - 8)
_TAIL_FROM = 2  # N: the ratio test proves both bounds for every n >= N


def deng_beta() -> float:
    """``(32 - 9 pi) / (3 pi - 8)``; makes the upper bound exact at n = 1."""
    return (32 - 9 * math.pi) / (3 * math.pi - 8)


class BoundsReport(namedtuple("BoundsReport", "n_max violations first_violation tight_upper_n "
                                             "tight_upper_gap alpha beta tail_from",
                              defaults=(None,))):
    """Outcome of checking ``(pi/2)(1 - 1/(4n+alpha)) < W_n <= (pi/2)(1 - 1/(4n+beta))``.

    ``tight_upper_gap`` bounds ``|W_n - upper|`` at ``tight_upper_n``.
    ``tail_from`` is the ``N`` from which the ratio test proves both bounds
    for every ``n``.
    """

    __slots__ = ()


def _tail_holds(n0: int, alpha: Fraction, beta: Fraction) -> tuple[bool, bool]:
    """Whether the ratio test proves the lower and the upper bound for every ``n >= n0``.

    ``f_c(n) = W_n (4n + c)/(4n + c - 1)`` tends to ``pi/2``; the lower bound
    is ``f_alpha(n) > pi/2`` and the upper one ``f_beta(n) <= pi/2``.  With
    ``W_(n+1)/W_n = 4(n+1)^2/((2n+1)(2n+3))``, ``f_c(n+1) < f_c(n)`` exactly when
    ``16(n+1)^2 - (4n+c)(4n+c+3) = (16 - 3c - c^2) + (20 - 8c) n`` is positive.
    Where that keeps its sign from ``n0`` on, read from its value at ``n0``
    and its slope, ``f_c`` falls (or rises) to ``pi/2`` and so stays above (or
    below) it.  A ``beta`` below the true one proves the upper bound at the
    true one, as ``1 - 1/(4n + c)`` grows with ``c``.
    """
    (low, low_slope), (up, up_slope) = ((16 - 3 * c - c * c + (20 - 8 * c) * n0, 20 - 8 * c)
                                        for c in (alpha, beta))
    return low > 0 and low_slope >= 0, up < 0 and up_slope <= 0


def check_bounds(n_max: int) -> BoundsReport:
    """Prove the two-sided bound for every ``n >= 1``; the report covers ``1 <= n <= n_max``.

    The ratio test of :func:`_tail_holds` runs in ``Fraction``.  At ``alpha =
    5/2`` its expression is ``9/4`` for every ``n``, which proves the lower
    bound from ``n = 1`` on.  At ``421/161``, just below beta, it is negative
    from ``n = N = tail_from = 2`` on, which proves the upper bound there.  At
    ``n = 1`` the upper bound is the identity ``W_1 = 4/3 = (pi/2)(1 - 1/(4 +
    beta))`` that defines beta, reported as ``tight_upper_n = 1`` with
    ``tight_upper_gap = 0.0``.  Nothing depends on ``n_max`` but the check
    ``n_max >= 1``, so every report is the same apart from ``n_max``.  A test
    that fails raises ``ArithmeticError``.
    """
    n_max = _count(n_max, "n_max")
    alpha = Fraction(DENG_ALPHA)
    lower, _ = _tail_holds(1, alpha, _BETA_BELOW)
    _, upper = _tail_holds(_TAIL_FROM, alpha, _BETA_BELOW)
    if not (lower and upper):
        raise ArithmeticError(f"the Wallis bounds ratio test fails at N = {_TAIL_FROM}")
    return BoundsReport(n_max, 0, None, 1, 0.0, DENG_ALPHA, deng_beta(), _TAIL_FROM)
