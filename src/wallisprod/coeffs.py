"""Exact coefficient families for the Wallis-type product expansions.

Two kinds of objects live here:

* ``a_poly(j)`` / ``b_poly(j)``: the coefficients of the ``1/(n+1)^j``
  (resp. ``1/(n+1/2)^j``) correction series of the generalized products
  ``W_n(p,q)`` and ``R_n(p,q)``, as exact bivariate polynomials in
  ``(p, q)``.  Each contains the symmetric Bernoulli pair
  ``B_m(x1) + B_m(x2)`` over the two roots of ``x^2 - 2c p x + 4c^2 q``
  (``c = 1/2`` for ``a``, ``1/4`` for ``b``).  The pair is a combination
  of the power sums ``x1^k + x2^k``, whose coefficients in ``(p, q)``
  Waring's formula gives in closed form, so every term is written once as
  an integer quotient.  No square roots are ever taken, so the
  construction is exact end to end.

* the scalar families for the classical Wallis sequence
  ``W_n = prod 4k^2/(4k^2-1)``:

  - ``nu_j``:   ``ln(2 W_n / pi) ~ sum nu_j / n^j``
  - ``mu_j``:   ``2 W_n / pi ~ 1 + sum mu_j / n^j`` (exp-composition of nu)
  - ``(alpha_l, beta_l)``: shifted odd-power series
    ``1 + sum alpha_l / (n + beta_l)^(2l-1)``
  - ``omega_l``: odd-power series at the half-integer shift,
    ``exp(sum omega_l / (n + 1/2)^(2l-1))``, with two independent
    recurrences (odd-index and even-index matching) that must agree.

  Entry ``k`` of each of these series (``nu``, ``mu``, ``alpha_beta``,
  ``omega`` and its second route ``omega_alt``) depends only on earlier
  entries and on a prefix of another series, so each is computed once per
  process: a call extends the family's list by prefix as far as it asks,
  and later calls read it.  The ``mu`` and ``omega`` builds run over
  integer numerators on a common denominator and reduce each new entry
  once.  The ``alpha_beta`` build runs in integers over a factor base
  (:class:`_FactorBase`): the primes up to ``2l - 1`` and the numerators
  of the earlier ``alpha_k``, whose products make up every denominator of
  the family, so its sums cancel whole pieces without a gcd and the
  ``Fraction`` constructor reduces each new entry once.
  :func:`cache_sizes` reports how far every coefficient cache has grown.

All values are exact `Fraction`s.  Floating point enters only where a
coefficient polynomial is evaluated at a complex point (:func:`eval_bipoly`).
"""

from __future__ import annotations

import functools
import math
import operator
import threading
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction

from .bernoulli import _TABLE as _BERNOULLI_TABLE
from .bernoulli import bernoulli_number, bernoulli_poly

__all__ = [
    "BiPoly",
    "Family",
    "CoeffSeries",
    "a_poly",
    "b_poly",
    "eval_bipoly",
    "wallis_nu",
    "wallis_nu_raw",
    "wallis_mu",
    "alpha_beta",
    "MAX_ALPHA_BETA_ORDER",
    "omega",
    "omega_alt",
    "cache_sizes",
]


class BiPoly:
    """Sparse bivariate polynomial ``sum c_ij * p^i * q^j`` over Fractions.

    The term map never stores zero coefficients, so two polynomials are
    equal iff their maps are equal.  The class holds and prints coefficients
    and evaluates them exactly at a rational point (:func:`eval_bipoly` gives
    the float value), but does no polynomial arithmetic: each ``a_j``/``b_j``
    is written term by term in closed form.  Instances are shared by the
    coefficient memo, so treat them as immutable.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: dict[tuple[int, int], Fraction] | None = None):
        # a Fraction value under a key of two ints, as the builders write them,
        # is stored as it is; anything else is converted exactly or refused
        clean: dict[tuple[int, int], Fraction] = {}
        if terms:
            for key, val in terms.items():
                i, j = key
                if not (type(i) is int and type(j) is int and i >= 0 and j >= 0):
                    key = (_exponent(i), _exponent(j))
                if type(val) is not Fraction:
                    val = Fraction(val)
                if val:
                    clean[key] = val
        self.terms = clean

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BiPoly):
            return NotImplemented
        return self.terms == other.terms

    __hash__ = None  # mutable dict inside; not hashable

    def evaluate_exact(self, p: Fraction | int, q: Fraction | int) -> Fraction:
        """Exact rational value at a rational point ``(p, q)``."""
        p = Fraction(p)
        q = Fraction(q)
        acc = Fraction(0)
        for (i, j), c in self.terms.items():
            acc += c * p**i * q**j
        return acc

    def _sorted_terms(self):
        # weighted degree (q counts double) descending, then p-degree descending
        return sorted(self.terms.items(), key=lambda kv: (-(kv[0][0] + 2 * kv[0][1]), -kv[0][0]))

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        pieces: list[str] = []
        for (i, j), c in self._sorted_terms():
            mono = "*".join(
                filter(None, [
                    "p" if i == 1 else (f"p^{i}" if i > 1 else ""),
                    "q" if j == 1 else (f"q^{j}" if j > 1 else ""),
                ])
            )
            num, den = c.numerator, c.denominator
            mag = str(abs(num)) if den == 1 else f"{abs(num)}/{den}"
            if not mono:
                body = mag
            elif mag == "1":
                body = mono
            else:
                body = f"{mag}*{mono}"
            if not pieces:
                pieces.append(body if num > 0 else f"-{body}")
            else:
                pieces.append(f"+ {body}" if num > 0 else f"- {body}")
        return " ".join(pieces)

    def __repr__(self) -> str:
        return f"BiPoly({self})"


def _exponent(e) -> int:
    """``e`` as an int exponent; ``ValueError`` unless it is a nonnegative integer."""
    try:
        n = int(e)
    except (TypeError, ValueError, OverflowError):
        n = -1
    if n < 0 or n != e:
        raise ValueError(f"exponent {e!r} is not a nonnegative integer")
    return n


# ---------------------------------------------------------------------------
# Symbolic construction of a_j(p, q) and b_j(p, q)
# ---------------------------------------------------------------------------

def _bernoulli_pair(m: int, c: Fraction, scale: Fraction = Fraction(1)) -> BiPoly:
    """``scale * (B_m(x1) + B_m(x2))`` where ``x1, x2 = c*(p +- sqrt(p^2 - 4q))``.

    ``x1, x2`` are the roots of ``x^2 - P x + Q`` with ``P = 2c p``, ``Q = 4c^2 q``,
    so by Waring's formula ``x1^k + x2^k = sum_i (-1)^i k/(k-i) C(k-i, i) P^(k-2i) Q^i``
    (``2`` for ``k = 0``).  The ``t^k`` coefficient of ``B_m(t)`` is
    ``C(m, k) B_(m-k)``, so the coefficient of ``p^(k-2i) q^i`` is
    ``scale C(m, k) B_(m-k) (2c)^k (-1)^i k/(k-i) C(k-i, i)``.  Each monomial
    belongs to one ``k``, so the terms are written directly, ``k`` ascending
    and then ``i`` ascending, with no polynomial arithmetic.

    The build runs in integers: per ``k`` one numerator and one denominator
    from ``scale``, ``C(m, k)``, ``B_(m-k)`` and the powers of the numerator
    and denominator of ``2c`` (1 and 1 for ``a_j``, 1 and 2 for ``b_j``), then
    one reduced ``Fraction`` per term.  With the Bernoulli table warm, the
    cold ``a_1 .. a_120`` and ``b_1 .. b_120`` take about 0.45 s together on
    a shared 2-vCPU VM, against 1.0 s by ``Fraction`` arithmetic on the
    coefficients of ``B_m(t)``.
    """
    two_c = 2 * c
    cn, cd = two_c.numerator, two_c.denominator
    sn, sd = scale.numerator, scale.denominator
    terms: dict[tuple[int, int], Fraction] = {}
    for k in range(m + 1):
        b = bernoulli_number(m - k)
        if not b:
            continue
        num = sn * math.comb(m, k) * b.numerator * cn**k
        den = sd * b.denominator * cd**k
        for i in range(k // 2 + 1):
            weight = (-1) ** i * k * math.comb(k - i, i) // (k - i) if k else 2
            terms[(k - 2 * i, i)] = Fraction(weight * num, den)
    return BiPoly(terms)


def _coeff_poly(j: int, c: Fraction) -> BiPoly:
    # shared shape of the two families: 2c B_j / j * p plus the Bernoulli pair at
    # scale c, less its constant 2 B_(j+1), times (-1)^(j+1) / (j (j+1)) (1/2 for
    # j = 1).  The scaled pair's p term is -2c B_j / j * p (B_j = 0 for odd j > 1),
    # so only the terms of degree two and up remain: the pair less its 1 and p
    # terms, taken out in place since no one else holds the new pair yet.
    if j < 1:
        raise ValueError("coefficient index must be >= 1")
    scale = Fraction(1, 2) if j == 1 else Fraction((-1) ** (j + 1), j * (j + 1))
    pair = _bernoulli_pair(j + 1, c, scale)
    pair.terms.pop((0, 0), None)
    pair.terms.pop((1, 0), None)
    return pair


# Each entry depends on j alone, so a memo per family is the whole cache.
@functools.cache
def a_poly(j: int) -> BiPoly:
    """Exact correction coefficient of ``1/(n+1)^j`` for ``W_n(p, q)``."""
    return _coeff_poly(j, Fraction(1, 2))


@functools.cache
def b_poly(j: int) -> BiPoly:
    """Exact correction coefficient of ``1/(n+1/2)^j`` for ``R_n(p, q)``."""
    return _coeff_poly(j, Fraction(1, 4))


def eval_bipoly(poly: BiPoly, p: complex, q: complex) -> complex:
    """Double-precision value of a coefficient polynomial at complex ``(p, q)``."""
    p = complex(p)
    q = complex(q)
    acc = 0j
    for (i, j), c in poly.terms.items():
        acc += float(c) * p**i * q**j
    return acc


# ---------------------------------------------------------------------------
# Wallis-sequence coefficient families
# ---------------------------------------------------------------------------

class Family(str, Enum):
    NU = "nu"
    MU = "mu"
    OMEGA = "omega"
    ALPHA_BETA = "alpha_beta"


@dataclass(frozen=True)
class CoeffSeries:
    """Ordered exact coefficient list; ``values[k]`` is the index ``k+1`` entry."""

    family: Family
    order: int
    values: tuple

    def __post_init__(self) -> None:
        if self.order < 1:
            raise ValueError("series order must be >= 1")
        if len(self.values) != self.order:
            raise ValueError("value count must equal the order")


def _nu_closed(j: int) -> Fraction:
    # reduced closed form: only B_{j+1} and powers of two appear
    scale = Fraction(4) - Fraction(1, 2 ** (j - 1))
    corr = Fraction(j + 1, 2**j)
    return Fraction((-1) ** (j + 1)) * (scale * bernoulli_number(j + 1) - corr) / (j * (j + 1))


# Series caches: list index ``k - 1`` holds entry ``k``.  The lock is
# re-entrant because a build grows the series it depends on (mu reads nu,
# alpha_beta reads mu) while the lock is held.
_SERIES_LOCK = threading.RLock()
_NU: list[Fraction] = []
_MU: list[Fraction] = []
_ALPHA_BETA: list[tuple[Fraction, Fraction]] = []
_OMEGA: list[Fraction] = []
_OMEGA_ALT: list[Fraction] = []


def _grow(values: list, entries, count: int, *args) -> list:
    """Extend ``values`` to ``count`` entries; return its first ``count``.

    ``entries(values, count, *args)`` yields the missing entries in order, each
    appended before the next is asked for; integer state it keeps is derived
    from ``values`` when it starts, so the list stays the only cache.  An entry
    that raises appends nothing, and the next call computes it again.
    """
    with _SERIES_LOCK:
        if len(values) < count:
            for value in entries(values, count, *args):
                values.append(value)
        return values[:count]


class _Common:
    """Exact fractions as integer numerators ``nums`` over one denominator ``den``."""

    __slots__ = ("den", "nums")

    def __init__(self, values: list[Fraction]):
        self.den = math.lcm(*(v.denominator for v in values))
        self.nums = [v.numerator * (self.den // v.denominator) for v in values]

    def append(self, value: Fraction) -> None:
        scale = value.denominator // math.gcd(self.den, value.denominator)
        if scale > 1:
            self.den *= scale
            for i, x in enumerate(self.nums):  # in place: no second copy of the list
                self.nums[i] = x * scale
        self.nums.append(value.numerator * (self.den // value.denominator))


def _nu_entries(nu: list[Fraction], count: int):
    return map(_nu_closed, range(len(nu) + 1, count + 1))


def _nu_values(order: int) -> list[Fraction]:
    return _grow(_NU, _nu_entries, order)


def wallis_nu(order: int) -> CoeffSeries:
    """Exact ``nu_1 .. nu_order`` of ``ln(2 W_n / pi) ~ sum nu_j / n^j``."""
    if order < 1:
        raise ValueError("order must be >= 1")
    return CoeffSeries(Family.NU, order, tuple(_nu_values(order)))


def wallis_nu_raw(order: int) -> CoeffSeries:
    """Same coefficients from the unreduced Bernoulli-polynomial definition.

    ``nu_j = (-1)^(j+1) (2 B_{j+1} - B_{j+1}(1/2) - B_{j+1}(3/2)) / (j (j+1))``.
    Kept as an independent route for consistency checks.
    """
    if order < 1:
        raise ValueError("order must be >= 1")
    values = []
    for j in range(1, order + 1):
        poly = bernoulli_poly(j + 1)
        num = (2 * bernoulli_number(j + 1)
               - poly.evaluate(Fraction(1, 2))
               - poly.evaluate(Fraction(3, 2)))
        values.append(Fraction((-1) ** (j + 1)) * num / (j * (j + 1)))
    return CoeffSeries(Family.NU, order, tuple(values))


def _mu_entries(mu: list[Fraction], count: int):
    # mu_n = (1/n) sum_{k=1}^{n} k nu_k mu_{n-k} with mu_0 = 1: one integer dot
    # product over the common denominators of the k nu_k and of mu_0 .. mu_(n-1)
    weights = _Common([k * v for k, v in enumerate(_nu_values(count), 1)])
    prefix = _Common([Fraction(1), *mu])
    for n in range(len(mu) + 1, count + 1):
        value = Fraction(sum(map(operator.mul, weights.nums, reversed(prefix.nums))),
                         n * weights.den * prefix.den)
        prefix.append(value)
        yield value


def wallis_mu(order: int) -> CoeffSeries:
    """Exact ``mu_1 .. mu_order`` of ``2 W_n / pi ~ 1 + sum mu_j / n^j``."""
    if order < 1:
        raise ValueError("order must be >= 1")
    return CoeffSeries(Family.MU, order, tuple(_grow(_MU, _mu_entries, order)))


class _FactorBase:
    """Exact rationals as ``n * prod pieces[i] ** e[i]`` with an integer ``n``.

    ``pieces[0]`` is 2 and the next are the odd primes up to a bound (the
    small pieces); every other piece is a larger factor kept whole, met as
    the rest of a numerator or a denominator.  A value is a pair ``(n, e)``
    with ``e`` a dict from piece index to exponent.  The pieces need not be
    coprime and ``n`` need not be reduced: :meth:`fraction` hands the
    product to the ``Fraction`` constructor, which reduces it in any case.
    """

    def __init__(self, bound: int):
        self.pieces = [2] + [p for p in range(3, bound + 1, 2)
                             if all(p % d for d in range(3, math.isqrt(p) + 1, 2))]
        self.small = len(self.pieces)

    def _take(self, x: int, e: dict, sign: int, stop: int) -> int:
        # divide pieces[:stop] out of x > 0 as often as each goes, adding sign to e per division
        twos = (x & -x).bit_length() - 1
        if twos:
            x >>= twos
            e[0] = e.get(0, 0) + sign * twos
        for i in range(1, stop):
            if x == 1:
                break
            while True:
                q, r = divmod(x, self.pieces[i])
                if r:
                    break
                x = q
                e[i] = e.get(i, 0) + sign
        return x

    def _add_piece(self, x: int, e: dict, sign: int) -> None:
        if x > 1:
            self.pieces.append(x)
            e[len(self.pieces) - 1] = sign

    def divide(self, x: int, e: dict) -> None:
        """Divide the exponents ``e`` by ``x > 0``; the part no piece divides becomes a piece."""
        self._add_piece(self._take(x, e, -1, len(self.pieces)), e, -1)

    def read(self, value: Fraction) -> tuple[int, dict]:
        """``value`` as a pair, its denominator over the pieces."""
        e: dict = {}
        self.divide(value.denominator, e)
        return value.numerator, e

    def reduce(self, n: int, e: dict) -> int:
        """``n`` less its small pieces, which go into ``e``."""
        if n == 0:
            return 0
        rest = self._take(abs(n), e, 1, self.small)
        return rest if n > 0 else -rest

    def split(self, n: int, e: dict) -> int:
        """Sign of ``n != 0``; its small pieces go into ``e`` and the rest becomes a piece."""
        rest = self.reduce(n, e)
        self._add_piece(abs(rest), e, 1)
        return 1 if rest > 0 else -1

    def _scale(self, n: int, e: dict, low: dict) -> int:
        for i, m in low.items():
            d = e.get(i, 0) - m
            if d:
                n = n << d if i == 0 else n * self.pieces[i] ** d
        return n

    def add(self, a: tuple[int, dict], b: tuple[int, dict]) -> tuple[int, dict]:
        """``a + b`` over the exponent-wise minimum of their pieces."""
        (n1, e1), (n2, e2) = a, b
        low = {i: min(e1.get(i, 0), e2.get(i, 0)) for i in e1.keys() | e2.keys()}
        return self._scale(n1, e1, low) + self._scale(n2, e2, low), low

    def fraction(self, n: int, e: dict) -> Fraction:
        num, den = n, 1
        for i, x in e.items():
            if x > 0:
                num = num << x if i == 0 else num * self.pieces[i] ** x
            elif x < 0:
                den = den << -x if i == 0 else den * self.pieces[i] ** -x
        return Fraction(num, den)


def _exponents(e1: dict, e2: dict, k: int) -> dict:
    # exponents of a * b^k from those of a and b
    return {i: e1.get(i, 0) + k * e2.get(i, 0) for i in e1.keys() | e2.keys()}


def _alpha_beta_levels(mu: list[Fraction], pairs: list[tuple[Fraction, Fraction]], count: int):
    """Yield ``(alpha_l, beta_l)`` for ``l = len(pairs) + 1 .. count`` from ``mu_1 .. mu_2count``.

    Matching the ``1/n^(2l-1)`` and ``1/n^(2l)`` coefficients of
    ``sum alpha_l / (n + beta_l)^(2l-1)`` against the mu-series gives

        alpha_l = mu_(2l-1) - sum_(k<l) C(2l-2, 2l-2k) alpha_k beta_k^(2l-2k)
        beta_l  = -(mu_2l + sum_(k<l) C(2l-1, 2l-2k+1) alpha_k beta_k^(2l-2k+1))
                  / ((2l-1) alpha_l),

    so a vanishing ``alpha_l`` means the family degenerates at that level.
    The sums run in integers over a :class:`_FactorBase` of the primes up to
    ``2 count - 1`` and the numerator of every ``alpha_k`` (less those
    primes): the denominators of ``alpha_k`` and ``beta_k`` are products of
    these pieces, so a term ``alpha_k beta_k^m`` is one integer power plus
    exponent arithmetic, and the ascending-``k`` sum cancels the pieces
    without a gcd.  The base comes from ``pairs`` when the generator starts;
    each output is the reduced ``Fraction`` however the pieces fall.
    """
    base = _FactorBase(2 * count - 1)
    reps = []  # (sign, exponents) of alpha_k and (integer, exponents) of beta_k
    for a, b in pairs:
        num, ea = base.read(a)
        sign = base.split(num, ea)
        reps.append((sign, ea, *base.read(b)))
    for level in range(len(pairs) + 1, count + 1):
        alpha = base.read(mu[2 * level - 2])
        acc = base.read(mu[2 * level - 1])
        for k, (sa, ea, nb, eb) in enumerate(reps, 1):
            m = 2 * level - 2 * k
            term = sa * nb**m
            alpha = base.add(alpha, (-term * math.comb(2 * level - 2, m), _exponents(ea, eb, m)))
            acc = base.add(acc, (term * nb * math.comb(2 * level - 1, m + 1),
                                 _exponents(ea, eb, m + 1)))
        num, ea = alpha
        if num == 0:
            raise ZeroDivisionError(
                f"alpha_{level} = 0: the shifted expansion degenerates at level {level}"
            )
        sa = base.split(num, ea)
        num, eb = acc
        eb = _exponents(eb, ea, -1)
        base.divide(2 * level - 1, eb)
        nb = base.reduce(-sa * num, eb)
        value = (base.fraction(sa, ea), base.fraction(nb, eb))
        reps.append((sa, ea, nb, eb))
        yield value


def _alpha_beta_entries(pairs: list[tuple[Fraction, Fraction]], count: int):
    return _alpha_beta_levels(_grow(_MU, _mu_entries, 2 * count), pairs, count)


# The highest alpha-beta level the expansions and the CLI accept.  The
# rationals triple in bit length per level: with mu built, a cold build to
# level 12 takes about 0.2 s, and level 13 would add 1.3 s and level 14 about
# 13 s, nearly all of it the Fraction constructor's gcd.
MAX_ALPHA_BETA_ORDER = 12


def alpha_beta(levels: int) -> CoeffSeries:
    """Exact ``(alpha_l, beta_l)`` pairs of the shifted odd-power series."""
    if levels < 1:
        raise ValueError("levels must be >= 1")
    pairs = _grow(_ALPHA_BETA, _alpha_beta_entries, levels)
    return CoeffSeries(Family.ALPHA_BETA, levels, tuple(pairs))


def _omega_entries(out: list[Fraction], count: int, parity: int):
    # Matching nu_(r+1), r = 2l - 2 + parity, gives sum_{k<=l} omega_k C(r, 2k-2) /
    # 2^(r-2k+2) = (-1)^parity nu_(r+1): parity 0 is the odd-index route, 1 the even-index
    # one, and neither reads the other's list.  With omega_k = w_k / e for k < l, the
    # known part is sum_k w_k C(r, 2k-2) 2^(2k-2) / (e 2^r).
    nu = _nu_values(2 * count - 1 + parity)
    prefix = _Common(out)
    for level in range(len(out) + 1, count + 1):
        r = 2 * level - 2 + parity
        known = sum(w * math.comb(r, 2 * i) << 2 * i for i, w in enumerate(prefix.nums))
        den = prefix.den << r
        v = nu[r]
        value = Fraction(((-1) ** parity * v.numerator * den - known * v.denominator) << parity,
                         math.comb(r, 2 * level - 2) * v.denominator * den)
        prefix.append(value)
        yield value


def omega(levels: int) -> CoeffSeries:
    """Exact ``omega_l`` via matching of the odd-index nu coefficients."""
    if levels < 1:
        raise ValueError("levels must be >= 1")
    return CoeffSeries(Family.OMEGA, levels, tuple(_grow(_OMEGA, _omega_entries, levels, 0)))


def omega_alt(levels: int) -> CoeffSeries:
    """Same ``omega_l`` via the even-index nu matching; must agree with :func:`omega`."""
    if levels < 1:
        raise ValueError("levels must be >= 1")
    return CoeffSeries(Family.OMEGA, levels, tuple(_grow(_OMEGA_ALT, _omega_entries, levels, 1)))


def cache_sizes() -> dict[str, int]:
    """Entry count of every coefficient cache and of the Bernoulli number table."""
    return {
        "bernoulli": len(_BERNOULLI_TABLE),
        "a_poly": a_poly.cache_info().currsize,
        "b_poly": b_poly.cache_info().currsize,
        "nu": len(_NU),
        "mu": len(_MU),
        "alpha_beta": len(_ALPHA_BETA),
        "omega": len(_OMEGA),
        "omega_alt": len(_OMEGA_ALT),
    }
