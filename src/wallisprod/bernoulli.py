"""Exact Bernoulli numbers and Bernoulli polynomials over rationals.

Sign convention
---------------
All values follow the generating function ``z*exp(t*z)/(exp(z) - 1)``,
so ``B_1 = B_1(0) = -1/2``.  The opposite convention (``B_1 = +1/2``)
flips the sign of every odd-order contribution downstream, so the
convention is pinned here once and for all.  Even-index numbers agree
under both conventions, and ``B_{2k+1} = 0`` for ``k >= 1``.

Numbers come from the integer tangent-number recurrence and are kept in
one list, grown by prefix under the lock of every exact table (:func:`_grow`);
polynomials come from their binomial sum and are built on each call.
Everything in this module is exact: values are `fractions.Fraction`,
and :meth:`UniPoly.evaluate` at a rational point stays rational.  Callers
that need a polynomial in floating point read its ``coeffs`` themselves.
"""

from __future__ import annotations

import math
import threading
from collections import namedtuple
from fractions import Fraction

__all__ = [
    "format_rational",
    "UniPoly",
    "bernoulli_number",
    "bernoulli_poly",
]


def format_rational(x: Fraction) -> str:
    """Render a rational as ``"num/den"``, or ``"num"`` for integers."""
    x = Fraction(x)
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"


class UniPoly(namedtuple("UniPoly", "coeffs")):
    """Dense univariate polynomial with exact rational coefficients.

    ``coeffs[k]`` is the coefficient of ``t**k``.  Trailing zero
    coefficients are stripped on construction, so equality of the
    coefficient tuples is equality of polynomials.  The zero polynomial
    is the empty tuple.
    """

    __slots__ = ()

    def __new__(cls, coeffs: tuple) -> UniPoly:
        cs = [Fraction(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        return super().__new__(cls, tuple(cs))

    def evaluate(self, x: Fraction | int) -> Fraction:
        """Exact Horner evaluation at a rational point."""
        x = Fraction(x)
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc


# Prefix caches of ordered exact tables: the Bernoulli numbers here, and the
# Wallis-sequence series of ``coeffs``.  One lock serializes all growth.  It is
# re-entrant because a build grows the tables it depends on (nu reads the
# Bernoulli numbers, mu reads nu, alpha_beta reads mu) while the lock is held.
_LOCK = threading.RLock()
_NUMBERS: list[Fraction] = []  # B_0 .. B_m with B_1 = -1/2


def _grow(values: list, entries, count: int, *args) -> list:
    """Extend ``values`` to at least ``count`` entries; return its first ``count``.

    ``entries(values, count, *args)`` yields the missing entries in order, each
    appended before the next is asked for; integer state it keeps is derived
    from ``values`` when it starts, so the list stays the only cache.  An entry
    that raises appends nothing, and the next call computes it again.  Entries
    are only ever appended, so a reader may index a cached entry without the lock.
    """
    with _LOCK:
        if len(values) < count:
            for value in entries(values, count, *args):
                values.append(value)
        return values[:count]


def _bernoulli_entries(numbers: list[Fraction], count: int) -> list[Fraction]:
    """``B_len(numbers) .. B_m`` with ``m = max(count - 1, 2 len(numbers))``.

    Even-index numbers come from the integer tangent numbers ``T_k``
    (``tan x = sum T_k x^(2k-1)/(2k-1)!``) through
    ``B_2k = (-1)^(k-1) 2k T_k / (4^k (4^k - 1))``; ``B_0 = 1``,
    ``B_1 = -1/2`` and the odd zeros are set directly.  The tangent
    recurrence (Brent & Harvey, "Fast computation of Bernoulli, Tangent
    and Secant numbers") runs over Python integers only and is not
    incremental, so the table grows to at least twice its size on each
    rebuild.
    """
    m = max(count - 1, 2 * len(numbers))
    half = m // 2
    tangent = [0, 1] + [0] * (half - 1)    # tangent[k] = T_k, k = 1 .. half
    for k in range(2, half + 1):
        tangent[k] = (k - 1) * tangent[k - 1]
    for k in range(2, half + 1):
        for j in range(k, half + 1):
            tangent[j] = (j - k) * tangent[j - 1] + (j - k + 2) * tangent[j]
    table = [Fraction(1), Fraction(-1, 2)]
    for k in range(1, half + 1):
        four_k = 4**k
        table.append(Fraction((-1) ** (k - 1) * 2 * k * tangent[k], four_k * (four_k - 1)))
        table.append(Fraction(0))
    return table[len(numbers):m + 1]


def bernoulli_number(n: int) -> Fraction:
    """Exact Bernoulli number ``B_n`` (with ``B_1 = -1/2``)."""
    if 0 <= n < len(_NUMBERS):
        return _NUMBERS[n]
    if n < 0:
        raise ValueError("Bernoulli index must be non-negative")
    return _grow(_NUMBERS, _bernoulli_entries, n + 1)[n]


def bernoulli_poly(n: int) -> UniPoly:
    """Exact Bernoulli polynomial ``B_n(t) = sum_k C(n, k) B_(n-k) t^k``, built on each call."""
    if n < 0:
        raise ValueError("Bernoulli index must be non-negative")
    return UniPoly(tuple(math.comb(n, k) * bernoulli_number(n - k) for k in range(n + 1)))
