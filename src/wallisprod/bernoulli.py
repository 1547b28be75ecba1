"""Exact Bernoulli numbers and Bernoulli polynomials over rationals.

Sign convention
---------------
All values follow the generating function ``z*exp(t*z)/(exp(z) - 1)``,
so ``B_1 = B_1(0) = -1/2``.  The opposite convention (``B_1 = +1/2``)
flips the sign of every odd-order contribution downstream, so the
convention is pinned here once and for all.  Even-index numbers agree
under both conventions, and ``B_{2k+1} = 0`` for ``k >= 1``.

Numbers come from the integer tangent-number recurrence and
polynomials from their binomial sum; see :class:`BernoulliTable`.
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
    "BernoulliTable",
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


class BernoulliTable:
    """Monotonically growing cache of Bernoulli numbers and polynomials.

    Even-index numbers come from the integer tangent numbers ``T_k``
    (``tan x = sum T_k x^(2k-1)/(2k-1)!``) through
    ``B_2k = (-1)^(k-1) 2k T_k / (4^k (4^k - 1))``; ``B_0 = 1``,
    ``B_1 = -1/2`` and the odd zeros are set directly.  The tangent
    recurrence (Brent & Harvey, "Fast computation of Bernoulli, Tangent
    and Secant numbers") runs over Python integers only and is not
    incremental, so the table grows to at least twice its size on each
    rebuild.  Polynomials come from ``B_n(t) = sum_k C(n,k) B_{n-k} t^k``.
    Growth is serialized by an internal lock; reads of already computed
    entries are safe from any thread.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._numbers: list[Fraction] = []      # B_0 .. B_m with B_1 = -1/2
        self._polys: dict[int, UniPoly] = {}

    def _grow(self, n: int) -> None:
        if n < len(self._numbers):
            return
        m = max(n, 2 * len(self._numbers))
        count = m // 2
        tangent = [0, 1] + [0] * (count - 1)    # tangent[k] = T_k, k = 1 .. count
        for k in range(2, count + 1):
            tangent[k] = (k - 1) * tangent[k - 1]
        for k in range(2, count + 1):
            for j in range(k, count + 1):
                tangent[j] = (j - k) * tangent[j - 1] + (j - k + 2) * tangent[j]
        numbers = [Fraction(1), Fraction(-1, 2)]
        for k in range(1, count + 1):
            four_k = 4**k
            numbers.append(Fraction((-1) ** (k - 1) * 2 * k * tangent[k],
                                    four_k * (four_k - 1)))
            numbers.append(Fraction(0))
        self._numbers = numbers[:m + 1]

    def __len__(self) -> int:
        """Count of the numbers computed so far, ``B_0 .. B_(len - 1)``."""
        return len(self._numbers)

    def number(self, n: int) -> Fraction:
        """Exact ``B_n`` (with ``B_1 = -1/2``)."""
        if n < 0:
            raise ValueError("Bernoulli index must be non-negative")
        with self._lock:
            self._grow(n)
            return self._numbers[n]

    def polynomial(self, n: int) -> UniPoly:
        """Exact coefficient list of the Bernoulli polynomial ``B_n(t)``."""
        if n < 0:
            raise ValueError("Bernoulli index must be non-negative")
        with self._lock:
            self._grow(n)
            poly = self._polys.get(n)
            if poly is None:
                coeffs = [
                    Fraction(math.comb(n, k)) * self._numbers[n - k]
                    for k in range(n + 1)
                ]
                poly = UniPoly(tuple(coeffs))
                self._polys[n] = poly
            return poly


_TABLE = BernoulliTable()


def bernoulli_number(n: int) -> Fraction:
    """Exact Bernoulli number ``B_n`` from the shared table."""
    return _TABLE.number(n)


def bernoulli_poly(n: int) -> UniPoly:
    """Exact Bernoulli polynomial ``B_n(t)`` from the shared table."""
    return _TABLE.polynomial(n)
