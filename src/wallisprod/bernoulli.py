"""Exact Bernoulli numbers over rationals.

Sign convention
---------------
All values follow the generating function ``z*exp(t*z)/(exp(z) - 1)``,
so ``B_1 = B_1(0) = -1/2``.  The opposite convention (``B_1 = +1/2``)
flips the sign of every odd-order contribution downstream, so the
convention is pinned here once and for all.  Even-index numbers agree
under both conventions, and ``B_{2k+1} = 0`` for ``k >= 1``.

Numbers come from the integer tangent-number recurrence and are kept in
one list, grown by prefix under the lock of every exact table (:func:`_grow`).
Everything in this module is exact: values are `fractions.Fraction`.  The
Bernoulli polynomials ``B_n(t)`` appear only in the definitions that
``coeffs.wallis_nu_raw`` and ``verify`` check against, so they are not a
public object: :func:`_poly_values` gives their exact values at rational
points.  Every public entry point of the package takes its integer counts
through :func:`_count`, capped from :data:`_CAPS` for an exact build, and
its parameters ``(p, q)`` through :func:`_pair`.
"""

from __future__ import annotations

import cmath
import math
import operator
import threading
from fractions import Fraction

__all__ = [
    "format_rational",
    "bernoulli_number",
]


def format_rational(x: Fraction) -> str:
    """Render a rational as ``"num/den"``, or ``"num"`` for integers."""
    x = Fraction(x)
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"


def _count(value, name: str, low: int = 1, high: int | None = None) -> int:
    """``operator.index(value)``, with a ``ValueError`` naming ``name`` outside ``low..high``."""
    value = operator.index(value)
    if value < low:
        raise ValueError(f"{name} must be >= {low}")
    if high is not None and value > high:
        raise ValueError(f"{name} must be in {low}..{high}")
    return value


# The largest count of each exact build, for coeffs, the expansion families and the CLI: a
# cold build to its cap takes at most about 2 s, and past it the cost grows steeply.
# ``nu_raw`` caps ``coeffs.wallis_nu_raw``, whose Bernoulli polynomials cost O(order^2)
# terms; ``error_order`` caps the exact error kernel of ``expansions``.  The Bernoulli cap
# is the largest index they read: B_(j+1) for a_j, b_j and nu_j (both routes), with nu up
# to mu's count and to twice alpha_beta's; B_2l for omega_l, and nu up to 2L for the
# ``omega_alt`` route, which shares omega's cap.
_CAPS = {"a": 120, "b": 120, "nu": 1800, "nu_raw": 550, "mu": 750, "omega": 400,
         "alpha_beta": 12, "error_order": 20}
_CAPS["bernoulli"] = 1 + max(_CAPS["a"], _CAPS["b"], _CAPS["nu"], _CAPS["nu_raw"],
                             _CAPS["mu"], 2 * _CAPS["omega"], 2 * _CAPS["alpha_beta"])


def _pair(p, q) -> tuple[complex, complex]:
    """The parameters ``(p, q)`` as complex numbers; ``ValueError`` unless both are finite."""
    p, q = complex(p), complex(q)
    if not (cmath.isfinite(p) and cmath.isfinite(q)):
        raise ValueError("p and q must be finite")
    return p, q


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
    rebuild, up to the cap.
    """
    m = min(max(count - 1, 2 * len(numbers)), _CAPS["bernoulli"])
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
    """Exact Bernoulli number ``B_n`` (with ``B_1 = -1/2``), ``0 <= n <= _CAPS["bernoulli"]``."""
    if type(n) is int and 0 <= n < len(_NUMBERS):  # the table never passes the cap
        return _NUMBERS[n]
    n = _count(n, "Bernoulli index", 0, _CAPS["bernoulli"])
    return _grow(_NUMBERS, _bernoulli_entries, n + 1)[n]


def _em_weight(k: int, m: int) -> Fraction:
    """The exact Euler–Maclaurin weight ``B_2m/(2m)! (k+1)(k+2)...(k+2m-2)``: ``k`` times it
    weighs ``a^(1-k-2m)`` in ``zeta(k, a)``, and ``k = 0`` and ``1`` give the Stirling
    coefficients ``B_2m/(2m(2m-1))`` of ``lnGamma`` and ``B_2m/(2m)`` of ``psi``."""
    return bernoulli_number(2 * m) * math.prod(range(k + 1, k + 2 * m - 1)) / math.factorial(2 * m)


def _poly_values(n: int, points) -> list[Fraction]:
    """Exact ``B_n(x)`` at each rational ``x`` of ``points``.

    The coefficients ``C(n, i) B_i`` of ``t^(n-i)`` are put once per call over
    the common denominator ``D`` of ``B_0 .. B_n``.  At ``x = a/b`` Horner's rule
    then runs in integers on ``sum_i C(n, i) B_i a^(n-i) b^i``, and the value is
    one reduced ``Fraction`` of that sum over ``D b^n``.
    """
    n = _count(n, "Bernoulli index", 0, _CAPS["bernoulli"])
    bernoulli_number(n)  # grows the table through B_n
    numbers = _NUMBERS[:n + 1]
    den = math.lcm(*(b.denominator for b in numbers))
    nums = [math.comb(n, i) * b.numerator * (den // b.denominator) for i, b in enumerate(numbers)]
    values = []
    for x in points:
        x = Fraction(x)
        a, b = x.numerator, x.denominator
        acc, scale = nums[0], 1
        for c in nums[1:]:  # after j steps acc = sum_(i<=j) C(n, i) B_i a^(j-i) b^i D, scale = b^j
            scale *= b
            acc = acc * a + c * scale
        values.append(Fraction(acc, den * scale))
    return values
