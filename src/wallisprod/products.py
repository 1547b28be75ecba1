"""Direct evaluation of the finite products; the product oracle.

Everything is accumulated in log space: the exponential damping factors
contribute ``-p/d`` terms and each polynomial factor contributes
``log(1 + z_d)`` with ``z_d = p/d + q/d^2``, for the denominators ``d = j``
(``W_n``) or ``d = 2j - 1`` (``R_n``).  ``r = |p| + sqrt|q|`` bounds both
roots of ``1 + p u + q u^2 = (1 + x1 u)(1 + x2 u)``, and the denominators
split at ``D = ceil(4 r) + 1``.  A tail of at most ``3 K`` factors costs
less in the head than as a series of ``K`` terms, so such a call takes all
``n`` factors in the head:

* the head, ``d < D``, where a factor may be negative, near zero or zero,
  goes through a per-factor loop: exact-rational zero test, near-zero flag,
  explicit sign tracking when the parameters are real (instead of complex
  logs).  A factor within 1/2 of 1 takes its log from ``z_d`` (``log1p``),
  not from the rounded ``1 + z_d``; a factor below
  ``2^-12 (1 + |p/d| + |q/d^2|)``, which the rounding of ``1 + z_d`` could
  cost more than ``2^-40`` of its log (a factor that rounds to 0.0 among
  them), is taken as the exact rational ``(d^2 + p d + q) / d^2`` and its
  log from ``_fixed._log_ratio``.  The logs and the damping terms go into
  one exactly rounded ``math.fsum`` every ``_CHUNK`` entries;
* the tail, ``d >= D``, has ``|x_i| / d < 1/4``, so no factor can vanish or
  change sign, and ``sum_d log(1 + z_d) - p/d`` is the log series
  ``sum_(k=2..K) (-1)^(k+1) (s_k / k) P_k`` in the root power sums
  ``s_k = x1^k + x2^k`` (Newton: ``s_k = p s_(k-1) - q s_(k-2)``); the damping
  cancels ``k = 1``.  The real ``P_k = sum_d d^-k`` serve the modulus and the
  phase; over the whole tail they are differences of Hurwitz zeta values,
  ``zeta(k, D) - zeta(k, n + 1)`` for ``W_n`` and ``2^-k (zeta(k, D/2) -
  zeta(k, n + 1/2))`` for ``R_n``.  From an argument of 32 on each comes
  from Euler–Maclaurin in at most 14 terms; below 32 the argument is an
  integer or a half-integer, and its 27 orders are one cached row, built on
  first use from the powers up to 32 and Euler–Maclaurin there.  The far
  end takes only the orders whose ``zeta(k, n + 1)`` can reach 2^-60 of
  ``zeta(k, D)``.  At ``rho = r / D`` the series takes the fewest terms
  ``K <= 28`` with ``2 rho^(K+1) / ((K+1)(1 - rho)) <= 2^-54 rho^2 / 4``,
  below 2^-54 of every factor's scale ``|p|/d + |q|/d^2 >= (r/d)^2 / 4``.

So a product costs at most ``D - 1 + 3 K`` factors, or ``D - 1`` factors
plus ``O(K)``, whatever ``n`` is; a head of more than ``10^8`` factors
(``|p|`` near ``2.5e7``, or ``4 r`` past the double range) raises
``ValueError`` before its first factor, unless a root shows an exactly zero
factor among the first ``10^8``: the head then ends on that factor.  For
``|p|, |q| <= 3`` and for ``|p|, |q| <= 2e-3``, up to ``n = 10^15``, the
tests hold the log to 2e-15 of an ``mpmath`` reference.  Moduli are taken
with ``math.hypot``, which returns ``inf`` where ``abs`` of a complex raises
``OverflowError``.  A complex product whose phase sum is not finite raises
``ValueError`` when ``log_abs`` lies in the range of ``exp``.
"""

from __future__ import annotations

import cmath
import functools
import math
import operator
from collections import namedtuple
from fractions import Fraction

from ._fixed import _log_ratio
from .bernoulli import _count, _em_weight, _pair

__all__ = [
    "ProductResult",
    "w_product",
    "r_product",
    "wallis_seq",
]

_ZERO_TOL = 1e-15
# a factor below this share of 1 + |p/d| + |q/d^2| is taken exactly: 1 + p/d + q/d^2
# rounds by up to about 2^-52 of that sum, which would cost its log more than 2^-40
_EXACT_BELOW = 2.0**-12
_MAX_HEAD = 10**8  # head factors, about 0.5 us each
_CHUNK = 4096  # head terms per fsum: bounded memory
_EM_FROM = 32  # zeta arguments from here take Euler–Maclaurin, below it a cached row
# a tail of t factors pays for its K-term series only past t = 3 K: on a 2-vCPU x86-64 VM
# under CPython 3.11 a head factor costs about 0.63 us (real) to 1.04 us (complex), and a
# series order about 0.72 us with both zeta ends from cached rows, 1.8 us with the far end
# from Euler–Maclaurin, plus about 3 us a call
_TAIL_COST = 3
_MAX_TERMS = 28  # log-series terms at rho = 1/4, the largest ratio the tail sees


@functools.cache
def _em_row(k: int) -> list[float]:
    # Euler–Maclaurin weights of zeta(k, a) for m = 1..14, each rounded once, built on first
    # use; at an argument of 32 or more the terms fall below 2^-60 before the last is reached
    return [float(k * _em_weight(k, m)) for m in range(1, 15)]


class ProductResult(namedtuple("ProductResult", "value log_abs phase_or_sign zero_factor_at "
                                               "terms near_zero_at", defaults=(None,))):
    """Value of a finite product with log-space and zero diagnostics.

    ``value = exp(log_abs) * phase`` when no factor vanished.  For real
    parameters ``phase_or_sign`` is the accumulated sign (+1.0 or -1.0);
    for complex parameters it is the unreduced sum of the factor phases
    in radians.  ``zero_factor_at`` is the first index whose polynomial
    part is exactly zero (then ``value == 0`` and ``log_abs == -inf``).
    ``near_zero_at`` flags the first factor that came within 1e-15 of
    zero without being an exact rational root: the result is still
    returned, with that factor's log taken from its exact value.
    :meth:`to_json_dict` writes a ``log_abs`` of ``-inf`` (a zero product)
    and a phase sum that is not finite as ``None``, since strict JSON has
    no ``Infinity``.
    """

    __slots__ = ()

    def to_json_dict(self) -> dict:
        return {
            "value": {"re": self.value.real, "im": self.value.imag},
            "log_abs": None if self.log_abs == -math.inf else self.log_abs,
            "phase_or_sign": (self.phase_or_sign if math.isfinite(self.phase_or_sign)
                              else None),
            "zero_factor_at": self.zero_factor_at,
            "terms": self.terms,
            "near_zero_at": self.near_zero_at,
        }


def _exact_factor(den: int, p: complex, q: complex) -> tuple[Fraction, Fraction]:
    """``1 + p/den + q/den^2`` exactly, real and imaginary parts apart (a float is a Fraction)."""
    d = Fraction(den)
    return (1 + (Fraction(p.real) + Fraction(q.real) / d) / d,
            (Fraction(p.imag) + Fraction(q.imag) / d) / d)


def _tail_start(r: float) -> int | float:
    """First denominator ``D = ceil(4 r) + 1`` that the tail may start from.

    ``r = |p| + sqrt|q|`` bounds the moduli of both roots ``x1``, ``x2``, and
    ``D > 4 r`` bounds ``|x_i| / d`` by 1/4 for every ``d >= D``, so
    ``1 + p/d + q/d^2`` stays within 1/2 of 1.  Infinite when ``4 r``
    overflows a double: every factor then takes the per-factor loop.
    """
    bound = 4 * r
    return math.ceil(bound) + 1 if math.isfinite(bound) else math.inf


def _zero_factor_at(step: int, p: complex, q: complex, bound: int | float) -> int | None:
    """The first exactly zero factor ``j <= bound``, if a root shows one: the package's one test.

    The head bound asks up to ``_MAX_HEAD``, a closed form of ``special`` up
    to its ``n`` and a limit up to ``inf``.  Factor ``j`` vanishes where its
    denominator ``step (j - 1) + 1`` is a root ``-x_i``.  The larger root is
    taken without cancellation and the other as ``q / x``; the denominators
    next to the nearest take up their rounding.
    """
    root = cmath.sqrt(p * p - 4 * q)
    if (p.conjugate() * root).real < 0:
        root = -root
    big = (p + root) / 2
    if not cmath.isfinite(big):  # p^2 - 4q passed the double range
        return None
    zeros = []
    for x in (big, q / big):
        near = round((-x.real - 1) / step) + 1
        zeros += [j for j in range(near - 1, near + 2)
                  if 1 <= j <= bound and _exact_factor(step * (j - 1) + 1, p, q) == (0, 0)]
    return min(zeros, default=None)


def _fsum(terms: list[float]) -> float:
    """``math.fsum``, or past the double range the plain sum, which overflows the same way."""
    try:
        return math.fsum(terms)
    except OverflowError:  # the huge terms are damping terms of one sign
        return sum(terms)


def _series_rule(rho: float, k: int) -> bool:
    """Whether ``k >= 1`` log-series terms suffice for a tail from the denominator ``r / rho``.

    The rule is ``2 rho^(k+1) / ((k+1)(1 - rho)) <= 2^-54 rho^2 / 4``, here divided
    by ``2 rho^2``; it holds from some ``k`` on, and ``_MAX_TERMS`` meets it for every
    ``rho <= 1/4``.
    """
    return rho ** (k - 1) <= 2.0**-57 * (k + 1) * (1.0 - rho)


def _series_terms(rho: float) -> int:
    """Fewest log-series terms ``K >= 2`` that meet :func:`_series_rule` at ``rho``."""
    # a K that meets it has (K-1) log2(1/rho) >= 57 - log2(K+1) >= 57 - log2(29): the
    # search starts there, and a start of 1 fails the rule at once
    k = int(1 + 52.1 / -math.log2(rho)) if rho > 0 else 2
    while k < _MAX_TERMS and not _series_rule(rho, k):
        k += 1
    return k


def _series_coeffs(p: complex, q: complex, terms: int) -> list[complex]:
    """``c_k = (-1)^(k+1) s_k / k`` for ``k = 2..terms``.

    ``s_k = x1^k + x2^k`` over the roots of ``1 + p u + q u^2 = (1 + x1 u)(1 + x2 u)``,
    by Newton's recurrence ``s_k = p s_(k-1) - q s_(k-2)`` from ``s_0 = 2``, ``s_1 = p``.
    """
    s = [2.0, p]
    for _ in range(2, terms + 1):
        s.append(p * s[-1] - q * s[-2])
    return [(-1) ** (k + 1) * s[k] / k for k in range(2, terms + 1)]


def _hurwitz_zetas(a: float, terms: int) -> list[float]:
    """``zeta(k, a) = sum_(j>=0) (a + j)^-k`` for ``k = 2..terms <= 28``.

    Below 32, ``a`` is an integer or a half-integer and the orders come from its
    cached row.  From 32 on, Euler–Maclaurin at ``a`` itself:
    ``zeta(k, a) = a^(1-k) (1/(k-1) + 1/(2a) + sum_m B_2m/(2m)! (k)_(2m-1) a^-2m)``.
    The terms alternate and fall, slowest for the largest ``k``, so every sum stops
    where that order's first term below 2^-60 stands.  ``a = inf`` gives zeros.
    """
    if a < _EM_FROM:
        return _zeta_row(a)[:terms - 1]
    inv_sq = a**-2
    power, powers = 1.0, []
    for weight in _em_row(terms):
        power *= inv_sq
        powers.append(power)
        if abs(weight) * power < 2.0**-60:
            break
    return [a ** (1 - k) * math.fsum([1 / (k - 1), 0.5 / a,
                                      *map(operator.mul, _em_row(k), powers)])
            for k in range(2, terms + 1)]


@functools.cache
def _zeta_row(a: float) -> list[float]:
    """``zeta(k, a)`` for every order ``k = 2..28`` at an integer or half-integer ``a < 32``.

    One ``fsum`` of the powers ``(a + j)^-k`` up to the first argument at or
    past 32 and the Euler–Maclaurin value there.  The tail's zeta arguments are
    ``first / step`` and ``end / step`` with integer numerators, so at most 63
    rows (``a = 1..31`` and ``0.5..31.5``) are ever built, each on first use.
    """
    count = math.ceil(_EM_FROM - a)
    far = _hurwitz_zetas(a + count, _MAX_TERMS)
    return [math.fsum([*((a + j) ** -k for j in range(count)), rest])
            for k, rest in zip(range(2, _MAX_TERMS + 1), far)]


def _log_tail(first: float, end: float, step: int, p: complex, q: complex,
              terms: int) -> complex:
    """``sum log(1 + z_d) - p/d`` over ``d = first, first + step, ...`` below ``end``.

    ``first >= D`` from :func:`_tail_start`, ``terms`` is the series length
    :func:`_series_terms` gives at ``r / first``, and ``end`` may be infinite.
    The real part is the log of the modulus and the imaginary part the phase.
    """
    f, e = first / step, end / step
    # zeta(k, e) / zeta(k, f) <= (f/e)^(k-1) (1 + (k-1)/e), falling in k: the far end
    # takes only the orders where that bound reaches 2^-60, the others are 0
    far_terms = 1
    while far_terms < terms and (f / e) ** far_terms * (1.0 + far_terms / e) >= 2.0**-60:
        far_terms += 1
    far = _hurwitz_zetas(e, far_terms) if far_terms > 1 else []
    sums = [(za - zb) / step**k for k, za, zb in
            zip(range(2, terms + 1), _hurwitz_zetas(f, terms), far + [0.0] * (terms - far_terms))]
    coeffs = _series_coeffs(p, q, terms)
    return complex(math.fsum([c.real * total for c, total in zip(coeffs, sums)]),
                   math.fsum([c.imag * total for c, total in zip(coeffs, sums)]))


def _product(n: int | float, step: int, p: complex, q: complex) -> ProductResult:
    # factor j has the denominator step (j - 1) + 1: j for W_n, 2j - 1 for R_n; n = inf is
    # the limit; n, p and q come checked
    real_mode = p.imag == 0.0 and q.imag == 0.0
    abs_p, abs_q = math.hypot(p.real, p.imag), math.hypot(q.real, q.imag)
    root_bound = abs_p + math.sqrt(abs_q)
    start = _tail_start(root_bound)
    # the factors whose denominators lie below start
    split = n if start == math.inf else min(n, (start + step - 2) // step)
    # a tail of t factors pays for its K-term series only past t = _TAIL_COST K, that is
    # when the series rule already holds at k = (t - 1) // _TAIL_COST; else all n go to the head
    rest = n - split if split < n else 0  # inf - inf is no tail length
    k = (rest - 1) // _TAIL_COST if rest <= _TAIL_COST * _MAX_TERMS else _MAX_TERMS
    if k < 2 or not _series_rule(root_bound / (step * split + 1), k):
        split = n
    if split > _MAX_HEAD:
        zero_at = _zero_factor_at(step, p, q, _MAX_HEAD)
        if zero_at is None:
            at = "" if n == math.inf else f"n = {n}, "
            raise ValueError(f"the product at {at}p = {p}, q = {q} takes a head of "
                             f"{split} factors one by one, more than {_MAX_HEAD}")
        split = zero_at  # the head ends on that factor, which returns the zero product
    re_terms: list[float] = []
    im_terms: list[float] = []
    sign = 1.0
    near_at: int | None = None

    # head: factors that may be negative, near zero or zero, one at a time
    cutoff = _EXACT_BELOW * (1.0 + abs_p + abs_q)  # no head factor is taken exactly above it
    for j, den in enumerate(range(1, step * split + 1, step), start=1):
        u, v = p / den, q / (den * den)
        factor = 1 + u + v
        size = math.hypot(factor.real, factor.imag)
        # a factor within 1/2 of 1 takes its log from z = u + v, not from the rounded 1 + z
        z = u + v
        x, y = z.real, z.imag
        # cancellation has cost the rounded factor its low bits, a near-zero one among them
        # (the cutoffs stay above _ZERO_TOL): take the exact one
        if size < cutoff and size < _EXACT_BELOW * (1.0 + abs_p / den + abs_q / (den * den)):
            re, im = _exact_factor(den, p, q)
            if re == im == 0:
                return ProductResult(0j, -math.inf, 0.0, j, n, near_at)
            if size < _ZERO_TOL and near_at is None:
                near_at = j
            if re < 0:  # the sign serves real parameters and the phase complex ones
                sign = -sign
            re_terms += (_log_ratio(re * re + im * im, 1) / 2, -p.real / den)
            im_terms += (math.atan2(im, re), -p.imag / den)
        elif real_mode:
            if factor.real < 0.0:
                sign = -sign
            re_terms += (math.log1p(x) if x > -0.5 else math.log(abs(factor.real)), -p.real / den)
        elif x * x + y * y <= 0.25:
            # log|1 + z| = log1p(x(2 + x) + y^2) / 2
            re_terms += (math.log1p(x * (2.0 + x) + y * y) / 2, -p.real / den)
            im_terms += (math.atan2(y, 1.0 + x), -p.imag / den)
        else:
            term = cmath.log(factor)
            re_terms += (term.real, -p.real / den)
            im_terms += (term.imag, -p.imag / den)
        if len(re_terms) >= _CHUNK:
            re_terms = [_fsum(re_terms)]
            im_terms = [_fsum(im_terms)]
            # 1 + |p/d| + |q/d^2| only falls as d grows: no later factor is exact above this
            cutoff = _EXACT_BELOW * (1.0 + abs_p / den + abs_q / (den * den))

    # tail: every factor within 1/2 of 1, in O(K) from the Hurwitz zeta function
    if split < n:
        try:
            end = step * n + 1.0
        except OverflowError:  # n past the double range: zeta(k, n) is below 2^-1000
            end = math.inf
        first = step * split + 1.0
        tail = _log_tail(first, end, step, p, q, _series_terms(root_bound / first))
        re_terms.append(tail.real)
        im_terms.append(tail.imag)

    log_abs = _fsum(re_terms)
    try:
        mag = math.exp(log_abs)
    except OverflowError:  # past the double range
        mag = math.inf
    if real_mode:
        return ProductResult(complex(sign * mag, 0.0), log_abs, sign, None, n, near_at)
    phase = _fsum(im_terms)
    if mag == math.inf:
        value = complex(math.inf, math.inf)
    elif math.isfinite(phase) or log_abs == -math.inf:  # exp(-inf + i phase) is 0 for any phase
        value = cmath.exp(complex(log_abs, phase))
    else:
        raise ValueError(f"the phase of the product at p = {p}, q = {q} leaves the double range")
    return ProductResult(value, log_abs, phase, None, n, near_at)


def w_product(n: int, p: complex, q: complex) -> ProductResult:
    """``prod_{j=1..n} exp(-p/j) (1 + p/j + q/j^2)`` in log space."""
    return _product(_count(n, "n"), 1, *_pair(p, q))


def r_product(n: int, p: complex, q: complex) -> ProductResult:
    """Odd-denominator analogue over ``2j - 1`` in log space."""
    return _product(_count(n, "n"), 2, *_pair(p, q))


def wallis_seq(n: int) -> float:
    """Classical Wallis partial product ``prod_{k=1..n} 4k^2 / (4k^2 - 1)``.

    The reciprocal of ``W_n(0, -1/4)``, read from its log, so the relative
    error stays at the few-ulp level for any ``n``.
    """
    return math.exp(-w_product(n, 0, -0.25).log_abs)
