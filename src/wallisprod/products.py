"""Direct evaluation of the finite products; the brute-force oracle.

Everything is accumulated in log space: the exponential damping factors
contribute ``-p/d`` terms and each polynomial factor contributes
``log(1 + z_d)`` with ``z_d = p/d + q/d^2``, for the denominators ``d = j``
(``W_n``) or ``d = 2j - 1`` (``R_n``).  The denominators split at
``d0 = ceil(max(4|p|, 2 sqrt|q|)) + 1``:

* the head, ``d < d0``, where a factor may be negative, near zero or zero,
  goes through a per-factor loop: exact-rational zero test, near-zero flag,
  float-underflow exit, explicit sign tracking when the parameters are real
  (instead of complex logs), with the logs of the factors and the damping
  terms folded into one exactly rounded ``math.fsum`` every ``_CHUNK``
  entries;
* the tail, ``d >= d0``, has ``|z_d| <= 1/2``, so no factor can vanish or
  change sign.  It is summed in chunks of ``_CHUNK`` denominators in real
  float arithmetic on the reciprocals ``u = 1/d``: ``z_d = x + iy = (p + q u) u``,
  ``log1p(x)`` of the small part itself, never of a rounded ``1 + z_d``,
  or for complex parameters ``log|1 + z| = log1p(x(2 + x) + y^2) / 2`` and
  ``arg(1 + z) = atan2(y, 1 + x)``, with the damping terms ``-p u`` in the
  same exactly rounded ``math.fsum``;
* far out, a complex chunk takes the log series instead.  With
  ``1 + p u + q u^2 = (1 + x1 u)(1 + x2 u)`` and the root power sums
  ``s_k = x1^k + x2^k`` (Newton: ``s_k = p s_(k-1) - q s_(k-2)``),
  ``sum_d log(1 + z_d) - p u = sum_(k>=2) (-1)^(k+1) (s_k / k) P_k`` with the
  real power sums ``P_k = fsum(u^k)``: the damping cancels the ``k = 1`` term
  exactly, and one set of ``P_k`` serves the modulus (``Re``) and the phase
  (``Im``).  ``r = |p| + sqrt|q|`` bounds both roots; at ``rho = r / d`` for
  the chunk's first ``d``, the series stops at the fewest terms ``K`` with
  ``2 rho^(K+1) / ((K+1)(1 - rho)) <= 2^-54 rho^2 / 4``.  Every factor's
  scale ``|p| u + |q| u^2`` is at least ``(r u)^2 / 4``, so the dropped terms
  stay below 2^-54 of it.  A chunk that would need more than ``_SERIES_CAP``
  terms (``rho`` about 2^-9 or more) keeps the per-factor kernel, which then
  costs no more; under the cap each ``log(1 + x_i u)`` is principal, so the
  phase is the ``atan2`` sum.  Real parameters keep ``log1p`` at every
  chunk, since one ``log1p`` a factor costs about what the four or five power
  sums do; :func:`wallis_seq` keeps its ``log1p`` generator for the same
  reason, against two or three power sums.

One more ``fsum`` joins the head and the chunk sums.  Memory stays bounded
by the chunk size.  For ``|p|, |q| <= 2e-3``, where the head is at most the
factor ``d = 1``, the log of a million-factor product measured within
2e-16 of an ``mpmath`` reference, against up to 1e-11 when every factor's
rounded value goes through ``log``.

Moduli are taken with ``math.hypot``, which returns ``inf`` where ``abs`` of
a complex raises ``OverflowError``.  A complex product whose phase sum is
not finite raises ``ValueError`` when ``log_abs`` lies in the range of ``exp``.
"""

from __future__ import annotations

import bisect
import cmath
import math
from collections import namedtuple
from fractions import Fraction
from itertools import chain, repeat
from operator import mul

__all__ = [
    "ProductResult",
    "w_product",
    "r_product",
    "wallis_seq",
]

_ZERO_TOL = 1e-15
_EXP_OVERFLOW = 709.0  # log of the largest finite double, minus slack
_CHUNK = 4096  # head terms or tail denominators per fsum: C-level loops, bounded memory
# most log-series terms in a complex tail chunk: the series costs about 50 ns a
# factor per term, so at 7 terms it costs what _tail_sums does (about 420 ns)
_SERIES_CAP = 7


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
    returned but its precision is reduced.  :meth:`to_json_dict` writes a
    ``log_abs`` of ``-inf`` (a zero product) and a phase sum that is not
    finite as ``None``, since strict JSON has no ``Infinity``.
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


def _exact_zero(den: int, p: complex, q: complex) -> bool:
    # den^2 + p*den + q == 0 checked in exact rational arithmetic, real and
    # imaginary parts apart (floats convert to Fractions exactly)
    d = Fraction(den)
    return (d * d + Fraction(p.real) * d + Fraction(q.real) == 0
            and Fraction(p.imag) * d + Fraction(q.imag) == 0)


def _tail_start(p: complex, q: complex) -> int | float:
    """First denominator ``d0`` from which no factor can vanish or change sign.

    ``d0 > 4|p|`` and ``d0 > 2 sqrt|q|`` bound ``|p|/d`` and ``|q|/d^2`` by 1/4
    each for every ``d >= d0``, so ``1 + p/d + q/d^2`` stays within 1/2 of 1.
    Infinite when that bound overflows a double: every factor then takes the
    per-factor loop.
    """
    bound = max(4 * math.hypot(p.real, p.imag), 2 * math.sqrt(math.hypot(q.real, q.imag)))
    return math.ceil(bound) + 1 if math.isfinite(bound) else math.inf


def _fsum(terms: list[float]) -> float:
    """``math.fsum``, or past the double range the plain sum, which overflows the same way."""
    try:
        return math.fsum(terms)
    except OverflowError:  # the huge terms are damping terms of one sign
        return sum(terms)


def _tail_sums(dens: range, p: complex, q: complex, real_mode: bool) -> tuple[float, float]:
    """``sum log(1 + z_d) - p u`` over ``dens`` as (real, imaginary), ``z_d = (p + q u) u``.

    Needs ``|z_d| <= 1/2``.  Every list is built in real floats from one list of
    reciprocals ``u = 1/d``; the damping terms stay inside the exactly rounded ``fsum``.
    """
    inv = [1.0 / d for d in dens]
    if real_mode:
        p, q = p.real, q.real
        return math.fsum(chain(map(math.log1p, [(p + q * u) * u for u in inv]),
                               map(mul, repeat(-p), inv))), 0.0
    pr, pi, qr, qi = p.real, p.imag, q.real, q.imag
    xs = [(pr + qr * u) * u for u in inv]
    ys = [(pi + qi * u) * u for u in inv]
    # log|1+z| = log1p(x(2+x) + y^2) / 2; the damping enters doubled, which is exact
    log_abs = math.fsum(chain(map(math.log1p, [x * (2.0 + x) + y * y for x, y in zip(xs, ys)]),
                              map(mul, repeat(-2 * pr), inv))) / 2
    phase = math.fsum(chain(map(math.atan2, ys, [1.0 + x for x in xs]),
                            map(mul, repeat(-pi), inv)))
    return log_abs, phase


def _series_terms(rho: float) -> int | None:
    """Fewest log-series terms ``K`` for a complex tail chunk, or None past ``_SERIES_CAP``.

    ``rho = r / d`` at the chunk's first denominator ``d``, where ``r = |p| + sqrt|q|``
    bounds the moduli of both roots.  ``K`` is the smallest with
    ``2 rho^(K+1) / ((K+1)(1 - rho)) <= 2^-54 rho^2 / 4``, here divided by ``2 rho^2``.
    """
    for k in range(2, _SERIES_CAP + 1):
        if rho ** (k - 1) <= 2.0**-57 * (k + 1) * (1.0 - rho):
            return k
    return None


def _series_coeffs(p: complex, q: complex) -> list[complex]:
    """``c_k = (-1)^(k+1) s_k / k`` for ``k = 2.._SERIES_CAP``.

    ``s_k = x1^k + x2^k`` over the roots of ``1 + p u + q u^2 = (1 + x1 u)(1 + x2 u)``,
    by Newton's recurrence ``s_k = p s_(k-1) - q s_(k-2)`` from ``s_0 = 2``, ``s_1 = p``.
    """
    s = [2.0, p]
    for _ in range(2, _SERIES_CAP + 1):
        s.append(p * s[-1] - q * s[-2])
    return [(-1) ** (k + 1) * s[k] / k for k in range(2, _SERIES_CAP + 1)]


def _series_sums(dens: range, coeffs: list[complex]) -> tuple[float, float]:
    """``sum log(1 + z_d) - p u`` over ``dens`` as ``sum_k c_k P_k``, ``P_k = sum u^k``.

    ``coeffs`` holds ``c_2..c_K``; the damping cancels the ``k = 1`` term exactly.
    One set of real power sums serves both parts, each in an exactly rounded ``fsum``;
    ``u^K`` is summed as it is formed, without a list.
    """
    inv = [1.0 / d for d in dens]
    power = inv
    sums = []
    for _ in coeffs[1:]:
        power = list(map(mul, power, inv))
        sums.append(math.fsum(power))
    sums.append(math.fsum(map(mul, power, inv)))
    return (math.fsum([c.real * total for c, total in zip(coeffs, sums)]),
            math.fsum([c.imag * total for c, total in zip(coeffs, sums)]))


def _product(dens: range, p: complex, q: complex) -> ProductResult:
    p = complex(p)
    q = complex(q)
    if not (cmath.isfinite(p) and cmath.isfinite(q)):
        raise ValueError("p and q must be finite")
    real_mode = p.imag == 0.0 and q.imag == 0.0
    split = bisect.bisect_left(dens, _tail_start(p, q))
    n = len(dens)
    re_terms: list[float] = []
    im_terms: list[float] = []
    sign = 1.0
    near_at: int | None = None

    # head: factors that may be negative, near zero or zero, one at a time
    for j, den in enumerate(dens[:split], start=1):
        factor = 1 + p / den + q / (den * den)
        if math.hypot(factor.real, factor.imag) < _ZERO_TOL:
            if _exact_zero(den, p, q):
                return ProductResult(0j, -math.inf, 0.0, j, n, near_at)
            if near_at is None:
                near_at = j
            if factor == 0:
                # rounded to zero in double without being an exact root:
                # the product is unrepresentably small, not exactly zero
                return ProductResult(0j, -math.inf, 0.0, None, n, near_at)
        if real_mode:
            x = factor.real
            if x < 0.0:
                sign = -sign
            re_terms += (math.log(abs(x)), -p.real / den)
        else:
            term = cmath.log(factor)
            re_terms += (term.real, -p.real / den)
            im_terms += (term.imag, -p.imag / den)
        if len(re_terms) >= _CHUNK:
            re_terms = [_fsum(re_terms)]
            im_terms = [_fsum(im_terms)]

    # tail: every factor within 1/2 of 1, summed a bounded chunk at a time; far
    # enough out, a complex chunk takes the log series in the root power sums
    if not real_mode and split < n:
        root_bound = math.hypot(p.real, p.imag) + math.sqrt(math.hypot(q.real, q.imag))
        coeffs = _series_coeffs(p, q)
    for start in range(split, n, _CHUNK):
        chunk = dens[start:start + _CHUNK]
        terms = None if real_mode else _series_terms(root_bound / chunk[0])
        if terms is None:
            re_part, im_part = _tail_sums(chunk, p, q, real_mode)
        else:
            re_part, im_part = _series_sums(chunk, coeffs[:terms - 1])
        re_terms.append(re_part)
        im_terms.append(im_part)

    log_abs = _fsum(re_terms)
    if real_mode:
        mag = math.inf if log_abs > _EXP_OVERFLOW else math.exp(log_abs)
        return ProductResult(complex(sign * mag, 0.0), log_abs, sign, None, n, near_at)
    phase = _fsum(im_terms)
    if log_abs > _EXP_OVERFLOW:
        value = complex(math.inf, math.inf)
    elif math.isfinite(phase) or log_abs == -math.inf:  # exp(-inf + i phase) is 0 for any phase
        value = cmath.exp(complex(log_abs, phase))
    else:
        raise ValueError(f"the phase of the product at p = {p}, q = {q} leaves the double range")
    return ProductResult(value, log_abs, phase, None, n, near_at)


def w_product(n: int, p: complex, q: complex) -> ProductResult:
    """``prod_{j=1..n} exp(-p/j) (1 + p/j + q/j^2)`` by direct accumulation."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return _product(range(1, n + 1), p, q)


def r_product(n: int, p: complex, q: complex) -> ProductResult:
    """Odd-denominator analogue over ``2j - 1`` by direct accumulation."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return _product(range(1, 2 * n, 2), p, q)


def wallis_seq(n: int) -> float:
    """Classical Wallis partial product ``prod_{k=1..n} 4k^2 / (4k^2 - 1)``.

    Evaluated as ``exp(sum log1p(1/(4k^2-1)))`` with exact summation, so
    the relative error stays at the few-ulp level even for ``n = 10^6``.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    return math.exp(math.fsum(math.log1p(1.0 / (4.0 * k * k - 1.0)) for k in range(1, n + 1)))
