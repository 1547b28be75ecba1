"""Complex log-gamma, digamma, and the limit/closed forms of the products.

The products handled by this package are

    W_n(p, q) = prod_{j=1..n} exp(-p/j)   * (1 + p/j + q/j^2)
    R_n(p, q) = prod_{j=1..n} exp(-p/(2j-1)) * (1 + p/(2j-1) + q/(2j-1)^2)

with complex parameters ``p, q`` and discriminant root
``D = sqrt(p^2 - 4q)`` (principal branch).  Both are products of
``exp(-p/d) (1 + p/d + q/d^2)`` over ``d = c (j + a - 1)``, with
``(a, c) = (1, 1)`` for W and ``(1/2, 2)`` for R.  With the scaled roots
``s, t = (p +- D) / (2c)`` each factor is ``(j+a-1+s)(j+a-1+t)/(j+a-1)^2``,
so at ``z = n + a``

    ln P_n = -(p/c) (psi(z) - psi(a)) + 2 lnGamma(a)
             + lnGamma(z+s) + lnGamma(z+t) - 2 lnGamma(z)
             - lnGamma(a+s) - lnGamma(a+t)

and, as n grows (the ``ln z`` parts cancel),

    ln P_inf = (p/c) psi(a) + 2 lnGamma(a) - lnGamma(a+s) - lnGamma(a+t).

One kernel evaluates each for both products.  W takes ``psi(1) = -gamma``
and ``lnGamma(1) = 0``; R takes ``psi(1/2) = -gamma - 2 ln 2`` and
``2 lnGamma(1/2) = ln pi``, which give its ``2^-p pi exp(-p gamma/2)``
prefactor.

Implementation notes
--------------------
``ln_gamma`` uses the Stirling series with exact Bernoulli coefficients
after shifting the argument to ``Re z >= 12`` with principal logs; this
yields the principal branch everywhere off the cut (the identity
``lnGamma(z) = lnGamma(z+m) - sum log(z+k)`` holds exactly there) and
keeps the relative error a couple of decades below the 1e-13 contract.
The closed forms are evaluated entirely in log space and exponentiated
once.  Once ``z``, ``z+s`` and ``z+t`` all have real part at least 12,
each ``lnGamma(z+r) - lnGamma(z)`` is written as
``(z+r-1/2) log1p(r/z) - r + r ln z`` plus the difference of two Stirling
tails, and the ``r ln z`` parts cancel against the ``(p/c) ln z`` of the
digamma term before any floating point is done, so no ``n ln n`` terms are
formed.  Below that the log-gammas are taken directly.  Against mpmath at
50 digits, on 200 seeded points with ``n`` log-uniform in 1..10^6 and
complex ``|p|, |q| <= 10``, the worst relative error of ``W_n`` and
``R_n`` is 1.9e-14 (1.7e-14 for ``n > 255``).  A factor within ``eps`` of
zero adds about ``1e-17/eps``, the conditioning of that factor.
"""

from __future__ import annotations

import cmath
import math
import warnings

from .bernoulli import bernoulli_number

__all__ = [
    "EULER_GAMMA",
    "EULER_GAMMA_STR",
    "EXP_EULER_GAMMA",
    "EXP_EULER_GAMMA_STR",
    "PoleError",
    "ln_gamma",
    "digamma",
    "delta",
    "w_inf",
    "r_inf",
    "w_closed",
    "r_closed",
    "ser_partial",
    "wilf_constant",
]

# 50-digit literals; downstream comparisons at 1e-13 need the headroom.
EULER_GAMMA_STR = "0.57721566490153286060651209008240243104215933593992"
EXP_EULER_GAMMA_STR = "1.78107241799019798523650410310717954916964521430343"

EULER_GAMMA = float(EULER_GAMMA_STR)
EXP_EULER_GAMMA = float(EXP_EULER_GAMMA_STR)

_POLE_TOL = 1e-12
_SHIFT_RE = 12.0
_HALF_LN_2PI = 0.5 * math.log(2.0 * math.pi)

# psi(a) and 2 lnGamma(a) at the offsets of W (a = 1) and R (a = 1/2):
# psi(1) = -gamma, lnGamma(1) = 0, psi(1/2) = psi(1) - 2 ln 2 (duplication
# formula) and Gamma(1/2)^2 = pi.  Their imaginary parts are -0.0: adding or
# subtracting -0.0 leaves every signed zero alone, so W's sums keep the bits
# of -p (psi(z) + gamma) and -p gamma.  For the same reason the kernels form
# p/c componentwise: the complex p / 1 turns a -0.0 in p into +0.0.
_PSI_ONE = complex(-EULER_GAMMA, -0.0)
_TWO_LGAMMA_ONE = complex(-0.0, -0.0)
_PSI_HALF = _PSI_ONE - 2 * math.log(2.0)
_TWO_LGAMMA_HALF = complex(math.log(math.pi), -0.0)

# Stirling tail coefficients B_{2n} / (2n (2n-1)) and B_{2n} / (2n),
# derived once from the exact table.
_LNGAMMA_COEFFS = [
    float(bernoulli_number(2 * n) / (2 * n * (2 * n - 1))) for n in range(1, 17)
]
_DIGAMMA_COEFFS = [
    float(bernoulli_number(2 * n) / (2 * n)) for n in range(1, 17)
]


class PoleError(ArithmeticError):
    """Argument is (within 1e-12 of) a pole of the gamma/digamma functions."""


def _nonpositive_int_near(z: complex) -> int | None:
    """The nonpositive integer within the pole tolerance of ``z``, if any."""
    z = complex(z)
    if not cmath.isfinite(z):  # every gamma argument of the public functions passes here
        raise ValueError(f"gamma argument {z} must be finite")
    if abs(z.imag) > _POLE_TOL:
        return None
    k = round(z.real)
    if k > 0:
        return None
    if abs(z.real - k) <= _POLE_TOL:
        return int(k)
    return None


def ln_gamma(z: complex) -> complex:
    """Principal branch of ``ln Gamma(z)`` for complex ``z``.

    Raises :class:`PoleError` within 1e-12 of a nonpositive integer and
    ``ValueError`` for a NaN or infinite ``z``.
    """
    z = complex(z)
    if _nonpositive_int_near(z) is not None:
        raise PoleError(f"ln_gamma pole at z = {z}")
    shift = 0
    if z.real < _SHIFT_RE:
        shift = int(math.ceil(_SHIFT_RE - z.real))
    log_re: list[float] = []
    log_im: list[float] = []
    for k in range(shift):
        term = cmath.log(z + k)
        log_re.append(term.real)
        log_im.append(term.imag)
    w = z + shift
    value = (w - 0.5) * cmath.log(w) - w + _HALF_LN_2PI + _lngamma_tail(w)
    return value - complex(math.fsum(log_re), math.fsum(log_im))


def _lngamma_tail(w: complex) -> complex:
    # sum_k B_2k / (2k (2k-1) w^(2k-1)), the Stirling tail of lnGamma(w) for Re(w) >= _SHIFT_RE
    inv = 1.0 / w
    inv2 = inv * inv
    tail = 0j
    for c in reversed(_LNGAMMA_COEFFS):
        tail = tail * inv2 + c
    return tail * inv


def digamma(z: complex) -> complex:
    """Digamma ``psi(z)`` for complex ``z`` (relative error well under 1e-12)."""
    z = complex(z)
    if _nonpositive_int_near(z) is not None:
        raise PoleError(f"digamma pole at z = {z}")
    shift = 0
    if z.real < _SHIFT_RE:
        shift = int(math.ceil(_SHIFT_RE - z.real))
    rec_re: list[float] = []
    rec_im: list[float] = []
    for k in range(shift):
        term = 1.0 / (z + k)
        rec_re.append(term.real)
        rec_im.append(term.imag)
    w = z + shift
    value = cmath.log(w) + _digamma_minus_log(w)
    return value - complex(math.fsum(rec_re), math.fsum(rec_im))


def _digamma_minus_log(w: complex) -> complex:
    # psi(w) - ln(w) for Re(w) >= _SHIFT_RE; free of the ln-scale rounding
    inv = 1.0 / w
    inv2 = inv * inv
    tail = 0j
    for c in reversed(_DIGAMMA_COEFFS):
        tail = tail * inv2 + c
    return -0.5 * inv - tail * inv2


def delta(p: complex, q: complex) -> complex:
    """Principal square root of ``p^2 - 4q``.

    Branch cut on the negative real axis: the result has nonnegative
    real part, and nonnegative imaginary part when the real part is 0.
    Raises ``ValueError`` naming ``p`` and ``q`` when they are finite but
    ``p^2 - 4q`` leaves the double range (``|p|`` above about 1.3e154).
    """
    p = complex(p)
    q = complex(q)
    d = p * p - 4 * q
    if not cmath.isfinite(d) and cmath.isfinite(p) and cmath.isfinite(q):
        raise ValueError(f"p^2 - 4q leaves the double range at p = {p}, q = {q}")
    if d.imag == 0.0:
        d = complex(d.real, 0.0)  # normalize -0.0 so the cut side is fixed
    return cmath.sqrt(d)


def wilf_constant() -> float:
    """``(e^(pi/2) + e^(-pi/2)) / (pi e^gamma)``, the limit of W_n(1, 1/2)."""
    return (math.exp(math.pi / 2) + math.exp(-math.pi / 2)) / (math.pi * EXP_EULER_GAMMA)


def _roots(p: complex, q: complex, c: int) -> tuple[complex, complex, complex]:
    # the scaled roots s, t = (p +- D) / (2c) and p/c
    d = delta(p, q)
    return (p + d) / (2 * c), (p - d) / (2 * c), complex(p.real / c, p.imag / c)


def _ln_limit(s: complex, t: complex, pc: complex, a: float,
              psi_a: complex, two_lgamma_a: complex) -> complex:
    # ln P_inf of the module docstring; a + s and a + t must be off the poles
    return pc * psi_a + two_lgamma_a - ln_gamma(a + s) - ln_gamma(a + t)


def _exp(total: complex, p: complex, q: complex) -> complex:
    # the one exponentiation of the limits and closed forms: real (p, q) give a real value
    value = cmath.exp(total)
    return complex(value.real, 0.0) if p.imag == 0.0 and q.imag == 0.0 else value


def _limit(p: complex, q: complex, a: float, c: int,
           psi_a: complex, two_lgamma_a: complex) -> complex:
    # P_inf at offset a and scale c
    p = complex(p)
    q = complex(q)
    s, t, pc = _roots(p, q, c)
    if _nonpositive_int_near(a + s) is not None or _nonpositive_int_near(a + t) is not None:
        return 0j
    return _exp(_ln_limit(s, t, pc, a, psi_a, two_lgamma_a), p, q)


def w_inf(p: complex, q: complex) -> complex:
    """Limit of ``W_n(p, q)`` as n grows.

    Returns exact ``0j`` when a gamma argument ``1 + (p +- D)/2`` sits on
    a pole: the reciprocal gamma vanishes there, i.e. the infinite
    product converges to zero through a vanishing factor.
    """
    return _limit(p, q, 1, 1, _PSI_ONE, _TWO_LGAMMA_ONE)


def r_inf(p: complex, q: complex) -> complex:
    """Limit of ``R_n(p, q)`` as n grows; zero flag on gamma poles as in :func:`w_inf`."""
    return _limit(p, q, 0.5, 2, _PSI_HALF, _TWO_LGAMMA_HALF)


# ---------------------------------------------------------------------------
# Finite closed forms
# ---------------------------------------------------------------------------

def _log1p(w: complex) -> complex:
    # principal log(1 + w), without rounding 1 + w when w is small
    if abs(w) < 0.5:
        x, y = w.real, w.imag
        return complex(math.log1p(x * (2.0 + x) + y * y) / 2, math.atan2(y, 1.0 + x))
    return cmath.log(1 + w)


def _log_rising(a: complex, n: int) -> complex:
    """Log of ``prod_{k=0}^{n-1} (a + k)`` up to a multiple of 2 pi i.

    The caller has ruled out a zero factor.  When ``a`` is within
    tolerance of a nonpositive integer beyond the product range, the gamma
    ratio is a removable 0/0 and the logs are summed directly.
    """
    if _nonpositive_int_near(a) is not None:
        logs = [cmath.log(a + j) for j in range(n)]
        return complex(math.fsum(z.real for z in logs), math.fsum(z.imag for z in logs))
    return ln_gamma(a + n) - ln_gamma(a)


def _closed(name: str, n: int, p: complex, q: complex, a: float, c: int,
            psi_a: complex, two_lgamma_a: complex) -> complex:
    # ln P_n of the module docstring at offset a and scale c; ``name`` labels the warning
    if n < 1:
        raise ValueError("n must be >= 1")
    p = complex(p)
    q = complex(q)
    s, t, pc = _roots(p, q, c)

    for root in (s, t):
        pole = _nonpositive_int_near(a + root)
        if pole is not None and -pole + 1 <= n:
            warnings.warn(f"{name}_{n}({p}, {q}) has a zero factor at j = {-pole + 1}",
                          RuntimeWarning, stacklevel=3)
            return 0j

    z = complex(n + a)
    if min(z.real, (z + s).real, (z + t).real) >= _SHIFT_RE:
        # ln P_inf - (p/c) psi(z) + sum_r lnGamma(z + r) - 2 lnGamma(z), where the r ln z parts
        # of lnGamma(z + r) - lnGamma(z) sum to (p/c) ln z and cancel against psi(z)'s; both
        # real parts are positive, so log1p(r/z) is the principal ln(z + r) - ln z
        total = (_ln_limit(s, t, pc, a, psi_a, two_lgamma_a) - pc * _digamma_minus_log(z)
                 - 2 * _lngamma_tail(z)
                 + sum((z + r - 0.5) * _log1p(r / z) - r + _lngamma_tail(z + r) for r in (s, t)))
    else:
        total = (-pc * (digamma(z) - psi_a) + two_lgamma_a
                 + _log_rising(a + s, n) + _log_rising(a + t, n) - 2 * ln_gamma(z))
    return _exp(total, p, q)


def w_closed(n: int, p: complex, q: complex) -> complex:
    """Gamma-ratio closed form of the finite product ``W_n(p, q)``.

    When some factor ``1 + p/j + q/j^2`` vanishes for ``j <= n`` the
    product is exactly zero; a zero is returned and a RuntimeWarning
    carries the factor index.  Against mpmath, on 200 seeded points with
    ``n`` log-uniform in 1..10^6 and complex ``|p|, |q| <= 10``, the worst
    relative error of this and :func:`r_closed` is 1.9e-14 (1.7e-14 for
    ``n > 255``); a factor within ``eps`` of zero adds about ``1e-17/eps``.
    """
    return _closed("W", n, p, q, 1, 1, _PSI_ONE, _TWO_LGAMMA_ONE)


def r_closed(n: int, p: complex, q: complex) -> complex:
    """Gamma-ratio closed form of the odd-denominator product ``R_n(p, q)``."""
    return _closed("R", n, p, q, 0.5, 2, _PSI_HALF, _TWO_LGAMMA_HALF)


def ser_partial(terms: int) -> float:
    """Partial product of Ser's radical representation of ``e^gamma``.

    Factor ``m`` is ``(prod_{k=0}^{m} (k+1)^((-1)^(k+1) C(m,k)))^(1/(m+1))``;
    each factor is accumulated in log space with exact summation.

    Domain: ``1 <= terms <= 17``, where the result is within 1e-12
    relative; other counts raise ``ValueError``.  The inner sum alternates
    binomially weighted logs, so the rounding of each ``C(m, k) log(k+1)``
    is magnified by about ``2^m`` against the tiny result: against a
    60-digit reference the relative error is 1.5e-14 at 12 terms, 7.1e-13
    at 17, 1.3e-12 at 18, 6.7e-10 at 30 and 10% at 60, and by 100 terms the
    accumulated error overflows ``exp``.
    """
    if not 1 <= terms <= 17:
        raise ValueError(f"terms must be in 1..17, got {terms}")
    factor_logs = []
    for m in range(1, terms + 1):
        inner = math.fsum(
            ((-1) ** (k + 1)) * math.comb(m, k) * math.log(k + 1.0)
            for k in range(m + 1)
        )
        factor_logs.append(inner / (m + 1))
    return math.exp(math.fsum(factor_logs))
