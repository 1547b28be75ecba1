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
``ln_gamma`` uses the Stirling series, whose coefficients are the exact
Euler–Maclaurin weights of ``bernoulli._em_weight``, after shifting the
argument to ``Re z >= 12`` with principal logs; this yields the principal
branch everywhere off the cut (the identity
``lnGamma(z) = lnGamma(z+m) - sum log(z+k)`` holds exactly there) and
keeps the relative error a couple of decades below the 1e-13 contract.
Every shift's ``m`` logs (``ln_gamma``) or reciprocals (``digamma``) go into
one ``_fsum_complex``; both Stirling tails are one Horner evaluation in ``1/w^2``.

Domain: every gamma argument has ``Re >= -10^6``.  A shift takes about
``|Re|`` steps, so the edge bounds it at about a million (0.3 s); further
left ``ValueError`` names the argument.  The limits are the closed forms at
``n = inf``.  For a root on a gamma pole or past the edge, an exactly zero
factor ``j <= n`` found by ``products._zero_factor_at`` gives ``0j`` (a
closed form also warns), and any other root on a pole (a gamma ratio of
0/0) the product of ``products`` on that module's domain.

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
import operator
import sys
import warnings

from .bernoulli import _count, _em_weight, _pair

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
# the domain's left edge (see the module docstring); each of the about |Re| steps of
# a shift holds one log or reciprocal in a list
_MIN_RE = -1e6
_HALF_LN_2PI = 0.5 * math.log(2.0 * math.pi)
_REAL = operator.attrgetter("real")
_IMAG = operator.attrgetter("imag")

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

# Stirling tail coefficients B_{2n} / (2n (2n-1)) and B_{2n} / (2n), n = 16 down
# to 1 (Horner order): the exact Euler–Maclaurin weights at k = 0 and k = 1.
_LNGAMMA_COEFFS = tuple(float(_em_weight(0, n)) for n in range(16, 0, -1))
_DIGAMMA_COEFFS = tuple(float(_em_weight(1, n)) for n in range(16, 0, -1))


class PoleError(ArithmeticError):
    """Argument is (within 1e-12 of) a pole of the gamma/digamma functions."""


def _nonpositive_int_near(z: complex) -> int | None:
    """The nonpositive integer within the pole tolerance of ``z``, if any."""
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


def _gamma_arg(z: complex, name: str) -> complex:
    # the argument of ln_gamma or digamma as a complex, checked finite and off the poles
    z = complex(z)
    if _nonpositive_int_near(z) is not None:
        raise PoleError(f"{name} pole at z = {z}")
    return z


def _shift_steps(z: complex) -> int:
    # the m >= 0 with Re(z + m) >= _SHIFT_RE, where the Stirling tails hold
    if z.real < _MIN_RE:
        raise ValueError(f"gamma argument {z} is outside the domain Re >= -1e6")
    return int(math.ceil(_SHIFT_RE - z.real)) if z.real < _SHIFT_RE else 0


def _fsum_complex(terms: list[complex]) -> complex:
    # each part rounded once, so the m logs or reciprocals of a shift lose nothing to order
    return complex(math.fsum(map(_REAL, terms)), math.fsum(map(_IMAG, terms)))


def _horner(coeffs: tuple[float, ...], x: complex) -> complex:
    # the polynomial in x whose coefficients are listed highest power first
    total = 0j
    for c in coeffs:
        total = total * x + c
    return total


def ln_gamma(z: complex) -> complex:
    """Principal branch of ``ln Gamma(z)`` for complex ``z``.

    Raises :class:`PoleError` within 1e-12 of a nonpositive integer and
    ``ValueError`` for a NaN or infinite ``z`` or for ``Re z < -10^6``.
    """
    z = _gamma_arg(z, "ln_gamma")
    steps = _shift_steps(z)
    w = z + steps
    value = (w - 0.5) * cmath.log(w) - w + _HALF_LN_2PI + _lngamma_tail(w)
    if steps:  # lnGamma(z) = lnGamma(z + m) - sum_k log(z + k)
        value -= _fsum_complex([cmath.log(z + k) for k in range(steps)])
    return value


def _lngamma_tail(w: complex) -> complex:
    # sum_k B_2k / (2k (2k-1) w^(2k-1)), the Stirling tail of lnGamma(w) for Re(w) >= _SHIFT_RE
    inv = 1.0 / w
    return _horner(_LNGAMMA_COEFFS, inv * inv) * inv


def digamma(z: complex) -> complex:
    """Digamma ``psi(z)`` for complex ``z`` (relative error well under 1e-12).

    Raises as :func:`ln_gamma` does, on the same domain.
    """
    z = _gamma_arg(z, "digamma")
    steps = _shift_steps(z)
    w = z + steps
    value = cmath.log(w) + _digamma_minus_log(w)
    if steps:  # psi(z) = psi(z + m) - sum_k 1/(z + k)
        value -= _fsum_complex([1.0 / (z + k) for k in range(steps)])
    return value


def _digamma_minus_log(w: complex) -> complex:
    # psi(w) - ln(w) for Re(w) >= _SHIFT_RE; free of the ln-scale rounding
    inv = 1.0 / w
    inv2 = inv * inv
    return -0.5 * inv - _horner(_DIGAMMA_COEFFS, inv2) * inv2


def delta(p: complex, q: complex) -> complex:
    """Principal square root of ``p^2 - 4q``.

    Branch cut on the negative real axis: the result has nonnegative
    real part, and nonnegative imaginary part when the real part is 0.
    Raises ``ValueError`` unless ``p`` and ``q`` are finite, and naming them
    when ``p^2 - 4q`` leaves the double range (``|p|`` above about 1.3e154).
    """
    return _delta(*_pair(p, q))


def _delta(p: complex, q: complex) -> complex:
    d = p * p - 4 * q
    if not cmath.isfinite(d):
        raise ValueError(f"p^2 - 4q leaves the double range at p = {p}, q = {q}")
    if d.imag == 0.0:
        d = complex(d.real, 0.0)  # normalize -0.0 so the cut side is fixed
    return cmath.sqrt(d)


def wilf_constant() -> float:
    """``(e^(pi/2) + e^(-pi/2)) / (pi e^gamma)``, the limit of W_n(1, 1/2)."""
    return (math.exp(math.pi / 2) + math.exp(-math.pi / 2)) / (math.pi * EXP_EULER_GAMMA)


def _roots(p: complex, q: complex, c: int) -> tuple[complex, complex, complex]:
    # the scaled roots s, t = (p +- D) / (2c) and p/c, on (p, q) checked by _pair
    d = _delta(p, q)
    return (p + d) / (2 * c), (p - d) / (2 * c), complex(p.real / c, p.imag / c)


def _ln_limit(s: complex, t: complex, pc: complex, a: float,
              psi_a: complex, two_lgamma_a: complex) -> complex:
    # ln P_inf of the module docstring; a + s and a + t must be off the poles
    return pc * psi_a + two_lgamma_a - ln_gamma(a + s) - ln_gamma(a + t)


def _exp(total: complex, p: complex, q: complex) -> complex:
    # the one exponentiation of the limits and closed forms: real (p, q) give a real value
    value = cmath.exp(total)
    return complex(value.real, 0.0) if p.imag == 0.0 and q.imag == 0.0 else value


# ---------------------------------------------------------------------------
# The closed forms and their limits
# ---------------------------------------------------------------------------

def _log1p(w: complex) -> complex:
    # principal log(1 + w), without rounding 1 + w when w is small
    if abs(w) < 0.5:
        x, y = w.real, w.imag
        return complex(math.log1p(x * (2.0 + x) + y * y) / 2, math.atan2(y, 1.0 + x))
    return cmath.log(1 + w)


def _closed(name: str, n: int | float, p: complex, q: complex, a: float, c: int,
            psi_a: complex, two_lgamma_a: complex) -> complex:
    # P_n of the module docstring at offset a and scale c, the limit at n = inf; ``name``
    # labels a closed form's zero warning
    p, q = _pair(p, q)
    s, t, pc = _roots(p, q, c)

    on_pole = _nonpositive_int_near(a + s) is not None or _nonpositive_int_near(a + t) is not None
    if on_pole or a + t.real < _MIN_RE:
        # a gamma ratio of 0/0, or a root left of the shift domain (Re t <= Re s, as Re D >= 0):
        # the roots show any exactly zero factor, and on a pole the product decides the rest
        from . import products
        j = products._zero_factor_at(c, p, q, n)
        if j is not None:
            if n < math.inf:
                warnings.warn(f"{name}_{n}({p}, {q}) has a zero factor at j = {j}",
                              RuntimeWarning, stacklevel=3)
            return 0j
        if on_pole:
            return products._product(n, c, p, q).value

    if n > sys.float_info.max:  # n = inf, or n past the double range: the product is its limit
        return _exp(_ln_limit(s, t, pc, a, psi_a, two_lgamma_a), p, q)
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
                 + (ln_gamma(a + s + n) - ln_gamma(a + s))
                 + (ln_gamma(a + t + n) - ln_gamma(a + t)) - 2 * ln_gamma(z))
    return _exp(total, p, q)


def w_closed(n: int, p: complex, q: complex) -> complex:
    """Gamma-ratio closed form of the finite product ``W_n(p, q)``.

    A factor ``1 + p/j + q/j^2`` that is exactly zero for some ``j <= n``
    gives ``0j`` and a RuntimeWarning with the factor index; any other root
    within 1e-12 of a gamma pole gives the value of ``w_product``, under its
    head bound.  An ``n`` past the double range gives the limit
    :func:`w_inf`, as the products do.  The module docstring gives the accuracy.
    """
    return _closed("W", _count(n, "n"), p, q, 1, 1, _PSI_ONE, _TWO_LGAMMA_ONE)


def r_closed(n: int, p: complex, q: complex) -> complex:
    """Gamma-ratio closed form of the odd-denominator product ``R_n(p, q)``."""
    return _closed("R", _count(n, "n"), p, q, 0.5, 2, _PSI_HALF, _TWO_LGAMMA_HALF)


def w_inf(p: complex, q: complex) -> complex:
    """Limit of ``W_n(p, q)`` as n grows: :func:`w_closed` at ``n = inf``.

    An exactly zero factor gives ``0j`` with no warning; any other root
    within 1e-12 of a gamma pole gives the product oracle's value, its zeta
    tail run to infinity, under the products' head bound.
    """
    return _closed("W", math.inf, p, q, 1, 1, _PSI_ONE, _TWO_LGAMMA_ONE)


def r_inf(p: complex, q: complex) -> complex:
    """Limit of ``R_n(p, q)`` as n grows: :func:`r_closed` at ``n = inf``, as :func:`w_inf`."""
    return _closed("R", math.inf, p, q, 0.5, 2, _PSI_HALF, _TWO_LGAMMA_HALF)


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
    terms = _count(terms, "terms", 1, 17)
    factor_logs = []
    for m in range(1, terms + 1):
        inner = math.fsum(
            ((-1) ** (k + 1)) * math.comb(m, k) * math.log(k + 1.0)
            for k in range(m + 1)
        )
        factor_logs.append(inner / (m + 1))
    return math.exp(math.fsum(factor_logs))
