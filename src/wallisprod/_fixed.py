"""Fixed-point kernels on integers; the standard library only, no package module.

A real x is held at precision ``bits`` as an integer X near x 2^bits, with
an integer bound on |X - x 2^bits| in units of 2^-bits.  :func:`_log_ratio`
is the package's one log of a positive rational.
"""

import functools
from fractions import Fraction

_EXP_MAX = 1024  # largest exp argument; the float evaluator overflows past 709.78
_LOG_BITS = 160  # working precision of _log_ratio before Ziv's doublings


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
    """``ln(a / b)`` for ``a, b > 0``, correctly rounded to a double.

    With ``a / b = 2^k m``, ``1/2 <= m <= 2`` and ``k = 0`` whenever
    ``a / b`` itself lies there, the log is ``k ln 2 + 2 atanh(t)`` with
    ``t = (m - 1) / (m + 1)`` within 1/3.  Both series are summed at
    ``_LOG_BITS`` bits plus the leading zero bits of ``t``, so a log near 0
    keeps as many significant bits, and the sum carries an error bound; the
    bits double until both ends of the bound round to the same double
    (Ziv's strategy), which only a log within about ``2^-150`` of a
    rounding boundary needs.  A double ratio would cost up to an ulp of the log.
    """
    r = a / b
    num, den = r.numerator, r.denominator
    if num == den:
        return 0.0
    k = 0 if den <= 2 * num <= 4 * den else num.bit_length() - den.bit_length()
    if k >= 0:
        den <<= k
    else:
        num <<= -k
    bits = _LOG_BITS + (num + den).bit_length() - abs(num - den).bit_length()
    while True:
        value = 2 * _atanh_scaled(_div_round((num - den) << bits, num + den), bits)
        if k:
            value += 2 * k * _atanh_scaled(_div_round(1 << bits, 3), bits)
        # each atanh is within 2 terms + 1 units, with at most bits / 3 + 1 terms,
        # plus under a unit from rounding its argument; doubled for the log
        err = (abs(k) + 1) * (2 * bits + 8)
        # int / int rounds correctly, as float(Fraction) does
        low, high = (value - err) / (1 << bits), (value + err) / (1 << bits)
        if low == high:
            return low
        bits *= 2


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
