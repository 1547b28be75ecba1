"""Digests of exact rationals, bivariate polynomials and pairs of them.

The canonical form writes integers as signed big-endian bytes, never as
decimal strings: alpha_beta entries exceed Python's int-to-str digit limit.
"""

import hashlib
from fractions import Fraction


def _int_bytes(n: int) -> bytes:
    # no str(): alpha_beta entries exceed the int-to-str digit limit
    return n.to_bytes(n.bit_length() // 8 + 1, "big", signed=True)


def _canon(x) -> bytes:
    if isinstance(x, Fraction):
        return _int_bytes(x.numerator) + b"/" + _int_bytes(x.denominator)
    if isinstance(x, tuple):
        return b"(" + b",".join(_canon(v) for v in x) + b")"
    if hasattr(x, "terms"):  # BiPoly
        return b";".join(b"%d,%d:" % k + _canon(v) for k, v in sorted(x.terms.items()))
    raise TypeError(f"no canonical form for {type(x).__name__}")


def digest(x) -> str:
    return hashlib.sha256(_canon(x)).hexdigest()[:16]
