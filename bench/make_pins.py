"""Write ``pins.json``: per-entry digests of every exact coefficient the workloads check.

Run from the repository root with ``python3 bench/make_pins.py``.  Before it
writes anything it checks the library's values against routes that do not
share its code: Bernoulli numbers and polynomials from sympy, ``mu`` by an
independent exponential composition, ``alpha_beta`` by re-expanding the
shifted series in ``1/n``, and ``omega`` against ``omega_alt``.
"""

from __future__ import annotations

import json
import os
import sys
from fractions import Fraction
from math import comb

import sympy

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import wallisprod as W  # noqa: E402
from digests import digest  # noqa: E402

BERNOULLI_MAX, POLY_MAX, SERIES_MAX, OMEGA_MAX, AB_MAX = 241, 30, 240, 100, 12


def _bern(n: int) -> Fraction:
    b = Fraction(str(sympy.bernoulli(n)))
    return -b if n == 1 else b  # sympy uses B_1 = +1/2


def _bern_poly(n: int, x: Fraction) -> Fraction:
    return Fraction(str(sympy.bernoulli(n, sympy.Rational(x.numerator, x.denominator))))


def _coeff_at(j: int, mu: Fraction, nu: Fraction, half: bool) -> Fraction:
    """a_j (or b_j when ``half``) at p = mu + nu, q = mu nu, from its defining formula."""
    lam, m, n = (Fraction(1, 2), mu / 2, nu / 2) if half else (Fraction(1), mu, nu)
    p = mu + nu
    pair = _bern_poly(j + 1, m) + _bern_poly(j + 1, n) - 2 * _bern(j + 1)
    if j == 1:
        return (lam * p + pair) / 2
    return lam * p * _bern(j) / j + (-1) ** (j + 1) * pair / (j * (j + 1))


def _check(cond: bool, what: str) -> None:
    if not cond:
        raise SystemExit(f"make_pins: library disagrees with the independent route: {what}")


def main() -> None:
    numbers = [W.bernoulli_number(n) for n in range(BERNOULLI_MAX + 1)]
    _check(numbers == [_bern(n) for n in range(BERNOULLI_MAX + 1)], "Bernoulli numbers")

    points = [(Fraction(1, 3), Fraction(2, 5)), (Fraction(-7, 4), Fraction(3, 2)),
              (Fraction(5, 2), Fraction(-1, 6))]
    for j in range(1, POLY_MAX + 1):
        for mu, nu in points:
            p, q = mu + nu, mu * nu
            _check(W.a_poly(j).evaluate_exact(p, q) == _coeff_at(j, mu, nu, False), f"a_{j}")
            _check(W.b_poly(j).evaluate_exact(p, q) == _coeff_at(j, mu, nu, True), f"b_{j}")

    nu = W.wallis_nu(SERIES_MAX).values
    half, three_half = Fraction(1, 2), Fraction(3, 2)
    for j in range(1, SERIES_MAX + 1):
        raw = (2 * _bern(j + 1) - _bern_poly(j + 1, half) - _bern_poly(j + 1, three_half))
        _check(nu[j - 1] == (-1) ** (j + 1) * raw / (j * (j + 1)), f"nu_{j}")

    mu = W.wallis_mu(SERIES_MAX).values
    b = [Fraction(1)]
    for n in range(1, SERIES_MAX + 1):
        b.append(sum(k * nu[k - 1] * b[n - k] for k in range(1, n + 1)) / n)
    _check(list(mu) == b[1:], "mu from exp(sum nu_j / n^j)")

    ab = W.alpha_beta(AB_MAX).values
    series = [Fraction(0)] * (2 * AB_MAX + 1)
    for level, (alpha, beta) in enumerate(ab, start=1):
        m = 2 * level - 1
        for k in range(0, 2 * AB_MAX + 1 - m):
            # (n + beta)^-m = sum_k C(-m, k) beta^k n^(-m-k)
            series[m + k] += alpha * (-1) ** k * comb(m + k - 1, k) * beta**k
    _check(series[1:] == list(mu[:2 * AB_MAX]), "alpha_beta re-expanded in 1/n")

    omega = W.omega(OMEGA_MAX).values
    _check(omega == W.omega_alt(OMEGA_MAX).values, "omega == omega_alt")

    pins = {
        "bernoulli": [digest(x) for x in numbers],
        "a_poly": [digest(W.a_poly(j)) for j in range(1, POLY_MAX + 1)],
        "b_poly": [digest(W.b_poly(j)) for j in range(1, POLY_MAX + 1)],
        "nu": [digest(x) for x in nu],
        "mu": [digest(x) for x in mu],
        "omega": [digest(x) for x in omega],
        "alpha_beta": [digest(x) for x in ab],
    }
    with open(os.path.join(HERE, "pins.json"), "w") as fh:
        json.dump(pins, fh, indent=0)
        fh.write("\n")


if __name__ == "__main__":
    main()
