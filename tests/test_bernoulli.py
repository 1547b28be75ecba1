"""Exact Bernoulli machinery against independent oracles.

The implementation uses the integer tangent-number recurrence; the
oracles here are the Akiyama-Tanigawa triangle, the binomial-sum
recurrence and a power-series reciprocal, none of which shares code
with the implementation.
"""

import functools
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wallisprod.bernoulli import (
    BernoulliTable,
    UniPoly,
    bernoulli_number,
    bernoulli_poly,
    format_rational,
)


def bernoulli_by_series_inversion(count: int) -> list[Fraction]:
    """B_0..B_count from inverting the series (e^z - 1)/z = sum z^k/(k+1)!.

    If f = sum a_k z^k with a_0 = 1, the reciprocal g = 1/f satisfies
    g_0 = 1 and g_n = -sum_{k=1..n} a_k g_{n-k}.  Then B_n = n! g_n.
    """
    a = [Fraction(1, math.factorial(k + 1)) for k in range(count + 1)]
    g = [Fraction(1)]
    for n in range(1, count + 1):
        g.append(-sum(a[k] * g[n - k] for k in range(1, n + 1)))
    return [math.factorial(n) * g[n] for n in range(count + 1)]


@functools.lru_cache(maxsize=None)
def bernoulli_by_akiyama_tanigawa(count: int) -> tuple[Fraction, ...]:
    """B_0..B_count from the Akiyama-Tanigawa triangle.

    The triangle yields the ``B_1 = +1/2`` convention, so index 1 is
    flipped to match the library's ``B_1 = -1/2``.
    """
    row: list[Fraction] = []
    out = []
    for m in range(count + 1):
        row.append(Fraction(1, m + 1))
        for j in range(m, 0, -1):
            row[j - 1] = j * (row[j - 1] - row[j])
        out.append(-row[0] if m == 1 else row[0])
    return tuple(out)


def horner(poly: UniPoly, z: complex) -> complex:
    """Value of ``poly`` at a complex point in doubles; the complex oracle of the coefficient tests."""
    acc = 0j
    for c in reversed(poly.coeffs):
        acc = acc * z + float(c)
    return acc


def poly_from_numbers(n: int, numbers) -> UniPoly:
    return UniPoly(tuple(math.comb(n, k) * numbers[n - k] for k in range(n + 1)))


class TestBernoulliNumbers:
    def test_b0(self):
        assert bernoulli_number(0) == 1

    def test_b1_convention(self):
        assert bernoulli_number(1) == Fraction(-1, 2)

    def test_recurrence_oracle_values(self):
        # solve the recurrence sum_{k<=n} C(n+1,k) B_k = 0 independently
        b = [Fraction(1)]
        for n in range(1, 13):
            s = sum(math.comb(n + 1, k) * b[k] for k in range(n))
            b.append(-s / math.comb(n + 1, n))
        assert bernoulli_number(2) == b[2] == Fraction(1, 6)
        assert bernoulli_number(12) == b[12] == Fraction(-691, 2730)

    def test_recurrence_holds_to_30(self):
        for n in range(1, 31):
            assert sum(math.comb(n + 1, k) * bernoulli_number(k) for k in range(n + 1)) == 0

    def test_series_inversion_oracle(self):
        ref = bernoulli_by_series_inversion(24)
        # the reciprocal-series route natively gives B_1 = -1/2
        assert [bernoulli_number(n) for n in range(25)] == ref

    def test_odd_vanish(self):
        for k in range(1, 16):
            assert bernoulli_number(2 * k + 1) == 0

    def test_akiyama_tanigawa_oracle_to_256(self):
        ref = bernoulli_by_akiyama_tanigawa(300)
        assert [bernoulli_number(n) for n in range(257)] == list(ref[:257])

    def test_fresh_table_one_index_at_a_time_to_300(self):
        # callers ask for n = 1, 2, 3, ... in turn; each answer must be
        # exact whatever the table's size at the time of the request
        ref = bernoulli_by_akiyama_tanigawa(300)
        table = BernoulliTable()
        for n in range(1, 301):
            assert table.number(n) == ref[n]
            assert table.polynomial(n) == poly_from_numbers(n, ref)

    def test_fresh_table_grows_monotonically(self):
        table = BernoulliTable()
        assert table.number(12) == Fraction(-691, 2730)
        assert table.number(2) == Fraction(1, 6)
        assert table.polynomial(4).evaluate(0) == table.number(4)


class TestBernoulliPolynomials:
    def test_b0_poly(self):
        assert bernoulli_poly(0).coeffs == (Fraction(1),)

    def test_b2_poly(self):
        assert bernoulli_poly(2).coeffs == (Fraction(1, 6), Fraction(-1), Fraction(1))

    def test_value_at_zero_is_number(self):
        for n in range(0, 31):
            assert bernoulli_poly(n).evaluate(0) == bernoulli_number(n)

    def test_generating_function_oracle(self):
        # coefficient of z^n in z e^{tz}/(e^z - 1), assembled from the
        # independently inverted series: B_n(t)/n! = sum_k g_{n-k} t^k / k!
        ref_numbers = bernoulli_by_series_inversion(12)
        for n in range(13):
            coeffs = [
                Fraction(math.factorial(n), math.factorial(k) * math.factorial(n - k))
                * ref_numbers[n - k]
                for k in range(n + 1)
            ]
            assert bernoulli_poly(n) == UniPoly(tuple(coeffs))


class TestEvaluation:
    def test_half_argument(self):
        assert bernoulli_poly(2).evaluate(Fraction(1, 2)) == Fraction(-1, 12)

    def test_b3_at_one(self):
        assert bernoulli_poly(3).evaluate(1) == 0

    def test_zero_poly(self):
        assert UniPoly(()).evaluate(Fraction(7, 3)) == 0

    def test_complex_b1_at_i(self):
        assert horner(bernoulli_poly(1), 1j) == complex(-0.5, 1.0)

    def test_complex_constant_term(self):
        assert horner(bernoulli_poly(2), 0j) == pytest.approx(1 / 6, rel=1e-15)

    def test_complex_matches_exact(self):
        exact = float(bernoulli_poly(4).evaluate(2))
        approx = horner(bernoulli_poly(4), complex(2, 0))
        assert approx.imag == 0
        assert approx.real == pytest.approx(exact, rel=1e-13)

    def test_overflowing_coefficient_raises(self):
        # a coefficient past the double range is refused, not turned into inf
        with pytest.raises(OverflowError):
            horner(UniPoly((Fraction(10**400),)), 1 + 0j)


_small_fractions = st.fractions(
    min_value=Fraction(-3), max_value=Fraction(3), max_denominator=12
)


@given(n=st.integers(min_value=0, max_value=30), x=_small_fractions)
@settings(max_examples=60, deadline=None)
def test_reflection_property(n, x):
    poly = bernoulli_poly(n)
    assert poly.evaluate(1 - x) == (-1) ** n * poly.evaluate(x)


@given(n=st.integers(min_value=0, max_value=30), x=_small_fractions)
@settings(max_examples=60, deadline=None)
def test_shift_property(n, x):
    poly = bernoulli_poly(n)
    power = x ** (n - 1) if n >= 1 else Fraction(0)
    assert (-1) ** n * poly.evaluate(-x) == poly.evaluate(x) + n * power


def test_half_argument_to_30():
    for n in range(1, 31):
        expected = -(1 - Fraction(1, 2 ** (n - 1))) * bernoulli_number(n)
        assert bernoulli_poly(n).evaluate(Fraction(1, 2)) == expected


class TestRationalSerialization:
    def test_format(self):
        assert format_rational(Fraction(-691, 2730)) == "-691/2730"
        assert format_rational(Fraction(5)) == "5"

    def test_round_trip(self):
        # the printed form reads back exactly, as a user of the CLI's output reads it
        for v in (Fraction(-691, 2730), Fraction(0), Fraction(7), Fraction(22, 7)):
            assert Fraction(format_rational(v)) == v


def test_unipoly_normalizes_trailing_zeros():
    assert UniPoly((Fraction(1), Fraction(0), Fraction(0))).coeffs == (Fraction(1),)
    assert UniPoly((Fraction(0),)).coeffs == ()
