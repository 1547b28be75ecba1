"""Exact Bernoulli machinery against independent oracles.

The implementation uses the integer tangent-number recurrence; the
oracles here are the Akiyama-Tanigawa triangle, the binomial-sum
recurrence and a power-series reciprocal, none of which shares code
with the implementation.  The Bernoulli polynomial values of the private
``_poly_values`` are checked against coefficient lists built here, and the
Euler–Maclaurin weights of ``_em_weight`` against their closed forms in
the Akiyama-Tanigawa numbers.
"""

import functools
import math
import random
import threading
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wallisprod import bernoulli
from wallisprod.bernoulli import _CAPS, _em_weight, _poly_values, bernoulli_number, format_rational
from wallisprod.coeffs import cache_sizes


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


def horner(coeffs, z: complex) -> complex:
    """Value at a complex point, in doubles, of the polynomial ``sum coeffs[k] t^k``;
    the complex oracle of the coefficient tests."""
    acc = 0j
    for c in reversed(coeffs):
        acc = acc * z + float(c)
    return acc


def exact_horner(coeffs, x: Fraction) -> Fraction:
    """Exact value at a rational point of the polynomial ``sum coeffs[k] t^k``."""
    acc = Fraction(0)
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def poly_from_numbers(n: int, numbers) -> tuple[Fraction, ...]:
    """Coefficients of ``B_n(t) = sum_k C(n, k) B_(n-k) t^k``, lowest degree first."""
    return tuple(math.comb(n, k) * numbers[n - k] for k in range(n + 1))


def bernoulli_coeffs(n: int) -> tuple[Fraction, ...]:
    """Coefficients of ``B_n(t)`` from the library's Bernoulli numbers."""
    return poly_from_numbers(n, [bernoulli_number(k) for k in range(n + 1)])


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

    def test_fresh_table_one_index_at_a_time_to_300(self, cold_bernoulli):
        # callers ask for n = 1, 2, 3, ... in turn; each answer must be
        # exact whatever the table's size at the time of the request
        ref = bernoulli_by_akiyama_tanigawa(300)
        points = (Fraction(1, 3), Fraction(-5, 2))
        for n in range(1, 301):
            assert bernoulli_number(n) == ref[n]
            coeffs = poly_from_numbers(n, ref)
            assert _poly_values(n, points) == [exact_horner(coeffs, x) for x in points]

    def test_fresh_table_grows_monotonically(self, cold_bernoulli):
        assert bernoulli_number(12) == Fraction(-691, 2730)
        assert bernoulli_number(2) == Fraction(1, 6)
        assert _poly_values(4, [0]) == [bernoulli_number(4)]

    def test_cached_read_does_not_wait_for_the_lock(self):
        # entries are only appended, so a cached one is read while a build holds the lock
        expected = bernoulli_by_akiyama_tanigawa(300)[40]
        assert bernoulli_number(40) == expected
        held, release = threading.Event(), threading.Event()

        def hold():
            with bernoulli._LOCK:
                held.set()
                release.wait(timeout=60)

        got = []
        holder = threading.Thread(target=hold)
        reader = threading.Thread(target=lambda: got.append(bernoulli_number(40)))
        holder.start()
        try:
            assert held.wait(timeout=60)
            reader.start()
            reader.join(timeout=10)
            assert not reader.is_alive()
        finally:
            release.set()
            holder.join(timeout=60)
            reader.join(timeout=60)
        assert not holder.is_alive()
        assert got == [expected]


class TestDomain:
    CAP = bernoulli._CAPS["bernoulli"]

    def refusals(self):
        out = []
        for bad in (2.0, -1, self.CAP + 1):
            with pytest.raises((TypeError, ValueError)) as info:
                bernoulli_number(bad)
            out.append((type(info.value), str(info.value)))
        return out

    def test_cold_and_warm_tables_refuse_alike(self, cold_bernoulli):
        cold = self.refusals()
        assert cache_sizes()["bernoulli"] == 0  # refused before any work
        assert [e for e, _ in cold] == [TypeError, ValueError, ValueError]
        assert cold[2][1] == f"Bernoulli index must be in 0..{self.CAP}"
        bernoulli_number(1001)  # 1002 entries
        bernoulli_number(1002)  # a rebuild doubles the table, but stops at the cap
        assert cache_sizes()["bernoulli"] == self.CAP + 1
        assert self.refusals() == cold
        assert cache_sizes()["bernoulli"] == self.CAP + 1


class TestEulerMaclaurinWeight:
    """``_em_weight(k, m) = B_2m/(2m)! (k+1)...(k+2m-2)`` against its closed forms."""

    numbers = bernoulli_by_akiyama_tanigawa(32)

    def test_stirling_coefficients_of_ln_gamma(self):
        for m in range(1, 17):
            assert _em_weight(0, m) == self.numbers[2 * m] / (2 * m * (2 * m - 1)), m

    def test_stirling_coefficients_of_digamma(self):
        for m in range(1, 17):
            assert _em_weight(1, m) == self.numbers[2 * m] / (2 * m), m

    def test_hurwitz_zeta_weights(self):
        # k times the weight is the coefficient of a^(1-k-2m) in zeta(k, a)
        for k in (*range(2, 29), 40, 101):
            for m in range(1, 17):
                rising = math.prod(k + i for i in range(2 * m - 1))  # k (k+1) ... (k+2m-2)
                want = self.numbers[2 * m] / math.factorial(2 * m) * rising
                assert k * _em_weight(k, m) == want, (k, m)


class TestBernoulliPolynomials:
    points = (Fraction(0), Fraction(1), Fraction(7, 3), Fraction(-2))

    def test_b0_poly(self):
        assert _poly_values(0, self.points) == [1, 1, 1, 1]

    def test_b2_poly(self):
        # B_2(t) = t^2 - t + 1/6
        assert _poly_values(2, self.points) == [x * x - x + Fraction(1, 6) for x in self.points]

    def test_value_at_zero_is_number(self):
        for n in range(0, 31):
            assert _poly_values(n, [0]) == [bernoulli_number(n)]

    def test_values_are_exact_fractions(self):
        assert all(type(v) is Fraction for v in _poly_values(3, [0, 2, Fraction(1, 2)]))
        with pytest.raises(ValueError):
            _poly_values(-1, [0])

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
            # two polynomials of degree n that agree at n + 1 points are equal
            points = range(n + 1)
            assert _poly_values(n, points) == [exact_horner(coeffs, x) for x in points]


class TestEvaluation:
    def test_half_argument(self):
        assert _poly_values(2, [Fraction(1, 2)]) == [Fraction(-1, 12)]

    def test_b3_at_one(self):
        assert _poly_values(3, [1]) == [0]

    def test_complex_b1_at_i(self):
        assert horner(bernoulli_coeffs(1), 1j) == complex(-0.5, 1.0)

    def test_complex_constant_term(self):
        assert horner(bernoulli_coeffs(2), 0j) == pytest.approx(1 / 6, rel=1e-15)

    def test_complex_matches_exact(self):
        exact = float(_poly_values(4, [2])[0])
        approx = horner(bernoulli_coeffs(4), complex(2, 0))
        assert approx.imag == 0
        assert approx.real == pytest.approx(exact, rel=1e-13)

    def test_overflowing_coefficient_raises(self):
        # a coefficient past the double range is refused, not turned into inf
        with pytest.raises(OverflowError):
            horner((Fraction(10**400),), 1 + 0j)


_small_fractions = st.fractions(
    min_value=Fraction(-3), max_value=Fraction(3), max_denominator=12
)


@given(n=st.integers(min_value=0, max_value=30), x=_small_fractions)
@settings(max_examples=60, deadline=None)
def test_reflection_property(n, x):
    at_reflected, at_x = _poly_values(n, (1 - x, x))
    assert at_reflected == (-1) ** n * at_x


@given(n=st.integers(min_value=0, max_value=30), x=_small_fractions)
@settings(max_examples=60, deadline=None)
def test_shift_property(n, x):
    at_negated, at_x = _poly_values(n, (-x, x))
    power = x ** (n - 1) if n >= 1 else Fraction(0)
    assert (-1) ** n * at_negated == at_x + n * power


def _seeded_points(seed: int) -> list[Fraction]:
    """Rationals of every kind: zero, integers of both signs, small and large denominators."""
    rng = random.Random(seed)
    points = [Fraction(0), Fraction(1), Fraction(-4), Fraction(1, 2), Fraction(-7, 3)]
    points += [Fraction(rng.randint(-10**40, 10**40), rng.randint(1, 10**60)) for _ in range(3)]
    points += [Fraction(rng.randint(-10**6, 10**6), 10**25 + rng.randint(1, 10**6))]
    return points


@pytest.mark.parametrize("n", [0, 1, 2, 3, 9, 60, 250, _CAPS["nu_raw"] + 1])
def test_integer_sums_equal_the_fraction_horner(n):
    # one integer Horner sum over a common denominator per point, against a Fraction
    # multiply-add per coefficient, up to the largest index wallis_nu_raw reads
    points = _seeded_points(n)
    assert _poly_values(n, points) == [exact_horner(bernoulli_coeffs(n), x) for x in points]


def test_half_argument_to_30():
    for n in range(1, 31):
        expected = -(1 - Fraction(1, 2 ** (n - 1))) * bernoulli_number(n)
        assert _poly_values(n, [Fraction(1, 2)]) == [expected]


class TestRationalSerialization:
    def test_format(self):
        assert format_rational(Fraction(-691, 2730)) == "-691/2730"
        assert format_rational(Fraction(5)) == "5"

    def test_round_trip(self):
        # the printed form reads back exactly, as a user of the CLI's output reads it
        for v in (Fraction(-691, 2730), Fraction(0), Fraction(7), Fraction(22, 7)):
            assert Fraction(format_rational(v)) == v
