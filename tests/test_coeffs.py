"""Coefficient engine: exact values, recurrences and symbolic consistency."""

import functools
import hashlib
import math
import random
from fractions import Fraction
from typing import NamedTuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_bernoulli import horner

from wallisprod import coeffs
from wallisprod.bernoulli import bernoulli_number, bernoulli_poly, format_rational
from wallisprod.coeffs import (
    BiPoly,
    CoeffSeries,
    Family,
    _alpha_beta_levels,
    _bernoulli_pair,
    a_poly,
    alpha_beta,
    b_poly,
    cache_sizes,
    eval_bipoly,
    omega,
    omega_alt,
    wallis_mu,
    wallis_nu,
    wallis_nu_raw,
)

F = Fraction

A1 = BiPoly({(2, 0): F(1, 2), (0, 1): F(-1)})
A2 = BiPoly({(3, 0): F(-1, 6), (1, 1): F(1, 2), (2, 0): F(1, 4), (0, 1): F(-1, 2)})
A3 = BiPoly({(4, 0): F(1, 12), (2, 1): F(-1, 3), (0, 2): F(1, 6),
             (3, 0): F(-1, 6), (1, 1): F(1, 2), (2, 0): F(1, 12), (0, 1): F(-1, 6)})
B1 = BiPoly({(2, 0): F(1, 8), (0, 1): F(-1, 4)})
B2 = BiPoly({(3, 0): F(-1, 48), (1, 1): F(1, 16), (2, 0): F(1, 16), (0, 1): F(-1, 8)})
B3 = BiPoly({(4, 0): F(1, 192), (2, 1): F(-1, 48), (0, 2): F(1, 96),
             (3, 0): F(-1, 48), (1, 1): F(1, 16), (2, 0): F(1, 48), (0, 1): F(-1, 24)})

NU_11 = (F(-1, 4), F(1, 8), F(-5, 96), F(1, 64), F(-1, 320), F(1, 384),
         F(-25, 7168), F(1, 2048), F(29, 9216), F(1, 10240), F(-695, 90112))
MU_11 = (F(-1, 4), F(5, 32), F(-11, 128), F(83, 2048), F(-143, 8192), F(625, 65536),
         F(-1843, 262144), F(24323, 8388608), F(61477, 33554432),
         F(-14165, 268435456), F(-8084893, 1073741824))
OMEGA_5 = (F(-1, 4), F(1, 96), F(-1, 320), F(17, 7168), F(-31, 9216))


class GenericParams(NamedTuple):
    """Arbitrary complex triple (lam, mu, nu) for the generic coefficient."""

    lam: complex
    mu: complex
    nu: complex


def generic_a(j: int, params: GenericParams) -> complex:
    """Coefficient of ``1/z^j`` in the log-expansion of the gamma-ratio kernel, in doubles.

    ``a_1 = (lam + B_2(mu) + B_2(nu) - 2 B_2) / 2`` and for ``j >= 2``
    ``a_j = lam B_j / j + (-1)^(j+1) (B_{j+1}(mu) + B_{j+1}(nu) - 2 B_{j+1}) / (j (j+1))``:
    a route over the roots, independent of the exact ``a_poly`` in ``(p, q)``.
    """
    lam, mu, nu = map(complex, params)
    if j == 1:
        poly = bernoulli_poly(2)
        b2 = float(bernoulli_number(2))
        return (lam + horner(poly, mu) + horner(poly, nu) - 2 * b2) / 2
    poly = bernoulli_poly(j + 1)
    bj = float(bernoulli_number(j))
    bj1 = float(bernoulli_number(j + 1))
    pair = horner(poly, mu) + horner(poly, nu) - 2 * bj1
    return lam * bj / j + ((-1) ** (j + 1)) * pair / (j * (j + 1))


def exp_compose(a, order: int) -> list[Fraction]:
    """Coefficients ``b_1 .. b_order`` of ``exp(sum a_k x^-k)``, a whole-series
    route independent of the prefix cache behind ``wallis_mu``.

    Uses ``b_0 = 1`` and ``b_n = (1/n) sum_{k=1}^{n} k a_k b_{n-k}``.
    """
    if len(a) < order:
        raise ValueError("need at least `order` input coefficients")
    b = [Fraction(1)]
    for n in range(1, order + 1):
        acc = Fraction(0)
        for k in range(1, n + 1):
            acc += k * Fraction(a[k - 1]) * b[n - k]
        b.append(acc / n)
    return b[1:]


def combine(*parts) -> dict[tuple[int, int], Fraction]:
    """``sum c f g`` over ``(c, f, g)`` of term maps ``{(i, j): coefficient}``, keys in
    the order first met (the order of a term-by-term build), zero sums dropped."""
    out: dict[tuple[int, int], Fraction] = {}
    for c, f, g in parts:
        for (i1, j1), c1 in f.items():
            for (i2, j2), c2 in g.items():
                key = (i1 + i2, j1 + j2)
                out[key] = out.get(key, 0) + c * c1 * c2
    return {key: val for key, val in out.items() if val}


ONE = {(0, 0): F(1)}
P_VAR = {(1, 0): F(1)}


def d_route_branch(m: int, c: Fraction, sign: int) -> dict[tuple[int, int], Fraction]:
    """``B_m(c p + sign c D)`` expanded in ``(p, D)``: ``{(i, r): coefficient of p^i D^r}``."""
    pd: dict[tuple[int, int], Fraction] = {}
    for k, coef in enumerate(bernoulli_poly(m).coeffs):
        for r in range(k + 1):
            key = (k - r, r)
            pd[key] = pd.get(key, F(0)) + coef * c**k * math.comb(k, r) * sign**r
    return pd


def reduce_d(pd: dict[tuple[int, int], Fraction]) -> BiPoly:
    """Replace ``D^(2r)`` by ``(p^2 - 4q)^r``; every power of ``D`` must be even."""
    assert all(val == 0 for (_, r), val in pd.items() if r % 2), "odd powers of D survived"
    out: dict[tuple[int, int], Fraction] = {}
    for (i, r), val in pd.items():
        half = r // 2
        for s in range(half + 1):
            key = (i + 2 * (half - s), s)
            out[key] = out.get(key, F(0)) + val * math.comb(half, s) * (-4) ** s
    return BiPoly(out)


def d_route_pair(m: int, c: Fraction) -> BiPoly:
    """``B_m(c p + c D) + B_m(c p - c D)`` with ``D`` the formal root of ``p^2 - 4q``.

    Each branch is expanded in ``(p, D)``, the odd powers of ``D`` are
    asserted to cancel between the branches, and ``D^(2r)`` is replaced
    by ``(p^2 - 4q)^r``.  Shares nothing with the power-sum route.
    """
    pd: dict[tuple[int, int], Fraction] = {}
    for sign in (1, -1):
        for key, val in d_route_branch(m, c, sign).items():
            pd[key] = pd.get(key, F(0)) + val
    return reduce_d(pd)


def coeff_over_pair(pair_route, j: int, c: Fraction, lam_coeff: Fraction) -> BiPoly:
    """``a_j`` (``c = 1/2``, ``lam_coeff = 1``) or ``b_j`` (``1/4``, ``1/2``) over a pair route.

    The ``lam_coeff * p`` head is added in full, so its cancellation against
    the pair's ``p`` term is checked, not assumed.
    """
    pair = combine((1, pair_route(j + 1, c).terms, ONE), (-2 * bernoulli_number(j + 1), ONE, ONE))
    if j == 1:
        return BiPoly(combine((lam_coeff / 2, P_VAR, ONE), (F(1, 2), pair, ONE)))
    return BiPoly(combine((lam_coeff * bernoulli_number(j) / j, P_VAR, ONE),
                          (F((-1) ** (j + 1), j * (j + 1)), pair, ONE)))


def newton_pair(m: int, c: Fraction) -> BiPoly:
    """``B_m(x1) + B_m(x2)`` from Newton's recurrence for the power sums of the roots.

    ``s_k = x1^k + x2^k`` obeys ``s_k = P s_(k-1) - Q s_(k-2)`` from ``s_0 = 2``,
    ``s_1 = P`` with ``P = 2c p``, ``Q = 4c^2 q``, and the pair is
    ``sum_k C(m,k) B_(m-k) s_k``, all in term-map arithmetic.
    """
    P = {(1, 0): 2 * c}
    Q = {(0, 1): 4 * c * c}
    sums = [{(0, 0): F(2)}, P]
    for _ in range(2, m + 1):
        sums.append(combine((1, P, sums[-1]), (-1, Q, sums[-2])))
    coeffs = bernoulli_poly(m).coeffs
    return BiPoly(combine(*((coef, sums[k], ONE) for k, coef in enumerate(coeffs))))


def retired_pair_terms(m: int, c: Fraction, scale: Fraction) -> dict[tuple[int, int], Fraction]:
    """The route the library's integer build replaced: ``_bernoulli_pair`` by
    ``Fraction`` arithmetic over the coefficients of ``B_m(t)``, one scaled
    ``Fraction`` per ``k`` and one more per term, in the same term order."""
    terms: dict[tuple[int, int], Fraction] = {}
    for k, coef in enumerate(bernoulli_poly(m).coeffs):
        if coef:
            coef *= (2 * c) ** k * scale
            for i in range(k // 2 + 1):
                weight = (-1) ** i * k * math.comb(k - i, i) // (k - i) if k else 2
                terms[(k - 2 * i, i)] = Fraction(weight * coef.numerator, coef.denominator)
    return terms


def retired_coeff_items(j: int, c: Fraction) -> list[tuple[tuple[int, int], Fraction]]:
    """``list(a_poly(j).terms.items())`` (``c = 1/2``), or ``b_poly``'s (``c = 1/4``),
    by the retired route."""
    scale = F(1, 2) if j == 1 else F((-1) ** (j + 1), j * (j + 1))
    pair = retired_pair_terms(j + 1, c, scale)
    return [(key, val) for key, val in pair.items() if key[0] + 2 * key[1] > 1]


def retired_str(poly: BiPoly) -> str:
    """The printer the library replaced: sign and magnitude by ``Fraction``
    comparisons, the magnitude by ``format_rational``."""
    if not poly.terms:
        return "0"
    pieces: list[str] = []
    for (i, j), c in poly._sorted_terms():
        mono = "*".join(filter(None, ["p" if i == 1 else (f"p^{i}" if i > 1 else ""),
                                      "q" if j == 1 else (f"q^{j}" if j > 1 else "")]))
        mag = abs(c)
        if not mono:
            body = format_rational(mag)
        elif mag == 1:
            body = mono
        else:
            body = f"{format_rational(mag)}*{mono}"
        if not pieces:
            pieces.append(body if c > 0 else f"-{body}")
        else:
            pieces.append(f"+ {body}" if c > 0 else f"- {body}")
    return " ".join(pieces)


# SHA-256 of "\n".join(str(build(j)) for j in 1..120), the --order cap of a and b,
# as the Fraction-arithmetic build printed them
PRINTED_TO_CAP_SHA256 = {
    "a": "97757399f79b1fb41d2dda178faf49ca94e64fc60627039e0498b0eebb7f52c6",
    "b": "a0baf3597533377da6cf31d1dda5b2a56d358c334453e3a3fe00961c278d3331",
}

# (terms, printed): a negative leading term, unit coefficients, an integer
# coefficient, a constant only, the zero polynomial, and values given as int,
# float and str, which are converted exactly
PRINTER_CASES = [
    ({(2, 0): F(-1, 3), (0, 1): F(1, 2), (1, 0): F(5)}, "-1/3*p^2 + 1/2*q + 5*p"),
    ({(2, 0): F(1), (0, 1): F(-1)}, "p^2 - q"),
    ({(0, 1): F(-1), (0, 0): F(1)}, "-q + 1"),
    ({(1, 0): F(2)}, "2*p"),
    ({(0, 0): F(-3, 2)}, "-3/2"),
    ({(0, 0): F(-1)}, "-1"),
    ({}, "0"),
    ({(1, 0): F(0)}, "0"),
    ({(1, 1): 0.5, (0, 0): "-3/4", (3, 0): -2}, "-2*p^3 + 1/2*p*q - 3/4"),
    ({(0, 2): 0.1, (4, 0): 1},
     "p^4 + 3602879701896397/36028797018963968*q^2"),
]


@pytest.fixture()
def cold_poly_caches():
    """Empty the a_j/b_j memos for one test; later calls rebuild what they ask for."""
    a_poly.cache_clear()
    b_poly.cache_clear()


class TestBiPoly:
    def test_no_zero_terms_stored(self):
        assert BiPoly({(1, 0): F(0), (0, 1): F(-2)}).terms == {(0, 1): F(-2)}
        poly = BiPoly({(1, 0): F(0)})
        assert poly.terms == {}
        assert str(poly) == "0"

    @pytest.mark.parametrize("key", [(1.5, 0), (-1, 0), (0, -2), (F(1, 2), 1), ("1", 0),
                                     (None, 0), (math.inf, 0)])
    def test_refuses_exponents_that_are_not_nonnegative_integers(self, key):
        # (1.5, 0) was truncated to p, and (-1, 0) printed as a constant 3
        # while evaluate_exact(2, 1) gave 3/2
        with pytest.raises(ValueError, match="not a nonnegative integer"):
            BiPoly({key: 3})

    def test_integral_exponents_of_other_types_are_converted(self):
        poly = BiPoly({(2.0, F(1)): 1, (True, 0): 2})
        assert list(poly.terms.items()) == [((2, 1), F(1)), ((1, 0), F(2))]
        assert all(type(e) is int for key in poly.terms for e in key)

    def test_fraction_values_kept_as_they_are(self):
        value = F(-7, 3)
        assert BiPoly({(1, 0): value}).terms[(1, 0)] is value

    @pytest.mark.parametrize("terms,printed", PRINTER_CASES,
                             ids=[printed for _, printed in PRINTER_CASES])
    def test_printer_edge_cases_equal_retired_printer(self, terms, printed):
        poly = BiPoly(terms)
        assert all(type(v) is Fraction for v in poly.terms.values())
        assert str(poly) == retired_str(poly) == printed

    def test_display_strings(self):
        assert str(a_poly(1)) == "1/2*p^2 - q"
        assert str(a_poly(2)) == "-1/6*p^3 + 1/2*p*q + 1/4*p^2 - 1/2*q"
        assert str(a_poly(3)) == ("1/12*p^4 - 1/3*p^2*q + 1/6*q^2 - 1/6*p^3 "
                                  "+ 1/2*p*q + 1/12*p^2 - 1/6*q")
        assert str(b_poly(1)) == "1/8*p^2 - 1/4*q"


class TestPolynomialFamilies:
    def test_a_poly_displays(self):
        assert a_poly(1) == A1
        assert a_poly(2) == A2
        assert a_poly(3) == A3

    def test_b_poly_displays(self):
        assert b_poly(1) == B1
        assert b_poly(2) == B2
        assert b_poly(3) == B3

    def test_wallis_specialization_exact(self):
        values = tuple(a_poly(j).evaluate_exact(0, F(-1, 4)) for j in (1, 2, 3))
        assert values == (F(1, 4), F(1, 8), F(5, 96))

    def test_eval_bipoly_examples(self):
        assert eval_bipoly(a_poly(1), 0, -0.25) == pytest.approx(0.25, abs=1e-15)
        assert eval_bipoly(a_poly(3), 0, -0.25) == pytest.approx(float(F(5, 96)), rel=1e-14)
        anything = a_poly(4)
        const = anything.terms.get((0, 0), F(0))
        assert eval_bipoly(anything, 0, 0) == pytest.approx(float(const), abs=1e-15)

    def test_discriminant_parity_to_15(self):
        # the odd powers of D cancel between the branches, and the even
        # remainder is the power-sum pair the library builds
        for j in range(1, 16):
            for c in (F(1, 2), F(1, 4)):
                assert _bernoulli_pair(j + 1, c) == d_route_pair(j + 1, c)

    def test_branch_irrelevance(self):
        # either root of the discriminant gives the same even part and
        # opposite odd parts, so the pair is twice the even part of one branch
        for j in range(1, 11):
            for c in (F(1, 2), F(1, 4)):
                plus = d_route_branch(j + 1, c, 1)
                minus = d_route_branch(j + 1, c, -1)
                assert plus.keys() == minus.keys()
                for (i, r), val in plus.items():
                    assert minus[(i, r)] == (val if r % 2 == 0 else -val)
                for branch in (plus, minus):
                    even = {key: 2 * val for key, val in branch.items() if key[1] % 2 == 0}
                    assert reduce_d(even) == _bernoulli_pair(j + 1, c)

    def test_pair_equals_newton_oracle_in_order(self):
        for m in range(1, 32):
            for c in (F(1, 2), F(1, 4)):
                assert list(_bernoulli_pair(m, c).terms.items()) == \
                    list(newton_pair(m, c).terms.items())

    def test_cold_builds_equal_newton_oracle_in_order_to_30(self, cold_poly_caches):
        # the term order fixes the order of the float sum in eval_bipoly
        for j in range(1, 31):
            for build, c, lam_coeff in ((a_poly, F(1, 2), F(1)), (b_poly, F(1, 4), F(1, 2))):
                assert list(build(j).terms.items()) == \
                    list(coeff_over_pair(newton_pair, j, c, lam_coeff).terms.items())

    @pytest.mark.parametrize("build,c", [(a_poly, F(1, 2)), (b_poly, F(1, 4))], ids=["a", "b"])
    def test_cold_builds_equal_retired_route_in_order(self, cold_poly_caches, build, c):
        # values, value types and key order of the integer build against the
        # Fraction arithmetic it replaced, up to the --order cap
        for j in [*range(1, 41), 60, 90, 120]:
            got = list(build(j).terms.items())
            assert got == retired_coeff_items(j, c), j
            assert all(type(v) is Fraction for _, v in got)

    @pytest.mark.parametrize("family,build", [("a", a_poly), ("b", b_poly)], ids=["a", "b"])
    def test_printed_to_the_cap_match_frozen_digest(self, family, build):
        text = "\n".join(str(build(j)) for j in range(1, 121))
        assert hashlib.sha256(text.encode()).hexdigest() == PRINTED_TO_CAP_SHA256[family]

    def test_equals_d_route_oracle_to_20(self):
        for j in range(1, 21):
            assert a_poly(j) == coeff_over_pair(d_route_pair, j, F(1, 2), F(1))
            assert b_poly(j) == coeff_over_pair(d_route_pair, j, F(1, 4), F(1, 2))


class TestGenericCoefficients:
    def test_all_zero_params(self):
        assert generic_a(1, GenericParams(0, 0, 0)) == pytest.approx(0, abs=1e-15)

    def test_wilf_point_vanishes(self):
        # (p, q) = (1, 1/2): a_1 = p^2/2 - q = 0
        d = 1j  # sqrt(1 - 2)
        params = GenericParams(1, (1 + d) / 2, (1 - d) / 2)
        assert abs(generic_a(1, params)) <= 1e-15

    def test_degenerate_discriminant_matches_poly(self):
        # lam=2, mu=nu=1 corresponds to p=2, Delta=0, q=1
        got = generic_a(3, GenericParams(2, 1, 1))
        want = eval_bipoly(a_poly(3), 2, 1)
        assert got == pytest.approx(want, rel=1e-13)

    def test_specialization_consistency_random_rational(self):
        # moderate points: large |p| amplifies cancellation in the two
        # double-precision routes beyond the 1e-12 agreement target
        rng = random.Random(20260809)
        for _ in range(20):
            p = F(rng.randint(-2, 2), rng.randint(1, 3))
            d = F(rng.randint(-2, 2), rng.randint(1, 3))
            q = (p * p - d * d) / 4  # forces a rational discriminant root
            mu = (p + d) / 2
            nu = (p - d) / 2
            for j in range(1, 11):
                got = generic_a(j, GenericParams(float(p), float(mu), float(nu)))
                want = eval_bipoly(a_poly(j), float(p), float(q))
                assert got == pytest.approx(want, rel=1e-12, abs=1e-12)


class TestScalarFamilies:
    def test_nu_values(self):
        assert wallis_nu(11).values == NU_11

    def test_nu_closed_equals_raw(self):
        assert wallis_nu(20).values == wallis_nu_raw(20).values

    def test_mu_values(self):
        assert wallis_mu(11).values == MU_11

    def test_mu_is_exp_compose_of_nu(self):
        nu = wallis_nu(11).values
        assert tuple(exp_compose(list(nu), 11)) == wallis_mu(11).values

    def test_exp_compose_zero(self):
        assert exp_compose([F(0)] * 6, 6) == [F(0)] * 6

    def test_exp_compose_exp_of_inverse(self):
        assert exp_compose([F(1), F(0), F(0)], 3) == [F(1), F(1, 2), F(1, 6)]

    def test_exp_compose_wallis_head(self):
        out = exp_compose(list(wallis_nu(2).values), 2)
        assert out == [F(-1, 4), F(5, 32)]

    def test_exp_compose_needs_enough_input(self):
        with pytest.raises(ValueError):
            exp_compose([F(1)], 2)

    def test_alpha_beta_worked_values(self):
        pairs = alpha_beta(5).values
        assert pairs[0] == (F(-1, 4), F(5, 8))
        assert pairs[1] == (F(3, 256), F(7, 12))
        assert pairs[2] == (F(-53, 16384), F(2113, 3816))

    def test_alpha_beta_level_4_guard(self):
        pairs = alpha_beta(4).values
        assert pairs[3] == (F(224573, 93782016), F(22119189899, 41134587264))

    def test_alpha_beta_level_5_big_integers(self):
        alpha5, beta5 = alpha_beta(5).values[4]
        assert alpha5 == F(-596297240983745796931, 176651089583152098705408)
        assert beta5 == F(38909478384301921254232134966821,
                          73585322683584986068354328660352)

    def test_alpha_beta_degenerate_level_raises(self):
        # fabricated mu with mu_3 = alpha_1 * beta_1^2 makes alpha_2 = 0
        mu = (F(-1, 4), F(5, 32), F(-1, 4) * F(5, 8) ** 2, F(1, 7))
        with pytest.raises(ZeroDivisionError):
            alpha_beta_from_mu(mu, 2)
        with pytest.raises(ZeroDivisionError):
            list(_alpha_beta_levels(mu, [], 2))

    def test_omega_values(self):
        assert omega(5).values == OMEGA_5

    def test_omega_alt_head(self):
        series = omega_alt(3)
        assert series.values[0] == F(-1, 4)  # equals -2 nu_2
        assert series.values[0] == -2 * wallis_nu(2).values[1]
        assert series.values[2] == F(-1, 320)

    def test_omega_routes_agree(self):
        assert omega(12).values == omega_alt(12).values

    def test_prefix_consistency(self):
        assert wallis_nu(4).values == wallis_nu(11).values[:4]
        assert wallis_mu(3).values == wallis_mu(11).values[:3]
        assert omega(2).values == omega(8).values[:2]
        assert alpha_beta(2).values == alpha_beta(5).values[:2]


def alpha_beta_level(mu, pairs) -> tuple[Fraction, Fraction]:
    """``(alpha_l, beta_l)``, ``l = len(pairs) + 1``, from ``mu_1 .. mu_2l`` and the earlier pairs.

    The ``Fraction`` recurrence, the oracle of the library's factor-base
    kernel: matching the ``1/n^(2l-1)`` and ``1/n^(2l)`` coefficients of
    ``sum alpha_l / (n + beta_l)^(2l-1)`` against the mu-series gives one
    linear solve per level, which divides by ``alpha_l``.
    """
    level = len(pairs) + 1
    alpha = mu[2 * level - 2]
    for k in range(1, level):
        ak, bk = pairs[k - 1]
        alpha -= ak * bk ** (2 * level - 2 * k) * math.comb(2 * level - 2, 2 * level - 2 * k)
    if alpha == 0:
        raise ZeroDivisionError(
            f"alpha_{level} = 0: the shifted expansion degenerates at level {level}"
        )
    acc = mu[2 * level - 1]
    for k in range(1, level):
        ak, bk = pairs[k - 1]
        acc += ak * bk ** (2 * level - 2 * k + 1) * math.comb(2 * level - 1, 2 * level - 2 * k + 1)
    return alpha, -acc / ((2 * level - 1) * alpha)


@functools.cache
def alpha_beta_from_mu(mu: tuple, levels: int) -> tuple:
    """The first ``levels`` pairs solved by the oracle from a given mu, once per session."""
    pairs: list[tuple[Fraction, Fraction]] = []
    for _ in range(levels):
        pairs.append(alpha_beta_level(mu, pairs))
    return tuple(pairs)


def without_2_3(x: int) -> tuple[int, int, int]:
    """``(r, i, j)`` with ``x = 2^i 3^j r`` and ``r`` prime to 6."""
    i = j = 0
    while x % 2 == 0:
        x, i = x // 2, i + 1
    while x % 3 == 0:
        x, j = x // 3, j + 1
    return x, i, j


# a mu entry: small or composite denominators, prime ones past the kernel's
# small primes (7, 1001 = 7 11 13), signs of both kinds, zero
MU_ENTRY = st.builds(F, st.integers(-60, 60), st.sampled_from([1, 2, 3, 7, 9, 49, 1001, 3 << 40]))
# a pair rounded to 256 bits, as _next_beta passes them, or one of small fractions
DYADIC = st.builds(F, st.integers(-(1 << 258), 1 << 258), st.just(1 << 256))
SMALL = st.builds(F, st.integers(-40, 40), st.integers(1, 30))
PAIR = st.tuples(DYADIC, DYADIC) | st.tuples(SMALL, SMALL)


class TestAlphaBetaKernel:
    def test_denominator_structure_to_12(self):
        """With ``P_k = |num alpha_k|`` less its factors 2 and 3, for ``l <= 12``:
        ``den beta_l = 2^i 3^j prod_(k<=l) P_k``,
        ``den alpha_l = 2^i 3^j prod_(k<l) P_k^(2(l-k)-1)``, the ``P_k`` are
        pairwise coprime and ``num alpha_l`` is prime to ``num beta_l``.

        The factor-base kernel's speed rests on this structure: its sums
        then cancel whole pieces, and the ``Fraction`` constructor finds
        nothing left to reduce.  Its correctness does not: the constructor
        reduces whatever the pieces are (see the Hypothesis test below).
        """
        pairs = alpha_beta(12).values
        pieces = [without_2_3(abs(a.numerator))[0] for a, _ in pairs]
        beta_cofactors, alpha_cofactors = [], []
        for level, (a, b) in enumerate(pairs, 1):
            quotient, rest = divmod(b.denominator, math.prod(pieces[:level]))
            assert rest == 0
            beta_cofactors.append(without_2_3(quotient))
            quotient, rest = divmod(a.denominator, math.prod(
                pieces[k - 1] ** (2 * (level - k) - 1) for k in range(1, level)))
            assert rest == 0
            alpha_cofactors.append(without_2_3(quotient))
            assert math.gcd(a.numerator, b.numerator) == 1
        assert beta_cofactors == [(1, 3, 0), (1, 2, 1), (1, 3, 2)] + [
            (1, 7, j) for j in range(3, 12)]
        assert alpha_cofactors == [(1, i, j) for i, j in (
            (2, 0), (8, 0), (14, 0), (16, 3), (28, 9), (43, 15), (56, 24), (72, 36),
            (83, 49), (98, 63), (111, 81), (128, 100))]
        assert all(math.gcd(x, y) == 1 for i, x in enumerate(pieces) for y in pieces[:i])

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_kernel_equals_oracle(self, data):
        # random mu and cached pairs, optionally made to degenerate at one level:
        # the kernel yields the oracle's pairs and raises where the oracle does
        count = data.draw(st.integers(1, 5), label="count")
        pairs = data.draw(st.lists(PAIR.filter(lambda ab: ab[0] != 0), max_size=count - 1),
                          label="pairs")
        mu = data.draw(st.lists(MU_ENTRY, min_size=2 * count, max_size=2 * count), label="mu")
        vanish = data.draw(st.none() | st.integers(len(pairs) + 1, count), label="vanish")
        want = list(pairs)
        for level in range(len(pairs) + 1, count + 1):
            if level == vanish:  # mu_(2l-1) equal to the sum it meets, so alpha_l = 0
                mu[2 * level - 2] = sum(a * b ** (2 * level - 2 * k) * math.comb(
                    2 * level - 2, 2 * level - 2 * k) for k, (a, b) in enumerate(want, 1))
            try:
                want.append(alpha_beta_level(mu, want))
            except ZeroDivisionError:
                break
        got = list(pairs)
        levels = _alpha_beta_levels(mu, pairs, count)
        if len(want) < count:
            with pytest.raises(ZeroDivisionError, match=f"alpha_{len(want) + 1} = 0"):
                got.extend(levels)
        else:
            got.extend(levels)
        assert got == want
        assert all(type(x) is Fraction for pair in got for x in pair)


SERIES_CACHES = ("_NU", "_MU", "_ALPHA_BETA", "_OMEGA", "_OMEGA_ALT")


@pytest.fixture()
def cold_series_caches():
    """Empty the five series caches for one test and put their entries back after it."""
    saved = {name: list(getattr(coeffs, name)) for name in SERIES_CACHES}
    for name in SERIES_CACHES:
        getattr(coeffs, name).clear()
    try:
        yield
    finally:
        for name, values in saved.items():
            getattr(coeffs, name)[:] = values


def omega_reference(nu: tuple, levels: int) -> list[Fraction]:
    """Odd-index matching ``nu_(2l-1) = sum_{k<=l} omega_k C(2l-2, 2l-2k) / 2^(2l-2k)``."""
    out = [F(-1, 4)]
    for level in range(2, levels + 1):
        out.append(nu[2 * level - 2] - sum(
            out[k - 1] * F(math.comb(2 * level - 2, 2 * level - 2 * k), 4 ** (level - k))
            for k in range(1, level)))
    return out


def omega_alt_reference(nu: tuple, levels: int) -> list[Fraction]:
    """Even-index matching ``nu_2l = -sum_{k<=l} omega_k C(2l-1, 2l-2k+1) / 2^(2l-2k+1)``."""
    out = [F(-1, 4)]
    for level in range(2, levels + 1):
        acc = nu[2 * level - 1] + sum(
            out[k - 1] * F(math.comb(2 * level - 1, 2 * level - 2 * k + 1),
                           2 ** (2 * level - 2 * k + 1))
            for k in range(1, level))
        out.append(-F(2, 2 * level - 1) * acc)
    return out


@functools.cache
def nu_raw(order: int) -> tuple:
    """The cache-free ``wallis_nu_raw`` values; each order is built once per session."""
    return wallis_nu_raw(order).values


@functools.cache
def mu_reference(order: int) -> list[Fraction]:
    """The ``Fraction`` convolution of :func:`exp_compose` over the raw nu."""
    return exp_compose(list(nu_raw(order)), order)


# family, cached builder, its cache, cache-free reference for the first k entries,
# orders: the exact_cold workload's order cold, and a low order extended to it
SERIES_CASES = [
    ("nu", wallis_nu, "_NU", lambda k: list(nu_raw(k)), (240, 20)),
    ("mu", wallis_mu, "_MU", mu_reference, (240, 20)),
    ("alpha_beta", alpha_beta, "_ALPHA_BETA",
     lambda k: list(alpha_beta_from_mu(tuple(mu_reference(2 * k)), k)), (12, 5)),
    ("omega", omega, "_OMEGA", lambda k: omega_reference(nu_raw(2 * k), k), (100, 20)),
    ("omega_alt", omega_alt, "_OMEGA_ALT",
     lambda k: omega_alt_reference(nu_raw(2 * k), k), (100, 20)),
]


class TestSeriesCache:
    @pytest.mark.parametrize("name,build,cache,reference,orders", SERIES_CASES,
                             ids=[case[0] for case in SERIES_CASES])
    @pytest.mark.parametrize("high_first", [True, False], ids=["high_low", "low_high"])
    def test_cold_cache_equals_reference(self, cold_series_caches, name, build, cache,
                                         reference, orders, high_first):
        high, low = orders
        for k in ((high, low) if high_first else (low, high)):
            assert list(build(k).values) == reference(k)
        assert len(getattr(coeffs, cache)) == high
        assert list(build(high).values) == reference(high)  # read back from the cache

    def test_omega_alt_never_reads_omega(self, cold_series_caches):
        omega_alt(6)
        assert coeffs._OMEGA == []

    def test_degenerate_level_keeps_earlier_levels(self, cold_series_caches):
        # the fabricated mu of test_alpha_beta_degenerate_level_raises, placed in the cache
        coeffs._MU[:] = [F(-1, 4), F(5, 32), F(-1, 4) * F(5, 8) ** 2, F(1, 7)]
        for _ in range(2):
            with pytest.raises(ZeroDivisionError):
                alpha_beta(2)
            assert coeffs._ALPHA_BETA == [(F(-1, 4), F(5, 8))]
        assert alpha_beta(1).values == ((F(-1, 4), F(5, 8)),)

    def test_mu_extends_a_fabricated_prefix(self, cold_series_caches):
        # the integer state comes from the cached list, whatever its denominators
        coeffs._MU[:] = [F(-1, 4), F(5, 32), F(-1, 4) * F(5, 8) ** 2, F(1, 7)]
        nu = wallis_nu(8).values
        want = [F(1), *coeffs._MU]
        for n in range(5, 9):
            want.append(sum(k * nu[k - 1] * want[n - k] for k in range(1, n + 1)) / n)
        assert list(wallis_mu(8).values) == want[1:]

    def test_cache_sizes_grow(self, cold_series_caches, cold_poly_caches):
        before = cache_sizes()
        assert set(before) == {"bernoulli", "a_poly", "b_poly", "nu", "mu", "alpha_beta",
                               "omega", "omega_alt"}
        assert [before[k] for k in ("a_poly", "b_poly", "nu", "mu", "alpha_beta", "omega",
                                    "omega_alt")] == [0] * 7
        a_poly(3)
        a_poly(3)
        b_poly(3)
        bernoulli_number(before["bernoulli"])
        alpha_beta(3)
        omega(4)
        omega_alt(5)
        after = cache_sizes()
        assert after["bernoulli"] > before["bernoulli"]
        assert after["a_poly"] == before["a_poly"] + 1
        assert after["b_poly"] == before["b_poly"] + 1
        assert (after["nu"], after["mu"], after["alpha_beta"], after["omega"],
                after["omega_alt"]) == (10, 6, 3, 4, 5)


def test_concurrent_cache_growth(cold_series_caches, cold_poly_caches):
    import sys
    import threading

    from wallisprod.bernoulli import BernoulliTable

    def series():
        return (wallis_mu(24).values, omega(10).values, alpha_beta(6).values,
                omega_alt(10).values, wallis_nu(30).values,
                [a_poly(j) for j in range(1, 31)], [b_poly(j) for j in range(1, 31)])

    expected = series()  # single-threaded
    sizes = cache_sizes()
    for name in SERIES_CACHES:
        getattr(coeffs, name).clear()
    a_poly.cache_clear()
    b_poly.cache_clear()

    table = BernoulliTable()
    errors = []
    results = []
    start_series = threading.Barrier(8)

    def worker(order):
        try:
            for n in range(order, order + 20):
                table.number(n)
                table.polynomial(n)
            start_series.wait(timeout=60)  # all threads grow the series caches together
            results.append(series())
        except Exception as exc:  # surfaced after join
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(k,)) for k in (1, 10, 25, 40) * 2]
        assert len(threads) == start_series.parties
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert not errors
    assert results == [expected] * len(threads)
    assert cache_sizes() == sizes  # no entry appended twice
    assert table.number(12) == F(-691, 2730)


class TestCoeffSeries:
    def test_order_validation(self):
        with pytest.raises(ValueError):
            CoeffSeries(Family.NU, 2, (F(1),))
        with pytest.raises(ValueError):
            wallis_nu(0)
