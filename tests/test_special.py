"""Gamma machinery, limit constants, closed forms and Ser's product.

mpmath (50 digits) serves as the high-precision cross-oracle for the
special functions; the identity-based oracles (duplication, reflection,
harmonic sums) are independent of any implementation.
"""

import cmath
import math
import random
import time
import warnings
from fractions import Fraction

import mpmath as mp
import pytest

from test_products import wallis_seq_exact
from wallisprod.products import r_product, w_product
from wallisprod.special import (
    EULER_GAMMA,
    EULER_GAMMA_STR,
    EXP_EULER_GAMMA,
    EXP_EULER_GAMMA_STR,
    PoleError,
    delta,
    digamma,
    ln_gamma,
    r_closed,
    r_inf,
    ser_partial,
    w_closed,
    w_inf,
    wilf_constant,
)

mp.mp.dps = 50

GRID = [
    complex(re, im)
    for re in (-6.3, -3.5, -1.2, -0.4, 0.5, 1.5, 2.25, 3.0, 4.7, 8.2, 12.9, 100.0)
    for im in (0.0, 1e-3, 0.7, 4.0, -2.3, 25.0)
    if not (abs(im) < 1e-9 and re <= 0 and abs(re - round(re)) < 0.05)
] + [
    # both sides of the shift boundary Re z = 12: one step, then none
    complex(re, im) for re in (12 - 1e-9, 12.0, 12 + 1e-9) for im in (0.0, 0.7, -25.0)
] + [
    # far left, where the shift sums up to a thousand logs or reciprocals
    complex(re, im) for re in (-1000.0, -999.5, -250.3, -40.7) for im in (0.05, -0.05, 3.0, -40.0)
]


class TestConstants:
    def test_gamma_literal(self):
        assert EULER_GAMMA_STR.startswith("0.5772156649")
        assert len(EULER_GAMMA_STR.split(".")[1]) >= 40
        assert abs(EULER_GAMMA - float(mp.euler)) == 0

    def test_exp_gamma_literal(self):
        assert EXP_EULER_GAMMA_STR.startswith("1.7810724179")
        assert len(EXP_EULER_GAMMA_STR.split(".")[1]) >= 40
        assert EXP_EULER_GAMMA == pytest.approx(math.exp(EULER_GAMMA), rel=1e-15)

    def test_literals_match_mpmath_to_48_digits(self):
        assert mp.almosteq(mp.mpf(EULER_GAMMA_STR), mp.euler, abs_eps=mp.mpf(10) ** -48)
        assert mp.almosteq(mp.mpf(EXP_EULER_GAMMA_STR), mp.exp(mp.euler),
                           abs_eps=mp.mpf(10) ** -48)


class TestLnGamma:
    def test_at_one(self):
        assert abs(ln_gamma(1 + 0j)) <= 1e-14

    def test_at_half(self):
        assert ln_gamma(0.5 + 0j).real == pytest.approx(math.log(math.sqrt(math.pi)), rel=1e-13)

    def test_duplication_identity(self):
        # Legendre duplication: Gamma(z) Gamma(z+1/2) = 2^(1-2z) sqrt(pi) Gamma(2z)
        ln2 = math.log(2.0)
        lnpi = math.log(math.pi)
        for z in (3 + 4j, 0.5 + 2j, -2.5 + 1.5j, 7 - 3j, 0.75 + 0j):
            lhs = ln_gamma(2 * z)
            rhs = ln_gamma(z) + ln_gamma(z + 0.5) + (2 * z - 1) * ln2 - 0.5 * lnpi
            # identity holds mod 2 pi i; exp removes the winding
            assert abs(cmath.exp(lhs - rhs) - 1) <= 1e-12

    def test_reflection_identity(self):
        for z in (0.3 + 0.4j, -1.7 + 2j, 2.6 - 1.1j, -4.2 - 0.3j):
            lhs = ln_gamma(z) + ln_gamma(1 - z)
            rhs = cmath.log(math.pi / cmath.sin(math.pi * z))
            assert abs(cmath.exp(lhs - rhs) - 1) <= 1e-12

    def test_principal_branch_vs_mpmath(self):
        for z in GRID:
            ref = complex(mp.loggamma(mp.mpc(z.real, z.imag)))
            mine = ln_gamma(z)
            # strict comparison including the imaginary part: same branch
            assert abs(mine - ref) <= 1e-12 * max(1.0, abs(ref)), z

    def test_negative_axis_boundary_from_above(self):
        ref = complex(mp.loggamma(mp.mpc(-5.5, 0)))
        assert abs(ln_gamma(complex(-5.5, 0.0)) - ref) <= 1e-12 * abs(ref)

    def test_pole_rejection(self):
        for z in (0j, -1 + 0j, -7 + 0j, complex(-3, 5e-13)):
            with pytest.raises(PoleError):
                ln_gamma(z)


class TestDigamma:
    def test_at_one(self):
        assert digamma(1 + 0j).real == pytest.approx(-EULER_GAMMA, rel=1e-13)

    def test_harmonic_oracle(self):
        for n in (1, 2, 5, 10, 25, 60):
            harmonic = sum(Fraction(1, k) for k in range(1, n + 1))
            want = -EULER_GAMMA + float(harmonic)
            assert digamma(n + 1 + 0j).real == pytest.approx(want, rel=1e-12)

    def test_at_half(self):
        want = -EULER_GAMMA - 2 * math.log(2.0)
        assert digamma(0.5 + 0j).real == pytest.approx(want, rel=1e-12)

    def test_vs_mpmath(self):
        for z in GRID:
            ref = complex(mp.digamma(mp.mpc(z.real, z.imag)))
            assert abs(digamma(z) - ref) <= 1e-12 * max(1.0, abs(ref)), z

    def test_pole_rejection(self):
        with pytest.raises(PoleError):
            digamma(-2 + 0j)


class TestDelta:
    def test_wallis_point(self):
        assert delta(0, -0.25) == 1

    def test_wilf_point_principal_branch(self):
        assert delta(1, 0.5) == 1j

    def test_double_root(self):
        assert delta(-1, 0.25) == 0

    def test_branch_convention(self):
        d = delta(0, 1)  # sqrt(-4)
        assert d.real == 0 and d.imag == 2
        d = delta(complex(0, 2), 0)  # sqrt(-4) again via complex p
        assert d.real == 0 and d.imag == 2
        assert delta(3, 2).real > 0

    @pytest.mark.parametrize("p,q", [(1e200, 0), (0, complex(1.7e308, 1.7e308)),
                                     (complex(1e160, 1e160), 1)])
    def test_overflowing_discriminant_names_the_input(self, p, q):
        for call in (lambda: delta(p, q), lambda: w_closed(3, p, q), lambda: r_closed(3, p, q),
                     lambda: w_inf(p, q), lambda: r_inf(p, q)):
            with pytest.raises(ValueError, match=r"p\^2 - 4q leaves the double range") as info:
                call()
            assert f"p = {complex(p)}, q = {complex(q)}" in str(info.value)

    def test_largest_finite_discriminant(self):
        assert delta(1e154, 0) == 1e154


class TestLimits:
    def test_wallis_reciprocal_limit(self):
        assert abs(w_inf(0, -0.25) - 2 / math.pi) <= 1e-11 * (2 / math.pi)

    def test_wilf(self):
        want = (math.exp(math.pi / 2) + math.exp(-math.pi / 2)) / (math.pi * EXP_EULER_GAMMA)
        assert abs(w_inf(1, 0.5) - want) <= 1e-11 * want
        assert wilf_constant() == pytest.approx(want, rel=1e-15)

    def test_exp_gamma_over_pi(self):
        want = EXP_EULER_GAMMA / math.pi
        assert abs(w_inf(-1, 0.25) - want) <= 1e-11 * want

    def test_choi_families(self):
        a = 1.0 / 3.0
        want = 2 * (math.exp(math.pi * a) + math.exp(-math.pi * a)) / (
            (4 * a * a + 1) * math.pi * EXP_EULER_GAMMA)
        assert abs(w_inf(1, a * a + 0.25) - want) <= 1e-11 * want
        b = 0.5
        want = (math.exp(math.pi * b) - math.exp(-math.pi * b)) / (
            2 * b * (b * b + 1) * math.pi * EXP_EULER_GAMMA**2)
        assert abs(w_inf(2, b * b + 1) - want) <= 1e-11 * want

    def test_r_limits(self):
        assert abs(r_inf(-2, 0) - (-2 * EXP_EULER_GAMMA)) <= 2e-11 * EXP_EULER_GAMMA
        want = 1 / (2 * EXP_EULER_GAMMA)
        assert abs(r_inf(2, 0) - want) <= 1e-11 * want
        assert r_inf(0, 0) == pytest.approx(1.0, rel=1e-12)

    def test_weierstrass_recovery(self):
        for p in (0.5, 1.5, 2.5):
            v = w_inf(p, 0) * cmath.exp(ln_gamma(p + 1 + 0j)) * math.exp(p * EULER_GAMMA)
            assert abs(v - 1) <= 1e-11

    def test_pole_gives_flagged_zero(self):
        # (p, q) = (-2, 1): mu = nu = -1, a vanishing factor at j = 1
        assert w_inf(-2, 1) == 0j
        assert r_inf(-1, 0.25) != 0  # quarter-shift args are not poles here

    def test_root_near_a_pole_matches_mpmath(self):
        # a root within 1e-13 of a gamma pole but no exactly zero factor: the product's
        # value, its zeta tail run to infinity, with no zero and no warning
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            for limit, _, a, c, p, q in _near_pole_grid():
                got, want = limit(p, q), complex(_mp_limit(p, q, a, c))
                assert abs(got - want) <= 1e-13 * abs(want), (limit.__name__, p, q, got, want)

    def test_root_near_a_pole_is_the_closed_form_at_infinity(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            for limit, closed, _, _, p, q in _near_pole_grid():
                assert repr(limit(p, q)) == repr(closed(2**1100, p, q)), (limit.__name__, p, q)

    @pytest.mark.parametrize("limit, closed, p, q", [
        # W: the roots 10^10 and -1/2 of d^2 + p d + q; R: 2 * 10^10 - 1 and -1/2
        (w_inf, w_closed, -1e10 + 0.5, -5e9),
        (r_inf, r_closed, -(2e10 - 1.5), -(1e10 - 0.5)),
    ], ids=["W", "R"])
    def test_zero_factor_past_the_head_bound(self, limit, closed, p, q):
        # factor j = 10^10 is exactly zero, a hundred times past the products' head bound
        start = time.perf_counter()
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)  # the limit is silent
            assert limit(p, q) == 0j
        assert time.perf_counter() - start < 0.1
        with pytest.warns(RuntimeWarning, match=r"zero factor at j = 10000000000$"):
            assert closed(10**12, p, q) == 0j
        # a zero beyond n leaves the product, whose head of n factors is refused
        with pytest.raises(ValueError, match="takes a head of 1000000000 factors"):
            closed(10**9, p, q)

    def test_zero_factor_behind_a_far_left_root(self):
        # the roots -2 and -801201337557.25: factor 2 is exactly zero, but the computed small
        # root is -1.99993896484375, off the pole, and the other is left of the shift domain
        p, q = -801201337559.25, 1602402675114.5
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert w_inf(p, q) == 0j
        with pytest.warns(RuntimeWarning, match=r"zero factor at j = 2$"):
            assert w_closed(10, p, q) == 0j
        with pytest.raises(ValueError, match=OUTSIDE):  # factor 2 lies beyond n = 1
            w_closed(1, p, q)

    def test_head_bound_names_no_n(self):
        # the limit's product runs to infinity: its message names p and q only
        with pytest.raises(ValueError, match=r"^the product at p = \(-2000000000000\+0j\)") as info:
            w_inf(-2e12, 1e24)
        assert "n = " not in str(info.value)

    def test_branch_invariance_numeric(self):
        # recompute w_inf with the opposite discriminant root
        import random

        rng = random.Random(7)
        for _ in range(20):
            p = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
            q = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
            d = delta(p, q)
            base = w_inf(p, q)
            flipped = cmath.exp(-p * EULER_GAMMA - ln_gamma(1 + (p - d) / 2)
                                - ln_gamma(1 + (p + d) / 2))
            assert abs(flipped / base - 1) <= 1e-12


class TestClosedForms:
    def test_empty_product(self):
        for n in (1, 7, 123):
            assert w_closed(n, 0, 0) == pytest.approx(1.0, rel=1e-13)
            assert r_closed(n, 0, 0) == pytest.approx(1.0, rel=1e-13)

    def test_wallis_point_reciprocal(self):
        want = 1 / wallis_seq_exact(5)
        assert w_closed(5, 0, -0.25).real == pytest.approx(float(want), rel=1e-12)

    def test_w_matches_product(self):
        got = w_closed(100, 1, 0.5)
        ref = w_product(100, 1, 0.5).value
        assert abs(got / ref - 1) <= 1e-11

    def test_r_negative_real_value(self):
        got = r_closed(50, -2, 0)
        ref = r_product(50, -2, 0).value
        assert got.real < 0
        assert abs(got / ref - 1) <= 1e-11

    def test_r_matches_product(self):
        got = r_closed(100, 2, 0)
        ref = r_product(100, 2, 0).value
        assert abs(got / ref - 1) <= 1e-11

    @pytest.mark.parametrize("n", [2**1024, 2**1100, 10**400], ids=["2^1024", "2^1100", "1e400"])
    def test_n_past_the_double_range_is_the_limit(self, n):
        for p, q in ((1, 0.5), (1 + 1j, 0.5), (-3.5, 2)):
            assert w_closed(n, p, q) == w_inf(p, q)
            assert r_closed(n, p, q) == r_inf(p, q)
        # a zero factor is still found first
        with pytest.warns(RuntimeWarning, match="zero factor at j = 1"):
            assert w_closed(n, -2, 1) == 0j
        with pytest.warns(RuntimeWarning, match="zero factor at j = 2"):
            assert r_closed(n, -3, 0) == 0j

    def test_zero_factor_detected(self):
        with pytest.warns(RuntimeWarning, match="zero factor at j = 1") as w_record:
            assert w_closed(3, -2, 1) == 0j
        with pytest.warns(RuntimeWarning, match="zero factor at j = 2") as r_record:
            # mu = -3 makes the j = 3 odd denominator vanish: 1 - 3/3 = 0
            assert r_closed(5, -3, 0) == 0j
        # the warning points at the caller, not into the shared kernel
        assert [w.filename for w in w_record] == [__file__]
        assert [w.filename for w in r_record] == [__file__]

    def test_root_beyond_range_is_removable(self):
        # a double root at -5 for W (factor j + x) and at -9 for R (factor 2j - 1 + x):
        # both vanishing factors sit at j = 5, beyond every n here.  Over d = c (j + a - 1)
        # the product is exp(-2x sum 1/d) (rf(a + x/c, n) / rf(a, n))^2
        for closed, a, c, x in ((w_closed, 1, 1, -5), (r_closed, mp.mpf(1) / 2, 2, -9)):
            for n in (1, 3, 4):
                ref = (mp.exp(-2 * x * mp.fsum(1 / (c * (j + a - 1)) for j in range(1, n + 1)))
                       * (mp.rf(a + mp.mpf(x) / c, n) / mp.rf(a, n)) ** 2)
                got = closed(n, 2 * x, x * x)
                assert abs(got / complex(ref) - 1) <= 1e-11, (closed.__name__, n)

    @pytest.mark.parametrize("closed, a, c, n, p, q", [
        (w_closed, 1, 1, 35, -30.1, 3),  # factor 30 is 4e-14, not 0
        (w_closed, 1, 1, 3, -4.9999999999999, 6),
        (w_closed, 1, 1, 10, -3 + 1e-13j, 2),
        (r_closed, mp.mpf(1) / 2, 2, 4, -3.4999999999999, 1.5),
        # the root -5e6 sits on a gamma pole beyond n, left of the shift domain Re >= -10^6
        (w_closed, 1, 1, 3, 0, -2.5e13),
    ], ids=["W35", "W3", "W10_complex", "R4", "W3_far_left"])
    def test_root_near_a_pole_is_the_product(self, closed, a, c, n, p, q):
        # a root within 1e-12 of a gamma pole but no exactly zero factor: no zero, no warning
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            got = closed(n, p, q)
        want = complex(_mp_product(n, p, q, a, c))
        assert abs(got - want) <= 1e-13 * abs(want), (got, want)

    def test_mpmath_grid(self):
        # n log-uniform in 1..10^6 with complex p, q in the disk of radius 10; then the
        # scaled roots -5.5+0.7i and 1.2-0.3i at n = 14..19, where Re(n + a - 5.5) reaches
        # 12 and the Stirling tails take over from the direct log-gammas (W at 17, R at 18);
        # then roots above half of n + a, whose log(1 + r/z) the Stirling branch takes
        # from cmath.log, with |q| up to 2500: outside the |p|, |q| <= 10 of the module
        # docstring's 1.9e-14 (worst 2.2e-14, at W_15(-2, 2500)).  One bound, 1e-13, holds
        # every point.
        rng = random.Random(2015)
        kernels = ((w_closed, 1, 1), (r_closed, mp.mpf(1) / 2, 2))
        cases = []
        for _ in range(200):
            n = round(math.exp(rng.uniform(0.0, math.log(1e6))))
            p, q = (cmath.rect(10 * rng.random(), rng.uniform(-math.pi, math.pi))
                    for _ in range(2))
            cases += [(fn, a, c, n, p, q) for fn, a, c in kernels]
        s, t = complex(-5.5, 0.7), complex(1.2, -0.3)
        for n in range(14, 20):
            cases += [(fn, a, c, n, c * (s + t), c * c * s * t) for fn, a, c in kernels]
        for n, p, q in ((20, 0, 900), (13, 1 + 2j, 400 - 3j), (15, -2, 2500)):
            cases += [(fn, a, c, n, p, q) for fn, a, c in kernels]
        errors = ((abs(fn(n, p, q) / complex(_mp_closed(n, p, q, a, c)) - 1), fn.__name__, n, p, q)
                  for fn, a, c, n, p, q in cases)
        worst = max(errors, key=lambda e: e[0])
        assert worst[0] <= 1e-13, worst

    def test_real_parameters_give_real_values(self):
        for p in range(-5, 6):
            for q in range(-8, 9):
                assert w_inf(p, q).imag == 0.0 and r_inf(p, q).imag == 0.0, (p, q)
                for n in (3, 10, 100, 1000):
                    for fn, oracle in ((w_closed, w_product), (r_closed, r_product)):
                        with warnings.catch_warnings():
                            warnings.simplefilter("ignore", RuntimeWarning)  # zero factors
                            got = fn(n, p, q)
                        ref = oracle(n, p, q).value
                        assert got.imag == 0.0, (fn.__name__, n, p, q)
                        assert abs(got - ref) <= 1e-12 * abs(ref), (fn.__name__, n, p, q)

    def test_limit_consistency(self):
        for p, q in ((0, -0.25), (1, 0.5), (2, 2)):
            ratio = w_closed(10**5, p, q) / w_inf(p, q)
            assert abs(ratio - 1) <= 1e-4

    def test_branch_invariance_closed(self):
        import random

        rng = random.Random(11)
        for _ in range(10):
            p = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
            q = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
            ref = w_product(40, p, q).value
            assert abs(w_closed(40, p, q) / ref - 1) <= 1e-12


@pytest.mark.parametrize("call", [
    lambda x: ln_gamma(x),
    lambda x: digamma(complex(1, x)),
    lambda x: w_inf(x, 0),
    lambda x: r_inf(0.5, x),
    lambda x: w_closed(10, complex(x, 1), 0),
    lambda x: r_closed(10, 1, x),
], ids=["ln_gamma", "digamma", "w_inf", "r_inf", "w_closed", "r_closed"])
@pytest.mark.parametrize("x", [math.nan, math.inf, -math.inf])
def test_non_finite_arguments_rejected(call, x):
    with pytest.raises(ValueError, match="must be finite"):
        call(x)


OUTSIDE = r"outside the domain Re >= -1e6"


@pytest.mark.parametrize("call, match", [
    (lambda x: ln_gamma(complex(x, 0.5)), OUTSIDE),
    (lambda x: digamma(complex(x, 0.5)), OUTSIDE),
    (lambda x: w_inf(complex(x, 0.5), 0), OUTSIDE),
    (lambda x: r_inf(complex(x, 0.5), 0), OUTSIDE),
    (lambda x: w_closed(10, complex(x, 0.5), 0), OUTSIDE),
    (lambda x: r_closed(10, complex(x, 0.5), 0), OUTSIDE),
    # a root on a gamma pole beyond n: the product, whose head is all 10^12 factors
    (lambda x: w_closed(10**12, 2 * x, 0),
     r"takes a head of 1000000000000 factors one by one, more than 100000000"),
], ids=["ln_gamma", "digamma", "w_inf", "r_inf", "w_closed", "r_closed", "w_closed_pole"])
def test_far_left_arguments_rejected(call, match):
    # a gamma argument left of Re = -10^6 would take about |Re| steps and as many list
    # entries, and a product head as many factors; each is refused before any of them
    start = time.perf_counter()
    with pytest.raises(ValueError, match=match):
        call(-1e12)
    assert time.perf_counter() - start < 1.0


def test_domain_edge_matches_mpmath():
    # Re z = -10^6 is inside the domain: about 10^6 shift steps, summed exactly
    z = complex(-1e6, 0.5)
    for mine, ref in ((ln_gamma, mp.loggamma), (digamma, mp.digamma)):
        want = complex(ref(mp.mpc(z.real, z.imag)))
        assert abs(mine(z) - want) <= 1e-12 * max(1.0, abs(want)), mine.__name__


def _mp_product(n, p, q, a, c):
    """The product over d = c (j + a - 1), j <= n, factor by factor in mpmath."""
    p = mp.mpc(p)
    q = mp.mpc(q)
    total = mp.mpf(1)
    for j in range(1, n + 1):
        d = c * (j + a - 1)
        total *= mp.exp(-p / d) * (1 + p / d + q / d**2)
    return total


def _mp_closed(n, p, q, a, c):
    """The product over d = c (j + a - 1), j <= n, as a gamma ratio in mpmath."""
    p = mp.mpc(p)
    q = mp.mpc(q)
    d = mp.sqrt(p * p - 4 * q)
    s = (p + d) / (2 * c)
    t = (p - d) / (2 * c)
    z = n + a
    return (mp.e ** (-(p / c) * (mp.digamma(z) - mp.digamma(a)))
            * mp.gamma(z + s) * mp.gamma(z + t) * mp.gamma(a) ** 2
            / (mp.gamma(z) ** 2 * mp.gamma(a + s) * mp.gamma(a + t)))


def _mp_limit(p, q, a, c):
    """The product over d = c (j + a - 1), all j, as a gamma ratio in mpmath."""
    p = mp.mpc(p)
    q = mp.mpc(q)
    d = mp.sqrt(p * p - 4 * q)
    s = (p + d) / (2 * c)
    t = (p - d) / (2 * c)
    return (mp.e ** (p / c * mp.digamma(a)) * mp.gamma(a) ** 2
            * mp.rgamma(a + s) * mp.rgamma(a + t))


def _near_pole_grid():
    """``(limit, closed, a, c, p, q)``, a root ``x`` within 1e-13 of ``-d = -c (j + a - 1)``.

    Then ``a + x/c`` is within 1e-13 of the gamma pole ``1 - j``, for j = 1..60,
    and factor j of the product is that close to zero without being zero.  The
    other root is drawn in the disk of radius 40; every second pair of points is
    complex.  The first two rows are ``w_inf(-30.1, 3)`` and ``r_inf(-29.1, 2.9)``.
    """
    rng = random.Random(30)
    half = mp.mpf(1) / 2
    cases = [(w_inf, w_closed, 1, 1, -30.1, 3), (r_inf, r_closed, half, 2, -29.1, 2.9)]
    for i in range(60):
        limit, closed, a, c = ((w_inf, w_closed, 1, 1), (r_inf, r_closed, half, 2))[i % 2]
        j = rng.randint(1, 60)
        size = rng.uniform(1e-14, 1e-13)
        if i % 4 < 2:
            x = rng.choice((-1, 1)) * size - (c * (j - 1) + 1)
            other = rng.uniform(-40, 40)
        else:
            x = cmath.rect(size, rng.uniform(-math.pi, math.pi)) - (c * (j - 1) + 1)
            other = cmath.rect(40 * rng.random(), rng.uniform(-math.pi, math.pi))
        cases.append((limit, closed, a, c, x + other, x * other))
    return cases


class TestSerProduct:
    def test_first_factor(self):
        assert ser_partial(1) == pytest.approx(math.sqrt(2.0), rel=1e-15)

    def test_second_factor(self):
        want = math.sqrt(2.0) * (4.0 / 3.0) ** (1.0 / 3.0)
        assert ser_partial(2) == pytest.approx(want, rel=1e-14)

    def test_fourth_factor(self):
        want = (math.sqrt(2.0) * (4.0 / 3.0) ** (1.0 / 3.0)
                * (32.0 / 27.0) ** 0.25
                * (2**4 * 4**4 / (3**6 * 5)) ** 0.2)
        assert ser_partial(4) == pytest.approx(want, rel=1e-14)

    def test_monotone_approach_to_exp_gamma(self):
        values = [ser_partial(n) for n in range(1, 13)]
        assert all(a < b for a, b in zip(values, values[1:]))
        assert all(v < EXP_EULER_GAMMA for v in values)
        assert abs(values[-1] - EXP_EULER_GAMMA) < abs(values[3] - EXP_EULER_GAMMA)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            ser_partial(0)

    def test_matches_mpmath_over_its_domain(self):
        log_product = mp.mpf(0)
        for terms in range(1, 18):
            log_product += mp.fsum((-1) ** (k + 1) * mp.binomial(terms, k) * mp.log(k + 1)
                                   for k in range(terms + 1)) / (terms + 1)
            want = mp.exp(log_product)
            assert abs(ser_partial(terms) - want) <= 1e-12 * want, terms

    @pytest.mark.parametrize("terms", [18, 100, 1100])
    def test_rejects_terms_past_its_domain(self, terms):
        # the alternating sums lose about a bit per term: 1.3e-12 relative at 18 terms,
        # OverflowError at 100 and a ValueError from fsum at 1100 without the check
        with pytest.raises(ValueError, match="terms must be in 1..17"):
            ser_partial(terms)
