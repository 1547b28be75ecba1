"""Gamma machinery, limit constants, closed forms and Ser's product.

mpmath (50 digits) serves as the high-precision cross-oracle for the
special functions; the identity-based oracles (duplication, reflection,
harmonic sums) are independent of any implementation.
"""

import cmath
import math
import random
import warnings
from fractions import Fraction

import mpmath as mp
import pytest

from wallisprod.products import r_product, w_product, wallis_seq_exact
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
        # mu = nu = -5: the vanishing factor sits at j = 5, beyond n = 3
        got = w_closed(3, -10, 25)
        ref = w_product(3, -10, 25).value
        assert abs(got / ref - 1) <= 1e-11

    def test_mpmath_grid(self):
        # n log-uniform in 1..10^6 with complex p, q in the disk of radius 10; then the
        # scaled roots -5.5+0.7i and 1.2-0.3i at n = 14..19, where Re(n + a - 5.5) reaches
        # 12 and the Stirling tails take over from the direct log-gammas (W at 17, R at 18)
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
