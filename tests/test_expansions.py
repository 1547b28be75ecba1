"""Truncated expansions: values, measured errors, orders and bounds."""

import math
import random
import time
from fractions import Fraction
from itertools import islice

import mpmath as mp
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wallisprod import coeffs, expansions
from wallisprod.coeffs import alpha_beta, b_poly, cache_sizes, wallis_mu
from wallisprod.expansions import (
    ELEZOVIC_TERMS,
    ExpansionFamily,
    DENG_ALPHA,
    ExpansionTag,
    check_bounds,
    convergence_order,
    deng_beta,
    error_report,
    eval_elezovic,
    eval_r_expansion,
    eval_w_expansion,
    eval_wallis_alpha_beta,
    eval_wallis_mu,
    eval_wallis_nu_exp,
    eval_wallis_omega,
    family_report,
    wallis_error_exact,
    _FAMILIES,
    _approx_scaled,
    _exp_scaled,
    _log_ratio,
    _next_beta,
    _pi_scaled,
    _scaled_terms,
    _wallis_scaled,
)
from wallisprod.products import r_product, w_product, wallis_seq
from wallisprod.special import PoleError

F = Fraction


class TestWExpansion:
    def test_trivial_parameters(self):
        for n in (1, 10, 100):
            assert eval_w_expansion(n, 0, 0, 4) == pytest.approx(1.0, rel=1e-12)

    def test_wallis_point_explicit(self):
        x = 101.0
        want = (2 / math.pi) * math.exp(1 / (4 * x) + 1 / (8 * x**2) + 5 / (96 * x**3))
        got = eval_w_expansion(100, 0, -0.25, 3)
        assert got.imag == pytest.approx(0.0, abs=1e-15)
        assert got.real == pytest.approx(want, rel=1e-12)

    def test_tracks_brute_force(self):
        got = eval_w_expansion(1000, 1, 0.5, 5)
        ref = w_product(1000, 1, 0.5).value
        assert abs(got - ref) <= 1e-11 * abs(ref)

    def test_pole_raises(self):
        with pytest.raises(PoleError):
            eval_w_expansion(10, -2, 1, 3)


class TestRExpansion:
    def test_trivial_parameters(self):
        assert eval_r_expansion(17, 0, 0, 3) == pytest.approx(1.0, rel=1e-12)

    def test_tracks_brute_force(self):
        got = eval_r_expansion(100, 2, 0, 3)
        ref = r_product(100, 2, 0).value
        scale = 10 * abs(float(b_poly(4).evaluate_exact(2, 0))) / 100.5**4
        assert abs(got / ref - 1) <= scale + 1e-12

    def test_negative_value_family(self):
        got = eval_r_expansion(50, -2, 0, 4)
        ref = r_product(50, -2, 0).value
        assert got.real < 0
        assert abs(got / ref - 1) <= 1e-6


class TestWallisScalarFamilies:
    def test_mu_order_one_formula(self):
        for n in (3, 50):
            assert eval_wallis_mu(n, 1) == pytest.approx(
                (math.pi / 2) * (1 - 1 / (4 * n)), rel=1e-15)

    def test_mu_tracks_sequence(self):
        assert abs(eval_wallis_mu(10, 11) - wallis_seq(10)) <= 1e-10

    def test_nu_exp_order_one_formula(self):
        for n in (2, 40):
            assert eval_wallis_nu_exp(n, 1) == pytest.approx(
                (math.pi / 2) * math.exp(-1 / (4 * n)), rel=1e-15)

    def test_nu_exp_tracks_sequence(self):
        assert abs(eval_wallis_nu_exp(100, 11) - wallis_seq(100)) <= 1e-13

    def test_nu_exp_small_n_value(self):
        want = (math.pi / 2) * math.exp(-0.25 + 0.125 - 5.0 / 96.0)
        assert eval_wallis_nu_exp(1, 3) == pytest.approx(want, rel=1e-15)

    def test_alpha_beta_order_capped_before_any_work(self):
        # level 13 alone would take seconds and its error kernel minutes
        before = cache_sizes()
        with pytest.raises(ValueError, match=r"1\.\.12"):
            ExpansionFamily(ExpansionTag.WALLIS_ALPHA_BETA, 13)
        with pytest.raises(ValueError, match=r"1\.\.12"):
            eval_wallis_alpha_beta(100, 13)
        with pytest.raises(ValueError, match=r"1\.\.12"):
            wallis_error_exact(ExpansionTag.WALLIS_ALPHA_BETA, 13, 100)
        assert cache_sizes() == before

    def test_alpha_beta_level_one_formula(self):
        for n in (4, 77):
            want = (math.pi / 2) * (1 - 0.25 / (n + 0.625))
            assert eval_wallis_alpha_beta(n, 1) == pytest.approx(want, rel=1e-15)

    def test_omega_level_one_formula(self):
        for n in (4, 77):
            want = (math.pi / 2) * math.exp(-0.25 / (n + 0.5))
            assert eval_wallis_omega(n, 1) == pytest.approx(want, rel=1e-15)

    def test_omega_tracks_sequence(self):
        assert abs(eval_wallis_omega(100, 5) - wallis_seq(100)) <= 1e-13


class TestElezovic:
    def test_coefficients_frozen(self):
        assert ELEZOVIC_TERMS == (
            (F(-1, 4), 1), (F(3, 256), 3), (F(3, 2048), 4),
            (F(-51, 16384), 5), (F(-75, 65536), 6), (F(2253, 1048576), 7),
        )

    def test_reexpanded_mu_has_no_second_power(self):
        # mu_1 * C(1, 1) * 5/8 + mu_2 = -5/32 + 5/32: the table skips 1/(n+5/8)^2
        from wallisprod.expansions import _reexpand

        coeffs = _reexpand(wallis_mu(7).values, F(5, 8), 7)
        assert coeffs[1] == 0
        assert all(c != 0 for k, c in enumerate(coeffs) if k != 1)
        assert [e for _, e in ELEZOVIC_TERMS] == [1, 3, 4, 5, 6, 7]

    def test_first_term_equals_alpha_beta_level_one(self):
        for n in (5, 100):
            assert eval_elezovic(n, 1) == pytest.approx(
                eval_wallis_alpha_beta(n, 1), rel=1e-15)

    def test_six_terms_tracks_sequence(self):
        # remaining tail is beyond the double-precision floor at n = 100
        assert abs(eval_elezovic(100, 6) - wallis_seq(100)) <= 1e-14
        assert wallis_error_exact(ExpansionTag.ELEZOVIC, 6, 100) <= Fraction(1, 10**17)

    def test_term_count_validated(self):
        with pytest.raises(ValueError):
            eval_elezovic(10, 7)
        with pytest.raises(ValueError):
            ExpansionFamily(ExpansionTag.ELEZOVIC, 7)


class TestImprovementClaims:
    """The shifted/odd families against the plain 1/n families.

    Exact error measurement (2^-60 relative); double precision cannot resolve
    these differences at n = 100.
    """

    def test_order_matched_instances(self):
        e = wallis_error_exact
        assert e(ExpansionTag.WALLIS_ALPHA_BETA, 3, 100) < e(ExpansionTag.WALLIS_MU, 5, 100)
        assert e(ExpansionTag.WALLIS_ALPHA_BETA, 5, 10) < e(ExpansionTag.WALLIS_MU, 9, 10)
        assert e(ExpansionTag.WALLIS_OMEGA, 5, 10) < e(ExpansionTag.WALLIS_NU_EXP, 9, 10)

    def test_equal_term_count_sweep(self):
        e = wallis_error_exact
        for n in (10, 100):
            for level in range(1, 6):
                assert e(ExpansionTag.WALLIS_ALPHA_BETA, level, n) \
                    < e(ExpansionTag.WALLIS_MU, level, n)
                assert e(ExpansionTag.WALLIS_OMEGA, level, n) \
                    < e(ExpansionTag.WALLIS_NU_EXP, level, n)


class TestErrorReports:
    def test_relative_error_none_for_zero_exact(self):
        report = error_report(3, 1.0, 0.0)
        assert report.rel_err is None
        assert report.abs_err == 1.0

    def test_small_n_flagged(self):
        family = ExpansionFamily(ExpansionTag.WALLIS_MU, 9)
        report = family_report(family, 3)
        assert report.note == "asymptotic regime not reached (n < order)"
        assert family_report(family, 100).note is None

    def test_params_validation(self):
        with pytest.raises(ValueError):
            ExpansionFamily(ExpansionTag.W_PQ, 3)
        with pytest.raises(ValueError):
            ExpansionFamily(ExpansionTag.WALLIS_MU, 3, (1, 1))


class TestConvergenceOrder:
    def test_mu_orders(self):
        for order in (1, 2, 3, 4):
            family = ExpansionFamily(ExpansionTag.WALLIS_MU, order)
            for est in convergence_order(family, [100, 200]):
                assert est == pytest.approx(order + 1, abs=0.2)

    def test_w_pq_order(self):
        family = ExpansionFamily(ExpansionTag.W_PQ, 3, (1, 0.5))
        ests = convergence_order(family, [200, 400])
        assert ests[0] == pytest.approx(4, abs=0.2)

    def test_omega_order(self):
        family = ExpansionFamily(ExpansionTag.WALLIS_OMEGA, 2, None)
        for est in convergence_order(family, [100, 200]):
            assert est == pytest.approx(5, abs=0.3)

    def test_degenerate_double_precision_flagged(self):
        # truncation error far below the float noise of the oracle
        family = ExpansionFamily(ExpansionTag.W_PQ, 9, (1, 0.5))
        ests = convergence_order(family, [400, 800])
        assert all(math.isnan(e) for e in ests)

    def test_input_validation(self):
        family = ExpansionFamily(ExpansionTag.WALLIS_MU, 2)
        with pytest.raises(ValueError):
            convergence_order(family, [100])
        with pytest.raises(ValueError):
            convergence_order(family, [100, 100])


class TestScalingInvariants:
    def test_truncation_error_scaling(self):
        # doubling n shrinks the error by ~2^m, m = first omitted exponent
        for tag, orders, exponent in (
            (ExpansionTag.WALLIS_MU, (1, 2, 3), lambda j: j + 1),
            (ExpansionTag.WALLIS_NU_EXP, (1, 2, 3), lambda j: j + 1),
            (ExpansionTag.WALLIS_OMEGA, (1, 2), lambda l: 2 * l + 1),
            (ExpansionTag.WALLIS_ALPHA_BETA, (1, 2), lambda l: 2 * l + 1),
            (ExpansionTag.ELEZOVIC, (1, 2, 3), lambda t: t + 2),
        ):
            for order in orders:
                e100 = wallis_error_exact(tag, order, 100)
                e200 = wallis_error_exact(tag, order, 200)
                ratio = float(e100 / e200)
                m = exponent(order)
                assert 0.8 * 2**m <= ratio <= 1.2 * 2**m, (tag, order, ratio)
        for order in (1, 2, 3):
            e100 = abs(eval_w_expansion(100, 1, 0.5, order) - w_product(100, 1, 0.5).value)
            e200 = abs(eval_w_expansion(200, 1, 0.5, order) - w_product(200, 1, 0.5).value)
            # shifted expansion variable n+1: the factor is (201/101)^m
            want = (201 / 101) ** (order + 1)
            assert 0.8 * want <= e100 / e200 <= 1.2 * want
        for order in (1, 2, 3):
            e100 = abs(eval_r_expansion(100, 1, 0.5, order) - r_product(100, 1, 0.5).value)
            e200 = abs(eval_r_expansion(200, 1, 0.5, order) - r_product(200, 1, 0.5).value)
            want = (200.5 / 100.5) ** (order + 1)
            assert 0.8 * want <= e100 / e200 <= 1.2 * want

    def test_mu_nu_cross_consistency(self):
        # nu-exp and mu truncated at the same even order differ at the
        # next odd order; measure the decay of their difference
        order = 4
        diffs = []
        for n in (200, 400):
            nu_exp = _exact_nu_exp(n, order)
            mu_val = _exact_mu(n, order)
            diffs.append(abs(nu_exp - mu_val))
        est = math.log(float(diffs[0] / diffs[1])) / math.log(2.0)
        assert est == pytest.approx(order + 1, abs=0.3)


def _exact_nu_exp(n, order):
    return _kernel_value(ExpansionTag.WALLIS_NU_EXP, order, n)


def _exact_mu(n, order):
    return _kernel_value(ExpansionTag.WALLIS_MU, order, n)


def _kernel_value(tag, order, n):
    """The truncated family at ``n`` from the fixed-point kernel at 256 bits, as a Fraction."""
    bits = 256
    spec = _FAMILIES[tag]
    value, _ = _approx_scaled(spec, _scaled_terms(spec, order, bits), n, bits)
    return Fraction(value, 1 << bits)


# ---------------------------------------------------------------------------
# Oracles of the exact error kernel
# ---------------------------------------------------------------------------

WALLIS_TAGS = (ExpansionTag.WALLIS_MU, ExpansionTag.WALLIS_NU_EXP,
               ExpansionTag.WALLIS_ALPHA_BETA, ExpansionTag.WALLIS_OMEGA, ExpansionTag.ELEZOVIC)
# largest order drawn per family: the table's cap, or 20 / 12 where it has none
MAX_ORDER = {ExpansionTag.WALLIS_MU: 20, ExpansionTag.WALLIS_NU_EXP: 20,
             ExpansionTag.WALLIS_ALPHA_BETA: 12, ExpansionTag.WALLIS_OMEGA: 12,
             ExpansionTag.ELEZOVIC: 6}
KERNEL_REL = 2.0**-59

with mp.workdps(210):
    PI_200 = Fraction(mp.nstr(+mp.pi, 200))


def _exp_rational(x, cutoff=Fraction(1, 10**200)):
    """Taylor ``exp(x)`` over rationals; requires ``|x| <= 1/2``."""
    assert abs(x) <= Fraction(1, 2)
    term = total = Fraction(1)
    k = 1
    while abs(term) > cutoff:
        term = term * x / k
        total += term
        k += 1
    return total


def _fraction_error(tag, order, n):
    """Error of the family in Fraction arithmetic with a 200-digit pi and the factorial W_n."""
    spec = _FAMILIES[tag]
    s = sum(c / (n + sh) ** e for c, sh, e in spec.terms(order, None))
    approx = PI_200 / 2 * (_exp_rational(s) if spec.exp_form else 1 + s)
    w = Fraction(16**n * math.factorial(n) ** 4,
                 math.factorial(2 * n) * math.factorial(2 * n + 1))
    return abs(w - approx)


def _mp_rational(x):
    return mp.mpf(x.numerator) / x.denominator


def _mpmath_approx(tag, order, n):
    """The truncated family at ``n`` in mpmath, at the working precision."""
    spec = _FAMILIES[tag]
    s = mp.fsum(_mp_rational(c) / (n + _mp_rational(sh)) ** e
                for c, sh, e in spec.terms(order, None))
    return mp.pi / 2 * (mp.exp(s) if spec.exp_form else 1 + s)


def _mpmath_wallis(n):
    """``W_n`` from the central binomial, at the working precision."""
    return mp.mpf(16**n) / ((2 * n + 1) * math.comb(2 * n, n) ** 2)


def _mpmath_error(tag, order, n):
    """Error of the family in mpmath at 120 digits."""
    with mp.workdps(120):
        return abs(_mpmath_approx(tag, order, n) - _mpmath_wallis(n))


def _kernel_rel_to_mpmath(tag, order, n):
    got = wallis_error_exact(tag, order, n)
    assert got.denominator & (got.denominator - 1) == 0  # dyadic
    with mp.workdps(120):
        ref = _mpmath_error(tag, order, n)
        return float(abs(mp.mpf(got.numerator) / got.denominator - ref) / ref)


class TestExactKernel:
    @settings(max_examples=80, deadline=None)
    @given(st.sampled_from(WALLIS_TAGS), st.integers(1, 6), st.integers(1, 400))
    def test_matches_fraction_oracle(self, tag, order, n):
        if tag is ExpansionTag.WALLIS_ALPHA_BETA:
            order = min(order, 5)  # exact powers of the higher betas are slow in the oracle
        got = wallis_error_exact(tag, order, n)
        want = _fraction_error(tag, order, n)
        assert abs(got - want) <= KERNEL_REL * want, (tag, order, n)

    @settings(max_examples=150, deadline=None)
    @given(st.sampled_from(WALLIS_TAGS), st.data(),
           st.one_of(st.integers(1, 30), st.integers(1, 10**4)))
    def test_matches_mpmath(self, tag, data, n):
        order = data.draw(st.integers(1, MAX_ORDER[tag]), label="order")
        assert _kernel_rel_to_mpmath(tag, order, n) <= KERNEL_REL, (tag, order, n)

    @pytest.mark.parametrize("tag, order, n", [
        (ExpansionTag.WALLIS_ALPHA_BETA, 12, 200),
        (ExpansionTag.WALLIS_OMEGA, 6, 10**4),  # error near 1e-54: past a 50-digit pi
        (ExpansionTag.WALLIS_MU, 20, 10**4),
    ])
    def test_deep_errors_match_mpmath(self, tag, order, n):
        assert _kernel_rel_to_mpmath(tag, order, n) <= KERNEL_REL

    def test_alpha_beta_order_12_is_fast(self):
        alpha_beta(12)
        start = time.perf_counter()
        wallis_error_exact(ExpansionTag.WALLIS_ALPHA_BETA, 12, 200)
        assert time.perf_counter() - start < 2.0  # tens of seconds with exact powers of beta_12

    def test_exp_argument_past_one_half(self):
        # s = sum nu_j, j <= 20, at n = 1 is about 47
        assert math.isfinite(eval_wallis_nu_exp(1, 20))
        got = wallis_error_exact(ExpansionTag.WALLIS_NU_EXP, 20, 1)
        assert got > 1
        assert _kernel_rel_to_mpmath(ExpansionTag.WALLIS_NU_EXP, 20, 1) <= KERNEL_REL

    def test_validation_messages_unchanged(self):
        with pytest.raises(ValueError, match="n must be >= 1"):
            wallis_error_exact(ExpansionTag.WALLIS_MU, 3, 0)
        with pytest.raises(ValueError, match=r"order must be in 1\.\.12"):
            wallis_error_exact(ExpansionTag.WALLIS_ALPHA_BETA, 13, 5)
        with pytest.raises(ValueError, match="n must be >= 1"):
            convergence_order(ExpansionFamily(ExpansionTag.WALLIS_OMEGA, 2), [0, 10])

    @settings(max_examples=150, deadline=None)
    @given(st.sampled_from(WALLIS_TAGS), st.data(), st.integers(1, 3000), st.integers(4, 200))
    def test_bounds_cover_the_rounding(self, tag, data, n, bits):
        # at low precision the roundings are many units, so a bound that
        # misses one of them shows
        order = data.draw(st.integers(1, MAX_ORDER[tag]), label="order")
        spec = _FAMILIES[tag]
        value, bound = _approx_scaled(spec, _scaled_terms(spec, order, bits), n, bits)
        w = next(islice(_wallis_scaled(bits), n - 1, None))
        with mp.workdps(150):
            scale = mp.mpf(2) ** bits
            assert abs(value - _mpmath_approx(tag, order, n) * scale) <= bound, \
                (tag, order, n, bits)
            assert 0 <= _mpmath_wallis(n) * scale - w <= 2 * n

    def test_pi_and_exp_within_their_bounds(self):
        with mp.workdps(400):
            for bits in (1, 64, 300, 1000):
                assert abs(_pi_scaled(bits) - mp.pi * mp.mpf(2) ** bits) <= 1
                for x in (0, 1e-30, -3e-5, 0.3, -0.7, 5.5, -40.2, 700.1, 1023.9, -1e6):
                    s = int(mp.mpf(x) * mp.mpf(2) ** bits)
                    value, bound = _exp_scaled(s, bits)
                    assert abs(value - mp.exp(mp.mpf(s) / mp.mpf(2) ** bits)
                               * mp.mpf(2) ** bits) <= bound, (bits, x)
        with pytest.raises(OverflowError):
            _exp_scaled(1025 << 64, 64)

    @settings(max_examples=300, deadline=None)
    @given(st.integers(1, 2**400), st.integers(1, 2**400), st.integers(1, 2**400),
           st.integers(1, 2**400))
    def test_log_ratio_is_correctly_rounded(self, p, q, r, s):
        with mp.workdps(200):
            want = float(mp.log(mp.mpf(p) * s / (mp.mpf(q) * r)))
        assert _log_ratio(F(p, q), F(r, s)) == want

    def test_log_ratio_near_one_and_far_apart(self):
        with mp.workdps(200):
            for a, b in [(F(1), F(1)), (F(10**30 + 1, 10**30), F(1)), (F(1, 3), F(2**-600)),
                         (F(2**-700), F(7, 5)), (F(3, 2), F(3, 4))]:
                want = float(mp.log(mp.mpf(a.numerator) * b.denominator
                                    / (mp.mpf(a.denominator) * b.numerator)))
                assert _log_ratio(a, b) == want, (a, b)

    @pytest.mark.parametrize("tag", WALLIS_TAGS)
    def test_exact_estimates_round_the_log_once(self, tag):
        # close points: a log near 0.4 is where rounding the ratio first costs ulps
        ns = list(range(500, 1000, 37))
        order = min(4, MAX_ORDER[tag])
        errors = [wallis_error_exact(tag, order, n) for n in ns]
        shift = _FAMILIES[tag].est_shift(order)
        with mp.workdps(60):
            want = [float(mp.log(mp.mpf(e1.numerator) * e2.denominator
                                 / (mp.mpf(e1.denominator) * e2.numerator)))
                    / math.log((n2 + shift) / (n1 + shift))
                    for n1, n2, e1, e2 in zip(ns, ns[1:], errors, errors[1:])]
        assert convergence_order(ExpansionFamily(tag, order), ns) == want


class TestNextBeta:
    def test_equals_exact_next_level(self):
        for levels in range(1, 10):
            assert _next_beta(levels) == float(alpha_beta(levels + 1).values[levels][1])

    def test_order_12_does_not_build_level_13(self):
        family = ExpansionFamily(ExpansionTag.WALLIS_ALPHA_BETA, 12)
        ests = convergence_order(family, [200, 400, 800])
        assert cache_sizes()["alpha_beta"] == 12
        assert all(est == pytest.approx(25, abs=0.3) for est in ests)

    @pytest.mark.parametrize("offset", [F(0), F(1, 10**78), F(-1, 10**78)])
    def test_degenerate_next_level_gives_one_half(self, monkeypatch, offset):
        # fabricated mu with mu_3 = alpha_1 * beta_1^2 makes alpha_2 = 0; moved by
        # 1e-78 it is nonzero but within the 256-bit rounding bound
        mu_3 = F(-1, 4) * F(5, 8) ** 2 + offset
        monkeypatch.setattr(coeffs, "_MU", [F(-1, 4), F(5, 32), mu_3, F(1, 7)])
        monkeypatch.setattr(coeffs, "_ALPHA_BETA", [])
        assert _next_beta(1) == 0.5


class TestBounds:
    def test_beta_constant(self):
        assert deng_beta() == pytest.approx(2.614909986, abs=5e-10)

    def test_no_violations_to_1e4(self):
        report = check_bounds(10**4)
        assert report.violations == 0
        assert report.first_violation is None

    def test_upper_bound_tight_at_one(self):
        report = check_bounds(50)
        assert report.tight_upper_n == 1
        assert report.tight_upper_gap <= 1e-12
        # direct substitution: W_1 = 4/3 meets the upper bound exactly
        upper = (math.pi / 2) * (1 - 1 / (4 + deng_beta()))
        assert abs(4.0 / 3.0 - upper) <= 1e-12

    def test_bounds_hold_against_mpmath(self):
        report = check_bounds(10**5)
        assert (report.violations, report.first_violation) == (0, None)
        assert report.tight_upper_n == 1 and report.tight_upper_gap <= 1e-12
        rng = random.Random(9)
        ns = [1, 2, 3, 17, 777, 2 * 10**4, 10**5] + [rng.randint(4, 10**5) for _ in range(8)]
        with mp.workdps(60):
            beta = (32 - 9 * mp.pi) / (3 * mp.pi - 8)
            for n in ns:
                w = mp.pi / 2 * mp.gamma(n + 1) ** 2 / (mp.gamma(n + 0.5) * mp.gamma(n + 1.5))
                lower = mp.pi / 2 * (1 - 1 / (4 * n + mp.mpf(DENG_ALPHA)))
                upper = mp.pi / 2 * (1 - 1 / (4 * n + beta))
                # the lower margin tends to 3 pi / (512 n^3), about 0.018 / n^3
                assert (w - lower) * n**3 > 0.004, n
                if n == 1:
                    assert abs(w - upper) < mp.mpf(10) ** -55
                else:
                    assert w < upper, n

    @staticmethod
    def _patch_walk(monkeypatch, at, change):
        """Run the scan on the running product with ``W_at 2^bits`` replaced by ``change``."""
        walk = expansions._wallis_scaled

        def patched(bits):
            for n, x in enumerate(walk(bits), start=1):
                yield change(x, bits) if n == at else x

        monkeypatch.setattr(expansions, "_wallis_scaled", patched)

    def test_one_ulp_low_at_1e5_is_a_violation(self, monkeypatch):
        # the lower margin at 10^5 is about 0.1 ulp of W_n near pi/2
        self._patch_walk(monkeypatch, 10**5, lambda x, bits: x - (1 << (bits - 52)))
        report = check_bounds(10**5)
        assert (report.violations, report.first_violation) == (1, 10**5)
        assert report.tight_upper_n == 1

    def test_above_the_upper_bound_is_a_violation(self, monkeypatch):
        # the upper margin at 500 is about 5e-8 relative
        self._patch_walk(monkeypatch, 500, lambda x, bits: x + (x >> 20))
        report = check_bounds(600)
        assert (report.violations, report.first_violation) == (1, 500)

    @pytest.mark.parametrize("at,on_bound", [
        # the lower bound pi (8n + 3) / (16n + 10) at n = 7
        (7, lambda pi, one: pi * 59 // 122),
        # the upper bound pi A_n / (2 B_n) at n = 500
        (500, lambda pi, one: pi * (12 * 499 * pi - 8 * 1995 * one)
         // (2 * (5991 * pi - 32 * 499 * one))),
    ])
    def test_unresolved_comparison_raises(self, monkeypatch, at, on_bound):
        self._patch_walk(monkeypatch, at, lambda x, bits: on_bound(_pi_scaled(bits), 1 << bits))
        with pytest.raises(ArithmeticError, match=f"n = {at} "):
            check_bounds(600)

    def test_validation(self):
        with pytest.raises(ValueError):
            check_bounds(0)
