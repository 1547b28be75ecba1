"""Truncated expansions: values, measured errors, orders and bounds."""

import math
from fractions import Fraction

import pytest

from wallisprod.coeffs import b_poly, cache_sizes, wallis_mu
from wallisprod.expansions import (
    ELEZOVIC_TERMS,
    ExpansionFamily,
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

    Exact-rational error measurement; double precision cannot resolve
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
    from wallisprod.expansions import _evaluate

    return _evaluate(ExpansionTag.WALLIS_NU_EXP, order, n, exact=True)


def _exact_mu(n, order):
    from wallisprod.expansions import _evaluate

    return _evaluate(ExpansionTag.WALLIS_MU, order, n, exact=True)


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

    def test_validation(self):
        with pytest.raises(ValueError):
            check_bounds(0)
