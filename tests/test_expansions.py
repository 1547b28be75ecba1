"""Truncated expansions: values, measured errors, orders and bounds."""

import math
import random
import sys
import time
from fractions import Fraction
from itertools import islice

import mpmath as mp
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wallisprod import coeffs, expansions
from wallisprod._fixed import _exp_scaled, _log_ratio, _pi_scaled
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
    _BETA_BELOW,
    _FAMILIES,
    _TAIL_FROM,
    _approx_scaled,
    _next_beta,
    _scaled_terms,
    _tail_holds,
    _wallis_scaled,
    _wallis_tail,
)
from wallisprod.products import r_product, w_product, wallis_seq
from wallisprod.special import PoleError, r_inf, w_inf

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

    def test_n_past_the_double_range_is_the_limit(self):
        for n in (2**1100, 10**400):
            for f in (eval_wallis_mu, eval_wallis_nu_exp, eval_wallis_alpha_beta,
                      eval_wallis_omega, eval_elezovic):
                assert f(n, 3) == math.pi / 2, f.__name__
            for f, limit in ((eval_w_expansion, w_inf), (eval_r_expansion, r_inf)):
                assert f(n, 1 + 1j, 0.5, 4) == limit(1 + 1j, 0.5), f.__name__
            for tag in ExpansionTag:
                params = (1, 0.5) if _FAMILIES[tag].needs_params else None
                report = family_report(ExpansionFamily(tag, 3, params), n)
                assert report.n == n and report.rel_err <= 1e-13, tag
            family = ExpansionFamily(ExpansionTag.W_PQ, 3, (1, 0.5))
            assert math.isnan(convergence_order(family, [10, n])[0])


@pytest.mark.parametrize("f,tag,args", [
    (eval_wallis_mu, ExpansionTag.WALLIS_MU, (60,)),
    (eval_wallis_nu_exp, ExpansionTag.WALLIS_NU_EXP, (60,)),
    (eval_w_expansion, ExpansionTag.W_PQ, (1, 0.5, 52)),
    (eval_r_expansion, ExpansionTag.R_PQ, (1 + 1j, 0.5, 52)),
])
def test_powers_past_the_double_range_match_mpmath(f, tag, args):
    # (10^6 + s)^e passes the largest double from e = 52 on, while the term is far
    # below the last bit of the sum: the float evaluator gives mpmath's truncated sum
    n, (*params, order) = 10**6, args
    spec = _FAMILIES[tag]
    got = f(n, *args)
    with mp.workdps(50):
        s = mp.fsum(mp.mpmathify(c if isinstance(c, complex) else _mp_rational(c))
                    / (n + _mp_rational(Fraction(sh))) ** e
                    for c, sh, e in spec.terms(order, tuple(params) or None))
        limit = mp.mpmathify(spec.limit(*params)) if params else mp.pi / 2
        want = complex(limit * (mp.exp(s) if spec.exp_form else 1 + s))
    assert abs(got - want) <= 4 * math.ulp(abs(want)), (got, want)


# ---------------------------------------------------------------------------
# Float term tables of the Wallis-sequence families
# ---------------------------------------------------------------------------

FLOAT_EVALS = {ExpansionTag.WALLIS_MU: eval_wallis_mu, ExpansionTag.WALLIS_NU_EXP: eval_wallis_nu_exp,
               ExpansionTag.WALLIS_ALPHA_BETA: eval_wallis_alpha_beta,
               ExpansionTag.WALLIS_OMEGA: eval_wallis_omega, ExpansionTag.ELEZOVIC: eval_elezovic}


@pytest.fixture()
def cold_float_tables():
    """Empty the float term tables for one test and put their entries back after it."""
    tables = expansions._FLOAT_TERMS
    saved = {tag: list(table) for tag, table in tables.items()}
    for table in tables.values():
        table.clear()
    try:
        yield tables
    finally:
        for tag, table in tables.items():
            table[:] = saved[tag]


def _outcome(f, *args):
    """The bits of ``f(*args)``, or ``OverflowError`` when it raises one."""
    try:
        return f(*args).hex()
    except OverflowError:
        return OverflowError


def _rebuilt(tag, n, order):
    """The float evaluator on terms rebuilt from the exact coefficients and converted anew."""
    spec = _FAMILIES[tag]
    x = float(n) if n.bit_length() <= 1024 else math.inf
    s = math.fsum(float(c) * (x + float(sh)) ** -e for c, sh, e in spec.terms(order, None))
    return math.pi / 2 * (math.exp(s) if spec.exp_form else 1 + s)


@pytest.mark.parametrize("tag", FLOAT_EVALS)
def test_float_table_grows_to_the_largest_order_asked(cold_float_tables, tag):
    # every coefficient of these orders is a double, so cold and warm calls give the bits
    # of the formula on the exact terms; each call leaves max(previous, order) entries
    f, table = FLOAT_EVALS[tag], cold_float_tables[tag]
    top = min(_FAMILIES[tag].max_order, 40)
    longest = 0
    for order in (3, 1, top // 2, 2, top, top - 1, top):
        for n in (1, 7, 100, 10**6, 10**15, 2**1100):
            assert _outcome(f, n, order) == _outcome(_rebuilt, tag, n, order), (n, order)
        longest = max(longest, order)
        assert len(table) == longest
    assert all(not cold_float_tables[t] for t in FLOAT_EVALS if t != tag)


def test_refused_calls_leave_every_table_unchanged(cold_float_tables):
    eval_wallis_mu(100, 3)
    eval_wallis_omega(100, 2)
    before = ({tag: list(table) for tag, table in cold_float_tables.items()}, cache_sizes())
    for tag, f in FLOAT_EVALS.items():
        cap = _FAMILIES[tag].max_order
        for n, order, error in ((100, cap + 1, ValueError), (100, 0, ValueError),
                                (0, cap, ValueError), (-5, cap, ValueError),
                                (10.0, cap, TypeError), (10, float(cap), TypeError)):
            with pytest.raises(error):
                f(n, order)
    assert ({tag: list(table) for tag, table in cold_float_tables.items()},
            cache_sizes()) == before


def test_concurrent_float_table_growth(cold_float_tables):
    import threading

    def values():
        return [_outcome(f, n, min(order, _FAMILIES[tag].max_order))
                for tag, f in FLOAT_EVALS.items()
                for order in (5, 60, 2, 300) for n in (3, 250, 10**6)]

    expected = values()  # single-threaded
    tables = {tag: list(table) for tag, table in cold_float_tables.items()}
    for table in cold_float_tables.values():
        table.clear()
    errors, results = [], []
    start = threading.Barrier(8)

    def worker():
        try:
            start.wait(timeout=60)  # all threads grow the tables together
            results.append(values())
        except Exception as exc:  # surfaced after join
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker) for _ in range(start.parties)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
    finally:
        sys.setswitchinterval(interval)
    assert not errors
    assert results == [expected] * start.parties
    assert {tag: list(table) for tag, table in cold_float_tables.items()} == tables


# orders per family, across the coefficients that pass the double range (omega_131, mu_261
# and nu_261 on), up to the cap
FLOAT_GRID_ORDERS = {
    ExpansionTag.WALLIS_MU: (1, 16, 130, 131, 260, 261, 500, 750),
    ExpansionTag.WALLIS_NU_EXP: (1, 15, 130, 131, 260, 261, 300, 1000, 1700, 1800),
    ExpansionTag.WALLIS_OMEGA: (1, 10, 130, 131, 260, 261, 400),
    ExpansionTag.WALLIS_ALPHA_BETA: (1, 6, 11, 12),
    ExpansionTag.ELEZOVIC: (1, 2, 3, 4, 5, 6),
}


@pytest.mark.parametrize("tag", FLOAT_EVALS)
def test_float_evaluator_matches_mpmath_up_to_the_cap(tag):
    # reference: the truncated sum at 50 digits; bound: a few ulp of max(1, sum |term|),
    # which the evaluator meets with and without coefficients past the double range
    f, spec = FLOAT_EVALS[tag], _FAMILIES[tag]
    orders = FLOAT_GRID_ORDERS[tag]
    rng = random.Random(f"float-grid-{tag.value}")
    # at n = 100 the nu terms from about order 1700 on are no longer below the sum's last bit
    ns = [100, 10**6, 10**9] + [round(10 ** rng.uniform(2, 12)) for _ in range(5)]
    with mp.workdps(50):
        coeffs_mp = [(_mp_rational(c), _mp_rational(Fraction(sh)), e)
                     for c, sh, e in spec.terms(orders[-1], None)]
        for n in ns:
            terms = [c / (n + sh) ** e for c, sh, e in coeffs_mp]
            for order in orders:
                s, size = mp.fsum(terms[:order]), max(1, mp.fsum(map(abs, terms[:order])))
                want = mp.pi / 2 * (mp.exp(s) if spec.exp_form else 1 + s)
                if abs(want) > sys.float_info.max:
                    with pytest.raises(OverflowError):
                        f(n, order)
                    continue
                got = f(n, order)
                assert abs(got - want) <= 4 * math.ulp(abs(float(want))) * size, (n, order)
    assert f(2**1100, orders[-1]) == math.pi / 2
    if tag is ExpansionTag.WALLIS_NU_EXP:
        with pytest.raises(OverflowError):  # the truncated value itself, about exp(8000)
            f(1, 25)


def test_wide_term_matches_exact_rationals():
    # c 2^b t^-e where c 2^b or t^e, or both, pass the double range and the term does not
    rng = random.Random(11)
    for _ in range(400):
        e = rng.randint(1, 1800)
        t = rng.choice([1.0, 1.5, 100.0, 2521.0, 1e12 + 0.5, float(10 ** rng.randint(0, 12))])
        c = rng.uniform(0.5, 2) * rng.choice((1, -1))
        b = rng.randint(-1000, 1000) + round(e * math.log2(t))
        want = Fraction(c) * Fraction(2) ** b / Fraction(t) ** e
        got = expansions._wide_term(c, b, t, e)
        assert abs(Fraction(got) - want) <= 4 * Fraction(math.ulp(float(want))), (c, b, t, e)
    assert expansions._wide_term(1.5, 3000, math.inf, 700) == 0
    assert expansions._wide_term(1.5, 1100, 2.0, 2200) == 0  # below the subnormals
    with pytest.raises(OverflowError):
        expansions._wide_term(1.5, 3000, 2.0, 1000)


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


def _mpmath_wallis_far(n):
    """``W_n = (pi/2) Gamma(n+1)^2 / (Gamma(n+1/2) Gamma(n+3/2))`` at the working precision."""
    return mp.pi / 2 * mp.exp(2 * mp.loggamma(n + 1) - mp.loggamma(n + mp.mpf(1) / 2)
                              - mp.loggamma(n + mp.mpf(3) / 2))


def _far_rel_to_mpmath(tag, order, n, got):
    """Relative distance of ``got`` from the mpmath error, carried 80 digits past its size."""
    digits = 80 + (got.denominator.bit_length() - got.numerator.bit_length()) * 3 // 10
    with mp.workdps(digits):
        ref = abs(_mpmath_approx(tag, order, n) - _mpmath_wallis_far(n))
        return float(abs(mp.mpf(got.numerator) / got.denominator - ref) / ref)


def _order_of(tag, order):
    """The decay exponent of the family's error: one past its last power of ``1/n``."""
    return (2 * order + 1 if tag in (ExpansionTag.WALLIS_ALPHA_BETA, ExpansionTag.WALLIS_OMEGA)
            else ELEZOVIC_TERMS[order][1] if tag is ExpansionTag.ELEZOVIC else order + 1)


def _kernel_bits(order, n):
    return (2 * order + 4) * n.bit_length() + 128


def _crossover(order):
    """The smallest ``n`` whose ``W_n`` the kernel takes from the Euler–Maclaurin tail."""
    n = 1
    while 2 * n <= 3 * _kernel_bits(order, n):
        n += 1
    return n


def _product_error(tag, order, n):
    """The kernel's error with ``W_n`` from the running product alone, as it was for every
    ``n``: the tail's oracle."""
    spec = _FAMILIES[tag]
    bits = _kernel_bits(order, n)
    while True:
        a, bound = _approx_scaled(spec, _scaled_terms(spec, order, bits), n, bits)
        w = next(islice(_wallis_scaled(bits), n - 1, None))
        bound += 2 * n
        if bound << 60 <= abs(w - a) - bound:
            return Fraction(abs(w - a), 1 << bits)
        bits *= 2


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

    def test_unresolved_error_doubles_the_precision(self, monkeypatch):
        # a bound as large as the value at the starting precision cannot resolve the error,
        # so the loop doubles the precision once and resolves it there
        tag, order, n = ExpansionTag.WALLIS_MU, 4, 50
        want = wallis_error_exact(tag, order, n)
        seen = []

        def inflated(spec, terms, n, bits):
            seen.append(bits)
            value, bound = _approx_scaled(spec, terms, n, bits)
            return value, (1 << bits if bits == seen[0] else bound)

        monkeypatch.setattr(expansions, "_approx_scaled", inflated)
        got = wallis_error_exact(tag, order, n)
        assert seen == [seen[0], 2 * seen[0]]
        assert abs(got - want) <= KERNEL_REL * want

    def test_gives_up_naming_the_family(self, monkeypatch):
        monkeypatch.setattr(expansions, "_MAX_DOUBLINGS", 0)
        with pytest.raises(ArithmeticError, match=r"^error of wallis_mu order 4 not resolved"):
            wallis_error_exact(ExpansionTag.WALLIS_MU, 4, 50)

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

    def test_refuses_a_pq_family(self):
        with pytest.raises(ValueError, match=r"^not a Wallis-sequence family: "):
            wallis_error_exact(ExpansionTag.W_PQ, 2, 10)

    def test_n_is_any_integer_below_2_to_the_1000(self):
        # no walk to n past the crossover: 10^7 + 1 was refused while the walk cost O(n)
        family = ExpansionFamily(ExpansionTag.WALLIS_MU, 2)
        with pytest.raises(TypeError):
            wallis_error_exact(ExpansionTag.WALLIS_MU, 2, 10.0)
        with pytest.raises(TypeError):
            convergence_order(family, [10.0, 20.0])
        for tag in WALLIS_TAGS:
            start = time.perf_counter()
            got = wallis_error_exact(tag, 1, 10**7 + 1)
            ests = convergence_order(ExpansionFamily(tag, 1), [10**6, 10**7 + 1, 10**12])
            with pytest.raises(ValueError, match=r"n must be < 2\^1000"):
                wallis_error_exact(tag, 1, 2**1000)
            with pytest.raises(ValueError, match=r"n must be < 2\^1000"):
                convergence_order(ExpansionFamily(tag, 1), [10, 2**1000])
            assert time.perf_counter() - start < 1.0
            assert _far_rel_to_mpmath(tag, 1, 10**7 + 1, got) <= KERNEL_REL
            assert all(abs(est - _order_of(tag, 1)) < 1e-3 for est in ests), (tag, ests)

    def test_order_20_far_out_is_fast(self):
        # 11-12 s at n = 10^7 while the running product walked to n
        for n in (10**7, 10**12):
            start = time.perf_counter()
            got = wallis_error_exact(ExpansionTag.WALLIS_NU_EXP, 20, n)
            assert time.perf_counter() - start < 1.0
            assert _far_rel_to_mpmath(ExpansionTag.WALLIS_NU_EXP, 20, n, got) <= KERNEL_REL

    @pytest.mark.parametrize("tag", WALLIS_TAGS)
    def test_tail_equals_the_running_product_across_the_crossover(self, tag):
        # the last point below the crossover, the first past it, and 10^4, at every order
        for order in range(1, MAX_ORDER[tag] + 1):
            first = _crossover(order)
            for n in (first - 1, first, 10**4):
                want = _product_error(tag, order, n)
                got = wallis_error_exact(tag, order, n)
                assert abs(got - want) <= KERNEL_REL * want, (tag, order, n)

    @pytest.mark.parametrize("n", [10**9, 10**12, 10**15])
    def test_far_errors_match_mpmath(self, n):
        # the log-gamma differences cancel some 2 log10(n) digits, so 120 digits for W_n
        with mp.workdps(120):
            w, bound = _wallis_tail(n, 256)
            assert abs(w - _mpmath_wallis_far(n) * mp.mpf(2) ** 256) <= bound
        for tag in WALLIS_TAGS:
            for order in sorted({1, 2, MAX_ORDER[tag]}):
                got = wallis_error_exact(tag, order, n)
                assert _far_rel_to_mpmath(tag, order, n, got) <= KERNEL_REL, (tag, order)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(200, 10**4), st.integers(64, 1200))
    def test_tail_within_its_bound(self, n, bits):
        w, bound = _wallis_tail(n, bits)
        x = next(islice(_wallis_scaled(bits), n - 1, None))
        assert abs(w - x) <= bound + 2 * n
        with mp.workdps(bits // 3 + 30):
            assert abs(w - _mpmath_wallis(n) * mp.mpf(2) ** bits) <= bound, (n, bits)

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
        # log(1 + d) = d - d^2/2 + ...: a structured d, such as (2^53 + 1) / r, can sit
        # within about d (relative) of a rounding tie, so the reference needs twice the
        # digits that 1 + d cancels; here |d| >= 2^-800, about 10^-241
        with mp.workdps(600):
            want = float(mp.log(mp.mpf(p) * s / (mp.mpf(q) * r)))
        assert _log_ratio(F(p, q), F(r, s)) == want

    def test_log_ratio_near_one_and_far_apart(self):
        # the last ratio's log, about 6.8e-48, lies 2^-160 (relative) below a rounding boundary
        tie = F(int("25822498780869085896559191720030118743297057928106716186504863225708"
                    "34659682626475679851107236637934297697044092873682577"),
                int("25822498780869085896559191720030118743297057928283400892982701642973"
                    "92200843385469879178590403401395305620386330421309068"))
        with mp.workdps(200):
            for a, b in [(F(1), F(1)), (F(10**30 + 1, 10**30), F(1)), (F(1, 3), F(2**-600)),
                         (F(2**-700), F(7, 5)), (F(3, 2), F(3, 4)), (F(1), tie)]:
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


def scan_bounds(n_max: int, bits: int) -> tuple[int, int | None, int | None, float]:
    """Test both bounds at every ``1 <= n <= n_max`` with ``bits >= 4 log2(n_max) + 64``.

    The per-n oracle of the bounds certificate.  Returns ``(violations,
    first_violation, tight_upper_n, tight_upper_gap)``.  With
    ``beta = (32 - 9 pi) / (3 pi - 8)`` the bounds read
    ``pi (8n + 3) < W_n (16n + 10)`` and ``2 W_n B_n <= pi A_n``, where
    ``A_n = 12 (n - 1) pi - 8 (4n - 5)`` and ``B_n = (12n - 9) pi - 32 (n - 1) > 0``.
    They are compared in integers scaled by ``2^bits``, with ``W_n`` from the
    library's running product (at most ``2n`` units low) and ``pi`` from
    Machin's formula, each side enclosed by its rounding bound.  The upper
    bound at n = 1, an equality by design of beta, stays unresolved and is
    reported as ``tight_upper_n``; any other unresolved comparison raises
    ``ArithmeticError``.  ``_wallis_scaled`` is read from the module, so a
    test can patch the walk.
    """
    pi, one = _pi_scaled(bits), 1 << bits
    # Every form is linear in n and starts at n = 1: m = 16n + 10,
    # low = (pi + 1)(8n + 3) >= pi (8n + 3), b2 = 2 B_n and up = pi A_n - E_n.
    # E_n = n 2^shift >= 512 n^2 2^bits bounds how far pi A - 2 W B moves
    # when pi moves by one unit and W by 2n; n < 2^((bits - 64) / 4).
    shift = bits + 9 + (bits - 64) // 4
    m, low = 26, 11 * (pi + 1)
    b2, up = 6 * pi, 8 * pi * one - (1 << shift)
    up_step = 12 * pi * pi - 32 * pi * one - (1 << shift)
    violations = 0
    first_violation = tight_n = None
    tight_gap = math.nan
    for n, x in zip(range(1, n_max + 1), expansions._wallis_scaled(bits)):
        if x * m <= low or x * b2 > up:  # not certain to hold: test both ends
            slack = n << shift
            low_broken = (x + 2 * n) * m <= low - m
            up_broken = x * b2 > up + 2 * slack
            up_open = x * b2 > up and not up_broken
            if x * m <= low and not low_broken or up_open and n > 1:
                raise ArithmeticError(f"Wallis bounds at n = {n} not resolved at {bits} bits")
            if low_broken or up_broken:
                violations += 1
                first_violation = first_violation or n
            else:  # the n = 1 equality: |W - upper| = |pi A - 2 W B| / 2B, 2B >= b2 - 24n
                tight_n = n
                tight_gap = float(F(abs(up + slack - x * b2) + slack, (b2 - 24 * n) << bits))
        m += 16
        low += 8 * (pi + 1)
        b2 += 24 * pi - 64 * one
        up += up_step
    return violations, first_violation, tight_n, tight_gap


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
        # the per-n oracle leaves n = 1 unresolved within its enclosure, as an identity must
        *scan, gap = self._scan(1)
        assert scan == [0, None, 1] and gap < 1e-18

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

    @staticmethod
    def _scan(n_max):
        """The per-n oracle over all of ``1..n_max``."""
        return scan_bounds(n_max, 4 * n_max.bit_length() + 64)

    def test_one_ulp_low_at_1e5_is_a_violation(self, monkeypatch):
        # the lower margin at 10^5 is about 0.1 ulp of W_n near pi/2
        self._patch_walk(monkeypatch, 10**5, lambda x, bits: x - (1 << (bits - 52)))
        violations, first_violation, tight_upper_n, _ = self._scan(10**5)
        assert (violations, first_violation) == (1, 10**5)
        assert tight_upper_n == 1

    def test_above_the_upper_bound_is_a_violation(self, monkeypatch):
        # the upper margin at 500 is about 5e-8 relative
        self._patch_walk(monkeypatch, 500, lambda x, bits: x + (x >> 20))
        violations, first_violation, _, _ = self._scan(600)
        assert (violations, first_violation) == (1, 500)

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
            self._scan(600)

    def test_scan_finds_no_violation_past_the_certificate(self):
        assert self._scan(10**4)[:2] == (0, None)

    def test_certificate_holds_from_its_constant(self):
        assert _TAIL_FROM <= 2
        assert _tail_holds(_TAIL_FROM, F(5, 2), _BETA_BELOW) == (True, True)
        assert check_bounds(1).tail_from == _TAIL_FROM
        # 421/161 is beta at pi = 355/113 > pi, just below beta
        assert 0 < deng_beta() - float(_BETA_BELOW) < 4e-6

    @pytest.mark.parametrize("n0", [_TAIL_FROM, 10, 1000, 10**6])
    def test_perturbed_constants_fail_the_certificate(self, n0):
        # the slope 20 - 8c of the ratio test is -2/25 at alpha + 1/100 and about 0.68 at
        # beta - 1/5, so for large n its sign turns against the bound at any n0
        assert _tail_holds(n0, F(5, 2) + F(1, 100), _BETA_BELOW) == (False, True)
        assert _tail_holds(n0, F(5, 2), _BETA_BELOW - F(1, 5)) == (True, False)

    @pytest.mark.parametrize("c", [F(5, 2), F(421, 161), F(5, 2) + F(1, 100),
                                   F(421, 161) - F(1, 5)])
    def test_ratio_test_identity(self, c):
        # f_c(n) = W_n (4n + c)/(4n + c - 1) falls from n to n + 1 exactly where the
        # linear form is positive, with W_n exact
        w = F(1)
        f = [None]
        for n in range(1, 302):
            w *= F(4 * n * n, 4 * n * n - 1)
            f.append(w * (4 * n + c) / (4 * n + c - 1))
        for n in range(1, 301):
            expr = 16 * (n + 1) ** 2 - (4 * n + c) * (4 * n + c + 3)
            assert expr == (16 - 3 * c - c * c) + (20 - 8 * c) * n, (c, n)
            ratio = 1 - f[n + 1] / f[n]
            assert (expr > 0) - (expr < 0) == (ratio > 0) - (ratio < 0), (c, n)

    def test_beta_below_is_beta_at_355_over_113(self):
        assert _BETA_BELOW == F(421, 161)

    @pytest.mark.parametrize("n_max", [1, 2, 10**4, 10**30000], ids=["1", "2", "1e4", "1e30000"])
    def test_report_is_pinned(self, n_max):
        assert tuple(check_bounds(n_max)) == (n_max, 0, None, 1, 0.0, 2.5, 2.6149099861707605, 2)

    def test_huge_n_max_costs_no_scan(self):
        # the ratio test covers every n but the upper bound at n = 1, an identity:
        # nothing depends on n_max
        small = check_bounds(1)
        assert small[1:5] == (0, None, 1, 0.0)  # no violation; the upper bound met exactly at 1
        for n_max in (2, 10**4, 10**12, 10**30000):
            start = time.perf_counter()
            report = check_bounds(n_max)
            assert time.perf_counter() - start < 0.05
            assert report.n_max == n_max and report._replace(n_max=1) == small

    def test_validation(self):
        with pytest.raises(ValueError):
            check_bounds(0)
        with pytest.raises(TypeError):
            check_bounds(2.0)
