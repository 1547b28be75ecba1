"""Brute-force product oracles: accumulation quality and diagnostics."""

import cmath
import itertools
import json
import math
import random
from fractions import Fraction

import mpmath as mp
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wallisprod.coeffs import b_poly
from wallisprod.products import (
    _CHUNK,
    ProductResult,
    _tail_start,
    _tail_sums,
    r_product,
    w_product,
    wallis_seq,
)
from wallisprod.special import r_inf, w_closed, r_closed
from wallisprod.expansions import eval_wallis_omega


def wallis_seq_exact(n: int) -> Fraction:
    """The Wallis partial product ``prod_{k<=n} 4k^2 / (4k^2 - 1)`` as an exact rational.

    ``prod 4k^2/(4k^2-1) = 16^n / ((2n+1) C(2n, n)^2)`` after telescoping
    the odd factors into factorials.  The factors of two of ``C(2n, n)`` are
    cancelled against ``16^n`` first, so the fraction is built from a power
    of two over an odd number and its reduction is cheap.
    """
    c = math.comb(2 * n, n)
    twos = (c & -c).bit_length() - 1
    return Fraction(1 << (4 * n - 2 * twos), (2 * n + 1) * (c >> twos) ** 2)


class TestWProduct:
    def test_empty_exponent(self):
        for n in (1, 10, 500):
            result = w_product(n, 0, 0)
            assert result.value == 1
            assert result.log_abs == 0
            assert result.phase_or_sign == 1.0

    def test_exact_zero_factor(self):
        result = w_product(3, -2, 1)
        assert result.value == 0
        assert result.zero_factor_at == 1
        assert result.log_abs == -math.inf
        assert result.terms == 3

    def test_matches_closed_form(self):
        got = w_product(1000, 1, 0.5).value
        ref = w_closed(1000, 1, 0.5)
        assert abs(got / ref - 1) <= 1e-11

    def test_near_zero_flagged_not_zero(self):
        # representable perturbation below the 1e-15 screen, but not a root
        result = w_product(3, -2.0, 1.0 + 2.0**-50)
        assert result.zero_factor_at is None
        assert result.near_zero_at == 1
        assert result.value != 0

    def test_factor_underflows_to_float_zero(self):
        # 1 + p + q rounds to exactly 0.0 although the exact value is -1e-17
        result = w_product(2, -1e-17, -1.0)
        assert result.zero_factor_at is None
        assert result.near_zero_at == 1
        assert result.value == 0j
        assert result.log_abs == -math.inf

    def test_result_reconstructs_from_log(self):
        result = w_product(50, 1.5, -0.25)
        assert result.value.real == pytest.approx(
            result.phase_or_sign * math.exp(result.log_abs), rel=1e-13)
        complex_result = w_product(50, 1 + 1j, 0.5 - 1j)
        rebuilt = cmath.exp(complex(complex_result.log_abs, complex_result.phase_or_sign))
        assert abs(rebuilt - complex_result.value) <= 1e-13 * abs(complex_result.value)

    def test_rejects_nonpositive_n(self):
        with pytest.raises(ValueError):
            w_product(0, 1, 1)


class TestRProduct:
    def test_empty_exponent(self):
        assert r_product(25, 0, 0).value == 1

    def test_negative_sign_tracked(self):
        # direct 10-term multiplication oracle
        expected = 1.0
        for j in range(1, 11):
            m = 2 * j - 1
            expected *= math.exp(2.0 / m) * (1 - 2.0 / m)
        result = r_product(10, -2, 0)
        assert result.phase_or_sign == -1.0
        assert result.value.real < 0
        assert result.value.real == pytest.approx(expected, rel=1e-12)

    def test_approaches_limit(self):
        result = r_product(10**4, 2, 0).value
        limit = r_inf(2, 0)
        b1 = float(b_poly(1).evaluate_exact(2, 0))  # leading correction scale
        assert abs(result / limit - 1) <= 3 * abs(b1) / 10**4

    def test_odd_denominator_zero_factor(self):
        # factor j = 2 vanishes: 1 - 3/3 = 0
        result = r_product(5, -3, 0)
        assert result.zero_factor_at == 2
        assert result.value == 0


@pytest.mark.parametrize("fn,p,q", [(w_product, -2 - 1j, 2j), (r_product, -3 - 1j, 3j)])
def test_complex_exact_zero_factor(fn, p, q):
    # d = 2 (w) and d = 3 (r) are exact roots of d^2 + p d + q: 4 + (-2-i) 2 + 2i = 0
    result = fn(5, p, q)
    assert (result.zero_factor_at, result.near_zero_at) == (2, None)
    assert (result.value, result.log_abs) == (0j, -math.inf)


class TestWallisSeq:
    def test_first_values(self):
        assert wallis_seq(1) == pytest.approx(4.0 / 3.0, rel=1e-15)
        assert wallis_seq(2) == pytest.approx(64.0 / 45.0, rel=1e-15)

    def test_exact_matches_literal_product(self):
        for n in (1, 2, 3, 17, 100, 200):
            literal = Fraction(1)
            for k in range(1, n + 1):
                literal *= Fraction(4 * k * k, 4 * k * k - 1)
            assert wallis_seq_exact(n) == literal

    def test_exact_equals_factorial_formula(self):
        for n in [*range(1, 301), 5000]:
            want = Fraction(16**n * math.factorial(n) ** 4,
                            math.factorial(2 * n) * math.factorial(2 * n + 1))
            got = wallis_seq_exact(n)
            assert (got.numerator, got.denominator) == (want.numerator, want.denominator), n

    def test_float_tracks_exact(self):
        for n in (10, 100, 1000):
            assert wallis_seq(n) == pytest.approx(float(wallis_seq_exact(n)), rel=5e-15)

    def test_million_terms_vs_omega_expansion(self):
        n = 10**6
        assert abs(wallis_seq(n) - eval_wallis_omega(n, 5)) <= 1e-12 * wallis_seq(n)

    def test_monotone_increasing_bounded(self):
        # incremental product oracle over a long prefix
        half_pi = math.pi / 2
        running = 1.0
        previous = 0.0
        for k in range(1, 2001):
            running *= 4.0 * k * k / (4.0 * k * k - 1.0)
            assert running > previous
            assert running < half_pi
            previous = running
        assert wallis_seq(2000) == pytest.approx(running, rel=1e-12)


class TestCrossConsistency:
    GRID = [
        (0, -0.25), (1, 0.5), (-1, 0.25), (2, 2), (complex(1, 1), complex(0.5, -1)),
        (0.5, 0), (-0.5, 0.125), (3, -1), (complex(0, 1), complex(0.25, 0.25)),
        (complex(-1.5, 0.5), complex(1, 2)),
    ]

    def test_products_match_closed_forms_30_cases(self):
        for n in (10, 100, 1000):
            for p, q in self.GRID:
                w_ratio = w_product(n, p, q).value / w_closed(n, p, q)
                r_ratio = r_product(n, p, q).value / r_closed(n, p, q)
                assert abs(w_ratio - 1) <= 1e-10, (n, p, q)
                assert abs(r_ratio - 1) <= 1e-10, (n, p, q)

    def test_reciprocal_identity(self):
        for n in (1, 2, 5, 10, 100, 1000, 10**4):
            product = w_product(n, 0, -0.25).value.real
            assert abs(wallis_seq(n) * product - 1) <= 1e-12


@given(
    n=st.integers(min_value=1, max_value=60),
    pr=st.floats(min_value=-2, max_value=2, allow_nan=False),
    pi_=st.floats(min_value=-2, max_value=2, allow_nan=False),
    qr=st.floats(min_value=-2, max_value=2, allow_nan=False),
    qi=st.floats(min_value=-2, max_value=2, allow_nan=False),
)
@settings(max_examples=40, deadline=None)
def test_incremental_consistency(n, pr, pi_, qr, qi):
    p = complex(pr, pi_)
    q = complex(qr, qi)
    longer = w_product(n + 1, p, q)
    shorter = w_product(n, p, q)
    if longer.zero_factor_at or shorter.zero_factor_at or shorter.near_zero_at:
        return
    d = n + 1
    factor = cmath.exp(-p / d) * (1 + p / d + q / (d * d))
    stepped = shorter.value * factor
    if abs(stepped) < 1e-12:  # nearly vanishing trailing factor: no relative claim
        return
    assert abs(longer.value - stepped) <= 1e-13 * max(abs(longer.value), abs(stepped), 1e-3)


def _reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


# zero products: an exact zero factor (w at j = 1, r at j = 2), and a factor
# that rounds to exactly 0.0 without being a root
ZERO_PRODUCTS = [(w_product, 3, -2, 1), (w_product, 5, -3, 2), (r_product, 5, -3, 0),
                 (w_product, 2, -1e-17, -1.0), (r_product, 2, -1e-17, -1.0)]


@pytest.mark.parametrize("fn,n,p,q", ZERO_PRODUCTS)
def test_zero_product_json_is_strict(fn, n, p, q):
    # log_abs stays -inf on the result and is written as null
    result = fn(n, p, q)
    assert result.value == 0 and result.log_abs == -math.inf
    data = result.to_json_dict()
    assert data["log_abs"] is None
    text = json.dumps(data, allow_nan=False)
    assert json.loads(text, parse_constant=_reject_constant)["log_abs"] is None


def test_product_result_shape():
    result = w_product(4, 1, 1)
    assert isinstance(result, ProductResult)
    assert result.terms == 4
    data = result.to_json_dict()
    assert set(data) == {"value", "log_abs", "phase_or_sign", "zero_factor_at",
                         "terms", "near_zero_at"}


# ---------------------------------------------------------------------------
# Head/tail accumulation against the per-factor loop and against mpmath
# ---------------------------------------------------------------------------

def _loop_oracle(n, p, q, denominator):
    """Every factor through one loop: the log of the rounded factor and the
    damping term in one exactly rounded ``math.fsum`` each, zero and
    near-zero screens, and sign tracking for real parameters.

    Returns ``(log_abs, phase_or_sign, zero_factor_at, near_zero_at, terms)``.
    """
    p, q = complex(p), complex(q)
    real_mode = p.imag == 0.0 and q.imag == 0.0
    re_terms, im_terms = [], []
    sign = 1.0
    near_at = None
    for j in range(1, n + 1):
        den = denominator(j)
        factor = 1 + p / den + q / (den * den)
        if abs(factor) < 1e-15:
            d = Fraction(den)
            if (d * d + Fraction(p.real) * d + Fraction(q.real) == 0
                    and Fraction(p.imag) * d + Fraction(q.imag) == 0):
                return -math.inf, 0.0, j, near_at, n
            if near_at is None:
                near_at = j
            if factor == 0:
                return -math.inf, 0.0, None, near_at, n
        if real_mode:
            if factor.real < 0.0:
                sign = -sign
            re_terms += (math.log(abs(factor.real)), -p.real / den)
        else:
            term = cmath.log(factor)
            re_terms += (term.real, -p.real / den)
            im_terms += (term.imag, -p.imag / den)
    return (math.fsum(re_terms), sign if real_mode else math.fsum(im_terms),
            None, near_at, n)


_PRODUCTS = {"w": (w_product, lambda j: j), "r": (r_product, lambda j: 2 * j - 1)}


def _tail_oracle(dens, p, q, real_mode):
    """``sum log(1 + z_d) - p/d`` over ``dens`` as (real, imaginary) with
    ``z_d = p/d + q/d^2`` formed per denominator in complex arithmetic and the
    damping terms as quotients ``-p/d``, in one exactly rounded ``math.fsum``
    per part.  Needs ``|z_d| <= 1/2``.
    """
    if real_mode:
        p, q = p.real, q.real
        xs = [p / d + q / (d * d) for d in dens]
        return math.fsum(itertools.chain(map(math.log1p, xs), [-p / d for d in dens])), 0.0
    zs = [p / d + q / (d * d) for d in dens]
    xs = [z.real for z in zs]
    ys = [z.imag for z in zs]
    # log|1+z| = log1p(x(2+x) + y^2) / 2; the damping enters doubled, which is exact
    minus_2p = -2 * p.real
    log_abs = math.fsum(itertools.chain(
        map(math.log1p, [x * (2.0 + x) + y * y for x, y in zip(xs, ys)]),
        [minus_2p / d for d in dens])) / 2
    phase = math.fsum(itertools.chain(map(math.atan2, ys, [1.0 + x for x in xs]),
                                      [-p.imag / d for d in dens]))
    return log_abs, phase


@st.composite
def _tail_cases(draw):
    part = draw(st.sampled_from([st.floats(-2e-3, 2e-3), st.floats(-1e3, 1e3)]))
    p, q = complex(draw(part)), complex(draw(part))
    if draw(st.booleans()):
        p, q = complex(p.real, draw(part)), complex(q.real, draw(part))
    step = draw(st.sampled_from([1, 2]))  # the denominators of w and of r
    # whole chunks from the first denominator at or past d0, then a partial one
    tail = draw(st.one_of(st.sampled_from([1, _CHUNK, _CHUNK + 1]),
                          st.integers(2, 2 * _CHUNK + 1)))
    return p, q, step, tail


@given(_tail_cases())
@settings(max_examples=40, deadline=None)
def test_tail_kernel_matches_tail_oracle(case):
    # the tail chunk by chunk as _product cuts it; the tolerance is a few ulps of
    # sum(|p|/d + |q|/d^2), which bounds every term of both parts, plus a few
    # subnormal spacings per term for parameters near the bottom of the range
    p, q, step, tail = case
    real_mode = p.imag == 0.0 and q.imag == 0.0
    d0 = _tail_start(p, q)
    first = d0 if step == 1 else d0 | 1  # r: the first odd denominator from d0 on
    dens = range(first, first + tail * step, step)
    for start in range(0, tail, _CHUNK):
        chunk = dens[start:start + _CHUNK]
        scale = math.fsum(abs(p) / d + abs(q) / (d * d) for d in chunk)
        tol = 4 * math.ulp(1.0) * scale + 8 * len(chunk) * math.ulp(0.0)
        got = _tail_sums(chunk, p, q, real_mode)
        want = _tail_oracle(chunk, p, q, real_mode)
        assert abs(got[0] - want[0]) <= tol, (p, q, chunk)
        assert abs(got[1] - want[1]) <= tol, (p, q, chunk)

# Zero or at least 1e-2 in size: with tiny nonzero parameters consecutive
# factors round the same way in the loop oracle, whose error then grows
# linearly instead of like a random walk; those are left to the mpmath test.
_part = st.one_of(st.just(0.0), st.floats(1e-2, 50.0), st.floats(-50.0, -1e-2))


@st.composite
def _head_tail_cases(draw):
    kind = draw(st.sampled_from(["integer_roots", "near_root", "negative_span", "real", "complex"]))
    if kind in ("integer_roots", "near_root"):
        # factors (d - a)(d - b) / d^2: exact zeros at d = a, b (odd d only for r)
        a, b = draw(st.integers(1, 40)), draw(st.integers(1, 40))
        p, q = complex(-(a + b)), complex(a * b)
        if kind == "near_root":
            q *= 1 + 2.0**-50
    elif kind == "negative_span":
        # non-integer roots 0 < a < b: the factors between them are negative
        a, b = sorted(draw(st.floats(0.5, 60.0)) for _ in range(2))
        p, q = complex(-(a + b)), complex(a * b)
    elif kind == "real":
        p, q = complex(draw(_part)), complex(draw(_part))
    else:
        p, q = complex(draw(_part), draw(_part)), complex(draw(_part), draw(_part))
    which = draw(st.sampled_from(sorted(_PRODUCTS)))
    # denominators below the tail start: d0 - 1 of 1, 2, 3, ... and d0 // 2 of 1, 3, 5, ...
    d0 = _tail_start(p, q)
    head = d0 - 1 if which == "w" else d0 // 2
    offset = draw(st.one_of(st.sampled_from([-1, 0, 1, _CHUNK, _CHUNK + 1]),
                            st.integers(2, 2 * _CHUNK + 2)))
    return which, max(1, head + offset), p, q


@given(_head_tail_cases())
@settings(max_examples=60, deadline=None)
def test_head_tail_matches_loop_oracle(case):
    which, n, p, q = case
    product, denominator = _PRODUCTS[which]
    got = product(n, p, q)
    log_abs, phase, zero_at, near_at, terms = _loop_oracle(n, p, q, denominator)
    assert (got.zero_factor_at, got.near_zero_at, got.terms) == (zero_at, near_at, terms)
    if log_abs == -math.inf:
        assert got.log_abs == -math.inf and got.value == 0
        return
    assert abs(got.log_abs - log_abs) <= 1e-13 * max(1.0, abs(log_abs))
    if p.imag == 0.0 and q.imag == 0.0:
        assert got.phase_or_sign == phase
    else:
        assert abs(got.phase_or_sign - phase) <= 1e-13 * max(1.0, abs(phase))


@pytest.mark.parametrize("which", sorted(_PRODUCTS))
@pytest.mark.parametrize("p,q", [(-3000 + 0.5j, 100), (-1500.5, 3.0)])
def test_head_of_several_chunks_matches_loop_oracle(which, p, q):
    # a head of thousands of factors: its terms are flushed into several fsum parts
    product, denominator = _PRODUCTS[which]
    head = _tail_start(p, q) // (1 if which == "w" else 2)
    assert 2 * head > _CHUNK
    n = head + 10
    got = product(n, p, q)
    log_abs, phase, zero_at, near_at, terms = _loop_oracle(n, p, q, denominator)
    assert (got.zero_factor_at, got.near_zero_at, got.terms) == (zero_at, near_at, terms)
    assert abs(got.log_abs - log_abs) <= 1e-13 * max(1.0, abs(log_abs))
    if isinstance(p, float):
        assert got.phase_or_sign == phase
    else:
        assert abs(got.phase_or_sign - phase) <= 1e-13 * max(1.0, abs(phase))


def test_parameters_at_the_edge_of_the_double_range():
    # the damping terms sum past the largest double: an infinite log, not an OverflowError
    assert w_product(100, 4e307, 0).log_abs == -math.inf
    assert w_product(100, -4e307, 0).log_abs == math.inf
    assert r_product(100, 4e307j, 0).value == complex(math.inf, math.inf)
    # 4|p| overflows, so every factor takes the per-factor loop
    assert w_product(3, 1e308, 0).value == 0
    for bad in (math.inf, -math.inf, math.nan):
        for p, q in ((bad, 0), (1, complex(0, bad))):
            with pytest.raises(ValueError, match="must be finite"):
                w_product(3, p, q)


_HUGE_PARTS = (0.0, 1.0, -1.0, 1e300, 1.7e308, -1.7e308, 8.9e307)


@pytest.mark.parametrize("fn", [w_product, r_product])
def test_huge_complex_parameters_give_a_log_or_a_phase_error(fn):
    # abs() of a complex whose modulus passes the largest double raises OverflowError;
    # the products measure moduli with hypot, and only a phase sum that is not finite fails
    parts = [complex(x, y) for x in _HUGE_PARTS for y in _HUGE_PARTS]
    for p, q, n in itertools.product(parts, parts, (3, 50)):
        try:
            result = fn(n, p, q)
        except ValueError as exc:
            assert "phase" in str(exc) and "leaves the double range" in str(exc), (p, q, n)
            continue
        assert isinstance(result, ProductResult) and not math.isnan(result.log_abs), (p, q, n)


def test_huge_complex_parameter_values():
    q = complex(1.7e308, 1.7e308)
    with mp.workdps(30):
        want = sum(mp.log(abs(1 + mp.mpc(q) / (j * j))) for j in (1, 2, 3))
    assert w_product(3, 0, q).log_abs == pytest.approx(float(want), rel=1e-15)
    # the damping terms send the log to -inf: the value is 0 whatever the phase
    result = w_product(3, q, 0)
    assert (result.value, result.log_abs, result.phase_or_sign) == (0j, -math.inf, -math.inf)
    data = json.loads(json.dumps(result.to_json_dict(), allow_nan=False))
    assert (data["log_abs"], data["phase_or_sign"]) == (None, None)
    with pytest.raises(ValueError, match="phase"):
        r_product(3, complex(1e300, 1.7e308), 0)


_bound_part = st.floats(-1e12, 1e12, allow_nan=False)


@given(p=st.one_of(_bound_part.map(complex), st.builds(complex, _bound_part, _bound_part)),
       q=st.one_of(_bound_part.map(complex), st.builds(complex, _bound_part, _bound_part)))
@settings(max_examples=300, deadline=None)
def test_tail_start_bounds_every_tail_factor(p, q):
    # |p|/d0 <= 1/4 and |q|/d0^2 <= 1/4, squared so that complex moduli stay
    # rational; both terms fall as d grows, so |p/d + q/d^2| <= 1/2 for d >= d0
    d0 = _tail_start(p, q)
    assert isinstance(d0, int) and d0 >= 1
    p_sq = Fraction(p.real) ** 2 + Fraction(p.imag) ** 2
    q_sq = Fraction(q.real) ** 2 + Fraction(q.imag) ** 2
    assert 16 * p_sq <= d0**2
    assert 16 * q_sq <= d0**4


def _mp_log_product(n, p, q, odd):
    """Complex log (up to 2 pi i) of the product from gamma functions at 50 digits.

    With ``mu + nu = p`` and ``mu nu = q`` each factor is
    ``(d + mu)(d + nu) / d^2``; the damping is ``-p`` times the harmonic sum.
    """
    with mp.workdps(50):
        p, q = mp.mpc(p), mp.mpc(q)
        disc = mp.sqrt(p * p - 4 * q)
        roots = ((p + disc) / 2, (p - disc) / 2)
        if odd:  # d = 2j - 1: prod (d + r) = 2^n Gamma(n + 1/2 + r/2) / Gamma(1/2 + r/2)
            half = mp.mpf(1) / 2
            out = (-p * (mp.digamma(n + half) - mp.digamma(half)) / 2
                   - 2 * (mp.loggamma(n + half) - mp.loggamma(half)))
            for r in roots:
                out += mp.loggamma(n + half + r / 2) - mp.loggamma(half + r / 2)
        else:
            out = -p * mp.harmonic(n) - 2 * mp.loggamma(n + 1)
            for r in roots:
                out += mp.loggamma(n + 1 + r) - mp.loggamma(1 + r)
        return out


_small = st.floats(-2e-3, 2e-3)


@given(p=st.builds(complex, _small, _small), q=st.builds(complex, _small, _small),
       real=st.booleans())
@settings(max_examples=12, deadline=None)
def test_small_parameters_match_mpmath(p, q, real):
    # the regime where every factor is within 1e-2 of 1 and the oracle's own
    # rounding, not the parameters, sets the error
    if real:
        p, q = complex(p.real), complex(q.real)
    real = p.imag == 0.0 and q.imag == 0.0  # then phase_or_sign is the sign
    n = 10**5
    for product, odd in ((w_product, False), (r_product, True)):
        got = product(n, p, q)
        ref = _mp_log_product(n, p, q, odd)
        tol = 2e-15 * max(1.0, float(abs(ref)))
        assert abs(got.log_abs - float(ref.real)) <= tol, (product.__name__, p, q)
        if real:
            assert got.phase_or_sign == 1.0
        else:
            with mp.workdps(50):
                diff = got.phase_or_sign - ref.imag
                wrapped = float(diff - 2 * mp.pi * mp.nint(diff / (2 * mp.pi)))
            assert abs(wrapped) <= tol, (product.__name__, p, q)


def _moderate_parameters():
    """Eight seeded real and eight complex ``(p, q)`` with ``|p|, |q| <= 3``."""
    rng = random.Random(17)
    real = [(complex(rng.uniform(-3, 3)), complex(rng.uniform(-3, 3))) for _ in range(8)]
    r = 3 / math.sqrt(2)  # both parts within r: the modulus within 3
    return real + [(complex(rng.uniform(-r, r), rng.uniform(-r, r)),
                    complex(rng.uniform(-r, r), rng.uniform(-r, r))) for _ in range(8)]


@pytest.mark.parametrize("p,q", _moderate_parameters())
def test_moderate_parameters_match_mpmath(p, q):
    # n is several chunks past d0 <= 13; the phase is taken mod 2 pi
    real = p.imag == 0.0 and q.imag == 0.0
    for n in (5000, 20000, 10**5):
        for product, odd in ((w_product, False), (r_product, True)):
            got = product(n, p, q)
            ref = _mp_log_product(n, p, q, odd)
            tol = 2e-15 * max(1.0, float(abs(ref)))
            assert abs(got.log_abs - float(ref.real)) <= tol, (product.__name__, n, p, q)
            with mp.workdps(50):
                if real:  # the imaginary part is k pi, k odd for a negative product
                    sign = (-1.0) ** int(mp.nint(ref.imag / mp.pi))
                    assert got.phase_or_sign == sign, (product.__name__, n, p, q)
                    continue
                diff = got.phase_or_sign - ref.imag
                wrapped = float(diff - 2 * mp.pi * mp.nint(diff / (2 * mp.pi)))
            assert abs(wrapped) <= tol, (product.__name__, n, p, q)

