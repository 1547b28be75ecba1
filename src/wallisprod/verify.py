"""Self-contained verification suites behind the ``verify`` CLI command.

Each suite re-derives a batch of identities at runtime and reports one
pass/fail line per check.  The suites overlap the pytest coverage on
purpose: they are the deployable health check (exit code contract for
CI), while the test suite is the development oracle.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction

from . import coeffs, expansions, products, special
from .bernoulli import bernoulli_number, bernoulli_poly

__all__ = ["CheckResult", "SUITE_NAMES", "run_suite"]


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str = ""


def _check(name: str, condition: bool, detail: str = "") -> CheckResult:
    return CheckResult(name, bool(condition), detail)


def _rel(a: complex, b: complex) -> float:
    return abs(a - b) / max(abs(b), 1e-300)


# ---------------------------------------------------------------------------

def suite_bernoulli() -> list[CheckResult]:
    out = []
    ok = all(
        sum(math.comb(n + 1, k) * bernoulli_number(k) for k in range(n + 1)) == 0
        for n in range(1, 31)
    )
    out.append(_check("bernoulli.recurrence_sum_zero_n<=30", ok))
    out.append(_check("bernoulli.B1_convention", bernoulli_number(1) == Fraction(-1, 2)))
    out.append(_check("bernoulli.odd_vanish", all(
        bernoulli_number(2 * k + 1) == 0 for k in range(1, 16))))
    grid = [Fraction(0), Fraction(1, 2), Fraction(-1, 3), Fraction(5, 4), Fraction(-2)]
    refl = shift = half = True
    for n in range(0, 31):
        poly = bernoulli_poly(n)
        for x in grid:
            if poly.evaluate(1 - x) != (-1) ** n * poly.evaluate(x):
                refl = False
            if (-1) ** n * poly.evaluate(-x) != poly.evaluate(x) + n * x ** max(n - 1, 0):
                shift = False
        if n >= 1 and poly.evaluate(Fraction(1, 2)) != -(1 - Fraction(1, 2 ** (n - 1))) * bernoulli_number(n):
            half = False
    out.append(_check("bernoulli.reflection_identity", refl))
    out.append(_check("bernoulli.shift_identity", shift))
    out.append(_check("bernoulli.half_argument", half))
    return out


def _defining_coeff(j: int, lam: Fraction, x: Fraction, y: Fraction) -> Fraction:
    """Exact ``lam B_j / j + (-1)^(j+1) (B_{j+1}(x) + B_{j+1}(y) - 2 B_{j+1}) / (j (j+1))``.

    For ``j = 1`` the formula is ``(lam + B_2(x) + B_2(y) - 2 B_2) / 2``.
    """
    poly = bernoulli_poly(j + 1)
    pair = poly.evaluate(x) + poly.evaluate(y) - 2 * bernoulli_number(j + 1)
    if j == 1:
        return (lam + pair) / 2
    return lam * bernoulli_number(j) / j + (-1) ** (j + 1) * pair / (j * (j + 1))


def suite_coeffs() -> list[CheckResult]:
    F = Fraction
    out = []
    out.append(_check("coeffs.a_poly_1_3_displays",
                      coeffs.a_poly(1) == coeffs.BiPoly({(2, 0): F(1, 2), (0, 1): F(-1)})
                      and coeffs.a_poly(2) == coeffs.BiPoly(
                          {(3, 0): F(-1, 6), (1, 1): F(1, 2), (2, 0): F(1, 4), (0, 1): F(-1, 2)})
                      and coeffs.a_poly(3) == coeffs.BiPoly(
                          {(4, 0): F(1, 12), (2, 1): F(-1, 3), (0, 2): F(1, 6),
                           (3, 0): F(-1, 6), (1, 1): F(1, 2), (2, 0): F(1, 12), (0, 1): F(-1, 6)})))
    out.append(_check("coeffs.b_poly_1_3_displays",
                      coeffs.b_poly(1) == coeffs.BiPoly({(2, 0): F(1, 8), (0, 1): F(-1, 4)})
                      and coeffs.b_poly(2) == coeffs.BiPoly(
                          {(3, 0): F(-1, 48), (1, 1): F(1, 16), (2, 0): F(1, 16), (0, 1): F(-1, 8)})
                      and coeffs.b_poly(3) == coeffs.BiPoly(
                          {(4, 0): F(1, 192), (2, 1): F(-1, 48), (0, 2): F(1, 96),
                           (3, 0): F(-1, 48), (1, 1): F(1, 16), (2, 0): F(1, 48), (0, 1): F(-1, 24)})))
    out.append(_check("coeffs.nu_values", coeffs.wallis_nu(11).values == (
        F(-1, 4), F(1, 8), F(-5, 96), F(1, 64), F(-1, 320), F(1, 384),
        F(-25, 7168), F(1, 2048), F(29, 9216), F(1, 10240), F(-695, 90112))))
    out.append(_check("coeffs.mu_values", coeffs.wallis_mu(11).values == (
        F(-1, 4), F(5, 32), F(-11, 128), F(83, 2048), F(-143, 8192), F(625, 65536),
        F(-1843, 262144), F(24323, 8388608), F(61477, 33554432),
        F(-14165, 268435456), F(-8084893, 1073741824))))
    ab = coeffs.alpha_beta(5).values
    out.append(_check("coeffs.alpha_beta_levels_1_5",
                      ab[0] == (F(-1, 4), F(5, 8)) and ab[1] == (F(3, 256), F(7, 12))
                      and ab[2] == (F(-53, 16384), F(2113, 3816))
                      and ab[3] == (F(224573, 93782016), F(22119189899, 41134587264))
                      and ab[4] == (F(-596297240983745796931, 176651089583152098705408),
                                    F(38909478384301921254232134966821,
                                      73585322683584986068354328660352))))
    out.append(_check("coeffs.omega_values", coeffs.omega(5).values == (
        F(-1, 4), F(1, 96), F(-1, 320), F(17, 7168), F(-31, 9216))))
    out.append(_check("coeffs.omega_eq_omega_alt_L<=12",
                      coeffs.omega(12).values == coeffs.omega_alt(12).values))
    out.append(_check("coeffs.nu_closed_eq_raw_j<=20",
                      coeffs.wallis_nu(20).values == coeffs.wallis_nu_raw(20).values))
    out.append(_check("coeffs.remark_wallis_specialization", tuple(
        coeffs.a_poly(j).evaluate_exact(0, F(-1, 4)) for j in (1, 2, 3)
    ) == (F(1, 4), F(1, 8), F(5, 96))))
    # exact values at points with rational roots mu, nu of x^2 - p x + q,
    # against the defining Bernoulli-polynomial formula (equal and zero roots included)
    roots = [(F(1, 2), F(1, 2)), (F(0), F(3, 2)), (F(2), F(-1, 3)), (F(-5, 4), F(7, 3))]
    out.append(_check("coeffs.a_poly_at_rational_roots_j<=15", all(
        coeffs.a_poly(j).evaluate_exact(mu + nu, mu * nu) == _defining_coeff(j, mu + nu, mu, nu)
        for j in range(1, 16) for mu, nu in roots)))
    out.append(_check("coeffs.b_poly_at_rational_roots_j<=15", all(
        coeffs.b_poly(j).evaluate_exact(mu + nu, mu * nu)
        == _defining_coeff(j, (mu + nu) / 2, mu / 2, nu / 2)
        for j in range(1, 16) for mu, nu in roots)))
    return out


def suite_closedforms() -> list[CheckResult]:
    out = []
    grid = [(0, -0.25), (1, 0.5), (-1, 0.25), (2, 2), (complex(1, 1), complex(0.5, -1)),
            (0.5, 0), (-0.5, 0.125), (3, -1), (complex(0, 1), complex(0.25, 0.25)),
            (complex(-1.5, 0.5), complex(1, 2))]
    worst_w = worst_r = 0.0
    for n in (10, 100, 1000):
        for p, q in grid:
            worst_w = max(worst_w, abs(products.w_product(n, p, q).value
                                       / special.w_closed(n, p, q) - 1))
            worst_r = max(worst_r, abs(products.r_product(n, p, q).value
                                       / special.r_closed(n, p, q) - 1))
    out.append(_check("closedforms.w_product_vs_w_closed", worst_w <= 1e-10,
                      f"worst {worst_w:.3e}"))
    out.append(_check("closedforms.r_product_vs_r_closed", worst_r <= 1e-10,
                      f"worst {worst_r:.3e}"))
    worst_step = 0.0
    for n, p, q in [(5, 1.0, 0.5), (20, complex(1, 1), complex(0.5, -1)), (50, -0.5, 0.125)]:
        full = products.w_product(n + 1, p, q).value
        step = products.w_product(n, p, q).value
        d = n + 1.0
        step *= cmath.exp(complex(-p) / d) * (1 + complex(p) / d + complex(q) / d**2)
        worst_step = max(worst_step, _rel(full, step))
    out.append(_check("closedforms.incremental_consistency", worst_step <= 1e-13,
                      f"worst rel {worst_step:.3e}"))
    worst_recip = max(
        abs(products.wallis_seq(n) * products.w_product(n, 0, -0.25).value.real - 1)
        for n in (1, 2, 10, 100, 1000, 10**4)
    )
    out.append(_check("closedforms.reciprocal_identity_n<=1e4", worst_recip <= 1e-12,
                      f"worst {worst_recip:.3e}"))
    return out


def suite_limits() -> list[CheckResult]:
    out = []
    eg = special.EXP_EULER_GAMMA
    checks = [
        ("limits.wallis_2_over_pi", special.w_inf(0, -0.25), 2 / math.pi),
        ("limits.wilf", special.w_inf(1, 0.5), special.wilf_constant()),
        ("limits.exp_gamma_over_pi", special.w_inf(-1, 0.25), eg / math.pi),
        ("limits.r_neg2_0", special.r_inf(-2, 0), -2 * eg),
        ("limits.r_2_0", special.r_inf(2, 0), 1 / (2 * eg)),
    ]
    a = 1.0 / 3.0
    checks.append(("limits.choi_family_1",
                   special.w_inf(1, a * a + 0.25),
                   2 * (math.exp(math.pi * a) + math.exp(-math.pi * a))
                   / ((4 * a * a + 1) * math.pi * eg)))
    b = 0.5
    checks.append(("limits.choi_family_2",
                   special.w_inf(2, b * b + 1),
                   (math.exp(math.pi * b) - math.exp(-math.pi * b))
                   / (2 * b * (b * b + 1) * math.pi * eg**2)))
    for name, got, want in checks:
        out.append(_check(name, _rel(got, want) <= 1e-11, f"rel {_rel(got, want):.3e}"))
    for p in (0.5, 1.5):
        v = special.w_inf(p, 0) * cmath.exp(special.ln_gamma(p + 1)) * math.exp(p * special.EULER_GAMMA)
        out.append(_check(f"limits.weierstrass_p={p}", abs(v - 1) <= 1e-11, f"|v-1| {abs(v - 1):.3e}"))
    return out


def suite_bounds() -> list[CheckResult]:
    report = expansions.check_bounds(10**4)
    out = [
        _check("bounds.zero_violations_n<=1e4", report.violations == 0,
               f"violations {report.violations}" + (
                   f", first at n={report.first_violation}" if report.violations else "")),
        _check("bounds.upper_tight_at_n1", report.tight_upper_n == 1,
               f"tight at {report.tight_upper_n}"),
        _check("bounds.beta_decimal", abs(report.beta - 2.614909986) < 5e-10,
               f"beta {report.beta!r}"),
    ]
    return out


SUITES = {
    "bernoulli": suite_bernoulli,
    "coeffs": suite_coeffs,
    "closedforms": suite_closedforms,
    "limits": suite_limits,
    "bounds": suite_bounds,
}

SUITE_NAMES = (*SUITES, "all")


def run_suite(name: str) -> list[CheckResult]:
    """Run one named suite, or all of them."""
    if name == "all":
        results: list[CheckResult] = []
        for fn in SUITES.values():
            results.extend(fn())
        return results
    try:
        return SUITES[name]()
    except KeyError:
        raise ValueError(f"unknown suite: {name!r}") from None
