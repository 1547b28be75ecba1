"""Truncated asymptotic expansions, their measured errors, and sharp bounds.

Every family is one entry of the table ``_FAMILIES``, keyed by
:class:`ExpansionTag`.  An entry states the terms ``c_k / (n + s_k)^e_k``
(coefficient source, shift and exponent), the outer form ``1 + s`` or
``exp(s)``, the prefactor (``pi/2``, ``W_inf`` or ``R_inf``), the
brute-force oracle, the shift used for order estimation and, for a finite
or costly family, its largest order.  One evaluator reads the table: in
floats (complex for the two (p, q) families) behind the public ``eval_*``
functions, and over ``Fraction`` for :func:`wallis_error_exact`.  The
``(n + 5/8)`` series of Elezovic, Lin and Vuksic is the ``mu`` series
re-expanded at shift 5/8, so :data:`ELEZOVIC_TERMS` is derived, not typed.

Errors are always measured against the brute-force product oracle, never
against the gamma closed form.  The Wallis-sequence families are measured
in exact rational arithmetic, because their truncation errors drop far
below double precision (the order-5 odd family is at 1e-24 by
``n = 100``): the coefficients and the oracle ``prod 4k^2/(4k^2-1)`` are
exact, and ``pi`` and ``exp`` are 50-digit rational surrogates.  The two
(p, q) families are measured in double precision, where their errors sit
far above the float noise for the orders of interest; estimates that
would be dominated by noise are flagged as NaN.
"""

from __future__ import annotations

import cmath
import math
import sys
from dataclasses import asdict, dataclass
from enum import Enum
from fractions import Fraction
from typing import Callable

from .coeffs import a_poly, alpha_beta, b_poly, eval_bipoly, omega, wallis_mu, wallis_nu
from .products import _Neumaier, r_product, w_product, wallis_seq, wallis_seq_exact
from .special import PI_STR, PoleError, r_inf, w_inf

__all__ = [
    "ExpansionTag",
    "ExpansionFamily",
    "ErrorReport",
    "error_report",
    "family_oracle",
    "family_report",
    "eval_w_expansion",
    "eval_r_expansion",
    "eval_wallis_mu",
    "eval_wallis_nu_exp",
    "eval_wallis_alpha_beta",
    "eval_wallis_omega",
    "eval_elezovic",
    "ELEZOVIC_TERMS",
    "wallis_error_exact",
    "convergence_order",
    "BoundsReport",
    "check_bounds",
    "DENG_ALPHA",
    "deng_beta",
]

_PI_RATIONAL = Fraction(PI_STR)
_HALF = Fraction(1, 2)
_FIVE_EIGHTHS = Fraction(5, 8)


class ExpansionTag(str, Enum):
    W_PQ = "w_pq"
    R_PQ = "r_pq"
    WALLIS_MU = "wallis_mu"
    WALLIS_NU_EXP = "wallis_nu_exp"
    WALLIS_ALPHA_BETA = "wallis_alpha_beta"
    WALLIS_OMEGA = "wallis_omega"
    ELEZOVIC = "elezovic"


@dataclass(frozen=True)
class ExpansionFamily:
    """A truncated expansion: which family, how many terms, which (p, q)."""

    tag: ExpansionTag
    order: int
    params: tuple[complex, complex] | None = None

    def __post_init__(self) -> None:
        spec = _FAMILIES[self.tag]
        spec.check_order(self.order)
        if spec.needs_params != (self.params is not None):
            raise ValueError("params are required exactly for the (p, q) families")


@dataclass(frozen=True)
class ErrorReport:
    """Approximation vs oracle at a single ``n``."""

    n: int
    approx: complex
    exact: complex
    abs_err: float
    rel_err: float | None
    note: str | None = None

    def to_json_dict(self) -> dict:
        return {**asdict(self), "approx": {"re": self.approx.real, "im": self.approx.imag},
                "exact": {"re": self.exact.real, "im": self.exact.imag}}


def error_report(n: int, approx: complex, exact: complex, note: str | None = None) -> ErrorReport:
    approx = complex(approx)
    exact = complex(exact)
    abs_err = abs(approx - exact)
    rel_err = abs_err / abs(exact) if exact != 0 else None
    return ErrorReport(n, approx, exact, abs_err, rel_err, note)


# ---------------------------------------------------------------------------
# The family table
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class _Spec:
    """``prefactor * F(sum_k c_k / (n + s_k)^e_k)`` with ``F(s)`` = ``1 + s`` or ``exp(s)``."""

    terms: Callable[[int, tuple | None], list[tuple]]  # (order, params) -> [(c_k, s_k, e_k)]
    exp_form: bool
    oracle: Callable[[int, tuple | None], complex]
    est_shift: Callable[[int], float]  # x = n + shift in convergence_order
    limit: Callable[[complex, complex], complex] | None = None  # prefactor; pi/2 if None
    max_order: int | None = None

    @property
    def needs_params(self) -> bool:
        return self.limit is not None

    def check_order(self, order: int) -> None:
        if order < 1:
            raise ValueError("order must be >= 1")
        if self.max_order is not None and order > self.max_order:
            raise ValueError(f"order must be in 1..{self.max_order}")


def _powers(values, shift) -> list[tuple]:
    """Terms ``c_j / (n + shift)^j``."""
    return [(c, shift, j) for j, c in enumerate(values, start=1)]


def _next_beta(levels: int) -> float:
    """Shift of the first omitted alpha-beta term; 1/2 where that level degenerates."""
    try:
        return float(alpha_beta(levels + 1).values[levels][1])
    except ZeroDivisionError:
        return 0.5


def _reexpand(values, shift: Fraction, top: int) -> list[Fraction]:
    """Coefficients of ``1/(n + shift)^m``, ``m <= top``, of ``sum_j values[j-1] / n^j``.

    Uses ``n^-j = sum_{m>=j} C(m-1, m-j) shift^(m-j) (n + shift)^-m``.
    """
    return [sum(values[j - 1] * math.comb(m - 1, m - j) * shift ** (m - j)
                for j in range(1, m + 1))
            for m in range(1, top + 1)]


# Shifted expansion of Elezovic, Lin and Vuksic: coefficient and power of
# 1/(n + 5/8) for each nonzero term of the mu series re-expanded at 5/8, up
# to the power 7.  The power-2 coefficient vanishes.
ELEZOVIC_TERMS: tuple[tuple[Fraction, int], ...] = tuple(
    (c, m) for m, c in enumerate(_reexpand(wallis_mu(7).values, _FIVE_EIGHTHS, 7), start=1) if c
)


def _wallis_oracle(n: int, _params: None) -> float:
    return wallis_seq(n)


_FAMILIES: dict[ExpansionTag, _Spec] = {
    ExpansionTag.W_PQ: _Spec(
        lambda k, pq: _powers([eval_bipoly(a_poly(j), *pq) for j in range(1, k + 1)], 1),
        exp_form=True, oracle=lambda n, pq: w_product(n, *pq).value,
        est_shift=lambda k: 1.0, limit=w_inf),
    ExpansionTag.R_PQ: _Spec(
        lambda k, pq: _powers([eval_bipoly(b_poly(j), *pq) for j in range(1, k + 1)], _HALF),
        exp_form=True, oracle=lambda n, pq: r_product(n, *pq).value,
        est_shift=lambda k: 0.5, limit=r_inf),
    ExpansionTag.WALLIS_MU: _Spec(
        lambda k, _: _powers(wallis_mu(k).values, 0),
        exp_form=False, oracle=_wallis_oracle, est_shift=lambda k: 0.0),
    ExpansionTag.WALLIS_NU_EXP: _Spec(
        lambda k, _: _powers(wallis_nu(k).values, 0),
        exp_form=True, oracle=_wallis_oracle, est_shift=lambda k: 0.0),
    # The alpha-beta rationals triple in bit length per level, and a cold build
    # costs about 8x more per level: level 12 takes under a second, 13 several
    # seconds, 14 close to a minute.  The exact error kernel at order 12
    # already takes tens of seconds.
    ExpansionTag.WALLIS_ALPHA_BETA: _Spec(
        lambda k, _: [(a, b, 2 * l - 1) for l, (a, b) in enumerate(alpha_beta(k).values, start=1)],
        exp_form=False, oracle=_wallis_oracle, est_shift=_next_beta, max_order=12),
    ExpansionTag.WALLIS_OMEGA: _Spec(
        lambda k, _: [(c, _HALF, 2 * l - 1) for l, c in enumerate(omega(k).values, start=1)],
        exp_form=True, oracle=_wallis_oracle, est_shift=lambda k: 0.5),
    ExpansionTag.ELEZOVIC: _Spec(
        lambda k, _: [(c, _FIVE_EIGHTHS, e) for c, e in ELEZOVIC_TERMS[:k]],
        exp_form=False, oracle=_wallis_oracle, est_shift=lambda k: 0.625,
        max_order=len(ELEZOVIC_TERMS)),
}


def _exp_rational(x: Fraction, cutoff: Fraction = Fraction(1, 10**45)) -> Fraction:
    """Taylor ``exp(x)`` over rationals; requires ``|x| <= 1/2``."""
    if abs(x) > _HALF:
        raise ValueError("rational exp kernel needs |x| <= 1/2")
    term = Fraction(1)
    total = Fraction(1)
    k = 1
    while abs(term) > cutoff:
        term = term * x / k
        total += term
        k += 1
    return total


def _evaluate(tag: ExpansionTag, order: int, n: int, params: tuple | None = None,
              exact: bool = False):
    """The truncated family at ``n``: a float, a complex for the (p, q) families,
    or with ``exact`` a ``Fraction`` (pi and exp as rational surrogates)."""
    spec = _FAMILIES[tag]
    if n < 1:
        raise ValueError("n must be >= 1")
    spec.check_order(order)
    if exact:
        s = sum(c / (n + sh) ** e for c, sh, e in spec.terms(order, None))
        return _PI_RATIONAL / 2 * (_exp_rational(s) if spec.exp_form else 1 + s)
    if not spec.needs_params:
        s = math.fsum(float(c) / (n + float(sh)) ** e for c, sh, e in spec.terms(order, None))
        return math.pi / 2 * (math.exp(s) if spec.exp_form else 1 + s)
    limit = spec.limit(*params)
    if limit == 0:
        raise PoleError(f"{spec.limit.__name__}(p, q) vanishes through a gamma pole; "
                        "expansion undefined")
    s = 0j  # complex terms: summed in order, as fsum takes only reals
    for c, sh, e in spec.terms(order, params):
        s += c / (n + float(sh)) ** e
    return limit * (cmath.exp(s) if spec.exp_form else 1 + s)


# ---------------------------------------------------------------------------
# Evaluators
# ---------------------------------------------------------------------------

def eval_w_expansion(n: int, p: complex, q: complex, order: int) -> complex:
    """``W_inf(p,q) * exp(sum_{j<=order} a_j(p,q) / (n+1)^j)``."""
    return _evaluate(ExpansionTag.W_PQ, order, n, (p, q))


def eval_r_expansion(n: int, p: complex, q: complex, order: int) -> complex:
    """``R_inf(p,q) * exp(sum_{j<=order} b_j(p,q) / (n+1/2)^j)``."""
    return _evaluate(ExpansionTag.R_PQ, order, n, (p, q))


def eval_wallis_mu(n: int, order: int) -> float:
    """``(pi/2) (1 + sum_{j<=order} mu_j / n^j)``."""
    return _evaluate(ExpansionTag.WALLIS_MU, order, n)


def eval_wallis_nu_exp(n: int, order: int) -> float:
    """``(pi/2) exp(sum_{j<=order} nu_j / n^j)``."""
    return _evaluate(ExpansionTag.WALLIS_NU_EXP, order, n)


def eval_wallis_alpha_beta(n: int, levels: int) -> float:
    """``(pi/2) (1 + sum_{l<=levels} alpha_l / (n + beta_l)^(2l-1))``."""
    return _evaluate(ExpansionTag.WALLIS_ALPHA_BETA, levels, n)


def eval_wallis_omega(n: int, levels: int) -> float:
    """``(pi/2) exp(sum_{l<=levels} omega_l / (n + 1/2)^(2l-1))``."""
    return _evaluate(ExpansionTag.WALLIS_OMEGA, levels, n)


def eval_elezovic(n: int, terms: int) -> float:
    """Truncation of the published ``(n + 5/8)``-shifted series, 1..6 terms."""
    return _evaluate(ExpansionTag.ELEZOVIC, terms, n)


def family_oracle(family: ExpansionFamily, n: int) -> complex:
    """Brute-force reference value for the family at ``n``."""
    return _FAMILIES[family.tag].oracle(n, family.params)


def family_report(family: ExpansionFamily, n: int) -> ErrorReport:
    """ErrorReport of the truncated family against its brute-force oracle."""
    note = "asymptotic regime not reached (n < order)" if n < family.order else None
    approx = _evaluate(family.tag, family.order, n, family.params)
    return error_report(n, approx, family_oracle(family, n), note)


def wallis_error_exact(tag: ExpansionTag, order: int, n: int) -> Fraction:
    """Exact |truncation - oracle| for a Wallis-sequence family.

    The only approximation left is the 50-digit rational surrogate for
    pi, whose effect (~1e-50 relative) is far below any truncation error
    this package deals in.
    """
    spec = _FAMILIES[tag]
    if spec.needs_params:
        raise ValueError(f"not a Wallis-sequence family: {tag}")
    spec.check_order(order)
    return abs(wallis_seq_exact(n) - _evaluate(tag, order, n, exact=True))


# ---------------------------------------------------------------------------
# Empirical convergence order
# ---------------------------------------------------------------------------

def convergence_order(family: ExpansionFamily, n_values: list[int]) -> list[float]:
    """Estimated decay exponents ``log(err(n)/err(n')) / log(x'/x)``.

    One estimate per consecutive pair of ``n_values`` (which must be
    strictly increasing), with ``x = n + shift`` in the family's own
    expansion variable.  Entries whose errors are degenerate (zero, or
    at the double-precision noise floor for the (p, q) families) are
    returned as NaN.
    """
    if len(n_values) < 2:
        raise ValueError("need at least two n values")
    if any(b <= a for a, b in zip(n_values, n_values[1:])):
        raise ValueError("n values must be strictly increasing")
    spec = _FAMILIES[family.tag]
    shift = spec.est_shift(family.order)

    errors: list[Fraction | float] = []
    for n in n_values:
        if not spec.needs_params:
            errors.append(wallis_error_exact(family.tag, family.order, n))
        else:
            report = family_report(family, n)
            noise = 64 * sys.float_info.epsilon * abs(report.exact)
            errors.append(report.abs_err if report.abs_err > noise else math.nan)

    # errors are >= 0 or NaN, so one test catches every degenerate pair
    return [math.log(float(e1 / e2)) / math.log((n2 + shift) / (n1 + shift))
            if e1 > 0 and e2 > 0 else math.nan
            for n1, n2, e1, e2 in zip(n_values, n_values[1:], errors, errors[1:])]


# ---------------------------------------------------------------------------
# Sharp two-sided bounds for the Wallis sequence
# ---------------------------------------------------------------------------

DENG_ALPHA = 2.5


def deng_beta() -> float:
    """``(32 - 9 pi) / (3 pi - 8)``; makes the upper bound exact at n = 1."""
    return (32 - 9 * math.pi) / (3 * math.pi - 8)


@dataclass(frozen=True)
class BoundsReport:
    """Outcome of checking ``(pi/2)(1 - 1/(4n+alpha)) < W_n <= (pi/2)(1 - 1/(4n+beta))``."""

    n_max: int
    violations: int
    first_violation: int | None
    tight_upper_n: int | None
    tight_upper_gap: float
    alpha: float
    beta: float

    def to_json_dict(self) -> dict:
        return asdict(self)


def check_bounds(n_max: int, equality_tol: float = 1e-12) -> BoundsReport:
    """Verify the two-sided bound for every ``1 <= n <= n_max``.

    The running product is kept as a compensated log sum, so ``W_n`` is
    accurate to a few ulp throughout; the inequalities are tested with a
    slack of 8 ulp, far below the analytic margins for n >= 2.  Also
    locates the ``n`` where the upper bound is an equality (by design of
    beta, that is n = 1).
    """
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    beta = deng_beta()
    half_pi = math.pi / 2
    log_sum = _Neumaier()
    violations = 0
    first_violation: int | None = None
    tight_n: int | None = None
    tight_gap = math.inf
    for n in range(1, n_max + 1):
        log_sum.add(math.log1p(1.0 / (4.0 * n * n - 1.0)))
        w = math.exp(log_sum.total)
        slack = 8 * sys.float_info.epsilon * max(1.0, w)
        lower = half_pi * (1 - 1 / (4 * n + DENG_ALPHA))
        upper = half_pi * (1 - 1 / (4 * n + beta))
        if w <= lower - slack or w > upper + slack:
            violations += 1
            if first_violation is None:
                first_violation = n
        gap = abs(w - upper)
        if gap <= equality_tol and gap < tight_gap:
            tight_n = n
            tight_gap = gap
    return BoundsReport(n_max, violations, first_violation, tight_n,
                        tight_gap if tight_n is not None else math.nan,
                        DENG_ALPHA, beta)
