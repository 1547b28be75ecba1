"""Exact expansion coefficients and numeric verification for Wallis-type products.

The package computes, entirely in exact rational arithmetic, the
coefficient families of the large-n expansions of

    W_n(p, q) = prod_{j<=n} exp(-p/j) (1 + p/j + q/j^2)
    R_n(p, q) = prod_{j<=n} exp(-p/(2j-1)) (1 + p/(2j-1) + q/(2j-1)^2)

and of the classical Wallis sequence, and cross-checks every closed
form, limit value, truncated expansion and sharp bound against direct
brute-force product evaluation.
"""

from .bernoulli import (
    BernoulliTable,
    UniPoly,
    bernoulli_number,
    bernoulli_poly,
    format_rational,
)
from .coeffs import (
    BiPoly,
    CoeffSeries,
    Family,
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
from .expansions import (
    BoundsReport,
    ELEZOVIC_TERMS,
    ErrorReport,
    ExpansionFamily,
    ExpansionTag,
    check_bounds,
    convergence_order,
    deng_beta,
    DENG_ALPHA,
    error_report,
    eval_elezovic,
    eval_r_expansion,
    eval_w_expansion,
    eval_wallis_alpha_beta,
    eval_wallis_mu,
    eval_wallis_nu_exp,
    eval_wallis_omega,
    family_oracle,
    family_report,
    wallis_error_exact,
)
from .products import ProductResult, r_product, w_product, wallis_seq, wallis_seq_exact
from .special import (
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

__version__ = "0.1.0"
