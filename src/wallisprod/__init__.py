"""Exact expansion coefficients and numeric verification for Wallis-type products.

The package computes, entirely in exact rational arithmetic, the
coefficient families of the large-n expansions of

    W_n(p, q) = prod_{j<=n} exp(-p/j) (1 + p/j + q/j^2)
    R_n(p, q) = prod_{j<=n} exp(-p/(2j-1)) (1 + p/(2j-1) + q/(2j-1)^2)

and of the classical Wallis sequence, and cross-checks every closed
form, limit value, truncated expansion and sharp bound against direct
brute-force product evaluation.

The package re-exports the ``__all__`` of ``bernoulli``, ``coeffs``,
``expansions``, ``products`` and ``special``, and it loads them lazily:
``import wallisprod`` imports no submodule, and the first lookup of a name
(``wallisprod.w_inf``) or of a submodule (``wallisprod.coeffs``) imports
the module that defines it (PEP 562).  So a command-line run pays only for
the modules its subcommand uses.  ``_EXPORTS`` is the one table of what
each submodule exports.
"""

from importlib import import_module as _import_module

__version__ = "0.1.0"

_EXPORTS: dict[str, tuple[str, ...]] = {
    "bernoulli": (
        "BernoulliTable",
        "UniPoly",
        "bernoulli_number",
        "bernoulli_poly",
        "format_rational",
    ),
    "coeffs": (
        "BiPoly",
        "CoeffSeries",
        "Family",
        "MAX_ALPHA_BETA_ORDER",
        "a_poly",
        "alpha_beta",
        "b_poly",
        "cache_sizes",
        "eval_bipoly",
        "omega",
        "omega_alt",
        "wallis_mu",
        "wallis_nu",
        "wallis_nu_raw",
    ),
    "expansions": (
        "BoundsReport",
        "DENG_ALPHA",
        "ELEZOVIC_TERMS",
        "ErrorReport",
        "ExpansionFamily",
        "ExpansionTag",
        "check_bounds",
        "convergence_order",
        "deng_beta",
        "error_report",
        "eval_elezovic",
        "eval_r_expansion",
        "eval_w_expansion",
        "eval_wallis_alpha_beta",
        "eval_wallis_mu",
        "eval_wallis_nu_exp",
        "eval_wallis_omega",
        "family_oracle",
        "family_report",
        "wallis_error_exact",
    ),
    "products": ("ProductResult", "r_product", "w_product", "wallis_seq", "wallis_seq_exact"),
    "special": (
        "EULER_GAMMA",
        "EULER_GAMMA_STR",
        "EXP_EULER_GAMMA",
        "EXP_EULER_GAMMA_STR",
        "PoleError",
        "delta",
        "digamma",
        "ln_gamma",
        "r_closed",
        "r_inf",
        "ser_partial",
        "w_closed",
        "w_inf",
        "wilf_constant",
    ),
    # submodules that re-export nothing
    "verify": (),
    "cli": (),
}

# every re-exported name, and every submodule name, to its module
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in (module, *names)}

__all__ = [name for names in _EXPORTS.values() for name in names]


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = _import_module(f"{__name__}.{module}")
    if name != module:
        value = getattr(value, name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_MODULE_OF})
