"""The public surface: ``wallisprod`` lazily re-exports each module's ``__all__``.

That ``import wallisprod`` loads no submodule is checked in a fresh
interpreter by ``tests/test_cli.py::TestImportGraph``; the layering of the
modules is read from their source here.
"""

import ast
import importlib
import re
import time
from pathlib import Path

import pytest

import wallisprod

REEXPORTED = ("bernoulli", "coeffs", "expansions", "products", "special")


def test_init_reexports_exactly_each_modules_all():
    assert {m for m, names in wallisprod._EXPORTS.items() if names} == set(REEXPORTED)
    for module_name, names in wallisprod._EXPORTS.items():
        module = importlib.import_module(f"wallisprod.{module_name}")
        expected = module.__all__ if module_name in REEXPORTED else []
        assert sorted(names) == sorted(expected), module_name
    assert sorted(wallisprod.__all__) == sorted(
        name for m in REEXPORTED for name in importlib.import_module(f"wallisprod.{m}").__all__)


def test_every_name_resolves_to_its_modules_object():
    for module_name, names in wallisprod._EXPORTS.items():
        module = importlib.import_module(f"wallisprod.{module_name}")
        assert getattr(wallisprod, module_name) is module
        for name in names:
            assert getattr(wallisprod, name) is getattr(module, name), name


def test_dir_lists_every_name_and_submodule():
    listed = set(dir(wallisprod))
    for module_name, names in wallisprod._EXPORTS.items():
        assert module_name in listed
        assert set(names) <= listed, module_name
    assert "__version__" in listed


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        wallisprod.no_such_name  # noqa: B018
    assert not hasattr(wallisprod, "_FAMILIES")


def test_star_import_binds_every_reexported_name():
    namespace: dict = {}
    exec("from wallisprod import *", namespace)
    assert {k for k in namespace if k != "__builtins__"} == set(wallisprod.__all__)


def test_version_matches_pyproject():
    text = (Path(__file__).parents[1] / "pyproject.toml").read_text()
    project = text.split("[project]", 1)[1]
    assert wallisprod.__version__ == re.search(r'^version = "([^"]+)"', project, re.M).group(1)


SOURCES = Path(wallisprod.__file__).parent
MODULES = {path.stem for path in SOURCES.glob("*.py")}


def package_imports(module_name: str) -> set[str]:
    """The package modules that a source file imports anywhere, function bodies too."""
    found = set()
    for node in ast.walk(ast.parse((SOURCES / f"{module_name}.py").read_text())):
        if isinstance(node, ast.Import):
            found |= {alias.name.split(".")[1] for alias in node.names
                      if alias.name.startswith("wallisprod.")}
        elif isinstance(node, ast.ImportFrom):
            if node.level:
                base = node.module
            elif node.module == "wallisprod" or (node.module or "").startswith("wallisprod."):
                base = node.module.partition(".")[2] or None
            else:
                continue  # the standard library or a third party
            if base:
                found.add(base.split(".")[0])
            else:
                found |= {alias.name for alias in node.names if alias.name in MODULES}
    return found


class TestLayering:
    """Which package modules each module may import: the layers admit no cycle."""

    @pytest.mark.parametrize("module_name", ["bernoulli", "_fixed"])
    def test_kernels_import_no_package_module(self, module_name):
        assert package_imports(module_name) == set()

    # special asks products for an exactly zero factor, and takes a closed form or limit
    # whose root sits on a gamma pole from the product
    NUMERIC = {"products": set(), "special": {"products"}, "coeffs": set()}

    @pytest.mark.parametrize("module_name", list(NUMERIC))
    def test_numeric_modules_import_only_the_kernels(self, module_name):
        assert package_imports(module_name) <= {"bernoulli", "_fixed", *self.NUMERIC[module_name]}

    def test_expansions_imports_neither_verify_nor_cli(self):
        assert not package_imports("expansions") & {"verify", "cli"}

    def test_the_walk_sees_every_kind_of_import(self):
        # module level (expansions), function level (cli) and "from . import x" (verify)
        assert {"_fixed", "coeffs", "products"} <= package_imports("expansions")
        assert {"coeffs", "expansions", "verify"} <= package_imports("cli")
        assert {"coeffs", "expansions", "products", "special"} <= package_imports("verify")


class TestRecordTypes:
    """The frozen record types: positional construction, validation, immutability."""

    @staticmethod
    def records():
        from wallisprod import coeffs, expansions, products, verify
        tag = expansions.ExpansionTag.WALLIS_MU
        return [
            (coeffs.CoeffSeries(coeffs.Family.NU, 1, (1,)), "values"),
            (products.ProductResult(1 + 0j, 0.0, 1.0, None, 3), "near_zero_at"),
            (expansions.ExpansionFamily(tag, 2), "order"),
            (expansions.ErrorReport(5, 1j, 1j, 0.0, 0.0), "note"),
            (expansions._FAMILIES[tag], "exp_form"),
            (expansions.BoundsReport(1, 0, None, 1, 0.0, 2.5, 1.2), "violations"),
            (verify.CheckResult("name", True), "passed"),
        ]

    def test_positional_construction_with_defaults(self):
        from wallisprod import expansions, products, verify
        result = products.ProductResult(2j, 0.5, 1.25, None, 7)
        assert (result.value, result.log_abs, result.phase_or_sign) == (2j, 0.5, 1.25)
        assert (result.zero_factor_at, result.terms, result.near_zero_at) == (None, 7, None)
        family = expansions.ExpansionFamily(expansions.ExpansionTag.WALLIS_OMEGA, 3)
        assert (family.order, family.params) == (3, None)
        assert expansions.ErrorReport(1, 1j, 1j, 0.0, None).note is None
        assert verify.CheckResult("x", False).detail == ""
        spec = expansions._Spec(None, True, None, None, 5)
        assert (spec.limit, spec.max_order, spec.needs_params) == (None, 5, False)

    def test_validation_errors(self):
        from fractions import Fraction

        from wallisprod import coeffs, expansions
        with pytest.raises(ValueError, match="value count must equal the order"):
            coeffs.CoeffSeries(coeffs.Family.MU, 2, (Fraction(1),))
        with pytest.raises(ValueError, match="series order must be >= 1"):
            coeffs.CoeffSeries(coeffs.Family.MU, 0, ())
        tag = expansions.ExpansionTag
        with pytest.raises(ValueError, match="order must be >= 1"):
            expansions.ExpansionFamily(tag.WALLIS_MU, 0)
        with pytest.raises(ValueError, match=r"order must be in 1\.\.12"):
            expansions.ExpansionFamily(tag.WALLIS_ALPHA_BETA, 13)
        with pytest.raises(ValueError, match="params are required exactly"):
            expansions.ExpansionFamily(tag.W_PQ, 2)
        with pytest.raises(ValueError, match="params are required exactly"):
            expansions.ExpansionFamily(tag.WALLIS_MU, 2, (1, 0.5))

    def test_fields_cannot_be_assigned(self):
        for record, field in self.records():
            before = getattr(record, field)
            with pytest.raises(AttributeError):
                setattr(record, field, None)
            with pytest.raises(AttributeError):
                record.no_such_field = None
            assert getattr(record, field) == before
            assert not hasattr(record, "no_such_field")


# Each count argument of a public entry point: (id, call with x as that count, lowest count).
T = wallisprod.ExpansionTag
_PQ_FAMILY = (T.W_PQ, 3, (1, 0.5))
COUNT_ARGS = [
    ("bernoulli_number", wallisprod.bernoulli_number, 0),
    ("a_poly", wallisprod.a_poly, 1),
    ("b_poly", wallisprod.b_poly, 1),
    ("CoeffSeries", lambda x: wallisprod.CoeffSeries(wallisprod.Family.MU, x, ()), 1),
    ("wallis_nu", wallisprod.wallis_nu, 1),
    ("wallis_nu_raw", wallisprod.wallis_nu_raw, 1),
    ("wallis_mu", wallisprod.wallis_mu, 1),
    ("alpha_beta", wallisprod.alpha_beta, 1),
    ("omega", wallisprod.omega, 1),
    ("omega_alt", wallisprod.omega_alt, 1),
    ("w_product", lambda x: wallisprod.w_product(x, 1, 0.5), 1),
    ("r_product", lambda x: wallisprod.r_product(x, 1, 0.5), 1),
    ("wallis_seq", wallisprod.wallis_seq, 1),
    ("w_closed", lambda x: wallisprod.w_closed(x, 1, 0.5), 1),
    ("r_closed", lambda x: wallisprod.r_closed(x, 1, 0.5), 1),
    ("ser_partial", wallisprod.ser_partial, 1),
    ("ExpansionFamily.order", lambda x: wallisprod.ExpansionFamily(T.WALLIS_MU, x), 1),
    ("eval_w_expansion.n", lambda x: wallisprod.eval_w_expansion(x, 1, 0.5, 3), 1),
    ("eval_w_expansion.order", lambda x: wallisprod.eval_w_expansion(100, 1, 0.5, x), 1),
    ("eval_r_expansion.n", lambda x: wallisprod.eval_r_expansion(x, 1, 0.5, 3), 1),
    ("eval_r_expansion.order", lambda x: wallisprod.eval_r_expansion(100, 1, 0.5, x), 1),
    *((f"{name}.{arg}", call, 1)
      for name in ("eval_wallis_mu", "eval_wallis_nu_exp", "eval_wallis_alpha_beta",
                   "eval_wallis_omega", "eval_elezovic")
      for arg, call in (("n", lambda x, f=name: getattr(wallisprod, f)(x, 3)),
                        ("order", lambda x, f=name: getattr(wallisprod, f)(100, x)))),
    ("family_report.wallis", lambda x: wallisprod.family_report(
        wallisprod.ExpansionFamily(T.WALLIS_MU, 3), x), 1),
    ("family_report.pq", lambda x: wallisprod.family_report(
        wallisprod.ExpansionFamily(*_PQ_FAMILY), x), 1),
    ("wallis_error_exact.order", lambda x: wallisprod.wallis_error_exact(T.WALLIS_MU, x, 10), 1),
    ("wallis_error_exact.n", lambda x: wallisprod.wallis_error_exact(T.WALLIS_MU, 3, x), 1),
    # the later n of a grid too: the (p, q) route would evaluate n = 1 first
    ("convergence_order.first", lambda x: wallisprod.convergence_order(
        wallisprod.ExpansionFamily(*_PQ_FAMILY), [x, 10**6]), 1),
    ("convergence_order.last", lambda x: wallisprod.convergence_order(
        wallisprod.ExpansionFamily(*_PQ_FAMILY), [1, x]), 1),
    ("check_bounds", wallisprod.check_bounds, 1),
]

# Each exact build and each expansion family past its cap in bernoulli._CAPS:
# (id, call with x as the count, lowest count, cap).
CAPS = wallisprod.bernoulli._CAPS
_CAPPED_FAMILIES = [(T.W_PQ, CAPS["a"]), (T.R_PQ, CAPS["b"]), (T.WALLIS_MU, CAPS["mu"]),
                    (T.WALLIS_NU_EXP, CAPS["nu"]), (T.WALLIS_ALPHA_BETA, CAPS["alpha_beta"]),
                    (T.WALLIS_OMEGA, CAPS["omega"]),
                    (T.ELEZOVIC, len(wallisprod.ELEZOVIC_TERMS))]
CAP_ARGS = [
    ("bernoulli_number", wallisprod.bernoulli_number, 0, CAPS["bernoulli"]),
    *((name, getattr(wallisprod, name), 1, CAPS[key]) for name, key in (
        ("a_poly", "a"), ("b_poly", "b"), ("wallis_nu", "nu"), ("wallis_nu_raw", "nu_raw"),
        ("wallis_mu", "mu"), ("alpha_beta", "alpha_beta"), ("omega", "omega"),
        ("omega_alt", "omega"))),
    *((f"ExpansionFamily.{tag.value}", lambda x, t=tag: wallisprod.ExpansionFamily(
        t, x, (1, 0.5) if t in (T.W_PQ, T.R_PQ) else None), 1, cap)
      for tag, cap in _CAPPED_FAMILIES),
    # the exact error kernel: its own cap, below the family's
    ("wallis_error_exact", lambda x: wallisprod.wallis_error_exact(T.WALLIS_MU, x, 10), 1,
     CAPS["error_order"]),
    ("convergence_order", lambda x: wallisprod.convergence_order(
        wallisprod.ExpansionFamily(T.WALLIS_OMEGA, x), [10, 100]), 1, CAPS["error_order"]),
]

# Each public entry point that takes (p, q): (id, call with those parameters).
PQ_ARGS = [
    ("w_product", lambda p, q: wallisprod.w_product(10, p, q)),
    ("r_product", lambda p, q: wallisprod.r_product(10, p, q)),
    ("delta", wallisprod.delta),
    ("w_inf", wallisprod.w_inf),
    ("r_inf", wallisprod.r_inf),
    ("w_closed", lambda p, q: wallisprod.w_closed(10, p, q)),
    ("r_closed", lambda p, q: wallisprod.r_closed(10, p, q)),
    # a_1 written out, so that no memo entry is built
    ("eval_bipoly", lambda p, q: wallisprod.eval_bipoly(
        wallisprod.BiPoly({(2, 0): 0.5, (0, 1): -1}), p, q)),
    ("eval_w_expansion", lambda p, q: wallisprod.eval_w_expansion(100, p, q, 3)),
    ("eval_r_expansion", lambda p, q: wallisprod.eval_r_expansion(100, p, q, 3)),
    ("family_report", lambda p, q: wallisprod.family_report(
        wallisprod.ExpansionFamily(T.W_PQ, 3, (p, q)), 100)),
]

# Each product whose head, the factors taken one by one, passes 10^8: (id, call, head).
HEAD_ARGS = [
    ("w_product", lambda: wallisprod.w_product(2 * 10**8, 1e8, 0), 2 * 10**8),
    ("r_product", lambda: wallisprod.r_product(2 * 10**8, 1e8, 0), 2 * 10**8),
    # D = 4 r + 2 = 10^8 + 2: one factor past the bound
    ("w_product.edge", lambda: wallisprod.w_product(10**9, 25000000.25, 0), 10**8 + 1),
    # 4 r past the double range: all n factors would be in the head
    ("w_product.huge", lambda: wallisprod.w_product(10**8 + 1, 1e308, 1e308), 10**8 + 1),
    # a double root on a far-left gamma pole whose factor is not exactly zero (1e24 is not
    # 10^24): the limit is the product's, with a head of 4 r = 6 |p| factors
    ("w_inf", lambda: wallisprod.w_inf(-2e12, 1e24), 12 * 10**12),
    ("r_inf", lambda: wallisprod.r_inf(-4e12 - 2, 4.000000000004e24), 12 * 10**12 + 6),
]


class TestDomains:
    """One statement of each domain: counts are integers at or above a floor, (p, q) finite."""

    @pytest.mark.parametrize("call,low", [args[1:] for args in COUNT_ARGS],
                             ids=[args[0] for args in COUNT_ARGS])
    @pytest.mark.parametrize("bad", [2.0, float("nan"), float("inf"), None],
                             ids=["float", "nan", "inf", "below"])
    def test_counts(self, call, low, bad):
        error, match = (ValueError, f"must be >= {low}") if bad is None else (TypeError, None)
        before = wallisprod.cache_sizes()
        with pytest.raises(error, match=match):
            call(low - 1 if bad is None else bad)
        assert wallisprod.cache_sizes() == before  # refused before any work

    @pytest.mark.parametrize("call,low,cap", [args[1:] for args in CAP_ARGS],
                             ids=[args[0] for args in CAP_ARGS])
    def test_caps(self, call, low, cap):
        before = wallisprod.cache_sizes()
        start = time.perf_counter()
        with pytest.raises(ValueError, match=rf"must be in {low}\.\.{cap}$"):
            call(cap + 1)
        assert time.perf_counter() - start < 0.01  # refused at entry
        assert wallisprod.cache_sizes() == before

    @pytest.mark.parametrize("call", [args[1] for args in PQ_ARGS],
                             ids=[args[0] for args in PQ_ARGS])
    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")],
                             ids=["nan", "inf", "-inf"])
    @pytest.mark.parametrize("slot", ["p", "q", "imag p"])
    def test_parameters(self, call, bad, slot):
        p, q = {"p": (bad, 0.5), "q": (1, bad), "imag p": (complex(1, bad), 0.5)}[slot]
        before = wallisprod.cache_sizes()
        with pytest.raises(ValueError, match="p and q must be finite"):
            call(p, q)
        assert wallisprod.cache_sizes() == before

    @pytest.mark.parametrize("call,head", [args[1:] for args in HEAD_ARGS],
                             ids=[args[0] for args in HEAD_ARGS])
    def test_product_heads(self, call, head):
        before = wallisprod.cache_sizes()
        start = time.perf_counter()
        with pytest.raises(ValueError, match=rf"takes a head of {head} factors one by one, "
                                             r"more than 100000000$"):
            call()
        assert time.perf_counter() - start < 1.0  # refused before the first factor
        assert wallisprod.cache_sizes() == before
