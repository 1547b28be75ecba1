"""The public surface: ``wallisprod`` lazily re-exports each module's ``__all__``.

That ``import wallisprod`` loads no submodule is checked in a fresh
interpreter by ``tests/test_cli.py::TestImportGraph``; the layering of the
modules is read from their source here.
"""

import ast
import importlib
import re
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

    @pytest.mark.parametrize("module_name", ["products", "special", "coeffs"])
    def test_numeric_modules_import_only_the_kernels(self, module_name):
        assert package_imports(module_name) <= {"bernoulli", "_fixed"}

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
        spec = expansions._Spec(None, True, None, None)
        assert (spec.limit, spec.max_order, spec.needs_params) == (None, None, False)

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
