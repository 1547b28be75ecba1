"""The public surface: ``wallisprod`` lazily re-exports each module's ``__all__``.

That ``import wallisprod`` loads no submodule is checked in a fresh
interpreter by ``tests/test_cli.py::TestImportGraph``.
"""

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
