"""The public surface: ``wallisprod/__init__.py`` re-exports each module's ``__all__``."""

import ast
import importlib
from pathlib import Path

import wallisprod


def test_init_reexports_exactly_each_modules_all():
    tree = ast.parse(Path(wallisprod.__file__).read_text())
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom)]
    assert imports
    for node in imports:
        module = importlib.import_module(f"wallisprod.{node.module}")
        names = [alias.name for alias in node.names]
        assert sorted(names) == sorted(module.__all__), node.module
        for name in names:
            assert getattr(wallisprod, name) is getattr(module, name)
