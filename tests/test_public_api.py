"""Every exported name must resolve, so a deletion cannot leave one behind."""

import ast
import importlib
import pkgutil

import pytest

import raccess

MODULES = sorted(
    f"raccess.{info.name}" for info in pkgutil.iter_modules(raccess.__path__)
)


@pytest.mark.parametrize("name", MODULES)
def test_module_all_resolves(name):
    module = importlib.import_module(name)
    missing = [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)]
    assert missing == []


def test_package_imports_resolve():
    with open(raccess.__file__) as fh:
        tree = ast.parse(fh.read())
    imported = [
        (node.module, alias.name)
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    ]
    assert imported
    missing = [
        f"{module}.{attr}"
        for module, attr in imported
        if not hasattr(raccess, attr)
        or not hasattr(importlib.import_module(f"raccess.{module}"), attr)
    ]
    assert missing == []
