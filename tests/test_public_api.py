"""Every exported name must resolve, so a deletion cannot leave one behind.

The same holds for the names the benchmark looks up from outside the
package: ``perfbench/tracing.py`` patches raccess functions by (owner,
attribute), and ``perfbench/run.py`` records the kernel backend's name,
so a rename inside raccess would otherwise surface only in a benchmark
run.
"""

import ast
import importlib
import inspect
import pkgutil

import pytest

import raccess
import raccess._kernels
from helpers import load_perfbench

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


def test_dual_periods_is_a_generator_function():
    # run_algorithm1 and the tests consume it period by period.
    assert inspect.isgeneratorfunction(raccess.dual_periods)


def test_every_traced_boundary_resolves():
    # Only the tables are read.
    boundaries = load_perfbench("tracing").BOUNDARIES
    assert boundaries
    missing = [
        f"{getattr(owner, '__name__', owner)}.{attr}"
        for owner, attr, *_ in boundaries
        if not callable(getattr(owner, attr, None))
    ]
    assert missing == []


def test_kernel_backend_name_is_a_str():
    assert isinstance(raccess._kernels.backend_name(), str)
