"""Public-API completeness: every module imports, every __all__ resolves."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import repro

ALL_MODULES = sorted(
    name
    for _, name, _ in pkgutil.walk_packages(repro.__path__, prefix="repro.")
    if not name.endswith("__main__")
)

PACKAGES = ["repro"] + sorted(
    name
    for _, name, is_package in pkgutil.walk_packages(repro.__path__, prefix="repro.")
    if is_package
)


@pytest.mark.parametrize("module_name", ALL_MODULES)
def test_module_imports(module_name):
    importlib.import_module(module_name)


@pytest.mark.parametrize("module_name", ALL_MODULES)
def test_dunder_all_resolves(module_name):
    module = importlib.import_module(module_name)
    exported = getattr(module, "__all__", None)
    if exported is None:
        return
    for name in exported:
        assert hasattr(module, name), f"{module_name}.__all__ lists missing {name!r}"


def test_top_level_exports():
    for name in repro.__all__:
        assert hasattr(repro, name)


def test_every_public_module_has_docstring():
    for module_name in ALL_MODULES:
        module = importlib.import_module(module_name)
        assert module.__doc__, f"{module_name} lacks a module docstring"


def test_package_version():
    assert repro.__version__ == "1.0.0"


def _lazy_declarations(package):
    """A package's ``TYPE_CHECKING`` imports and its ``_lazy_exports`` map.

    Both as ``{(defining module, name)}``; the map is ``None`` for a
    package that does not export lazily.
    """
    module = importlib.import_module(package)
    tree = ast.parse(Path(module.__file__).read_text())
    typed, lazy = set(), None
    for node in tree.body:
        if isinstance(node, ast.If) and ast.unparse(node.test) == "TYPE_CHECKING":
            for stmt in node.body:
                if isinstance(stmt, ast.ImportFrom):
                    typed.update((stmt.module, alias.name) for alias in stmt.names)
        elif (
            isinstance(node, ast.Assign)
            and isinstance(node.value, ast.Call)
            and ast.unparse(node.value.func) == "_lazy_exports"
        ):
            exports = ast.literal_eval(node.value.args[1])
            lazy = {(mod, name) for mod, names in exports.items() for name in names}
    return typed, lazy


@pytest.mark.parametrize("package", PACKAGES)
def test_lazy_exports_match_type_checking_imports(package):
    # What type checkers see, what resolves at run time and what the
    # package declares public must be the same set of names.
    typed, lazy = _lazy_declarations(package)
    if lazy is None:
        return
    assert typed == lazy
    exported = importlib.import_module(package).__all__
    assert sorted(exported) == sorted(name for _, name in lazy)
