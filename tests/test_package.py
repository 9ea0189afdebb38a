"""Package surface: every name a module exports through ``__all__`` exists,
so a deleted function cannot linger in an export list, and no module checks
a condition with a bare ``assert``."""

import ast
import importlib
import pathlib
import pkgutil

import pytest

import dyncirc

_MODULES = ["dyncirc"] + [
    f"dyncirc.{m.name}" for m in pkgutil.iter_modules(dyncirc.__path__) if m.name != "__main__"
]


def test_modules_with_exports_are_found():
    assert {"dyncirc", "dyncirc.noise", "dyncirc.certify"} <= {
        name for name in _MODULES if hasattr(importlib.import_module(name), "__all__")
    }


@pytest.mark.parametrize("name", _MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert len(set(exported)) == len(exported), f"{name}.__all__ lists a name twice"
    namespace: dict = {}
    exec(f"from {name} import *", namespace)  # imports listed submodules too
    assert [e for e in exported if e not in namespace] == []


@pytest.mark.parametrize("path", sorted(pathlib.Path(dyncirc.__file__).parent.glob("*.py")), ids=lambda p: p.name)
def test_no_bare_assert(path):
    """The engine's checks raise exceptions, so ``python -O`` keeps them."""
    tree = ast.parse(path.read_text(), filename=str(path))
    lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert lines == [], f"{path.name} asserts at lines {lines}"
