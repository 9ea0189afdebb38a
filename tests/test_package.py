"""Package surface: every name a module exports through ``__all__`` exists,
so a deleted function cannot linger in an export list, no private helper
outlives its last caller, and no module checks a condition with a bare
``assert``."""

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


def _is_private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def _private_definitions(tree: ast.Module):
    """Private top-level functions, classes and constants, and private
    methods, as (kind, name, line)."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield "definition", node.name, node.lineno
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for leaf in ast.walk(target):
                    if isinstance(leaf, ast.Name):
                        yield "constant", leaf.id, node.lineno
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef):
                    yield "method", item.name, item.lineno


def test_no_orphaned_private_helpers():
    """Every private name a module of the package defines is read somewhere
    in the package, as a name or an attribute; comments and strings do not
    count."""
    paths = pathlib.Path(dyncirc.__file__).parent.glob("*.py")
    trees = {p.name: ast.parse(p.read_text(), filename=str(p)) for p in paths}
    loaded = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                loaded.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                loaded.add(node.attr)
    orphans = [
        f"{name}:{line} {kind} {ident}"
        for name, tree in sorted(trees.items())
        for kind, ident, line in _private_definitions(tree)
        if _is_private(ident) and ident not in loaded
    ]
    assert orphans == []
