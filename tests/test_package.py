"""Package surface: every name a module exports through ``__all__`` exists,
so a deleted function cannot linger in an export list, no private helper
outlives its last caller, no public definition or module-level constant
goes unread unless the tests read it as an oracle, and no module checks a
condition with a bare ``assert``."""

import ast
import collections
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


def _definitions(tree: ast.Module):
    """Top-level functions, classes and constants, and methods, as (kind,
    name, node); a method's name is ``Class.method``."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield "definition", node.name, node
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for leaf in ast.walk(target):
                    if isinstance(leaf, ast.Name):
                        yield "constant", leaf.id, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef):
                    yield "method", f"{node.name}.{item.name}", item


def _loads(tree: ast.AST) -> collections.Counter:
    """How often each name is read in ``tree``, as a name or an attribute."""
    loaded = collections.Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            loaded[node.id] += 1
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            loaded[node.attr] += 1
    return loaded


def _unread(keep) -> list[str]:
    """``module:name`` of each definition for which ``keep(kind, name)``
    holds and whose last name part nothing in the package reads, as a name
    or an attribute, outside the definition's own body; comments and
    strings do not count."""
    paths = pathlib.Path(dyncirc.__file__).parent.glob("*.py")
    trees = {p.name: ast.parse(p.read_text(), filename=str(p)) for p in paths}
    loaded = sum((_loads(tree) for tree in trees.values()), collections.Counter())
    out = []
    for name, tree in sorted(trees.items()):
        for kind, ident, node in _definitions(tree):
            last = ident.rsplit(".", 1)[-1]
            if keep(kind, last) and loaded[last] == _loads(node)[last]:
                out.append(f"{name}:{ident}")
    return out


def test_no_orphaned_private_helpers():
    """Every private name a module of the package defines is read somewhere
    in the package."""
    assert _unread(lambda _kind, name: _is_private(name)) == []


# Public functions, classes, methods and module-level constants that nothing
# in the package reads, kept because the tests read them as oracles or
# cross-checks
_READ_BY_TESTS = {
    "certify.py:GhzStabilizerGroup.generator": "the GHZ generators that sampled group elements are built from",
    "noise.py:NoiseParams.from_json": "reads back to_json's document, so the round trip is checked",
    "noise.py:PauliLindbladChannel": "the channel that criterion 5 composes and bounds",
    "noise.py:PauliLindbladChannel.process_fidelity_lower_bound": "the exp(-sum of rates) bound criterion 5 checks",
    "noise.py:PauliLindbladChannel.rate_of": "channel rates criterion 5 and the idle-rate checks read",
    "pauli.py:PauliString.commutes": "the symplectic product the tests' reference expectation reads",
    "pauli.py:PauliString.to_matrix": "dense operators, the oracle of the Pauli algebra and of channel superoperators",
    "statevector.py:Branch.corrected_state": "a dense branch with its pending correction applied",
    "statevector.py:average_state_fidelity": "dense noisy-state fidelity, the oracle of stabilizer DFE",
    "statevector.py:circuit_unitary": "dense unitary of a measurement-free builder",
    "statevector.py:ghz_state": "the ideal GHZ vector dense fidelities compare against",
    "statevector.py:outcome_distribution": "dense record distribution, the oracle of Program.outcomes",
    "statevector.py:overlap_through_ancillas": "dense overlap with ancillas traced out",
    "statevector.py:state_fidelity": "dense pure-state fidelity",
    "tableau.py:CounterRandom.uniform": "the float definition of a draw, which the integer-threshold fired kernel is tested against",
    "tableau.py:Program.outcomes": "exact record distribution that sampled records are checked against",
    "tableau.py:StabilizerState.check_invariants": "the tableau's symplectic pairing, checked after every instruction",
    "tableau.py:StabilizerState.destabilizers": "tableau rows as operators",
    "tableau.py:StabilizerState.expectation": "one exact expectation, against the dense oracle",
    "tableau.py:StabilizerState.measure_flip": "a measurement with its flip operator, against the dense oracle",
    "tableau.py:StabilizerState.reset": "a reset with its flip operator, against the dense oracle",
    "tableau.py:StabilizerState.stabilizers": "tableau rows as operators",
}


def test_no_orphaned_public_definitions():
    """Every public function, class, method and module-level constant the
    package defines is read somewhere in the package (a name in
    ``__all__`` is a string, not a read), or is one of the oracles and
    cross-checks in ``_READ_BY_TESTS``; an entry there that the package
    does read fails too, so the list stays exact."""
    public = _unread(lambda _kind, name: not name.startswith("_"))
    assert sorted(public) == sorted(_READ_BY_TESTS)
