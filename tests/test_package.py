"""Package surface: every name a module exports through ``__all__`` exists,
so a deleted function cannot linger in an export list, no private helper
outlives its last caller, no public definition or module-level constant
goes unread unless the tests read it as an oracle, no module checks a
condition with a bare ``assert``, and only the builders and the CLI name
the post-process schedule."""

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


def _docstrings(tree: ast.AST) -> set[int]:
    """The ids of the docstring nodes of a module and its classes and
    functions."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef)) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant):
                out.add(id(first.value))
    return out


def test_only_the_builders_and_the_cli_name_the_post_process_schedule():
    """Deferring corrections is a schedule that the builders make (and
    ``tally`` prices) and the CLI picks; every engine runs a circuit one
    way.  So no other module spells the mode, and ``circuits.MODES``
    names both."""
    found = []
    for path in sorted(pathlib.Path(dyncirc.__file__).parent.glob("*.py")):
        if path.name in ("circuits.py", "cli.py"):
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        docs = _docstrings(tree)
        found += [
            f"{path.name}:{node.lineno}" for node in ast.walk(tree)
            if isinstance(node, ast.Constant) and node.value == "post_process" and id(node) not in docs
        ]
    assert found == []


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


def _package_definitions():
    """The package's module trees by file name, and ``module:name`` of each
    definition whose last name part is not a dunder, by that last part."""
    paths = pathlib.Path(dyncirc.__file__).parent.glob("*.py")
    trees = {p.name: ast.parse(p.read_text(), filename=str(p)) for p in paths}
    by_name = collections.defaultdict(list)
    for name, tree in sorted(trees.items()):
        for _kind, ident, _node in _definitions(tree):
            last = ident.rsplit(".", 1)[-1]
            if not last.startswith("__"):
                by_name[last].append(f"{name}:{ident}")
    return trees, by_name


# Names that more than one definition of the package shares, each with the
# definitions of it that the package reads.  Reads are matched by name, so
# without this table a read of one would count for all of them.
_SHARED_NAMES = {
    "apply_pauli": {"stabilizer.py:StabilizerState.apply_pauli"},
    "collapse": {"statevector.py:_Stack.collapse"},
    "measure": {"circuits.py:Circuit.measure"},
    "single": {"pauli.py:PauliString.single"},
    "to_json": {"noise.py:NoiseParams.to_json"},
}


def _unread(keep) -> list[str]:
    """``module:name`` of each definition for which ``keep(kind, name)``
    holds and whose last name part nothing in the package reads, as a name
    or an attribute, outside the definition's own body; comments and
    strings do not count.  A definition whose last name part another one
    shares is read only if ``_SHARED_NAMES`` lists it."""
    trees, by_name = _package_definitions()
    loaded = sum((_loads(tree) for tree in trees.values()), collections.Counter())
    out = []
    for name, tree in sorted(trees.items()):
        for kind, ident, node in _definitions(tree):
            last = ident.rsplit(".", 1)[-1]
            if not keep(kind, last):
                continue
            if len(by_name[last]) > 1:
                unread = f"{name}:{ident}" not in _SHARED_NAMES.get(last, ())
            else:
                unread = loaded[last] == _loads(node)[last]
            if unread:
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
    "circuits.py:Circuit.to_json": "the circuit document the golden JSON file pins",
    "noise.py:PauliLindbladChannel.single": "one-generator channels whose superoperators the composition checks multiply",
    "pauli.py:PauliString.commutes": "the symplectic product the tests' reference expectation reads",
    "pauli.py:PauliString.to_matrix": "dense operators, the oracle of the Pauli algebra and of channel superoperators",
    "statevector.py:apply_pauli": "a Pauli on one dense state, which the per-branch loop injects and corrects with",
    "statevector.py:average_state_fidelity": "dense noisy-state fidelity, the oracle of stabilizer DFE",
    "statevector.py:circuit_unitary": "dense unitary of a measurement-free builder",
    "statevector.py:collapse": "one dense collapse, from which the per-branch loop checks the branch stack",
    "statevector.py:ghz_state": "the ideal GHZ vector dense fidelities compare against",
    "statevector.py:outcome_distribution": "dense record distribution, the oracle of Program.outcomes",
    "statevector.py:overlap_through_ancillas": "dense overlap with ancillas traced out",
    "statevector.py:state_fidelity": "dense pure-state fidelity",
    "tableau.py:BatchResult.readout_flips": "flips read off sampled frames, the oracle of the error-map read (Program.read)",
    "tableau.py:CounterRandom.uniform": "the float definition of a draw, which the integer-threshold fired kernel is tested against",
    "tableau.py:Program.outcomes": "exact record distribution that sampled records are checked against",
    "stabilizer.py:StabilizerState.apply_clifford": "one gate at a time, the sequence that gate rounds are checked against",
    "stabilizer.py:StabilizerState.check_invariants": "the tableau's symplectic pairing, checked after every instruction",
    "stabilizer.py:StabilizerState.destabilizers": "tableau rows as operators",
    "stabilizer.py:StabilizerState.expectation": "one exact expectation, against the dense oracle",
    "stabilizer.py:StabilizerState.measure": "one measurement with a forced outcome, against the dense oracle",
    "stabilizer.py:StabilizerState.measure_flip": "a measurement with its flip operator, against the dense oracle",
    "stabilizer.py:StabilizerState.reset": "a reset with its flip operator, against the dense oracle",
    "stabilizer.py:StabilizerState.stabilizers": "tableau rows as operators",
}


def test_no_orphaned_public_definitions():
    """Every public function, class, method and module-level constant the
    package defines is read somewhere in the package (a name in
    ``__all__`` is a string, not a read), or is one of the oracles and
    cross-checks in ``_READ_BY_TESTS``; an entry there that the package
    does read fails too, so the list stays exact."""
    public = _unread(lambda _kind, name: not name.startswith("_"))
    assert sorted(public) == sorted(_READ_BY_TESTS)


def test_shared_names_are_tabled():
    """``_SHARED_NAMES`` holds exactly the names that more than one
    definition of the package shares, and lists for each only definitions
    of that name which are read somewhere: a read of the name outside its
    listed definitions' bodies."""
    trees, by_name = _package_definitions()
    shared = {last: defs for last, defs in by_name.items() if len(defs) > 1}
    assert sorted(_SHARED_NAMES) == sorted(shared)
    loaded = sum((_loads(tree) for tree in trees.values()), collections.Counter())
    for last, listed in _SHARED_NAMES.items():
        assert listed <= set(shared[last]), f"{last}: {sorted(listed - set(shared[last]))} define no such name"
        bodies = [
            node for name, tree in trees.items() for _kind, ident, node in _definitions(tree)
            if f"{name}:{ident}" in listed
        ]
        assert loaded[last] > sum(_loads(node)[last] for node in bodies), f"nothing reads {last}"
