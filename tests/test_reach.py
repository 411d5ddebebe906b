"""Every public name of the package is reached by the program or benchmark.

Parses src/hyperboot/*.py and perfbench/*.py and collects every reference:
a Name, an Attribute, an import alias, or a string constant that is an
identifier (the benchmark tracer binds by attribute name).  Each public
top-level def or class of the package, and each public method of a
top-level class, must be referenced somewhere; a method only through an
Attribute or an identifier string, since a bare Name of the same spelling
is some other variable.  A name that only tests reach is dead code; its
test belongs against an oracle in tests/oracles.py.  No package module has a
`global` statement either: state that code rebinds at module level is shared
by every caller in the process, so it is passed as an argument instead.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = sorted((ROOT / "src" / "hyperboot").glob("*.py"))
PROGRAM = PACKAGE + sorted((ROOT / "perfbench").glob("*.py"))

# public names kept although no program path calls them
ALLOWED = {
    "exact_percolation_probability": "oracle of the exact 11/16 gate",
    "run_to_quiescence": "oracle of the process/closure coupling gate",
    "CoinOracle.success_mask": "coin success set of the coupling gate",
    "enumerate_secondary": "the paper's secondary configuration family",
    "saturated_edge_config": "named configuration, counted through "
                             "count_rooted_copies",
}


def _public(name: str) -> bool:
    return not name.startswith("_")


def _definitions(tree: ast.Module):
    """(qualified name, bare name) of each public top-level def or class and
    each public method of a top-level class."""
    defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    for node in tree.body:
        if isinstance(node, defs) and _public(node.name):
            yield node.name, node.name
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, defs[:2]) and _public(item.name):
                    yield f"{node.name}.{item.name}", item.name


def _references(tree: ast.Module):
    """(every referenced name, the names referenced as an attribute)."""
    names, attrs = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            attrs.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name.rpartition(".")[2])
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and node.value.isidentifier()):
            attrs.add(node.value)
    return names | attrs, attrs


def test_every_public_name_is_reached():
    trees = {path: ast.parse(path.read_text()) for path in PROGRAM}
    found = [_references(tree) for tree in trees.values()]
    refs = set().union(*(names for names, _ in found))
    attrs = set().union(*(attrs for _, attrs in found))
    unreached = {qualified for path in PACKAGE
                 for qualified, bare in _definitions(trees[path])
                 if bare not in (attrs if "." in qualified else refs)}
    assert not unreached - ALLOWED.keys(), (
        "public names no program or benchmark path reaches: "
        f"{sorted(unreached - ALLOWED.keys())}")
    assert not ALLOWED.keys() - unreached, (
        "allowlisted names now reached or gone: "
        f"{sorted(ALLOWED.keys() - unreached)}")


def test_no_module_has_a_global_statement():
    found = [f"{path.name}:{node.lineno}" for path in PACKAGE
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Global)]
    assert not found, f"global statements: {found}"
