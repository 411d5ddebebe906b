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
Every defaulted parameter of a public function, method or constructor is
passed by some call in the program or benchmark; one that no call passes is
a setting no run can change.  The package imports only the standard
library, numpy and itself, and importing all of it loads no scipy module.
"""

import ast
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = sorted((ROOT / "src" / "hyperboot").glob("*.py"))
PROGRAM = PACKAGE + sorted((ROOT / "perfbench").glob("*.py"))

# public names kept although no program path calls them
ALLOWED = {
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


# defaulted parameters kept although no program call passes them
PARAMETERS_ALLOWED = {
    "main(argv)": "entry point; tests pass argv",
}


def _defaulted(tree: ast.Module):
    """(label, bare callee name, positional index or None, parameter name) of
    each defaulted parameter of a public top-level def, a public method of a
    top-level class, or a public class's __init__, which its class name
    calls.  The index counts the arguments a call passes, a method's first
    parameter excluded; None marks a keyword-only parameter."""
    def params(fn, callee, shift):
        args = fn.args
        positional = args.posonlyargs + args.args
        first = len(positional) - len(args.defaults)
        for i, arg in enumerate(positional[first:], first):
            yield f"{callee}({arg.arg})", callee, i - shift, arg.arg
        for arg, default in zip(args.kwonlyargs, args.kw_defaults):
            if default is not None:
                yield f"{callee}({arg.arg})", callee, None, arg.arg
    funcs = (ast.FunctionDef, ast.AsyncFunctionDef)
    for node in tree.body:
        if isinstance(node, funcs) and _public(node.name):
            yield from params(node, node.name, 0)
        if isinstance(node, ast.ClassDef) and _public(node.name):
            for item in node.body:
                if isinstance(item, funcs) and item.name == "__init__":
                    yield from params(item, node.name, 1)
                elif isinstance(item, funcs) and _public(item.name):
                    yield from params(item, item.name, 1)


def _passes(call: ast.Call, index, name: str) -> bool:
    """Whether the call passes the parameter at this positional index (None
    for keyword-only) or of this name."""
    if any(isinstance(arg, ast.Starred) for arg in call.args):
        return True
    if any(kw.arg is None or kw.arg == name for kw in call.keywords):
        return True
    return index is not None and len(call.args) > index


def test_every_defaulted_parameter_is_passed():
    trees = [ast.parse(path.read_text()) for path in PROGRAM]
    calls: dict = {}
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                func = node.func
                name = (func.id if isinstance(func, ast.Name) else
                        func.attr if isinstance(func, ast.Attribute) else None)
                calls.setdefault(name, []).append(node)
    # the tracer and perfbench's _call look functions up by name
    by_string = {node.value for tree in trees for node in ast.walk(tree)
                 if isinstance(node, ast.Constant)
                 and isinstance(node.value, str) and node.value.isidentifier()}
    unpassed = {label
                for path in PACKAGE
                for label, callee, index, name in _defaulted(
                    ast.parse(path.read_text()))
                if callee not in by_string
                and not any(_passes(call, index, name)
                            for call in calls.get(callee, ()))}
    assert not unpassed - PARAMETERS_ALLOWED.keys(), (
        "defaulted parameters no program or benchmark call passes: "
        f"{sorted(unpassed - PARAMETERS_ALLOWED.keys())}")
    assert not PARAMETERS_ALLOWED.keys() - unpassed, (
        "allowlisted parameters now passed or gone: "
        f"{sorted(PARAMETERS_ALLOWED.keys() - unpassed)}")


def test_no_module_has_a_global_statement():
    found = [f"{path.name}:{node.lineno}" for path in PACKAGE
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Global)]
    assert not found, f"global statements: {found}"


def test_package_imports_only_the_standard_library_and_numpy():
    allowed = set(sys.stdlib_module_names) | {"numpy", "hyperboot"}
    found = []
    for path in PACKAGE:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                continue
            found += [f"{path.name}:{node.lineno} {name}" for name in names
                      if name.partition(".")[0] not in allowed]
    assert not found, f"imports beyond the standard library and numpy: {found}"


def test_importing_the_package_loads_no_scipy():
    modules = sorted(f"hyperboot.{path.stem}" for path in PACKAGE
                     if path.stem != "__init__")
    script = (f"import sys\nfor name in {modules!r}:\n    __import__(name)\n"
              "print(sorted(m for m in sys.modules\n"
              "             if m == 'scipy' or m.startswith('scipy.')))")
    out = subprocess.run([sys.executable, "-c", script], check=True,
                         capture_output=True, text=True,
                         cwd=ROOT / "src").stdout
    assert "hyperboot.cli" in modules
    assert out.strip() == "[]", f"scipy modules loaded: {out}"
