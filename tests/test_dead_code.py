"""Every function, method and class defined in src/pihall is referenced
somewhere in src/pihall, by name or as an attribute, outside its own body.
A definition only tests call is dead code that tests keep alive."""

import ast
from collections import Counter
from pathlib import Path

import pihall

SRC = Path(__file__).resolve().parent.parent / "src" / "pihall"

# Public API kept without a caller inside the package, one reason each.
ALLOWED = {
    **{name: "exported in pihall.__all__" for name in pihall.__all__},
    "Perm.support": "a permutation's moved points, for library users",
    "PermGroup.stabilizer": "point stabilizer, for library users",
    "ECDReport.d_witness": "the D counterexample a report exposes",
}

DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _references(node) -> Counter:
    out = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            out[sub.attr] += 1
    return out


def _definitions(tree):
    """(qualified name, node) for every def and class, methods as
    Class.method."""
    def walk(body, prefix):
        for node in body:
            if isinstance(node, DEFS):
                yield prefix + node.name, node
                inner = prefix + node.name + "." \
                    if isinstance(node, ast.ClassDef) else prefix
                yield from walk(node.body, inner)
    yield from walk(tree.body, "")


def test_no_unreferenced_definitions():
    trees = {path.name: ast.parse(path.read_text(), str(path))
             for path in sorted(SRC.glob("*.py"))}
    refs = Counter()
    for tree in trees.values():
        refs.update(_references(tree))
    dead = []
    for fname, tree in trees.items():
        for qual, node in _definitions(tree):
            name = node.name
            if name.startswith("__") and name.endswith("__"):
                continue  # called by the interpreter
            if qual in ALLOWED:
                continue
            if refs[name] - _references(node)[name] <= 0:
                dead.append(f"{fname}: {qual}")
    assert not dead, "unreferenced definitions: " + ", ".join(dead)
