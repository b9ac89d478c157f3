"""Every top-level function and class of the package is used by the package
itself or exported: code that only tests call belongs in the tests."""

import ast
from pathlib import Path

import risrates

SRC = Path(risrates.__file__).resolve().parent


def _trees() -> dict[str, ast.Module]:
    return {path.name: ast.parse(path.read_text(encoding="utf-8"))
            for path in sorted(SRC.glob("*.py"))}


def unused_definitions(trees: dict[str, ast.Module],
                       exported: set[str]) -> list[str]:
    """'module.py:name' of each top-level def or class whose name appears
    nowhere in the trees as a name, an attribute or an imported name, and
    is not in `exported`."""
    used = set(exported)
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.alias):
                used.add(node.name)
    return [f"{module}:{node.name}"
            for module, tree in trees.items() for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef))
            and node.name not in used]


def test_no_top_level_definition_is_unused():
    assert unused_definitions(_trees(), set(risrates.__all__)) == []


def test_unused_definition_is_named():
    trees = {"a.py": ast.parse(
        "from .b import g\n"
        "def f(): return h.attr\n"
        "def dead(): return f()\n"
        "class Shown: pass\n"
        "class Hidden: pass\n"),
        "b.py": ast.parse("def g(): pass\ndef attr(): pass\n")}
    assert unused_definitions(trees, {"Shown"}) == ["a.py:dead",
                                                    "a.py:Hidden"]
