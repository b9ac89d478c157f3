"""Every top-level function, class and constant of the package is used by
the package itself or exported: code that only tests call belongs in the
tests. A module imports no underscore name from another module of the
package: what another module needs is public."""

import ast
from pathlib import Path

import risrates

SRC = Path(risrates.__file__).resolve().parent


def _trees() -> dict[str, ast.Module]:
    return {path.name: ast.parse(path.read_text(encoding="utf-8"))
            for path in sorted(SRC.glob("*.py"))}


def _top_level_names(node: ast.stmt) -> list[str]:
    """Names a top-level statement defines: a def or class, or the names an
    assignment binds (tuple targets unpacked), dunders left out."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [node.name]
    targets = (node.targets if isinstance(node, ast.Assign)
               else [node.target] if isinstance(node, ast.AnnAssign) else [])
    return [n.id for t in targets for n in ast.walk(t)
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store)
            and not (n.id.startswith("__") and n.id.endswith("__"))]


def unused_definitions(trees: dict[str, ast.Module],
                       exported: set[str]) -> list[str]:
    """'module.py:name' of each top-level def, class or assigned name that
    the trees never load as a name or an attribute nor import, and that is
    not in `exported`."""
    used = set(exported)
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif (isinstance(node, ast.Attribute)
                  and isinstance(node.ctx, ast.Load)):
                used.add(node.attr)
            elif isinstance(node, ast.alias):
                used.add(node.name)
    return [f"{module}:{name}"
            for module, tree in trees.items() for node in tree.body
            for name in _top_level_names(node) if name not in used]


def private_imports(trees: dict[str, ast.Module],
                    allowed: set[str]) -> list[str]:
    """'module.py:source.name' of each underscore-prefixed, non-dunder name
    that a module imports from a module of the package, relatively or as
    risrates.source, unless 'source.name' is in `allowed`."""
    found = []
    for module, tree in trees.items():
        for node in ast.walk(tree):
            if not isinstance(node, ast.ImportFrom):
                continue
            source = node.module or ""
            if node.level == 0:
                if not source.startswith("risrates."):
                    continue
                source = source.removeprefix("risrates.")
            found += [f"{module}:{source}.{alias.name}"
                      for alias in node.names
                      if alias.name.startswith("_")
                      and not alias.name.startswith("__")
                      and f"{source}.{alias.name}" not in allowed]
    return found


# ROADMAP item 10 deletes the one name still shared across modules.
SHARED_PRIVATE = {"stochastic._ahead"}


def test_no_module_imports_another_modules_private_name():
    assert private_imports(_trees(), SHARED_PRIVATE) == []


def test_private_import_is_named():
    trees = {"a.py": ast.parse(
        "from .b import _hidden, shown\n"
        "from .c import _ahead\n"
        "from . import __version__\n"
        "from risrates.b import _other\n"
        "from numpy import _private\n"
        "import numpy._core\n"),
        "b.py": ast.parse("from .c import _ahead, _kept\n")}
    assert private_imports(trees, {"c._ahead"}) == [
        "a.py:b._hidden", "a.py:b._other", "b.py:c._kept"]


def test_no_top_level_definition_is_unused():
    assert unused_definitions(_trees(), set(risrates.__all__)) == []


def test_unused_definition_is_named():
    trees = {"a.py": ast.parse(
        "from .b import g\n"
        "__all__ = ['Shown']\n"
        "USED, (DEAD, _dead) = 1, (2, 3)\n"
        "LIMIT: int = USED\n"
        "STORED = 0\n"
        "def f(): return h.attr + b.SHARED + LIMIT\n"
        "def dead(): STORED = 1; return f()\n"
        "class Shown: pass\n"
        "class Hidden: pass\n"),
        "b.py": ast.parse("SHARED = 1\ndef g(): pass\ndef attr(): pass\n")}
    assert unused_definitions(trees, {"Shown"}) == [
        "a.py:DEAD", "a.py:_dead", "a.py:STORED", "a.py:dead", "a.py:Hidden"]
