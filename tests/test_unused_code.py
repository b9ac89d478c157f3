"""Every top-level function, class and constant of the package is used by
the package itself or exported: code that only tests call belongs in the
tests. A module imports no underscore name from another module of the
package: what another module needs is public. numpy is imported where draws
run and nowhere else. The closed-form modules call math functions through
the math module object, read when they run, and keep the values of the
namespace they run in, so a test can swap it for numpy or mpmath."""

import ast
from pathlib import Path

import risrates

SRC = Path(risrates.__file__).resolve().parent


def _trees() -> dict[str, ast.Module]:
    return {path.name: ast.parse(path.read_text(encoding="utf-8"))
            for path in sorted(SRC.glob("*.py"))}


def _top_level_names(node: ast.stmt) -> list[str]:
    """Names a top-level statement defines: a def or class, or the names an
    assignment binds (tuple targets unpacked), dunders left out: Python
    itself looks them up, as it does a module's __getattr__."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        names = [node.name]
    else:
        targets = (node.targets if isinstance(node, ast.Assign)
                   else [node.target] if isinstance(node, ast.AnnAssign)
                   else [])
        names = [n.id for t in targets for n in ast.walk(t)
                 if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store)]
    return [name for name in names
            if not (name.startswith("__") and name.endswith("__"))]


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


# Underscore names one module may import from another: none.
SHARED_PRIVATE: set[str] = set()


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
        "def __getattr__(name): return f\n"
        "def unread(name): return f\n"
        "class Shown: pass\n"
        "class Hidden: pass\n"),
        "b.py": ast.parse("SHARED = 1\ndef g(): pass\ndef attr(): pass\n")}
    assert unused_definitions(trees, {"Shown"}) == [
        "a.py:DEAD", "a.py:_dead", "a.py:STORED", "a.py:dead", "a.py:unread",
        "a.py:Hidden"]


def numpy_imports(trees: dict[str, ast.Module]) -> list[str]:
    """'module.py' for each import of numpy at a module's top level and
    'module.py:function' for each inside a function (the innermost), in
    source order. Imports under `if TYPE_CHECKING:` are left out: they
    never run."""
    found = []

    def visit(node: ast.AST, where: str) -> None:
        for child in ast.iter_child_nodes(node):
            if (isinstance(child, ast.If)
                    and ast.unparse(child.test) == "TYPE_CHECKING"):
                continue
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, f"{where.split(':')[0]}:{child.name}")
            elif isinstance(child, ast.Import):
                found.extend(where for alias in child.names
                             if alias.name.split(".")[0] == "numpy")
            elif isinstance(child, ast.ImportFrom):
                if child.level == 0 and child.module.split(".")[0] == "numpy":
                    found.append(where)
            else:
                visit(child, where)

    for module, tree in trees.items():
        visit(tree, module)
    return found


def test_numpy_is_imported_only_where_draws_run():
    # montecarlo holds every draw; geometry's rejection oracle imports
    # numpy when it runs (ROADMAP item 1b moves it out of the package)
    assert numpy_imports(_trees()) == [
        "geometry.py:_sector_contains_many",
        "geometry.py:numeric_blocked_area",
        "geometry.py:visible_region_predicate", "montecarlo.py"]


def test_numpy_import_is_named():
    trees = {"a.py": ast.parse(
        "import math, numpy as np\n"
        "from typing import TYPE_CHECKING\n"
        "if TYPE_CHECKING:\n"
        "    import numpy\n"
        "def f():\n"
        "    from numpy.random import default_rng\n"
        "    def g(): import numpy.linalg\n"
        "class C:\n"
        "    def h(self):\n"
        "        if True: import numpy\n"
        "        from . import numpy_free\n"),
        "b.py": ast.parse("try:\n    import numpy\nexcept ImportError: pass\n")}
    assert numpy_imports(trees) == ["a.py", "a.py:f", "a.py:g", "a.py:h",
                                    "b.py"]


# Modules whose formulas run unchanged on another namespace in math's place.
CLOSED_FORM = ("geometry.py", "analytic.py", "stochastic.py", "scenarios.py")


def math_bypasses(trees: dict[str, ast.Module]) -> list[str]:
    """'module.py:name' of each name bound from the math module other than
    math itself, at any depth: each `from math import name` and each
    `import math as name`."""
    found = []
    for module, tree in trees.items():
        for node in ast.walk(tree):
            if (isinstance(node, ast.ImportFrom) and not node.level
                    and node.module == "math"):
                found += [f"{module}:{alias.asname or alias.name}"
                          for alias in node.names]
            elif isinstance(node, ast.Import):
                found += [f"{module}:{alias.asname}" for alias in node.names
                          if alias.name == "math" and alias.asname
                          not in (None, "math")]
    return found


def test_closed_forms_reach_math_through_the_module():
    trees = _trees()
    assert math_bypasses({name: trees[name] for name in CLOSED_FORM}) == []


def test_math_bypass_is_named():
    trees = {"a.py": ast.parse(
        "import math\n"
        "from math import sqrt, pi as PI\n"
        "import math as m, os\n"
        "def f():\n"
        "    from math import cos\n"
        "    return math.sin(0.0)\n"
        "from .math import helper\n"
        "from mpmath import mp\n")}
    assert math_bypasses(trees) == ["a.py:sqrt", "a.py:PI", "a.py:m",
                                    "a.py:cos"]


def math_defaults(trees: dict[str, ast.Module]) -> list[str]:
    """'module.py:function' of each function or lambda with a default
    argument that reads an attribute of math: the default binds math's
    value at import, and a namespace swapped in later never reaches it."""
    found = []
    for module, tree in trees.items():
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                     ast.Lambda)):
                continue
            defaults = node.args.defaults + [d for d in node.args.kw_defaults
                                             if d is not None]
            if any(isinstance(n, ast.Attribute)
                   and isinstance(n.value, ast.Name) and n.value.id == "math"
                   for d in defaults for n in ast.walk(d)):
                found.append(f"{module}:{getattr(node, 'name', 'lambda')}")
    return found


def test_closed_forms_bind_no_math_default():
    trees = _trees()
    assert math_defaults({name: trees[name] for name in CLOSED_FORM}) == []


def test_math_default_is_named():
    trees = {"a.py": ast.parse(
        "import math\n"
        "def f(x, cos=math.cos): return cos(x)\n"
        "def g(x, *, k=(math.pi, 2)): return x\n"
        "def h(x, xp=None): return (xp or math).cos(x)\n"
        "def i(x, n=other.pi): return math.sin(x)\n"
        "class C:\n"
        "    def m(self, e=math.e): return lambda y=math.tau: y\n")}
    assert math_defaults(trees) == ["a.py:f", "a.py:g", "a.py:m",
                                    "a.py:lambda"]


def float_rounding(trees: dict[str, ast.Module]) -> list[str]:
    """'module.py:line' of each call of float or math.fsum: both round a
    value of a wider namespace back to a double."""
    return [f"{module}:{node.lineno}"
            for module, tree in trees.items() for node in ast.walk(tree)
            if isinstance(node, ast.Call)
            and ast.unparse(node.func) in ("float", "math.fsum")]


def test_closed_forms_round_nothing_to_a_double():
    trees = _trees()
    assert float_rounding({name: trees[name] for name in CLOSED_FORM}) == []


def test_float_rounding_is_named():
    trees = {"a.py": ast.parse(
        "x = float(2)\n"
        "y = math.fsum([x, 1.0])\n"
        "z = np.float64(x) + sum([x]) + fsum([x])\n"
        "w = [float(v)\n"
        "     for v in (x, y)]\n")}
    assert float_rounding(trees) == ["a.py:1", "a.py:2", "a.py:4"]
