"""Every module of the package uses each name it imports, every
module-level private name is read somewhere in the package, and the
private names one module imports from another are a fixed list.

``__init__.py`` is excluded from the import check: its imports are the
package's re-exports.
"""

import ast
from pathlib import Path

import pytest

import circleopt

SOURCES = sorted(Path(circleopt.__file__).parent.glob("*.py"))
MODULES = [p for p in SOURCES if p.name != "__init__.py"]


def unused_imports(source: str) -> list[str]:
    """Names bound by import statements that the module never reads."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


def test_detects_an_unused_name():
    src = "from __future__ import annotations\nimport os\nfrom math import pi, tau\nprint(tau)\n"
    assert unused_imports(src) == ["os (line 2)", "pi (line 3)"]


def test_names_in_annotations_and_attribute_bases_count_as_used():
    src = "import numpy as np\nfrom fractions import Fraction\ndef f() -> Fraction:\n    return np.pi\n"
    assert unused_imports(src) == []


@pytest.mark.parametrize("path", MODULES, ids=[p.stem for p in MODULES])
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def _private_definitions(tree: ast.Module):
    """Module-level functions, classes and constants named _x (not __x__)."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            targets = [node.name]
        elif isinstance(node, ast.Assign):
            targets = [n.id for t in node.targets for n in ast.walk(t) if isinstance(n, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            targets = [node.target.id]
        else:
            continue
        for name in targets:
            if name.startswith("_") and not name.startswith("__"):
                yield name, node.lineno


def unread_private_names(sources: dict[str, str]) -> list[str]:
    """Private module-level names that no module reads besides defining them.

    A read is a load of the bare name or an attribute access ``m._name``;
    an import alone is not one (an unused import is caught above).
    """
    trees = {mod: ast.parse(src) for mod, src in sources.items()}
    read = set()
    for tree in trees.values():
        for n in ast.walk(tree):
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
                read.add(n.id)
            elif isinstance(n, ast.Attribute):
                read.add(n.attr)
    return [
        f"{mod}.{name} (line {line})"
        for mod, tree in trees.items()
        for name, line in _private_definitions(tree)
        if name not in read
    ]


def test_detects_an_unread_private_name():
    sources = {
        "table": (
            "import numpy as np\n"
            "_STRIDE: int = 32\n"
            "_SPARE = 1\n"
            "class _Row:\n    pass\n"
            "def _table(g, maxima=None):\n    return np.arange(_STRIDE)\n"
            "def _table_from_maxima(g, maxima):\n    return maxima\n"
            "def __getattr__(name):\n    raise AttributeError(name)\n"
        ),
        "cli": "from .table import _table\nimport table\nprint(_table(1), table._Row)\n",
    }
    assert unread_private_names(sources) == [
        "table._SPARE (line 3)",
        "table._table_from_maxima (line 8)",
    ]


def test_no_unread_private_names():
    assert unread_private_names({p.stem: p.read_text() for p in SOURCES}) == []


def private_imports(sources: dict[str, str]) -> dict[str, set[tuple[str, str]]]:
    """Per module, the (module, name) pairs of private names (_x, not
    __x__) it imports from a sibling module with ``from .module import``."""
    out = {}
    for mod, src in sources.items():
        for node in ast.walk(ast.parse(src)):
            if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module:
                for alias in node.names:
                    if alias.name.startswith("_") and not alias.name.startswith("__"):
                        out.setdefault(mod, set()).add((node.module, alias.name))
    return out


def test_detects_a_private_import():
    sources = {
        "cli": "from .table import _table, Row, __version__\nfrom . import table\nfrom os import _exit\n",
        "table": "from .grid import _STRIDE\n",
    }
    assert private_imports(sources) == {"cli": {("table", "_table")}, "table": {("grid", "_STRIDE")}}


# a new entry is a decision taken in one module leaking into another: add it
# here on purpose, or move the decision to the module that applies it
PRIVATE_IMPORTS = {
    "transfer": {
        # each sweep fills f + g on the fine grid in place, allocating nothing
        ("torus", "_refine_into"),
        # and sizes that fill's product buffer once, before the sweeps
        ("torus", "_weight_plan"),
    },
    # the branch bound reduces its orbit points mod 1, bitwise x % 1.0 but cheaper
    "sturmian": {("torus", "_mod1")},
    # the second-derivative route reads f'' at N nodes without sampling f
    "convexity": {("torus", "_check_grid_size")},
    "criteria": {
        # class B's concavity scan and search_c's curvature bound read f'' (h'')
        # beside its non-smooth points by the eta route's one-sided rule
        ("convexity", "_one_sided"),
        # and builds eta from the 2N-grid f'' it already holds
        ("convexity", "_second_derivative_report"),
    },
}


def test_private_imports_are_the_pinned_list():
    assert private_imports({p.stem: p.read_text() for p in SOURCES}) == PRIVATE_IMPORTS
