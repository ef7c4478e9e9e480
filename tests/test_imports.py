"""Every module of the package uses each name it imports.

``__init__.py`` is excluded: its imports are the package's re-exports.
"""

import ast
from pathlib import Path

import pytest

import circleopt

MODULES = sorted(
    p for p in Path(circleopt.__file__).parent.glob("*.py") if p.name != "__init__.py"
)


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
