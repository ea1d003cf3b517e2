"""Static checks on the package source (no linter is a dependency)."""
import ast
from pathlib import Path

import pytest

import layoutedit

SOURCES = sorted(Path(layoutedit.__file__).parent.glob("*.py"))


def unused_imports(source: str) -> list:
    """Names bound by module-level imports that the module never reads."""
    tree = ast.parse(source)
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                bound[name] = node.lineno
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [f"line {line}: {name}" for name, line in bound.items()
            if name not in read]


def test_unused_imports_are_found():
    source = "from __future__ import annotations\nimport os\nimport numpy as np\n" \
             "from .tensor import Tensor, mha\n\ndef f(x: Tensor):\n    return np.abs(x)\n"
    assert unused_imports(source) == ["line 2: os", "line 4: mha"]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_unused_module_level_import(path):
    assert unused_imports(path.read_text()) == []
