"""Static checks on the source tree: no module imports a name it never reads."""
import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted((ROOT / "src").rglob("*.py")) + sorted((ROOT / "tests").rglob("*.py"))


def unused_imports(source: str) -> list:
    """Names bound by an import statement that the module never loads."""
    tree = ast.parse(source)
    imported = {}
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
    return sorted(
        f"line {line}: {name}" for name, line in imported.items() if name not in read
    )


def test_the_checker_sees_unused_and_used_imports():
    source = (
        "from __future__ import annotations\nimport os\nimport numpy as np\n"
        "from fractions import Fraction as F\nx = np.zeros(1)\n"
    )
    assert unused_imports(source) == ["line 2: os", "line 4: F"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []
