"""Static checks on the source tree.

No module imports a name it never reads, and no library module keeps a
private top-level name that it never reads itself.
"""
import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src").rglob("*.py"))
MODULES = SOURCES + sorted((ROOT / "tests").rglob("*.py"))


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


def unread_private_names(source: str) -> list:
    """Private names bound at the module's top level that the module never loads."""
    tree = ast.parse(source)
    bound = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            bound[node.name] = node.lineno
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name):
                        bound[name.id] = node.lineno
    read = {
        node.id for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    return sorted(
        f"line {line}: {name}" for name, line in bound.items()
        if name.startswith("_") and not name.startswith("__") and name not in read
    )


def test_the_checker_sees_unread_private_names():
    source = (
        "__version__ = '1'\n_A = 1\n_B, c = 2, 3\n\n"
        "def _f():\n    return _B\n\nclass _G:\n    pass\n\nx = _G()\n"
    )
    assert unread_private_names(source) == ["line 2: _A", "line 5: _f"]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: str(p.relative_to(ROOT)))
def test_every_private_name_is_read(path):
    assert unread_private_names(path.read_text()) == []
