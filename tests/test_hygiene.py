"""Static checks on the source tree.

No module imports a name it never reads, no library module keeps a private
top-level name that it never reads itself, and every public top-level name
of the library, and every public method and property of its classes, is
read by the library or the benchmark, unless it is allowlisted below with
its reason. No library function, method or nested function keeps a
cache of functools.lru_cache or functools.cache: derived values live on the
objects that determine them.
"""
import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src").rglob("*.py"))
MODULES = SOURCES + sorted((ROOT / "tests").rglob("*.py"))
BENCHMARK = sorted((ROOT / "perfbench").rglob("*.py"))

# public names that only the tests read, each with its reason
TEST_ONLY_NAMES = {
    # the instance file format that README documents for `dualpiped minima`
    "format_parallelepiped": "file format",
    "format_lattice": "file format",
}

# public methods and properties that only the tests read, each with its reason
TEST_ONLY_METHODS = {
    # Z^d, the lattice the tests measure bodies against by default
    "Lattice.integers": "test fixture",
    # the span size, which the tests assert after each add
    "RationalSpan.rank": "test fixture",
}


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


def top_level_names(tree) -> dict:
    """Names bound at the module's top level, with their line numbers."""
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
    return bound


def unread_private_names(source: str) -> list:
    """Private names bound at the module's top level that the module never loads."""
    tree = ast.parse(source)
    bound = top_level_names(tree)
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


def names_read(source: str) -> set:
    """Names a module loads, reads as an attribute, or imports from a module."""
    read = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute):
            read.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            read.update(alias.name for alias in node.names)
    return read


def test_the_checker_sees_names_read():
    source = "from m import a\nimport n\nb = n.c(d)\n"
    assert names_read(source) == {"a", "n", "c", "d"}


def test_every_public_name_is_read_outside_the_tests():
    read = set()
    for path in SOURCES + BENCHMARK:
        read |= names_read(path.read_text())
    unread = [
        f"{path.relative_to(ROOT)} line {line}: {name}"
        for path in SOURCES
        for name, line in top_level_names(ast.parse(path.read_text())).items()
        if not name.startswith("_") and name not in read and name not in TEST_ONLY_NAMES
    ]
    assert unread == []
    # an allowlisted name that the library or the benchmark reads again is
    # dropped from the list
    assert sorted(read & set(TEST_ONLY_NAMES)) == []


def public_methods(tree) -> dict:
    """Class.method for the public methods and properties of top-level classes."""
    return {
        f"{node.name}.{item.name}": item.lineno
        for node in tree.body if isinstance(node, ast.ClassDef)
        for item in node.body
        if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)) and not item.name.startswith("_")
    }


def test_the_checker_sees_public_methods():
    source = (
        "class A:\n    def f(self):\n        pass\n\n    @property\n    def g(self):\n"
        "        return 1\n\n    def _h(self):\n        pass\n\ndef k():\n    pass\n"
    )
    assert public_methods(ast.parse(source)) == {"A.f": 2, "A.g": 6}


def test_every_public_method_is_read_outside_the_tests():
    read = set()
    for path in SOURCES + BENCHMARK:
        read |= names_read(path.read_text())
    unread = [
        f"{path.relative_to(ROOT)} line {line}: {name}"
        for path in SOURCES
        for name, line in public_methods(ast.parse(path.read_text())).items()
        if name.split(".")[1] not in read and name not in TEST_ONLY_METHODS
    ]
    assert unread == []
    # an allowlisted method that the library or the benchmark reads again is
    # dropped from the list
    assert sorted(name for name in TEST_ONLY_METHODS if name.split(".")[1] in read) == []


def cached_functions(source: str) -> list:
    """Functions, methods and nested functions decorated with functools.lru_cache or cache."""

    def decorator_name(node):
        if isinstance(node, ast.Call):
            node = node.func
        return node.attr if isinstance(node, ast.Attribute) else getattr(node, "id", None)

    return [
        f"line {node.lineno}: {node.name}" for node in ast.walk(ast.parse(source))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and any(decorator_name(d) in ("lru_cache", "cache") for d in node.decorator_list)
    ]


def test_the_checker_sees_cached_top_level_functions():
    source = (
        "import functools\nfrom functools import cache, lru_cache\n\n"
        "@functools.lru_cache(maxsize=8)\ndef a():\n    pass\n\n"
        "@cache\ndef b():\n    pass\n\n@lru_cache\ndef c():\n    pass\n\n"
        "def e():\n    @functools.cache\n    def f():\n        pass\n\n"
        "class G:\n    @lru_cache(maxsize=None)\n    def h(self):\n        pass\n\n"
        "    @cached_property\n    def k(self):\n        pass\n"
    )
    assert cached_functions(source) == [
        "line 5: a", "line 9: b", "line 13: c", "line 18: f", "line 23: h",
    ]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_module_level_cache(path):
    assert cached_functions(path.read_text()) == []
