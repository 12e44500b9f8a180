"""Static checks on the source tree.

No module imports a name it never reads, no library module keeps a private
top-level name that it never reads itself, and every public top-level name
of the library, and every public method and property of its classes, is
read by the library or the benchmark, unless it is allowlisted below with
its reason. No library function, method or nested function keeps a
cache of functools.lru_cache or functools.cache: derived values live on the
objects that determine them. The float slack of the claim decisions is
read by `transference._Trial.leq` alone (and recorded by `harness`), and no
module of the search layer imports the claim code that holds it. Only
`bodies` names `det_normalized`, and the pseudo-compound is built without
it. The benchmark's layer tracer still installs on the library and
restores it.
"""
import ast
import gc
import importlib.util
import sys
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


# modules of the search layer: none imports the claim code (`transference`,
# where the float slack of the claim decisions lives, or its callers), so
# none can reach the slack
SEARCH_LAYER = ("bodies", "linalg", "minima", "sections", "witness")
CLAIM_LAYER = {"transference", "harness", "cli"}
# the float slack and the flag that picks it, read in `transference` by `_Trial.leq` alone
SLACK_NAMES = {"REL_SLACK", "is_float"}


def imported_modules(source: str) -> set:
    """The last dotted part of each module imported, imported from, or imported as a name."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            found |= {alias.name.split(".")[-1] for alias in node.names}
        if isinstance(node, ast.ImportFrom) and node.module:
            found.add(node.module.split(".")[-1])
    return found


def names_used(source: str) -> set:
    """Every name a module binds, loads, reads as an attribute or imports."""
    used = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif isinstance(node, ast.alias):
            used.add(node.name.split(".")[-1])
    return used


def slack_reads(source: str) -> list:
    """(enclosing function as Class.method, line) of each load of a name in SLACK_NAMES."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            name = getattr(child, "id", getattr(child, "attr", None))
            if name in SLACK_NAMES and isinstance(child.ctx, ast.Load):
                found.append((scope, child.lineno))
            inner = scope
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = f"{scope}.{child.name}" if scope else child.name
            visit(child, inner)

    visit(ast.parse(source), "")
    return found


def test_the_checker_sees_slack_readers_and_their_imports():
    source = (
        "from .transference import leq\nfrom . import sections as s\nimport dualpiped.minima\n"
        "REL_SLACK = 1e-9\nx = REL_SLACK\n\nclass T:\n    def __init__(self):\n"
        "        self.is_float = True\n\n    def leq(self, a):\n"
        "        return self.is_float and a <= REL_SLACK\n\ndef f(t):\n"
        "    def g():\n        return t.is_float\n    return g\n"
    )
    assert imported_modules(source) == {"transference", "leq", "sections", "minima"}
    assert {"REL_SLACK", "is_float", "leq", "sections", "x"} <= names_used(source)
    assert "REL_SLACK" not in names_used("from .scalars import Quad3\nx = Quad3(1)\n")
    assert slack_reads(source) == [("", 5), ("T.leq", 12), ("T.leq", 12), ("f.g", 16)]


def test_the_search_layer_reads_no_float_slack():
    package = ROOT / "src" / "dualpiped"
    importers = [
        name for name in SEARCH_LAYER
        if CLAIM_LAYER & imported_modules((package / f"{name}.py").read_text())
    ]
    assert importers == []
    namers = [
        path.stem for path in SOURCES
        if "REL_SLACK" in names_used(path.read_text())
    ]
    assert namers == ["harness", "transference"]
    reads = slack_reads((package / "transference.py").read_text())
    assert reads and {scope for scope, _ in reads} == {"_Trial.leq"}


def test_only_bodies_names_det_normalized():
    # the claim path keeps each body as given and the pseudo-compound takes
    # no root of det H: det_normalized is API of `bodies` that no other
    # module of the library names, and the compound's construction calls it
    # (or a root) nowhere
    namers = [
        path.stem for path in SOURCES
        if path.stem != "bodies" and "det_normalized" in names_used(path.read_text())
    ]
    assert namers == []
    tree = ast.parse((ROOT / "src" / "dualpiped" / "bodies.py").read_text())
    construction = [
        node for node in ast.walk(tree)
        if isinstance(node, ast.FunctionDef) and node.name in ("_compound", "pseudo_compound")
    ]
    assert len(construction) == 2
    for node in construction:
        assert not {"det_normalized", "exact_nth_root", "float_nth_root"} & names_used(ast.unparse(node))


def test_the_benchmark_tracer_installs_and_restores_the_library():
    # the tracer replaces library functions by name, so a rename under src/
    # that it does not follow fails here rather than only in the benchmark
    spec = importlib.util.spec_from_file_location("perfbench_tracer", ROOT / "perfbench" / "tracer.py")
    tracer_module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer_module)
    # every module that the tracer patches, loaded before the snapshot
    traced = ("bodies", "harness", "linalg", "minima", "sections", "transference", "witness")
    modules = {name: importlib.import_module(f"dualpiped.{name}") for name in traced}
    linalg, transference = modules["linalg"], modules["transference"]

    def library():
        owners = [m for name, m in sys.modules.items() if name.split(".")[0] == "dualpiped"]
        owners += [linalg.Matrix, linalg.RationalSpan]
        return {(owner, attr): value for owner in owners for attr, value in vars(owner).items()}

    before = library()
    callbacks = list(gc.callbacks)
    tracer = tracer_module.Tracer()
    tracer.install()
    try:
        assert transference.first_minimum is not before[(transference, "first_minimum")]
        assert linalg.Matrix.det is not before[(linalg.Matrix, "det")]
    finally:
        tracer.uninstall()
    after = library()
    assert after.keys() == before.keys()
    assert all(after[key] is value for key, value in before.items())
    assert gc.callbacks == callbacks
