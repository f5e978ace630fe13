"""No module imports a name that it never reads, and no top-level
definition of the package, nor any method or property of its classes, goes
unread. The package's ``__init__.py`` is exempt from the first: its imports
are the public re-exports."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted(p for folder in ("src/psdlab", "tests") for p in (ROOT / folder).glob("*.py")
                 if p.name != "__init__.py")
PACKAGE = sorted((ROOT / "src/psdlab").glob("*.py"))
BENCHMARK = sorted((ROOT / "perfbench").glob("*.py"))


def unread_imports(source: str) -> list[str]:
    """The names bound by the imports of ``source`` that no expression reads
    (``from __future__`` imports are compiler directives, not names)."""
    tree = ast.parse(source)
    bound = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [a.asname or a.name for a in node.names]
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    return [name for name in bound if name not in read]


def test_scan_finds_an_unread_import():
    source = ("from .numkit import as_matrix, softmax_rows, softmax_xent\n"
              "import numpy as np\n"
              "def f(x):\n"
              "    return softmax_xent(as_matrix(x), np.ones(1))\n")
    assert unread_imports(source) == ["softmax_rows"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_every_import_is_read(path):
    assert unread_imports(path.read_text(encoding="utf-8")) == []


def unread_definitions(package: dict[str, str], others: dict[str, str]) -> list[str]:
    """The top-level functions and classes of the ``package`` sources (file
    name to source), and the methods and properties of those classes, that
    no source of ``package`` or ``others`` names outside the definition
    itself and no ``__all__`` of ``package`` lists, as ``file:name`` or
    ``file:Class.name``. A name is a read name or an attribute. Dunders are
    exempt: Python calls them. Dataclass fields are out of scope:
    ``ExperimentConfig``'s are read through ``fields()`` and ``getattr``
    only, which no static scan can follow, and ``TrainResult.opt`` is a
    field the benchmark's traced loop passes by keyword, ``opt=``."""
    defined, exported, named = [], set(), []
    for path, source in {**package, **others}.items():
        tree = ast.parse(source)
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                named.append((path, node.id, node.lineno))
            elif isinstance(node, ast.Attribute):
                named.append((path, node.attr, node.lineno))
        if path not in package:
            continue
        functions = (ast.FunctionDef, ast.AsyncFunctionDef)
        for node in tree.body:
            if isinstance(node, (*functions, ast.ClassDef)):
                defined.append((path, node.name, node.name, node.lineno, node.end_lineno))
            if isinstance(node, ast.ClassDef):
                defined += [(path, f"{node.name}.{item.name}", item.name, item.lineno,
                             item.end_lineno) for item in node.body
                            if isinstance(item, functions)
                            and not (item.name.startswith("__") and item.name.endswith("__"))]
            elif (isinstance(node, ast.Assign)
                  and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
                exported |= set(ast.literal_eval(node.value))
    return [f"{path}:{label}" for path, label, name, first, last in defined
            if label not in exported
            and not any(n == name and not (p == path and first <= line <= last)
                        for p, n, line in named)]


def test_scan_finds_an_unread_definition():
    package = {"a.py": ("__all__ = ['api']\n"
                        "def api():\n"
                        "    return _helper() + Shape.size\n"
                        "def _helper():\n"
                        "    return 1\n"
                        "def unused(n):\n"
                        "    return unused(n - 1) if n else 0\n"
                        "class Orphan:\n"
                        "    pass\n"
                        "class Shape:\n"
                        "    size = 2\n"
                        "def benched():\n"
                        "    return 3\n")}
    bench = {"run.py": "from a import benched\nprint(benched())\n"}
    assert unread_definitions(package, bench) == ["a.py:unused", "a.py:Orphan"]
    assert unread_definitions(package, {}) == ["a.py:unused", "a.py:Orphan", "a.py:benched"]


def test_scan_finds_an_unread_method_or_property():
    package = {"a.py": ("class Shape:\n"
                        "    def __init__(self, n):\n"
                        "        self.n = n\n"
                        "    def __len__(self):\n"
                        "        return self.n\n"
                        "    @property\n"
                        "    def area(self):\n"
                        "        return self.n * self.side()\n"
                        "    def side(self):\n"
                        "        return 1\n"
                        "    @property\n"
                        "    def dense(self):\n"
                        "        return [self.n]\n"
                        "    def walk(self, k):\n"
                        "        return self.walk(k - 1) if k else self\n"
                        "    @classmethod\n"
                        "    def unit(cls):\n"
                        "        return cls(1)\n"
                        "print(Shape.unit().area)\n")}
    bench = {"run.py": "from a import Shape\nprint(Shape(2).dense)\n"}
    assert unread_definitions(package, {}) == ["a.py:Shape.dense", "a.py:Shape.walk"]
    assert unread_definitions(package, bench) == ["a.py:Shape.walk"]


def test_every_definition_is_read():
    def sources(paths):
        return {f"{p.parent.name}/{p.name}": p.read_text(encoding="utf-8") for p in paths}

    assert unread_definitions(sources(PACKAGE), sources(BENCHMARK)) == []
