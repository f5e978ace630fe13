"""No module imports a name that it never reads; no top-level definition
of the package, nor any method, property or dataclass field of its classes,
goes unread; and no function of the package assigns a parameter or local
that it never reads. The package's ``__init__.py`` is exempt from the
first: its imports are the public re-exports, and every one of them, and
nothing else, is listed in ``__all__`` and resolves on the package."""

import ast
import types
from pathlib import Path

import pytest

import psdlab

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


def export_gaps(source: str, module) -> tuple[list[str], list[str]]:
    """For a package's ``__init__`` ``source`` and the imported ``module``:
    the names of its ``__all__`` that the module does not define, and the
    names its imports bind that ``__all__`` does not list."""
    bound = [a.asname or a.name for node in ast.parse(source).body
             if isinstance(node, ast.ImportFrom) and node.module != "__future__"
             for a in node.names]
    return ([name for name in module.__all__ if not hasattr(module, name)],
            [name for name in bound if name not in module.__all__])


def test_scan_finds_a_half_removed_export():
    source = "from .numkit import RngState, SoftTargets\n"
    module = types.ModuleType("pkg")
    module.__all__ = ["RngState", "softmax_xent"]
    module.RngState = module.SoftTargets = object
    assert export_gaps(source, module) == (["softmax_xent"], ["SoftTargets"])


def test_every_export_resolves_and_every_import_is_exported():
    source = (ROOT / "src/psdlab/__init__.py").read_text(encoding="utf-8")
    assert export_gaps(source, psdlab) == ([], [])


# Dataclasses whose fields are read through ``fields()`` and ``getattr``
# only, which no static scan can follow.
FIELDS_READ_BY_NAME = {"ExperimentConfig"}


def is_dataclass(node: ast.ClassDef) -> bool:
    return any(isinstance(d, ast.Name) and d.id == "dataclass"
               or isinstance(d, ast.Call) and isinstance(d.func, ast.Name)
               and d.func.id == "dataclass" for d in node.decorator_list)


def unread_definitions(package: dict[str, str], others: dict[str, str]) -> list[str]:
    """The top-level functions and classes of the ``package`` sources (file
    name to source), and the methods, properties and dataclass fields of
    those classes, that no source of ``package`` or ``others`` names outside
    the definition itself and no ``__all__`` of ``package`` lists, as
    ``file:name`` or ``file:Class.name``. A function, class or method is
    named by a read name or an attribute; a field by an attribute or a
    keyword argument. Dunders are exempt: Python calls them. So are the
    fields of ``FIELDS_READ_BY_NAME``."""
    by_name, by_member = {"name", "attr"}, {"attr", "keyword"}
    defined, exported, named = [], set(), []
    for path, source in {**package, **others}.items():
        tree = ast.parse(source)
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                named.append((path, node.id, node.lineno, "name"))
            elif isinstance(node, ast.Attribute):
                named.append((path, node.attr, node.lineno, "attr"))
            elif isinstance(node, ast.keyword) and node.arg:
                named.append((path, node.arg, node.lineno, "keyword"))
        if path not in package:
            continue
        functions = (ast.FunctionDef, ast.AsyncFunctionDef)
        for node in tree.body:
            if isinstance(node, (*functions, ast.ClassDef)):
                defined.append((path, node.name, node.name, node.lineno, node.end_lineno,
                                by_name))
            if isinstance(node, ast.ClassDef):
                defined += [(path, f"{node.name}.{item.name}", item.name, item.lineno,
                             item.end_lineno, by_name) for item in node.body
                            if isinstance(item, functions)
                            and not (item.name.startswith("__") and item.name.endswith("__"))]
                if is_dataclass(node) and node.name not in FIELDS_READ_BY_NAME:
                    defined += [(path, f"{node.name}.{item.target.id}", item.target.id,
                                 item.lineno, item.end_lineno, by_member) for item in node.body
                                if isinstance(item, ast.AnnAssign)
                                and isinstance(item.target, ast.Name)]
            elif (isinstance(node, ast.Assign)
                  and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
                exported |= set(ast.literal_eval(node.value))
    return [f"{path}:{label}" for path, label, name, first, last, kinds in defined
            if label not in exported
            and not any(n == name and kind in kinds and not (p == path and first <= line <= last)
                        for p, n, line, kind in named)]


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


def test_scan_finds_an_unread_dataclass_field():
    package = {"a.py": ("from dataclasses import dataclass\n"
                        "__all__ = ['ExperimentConfig', 'build']\n"
                        "@dataclass(frozen=True)\n"
                        "class Spec:\n"
                        "    width: int\n"
                        "    depth: int = 1\n"
                        "    label: str = ''\n"
                        "    spare: int = 0\n"
                        "@dataclass\n"
                        "class ExperimentConfig:\n"
                        "    knob: int = 0\n"
                        "class Plain:\n"
                        "    size: int = 0\n"
                        "def build(label):\n"
                        "    return Spec(width=label).depth + Plain.size\n")}
    bench = {"run.py": "from a import Spec\nprint(Spec(2, label='x'))\n"}
    # `label` is read as a name only, and `knob` through fields() alone.
    assert unread_definitions(package, {}) == ["a.py:Spec.label", "a.py:Spec.spare"]
    assert unread_definitions(package, bench) == ["a.py:Spec.spare"]


def test_every_definition_is_read():
    def sources(paths):
        return {f"{p.parent.name}/{p.name}": p.read_text(encoding="utf-8") for p in paths}

    assert unread_definitions(sources(PACKAGE), sources(BENCHMARK)) == []


def unread_locals(source: str) -> list[str]:
    """The parameters and locals of each function of ``source`` that are
    assigned but never read, as ``function:name``, in the order of the
    functions. A read anywhere in the function, its nested functions
    included, counts, and so does an augmented assignment; names that
    start with ``_`` are exempt."""
    functions = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
    unread = []
    for func in ast.walk(ast.parse(source)):
        if not isinstance(func, functions):
            continue
        args = func.args
        bound = [a.arg for a in (*args.posonlyargs, *args.args, *args.kwonlyargs,
                                 args.vararg, args.kwarg) if a]
        foreign = set()  # nonlocal and global names belong to another scope
        stack = list(ast.iter_child_nodes(func))
        while stack:  # the function's own nodes, not those of nested functions
            node = stack.pop()
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
                bound.append(node.id)
            elif isinstance(node, ast.ExceptHandler) and node.name:
                bound.append(node.name)
            elif isinstance(node, (ast.Nonlocal, ast.Global)):
                foreign |= set(node.names)
            if not isinstance(node, functions):
                stack += ast.iter_child_nodes(node)
        read = set()
        for node in ast.walk(func):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.AugAssign) and isinstance(node.target, ast.Name):
                read.add(node.target.id)
        name = getattr(func, "name", "<lambda>")
        unread += [f"{name}:{local}" for local in dict.fromkeys(bound)
                   if local not in read and local not in foreign and not local.startswith("_")]
    return unread


def test_scan_finds_an_unread_local_or_parameter():
    source = ("def search(f, x, lo, hi, _spare):\n"
              "    best, total, count = None, 0, 0\n"
              "    count += 1\n"
              "    def inner(step, width):\n"
              "        nonlocal best\n"
              "        best = step\n"
              "        return f(x + step)\n"
              "    for _, k in enumerate(range(3)):\n"
              "        total = inner(k, 1)\n"
              "    try:\n"
              "        pass\n"
              "    except ValueError as exc:\n"
              "        pass\n"
              "    return sorted([lo], key=lambda item, depth=2: item)\n")
    # x is read by the closure only, count by its augmented assignment; best
    # is assigned in both scopes and read in neither.
    assert sorted(unread_locals(source)) == ["<lambda>:depth", "inner:width", "search:best",
                                             "search:exc", "search:hi", "search:total"]


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_every_local_is_read(path):
    assert unread_locals(path.read_text(encoding="utf-8")) == []
