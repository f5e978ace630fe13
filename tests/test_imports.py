"""The package keeps nothing that only its tests use. No module, the
package's ``__init__.py`` included, imports a name that it never reads; no
top-level definition of the package, nor any method, property or dataclass
field of its classes, goes unread by the package and its benchmark, and
listing it in an ``__all__`` does not count as a read; no function of the
package assigns a parameter or local that it never reads. Each defaulted
parameter of the package is set by some call in the package or its
benchmark, the tests not counted, and left to its default by some call in
the package, its tests or its benchmark. No module of the package imports
another module's underscore name. The training core (``LOWER``) reaches no
module that evaluates, configures or runs experiments (``UPPER``) through
the package's import graph."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted(p for folder in ("src/psdlab", "tests") for p in (ROOT / folder).glob("*.py"))
PACKAGE = sorted((ROOT / "src/psdlab").glob("*.py"))
TESTS = sorted((ROOT / "tests").glob("*.py"))
BENCHMARK = sorted((ROOT / "perfbench").glob("*.py"))


def sources(paths) -> dict[str, str]:
    return {f"{p.parent.name}/{p.name}": p.read_text(encoding="utf-8") for p in paths}


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


def underscore_imports(source: str) -> list[str]:
    """The names that the ``from ... import`` statements of ``source`` take
    from their module that start with ``_``; an alias does not count."""
    return [a.name for node in ast.walk(ast.parse(source)) if isinstance(node, ast.ImportFrom)
            for a in node.names if a.name.startswith("_")]


def test_scan_finds_an_imported_underscore_name():
    source = ("from .model import _TANH, EncoderSpec\n"
              "from .numkit import RNG_CHUNK as _CHUNK, _count_true as count_true\n"
              "import numpy as _np\n"
              "print(_TANH, EncoderSpec, _CHUNK, count_true, _np)\n")
    assert underscore_imports(source) == ["_TANH", "_count_true"]


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_module_imports_an_underscore_name(path):
    assert underscore_imports(path.read_text(encoding="utf-8")) == []


# The training core, and the modules above it that it must not import.
LOWER = ("trainer", "objective", "model", "numkit", "data", "errors")
UPPER = ("evaluation", "config", "experiments", "cli")


def import_graph(package: dict[str, str]) -> dict[str, set[str]]:
    """Each module of the ``package`` sources (file name to source) to the
    modules of the package it imports, by relative or ``psdlab.`` import,
    at module level or inside a function."""
    modules = {Path(path).stem for path in package}
    graph = {}
    for path, source in package.items():
        imported = set()
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Import):
                imported |= {a.name.split(".")[1] for a in node.names
                             if a.name.startswith("psdlab.")}
            elif isinstance(node, ast.ImportFrom):
                parts = (node.module or "").split(".")
                if node.level == 0 and parts[0] == "psdlab":
                    parts = parts[1:]
                elif node.level == 0:
                    continue
                # ``from . import x`` and ``from psdlab import x`` import modules.
                imported |= {parts[0]} if parts and parts[0] else {a.name for a in node.names}
        graph[Path(path).stem] = imported & modules
    return graph


def layering_breaches(package: dict[str, str]) -> list[str]:
    """Each ``low -> high`` where a module of ``LOWER`` reaches a module of
    ``UPPER`` through the import graph of ``package``, directly or through
    other modules."""
    graph = import_graph(package)
    breaches = []
    for low in LOWER:
        reached, stack = set(), [low]
        while stack:
            for module in graph.get(stack.pop(), ()):
                if module not in reached:
                    reached.add(module)
                    stack.append(module)
        breaches += [f"{low} -> {high}" for high in UPPER if high in reached]
    return breaches


def test_scan_finds_a_layering_breach():
    package = {"psdlab/numkit.py": "import numpy as np\n",
               "psdlab/data.py": "from .numkit import RngState\nfrom . import errors\n",
               "psdlab/errors.py": "import os\n",
               "psdlab/model.py": ("from . import numkit\n"
                                   "def encode():\n"
                                   "    from .evaluation import score_eval\n"),
               "psdlab/trainer.py": "from .model import encode\nfrom .data import generate\n",
               "psdlab/objective.py": "from psdlab.config import ExperimentConfig\n",
               "psdlab/evaluation.py": "from .numkit import as_matrix\n",
               "psdlab/config.py": "from .trainer import TrainConfig\n",
               "psdlab/cli.py": "import psdlab.experiments\nfrom psdlab import config\n",
               "psdlab/experiments.py": "from .trainer import train\n"}
    # trainer and objective reach evaluation only through model's lazy import.
    assert layering_breaches(package) == [
        "trainer -> evaluation", "objective -> evaluation", "objective -> config",
        "model -> evaluation"]
    assert import_graph(package)["cli"] == {"experiments", "config"}


def test_training_core_imports_nothing_above_it():
    # train() trains; evaluating, configuring and running experiments are
    # its callers' work.
    assert layering_breaches(sources(PACKAGE)) == []


def is_dataclass(node: ast.ClassDef) -> bool:
    return any(isinstance(d, ast.Name) and d.id == "dataclass"
               or isinstance(d, ast.Call) and isinstance(d.func, ast.Name)
               and d.func.id == "dataclass" for d in node.decorator_list)


def unread_definitions(package: dict[str, str], others: dict[str, str]) -> list[str]:
    """The top-level functions and classes of the ``package`` sources (file
    name to source), and the methods, properties and dataclass fields of
    those classes, that no source of ``package`` or ``others`` names outside
    the definition itself, as ``file:name`` or ``file:Class.name``. A
    function, class or method is named by a read name or an attribute; a
    field by an attribute or a keyword argument. The names an ``__all__``
    lists are strings, not reads. Dunders are exempt: Python calls them."""
    by_name, by_member = {"name", "attr"}, {"attr", "keyword"}
    defined, named = [], []
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
                if is_dataclass(node):
                    defined += [(path, f"{node.name}.{item.target.id}", item.target.id,
                                 item.lineno, item.end_lineno, by_member) for item in node.body
                                if isinstance(item, ast.AnnAssign)
                                and isinstance(item.target, ast.Name)]
    return [f"{path}:{label}" for path, label, name, first, last, kinds in defined
            if not any(n == name and kind in kinds and not (p == path and first <= line <= last)
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
    # `api` is listed in __all__, which reads nothing.
    assert unread_definitions(package, bench) == ["a.py:api", "a.py:unused", "a.py:Orphan"]
    assert unread_definitions(package, {}) == ["a.py:api", "a.py:unused", "a.py:Orphan",
                                               "a.py:benched"]


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
                        "@dataclass(frozen=True)\n"
                        "class Spec:\n"
                        "    width: int\n"
                        "    depth: int = 1\n"
                        "    label: str = ''\n"
                        "    spare: int = 0\n"
                        "class Plain:\n"
                        "    size: int = 0\n"
                        "def build(label):\n"
                        "    return Spec(width=label).depth + Plain.size\n"
                        "print(build)\n")}
    bench = {"run.py": "from a import Spec\nprint(Spec(2, label='x'))\n"}
    # `label` is read as a name only.
    assert unread_definitions(package, {}) == ["a.py:Spec.label", "a.py:Spec.spare"]
    assert unread_definitions(package, bench) == ["a.py:Spec.spare"]


def test_every_definition_is_read():
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


def default_uses(package: dict[str, str],
                 others: dict[str, str]) -> list[tuple[str, bool, bool]]:
    """Each defaulted parameter of the functions of the ``package`` sources
    (file name to source), as ``file:function.parameter``, with whether some
    call in ``package`` or ``others`` sets it, by position or by keyword,
    and whether some call leaves it to its default. A call matches every
    function of its name, read as a name or an attribute; a name that
    ``from ... import f as g`` binds stands for ``f``. A call to a class is
    a call to its ``__init__``, and a method's first parameter is bound by
    the call itself. A call with ``*args`` or ``**kwargs`` may do either,
    so it counts as both for every parameter. A default that binds a name
    of the enclosing scope (``spec=spec``) is a closure binding, not a
    knob, and is exempt."""
    calls = {}  # name -> list of (positional count, keywords); None spreads
    for source in {**package, **others}.values():
        tree = ast.parse(source)
        aliases = {a.asname: a.name for node in ast.walk(tree)
                   if isinstance(node, ast.ImportFrom) for a in node.names if a.asname}
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            if isinstance(node.func, ast.Name):
                name = aliases.get(node.func.id, node.func.id)
            else:
                name = getattr(node.func, "attr", None)
            spread = (any(isinstance(a, ast.Starred) for a in node.args)
                      or any(k.arg is None for k in node.keywords))
            calls.setdefault(name, []).append(
                None if spread else (len(node.args), {k.arg for k in node.keywords}))

    def defaulted(func, bound_first):
        """(parameter, positional index or None) of each defaulted parameter."""
        args = func.args
        positional = [*args.posonlyargs, *args.args]
        skip = 1 if bound_first else 0
        pairs = [(a, positional.index(a) - skip, d)
                 for a, d in zip(positional[len(positional) - len(args.defaults):], args.defaults)]
        pairs += [(a, None, d) for a, d in zip(args.kwonlyargs, args.kw_defaults) if d]
        return [(a.arg, i) for a, i, d in pairs
                if not (isinstance(d, ast.Name) and d.id == a.arg)]

    uses = []
    for path, source in package.items():
        tree = ast.parse(source)
        owners = {id(item): node.name for node in ast.walk(tree)
                  if isinstance(node, ast.ClassDef) for item in node.body}
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            owner = owners.get(id(node))
            method = owner is not None and not any(
                isinstance(d, ast.Name) and d.id == "staticmethod" for d in node.decorator_list)
            name = owner if method and node.name == "__init__" else node.name
            label = f"{owner}.{node.name}" if owner else node.name
            for param, index in defaulted(node, method):
                found = calls.get(name, [])
                sets = [param in c[1] or (index is not None and c[0] > index)
                        for c in found if c is not None]
                spread = None in found
                uses.append((f"{path}:{label}.{param}", spread or any(sets),
                             spread or not all(sets)))
    return uses


def unset_defaults(package: dict[str, str], others: dict[str, str]) -> list[str]:
    """The defaulted parameters of ``package`` that no call sets (see
    ``default_uses``): a knob that nothing turns."""
    return [label for label, is_set, _ in default_uses(package, others) if not is_set]


def unused_defaults(package: dict[str, str], others: dict[str, str]) -> list[str]:
    """The defaulted parameters of ``package`` that no call leaves to its
    default (see ``default_uses``): a default that nothing relies on."""
    return [label for label, _, is_left in default_uses(package, others) if not is_left]


def test_scan_finds_a_default_no_call_sets():
    package = {"a.py": ("def search(f, x, c1=1e-4, c2=0.9, max_iter=25):\n"
                        "    return f(x, c1, c2, max_iter)\n"
                        "def backtrack(f, x, *, steps=30, shrink=0.5):\n"
                        "    return f(x, steps, shrink)\n"
                        "def spread(a, b=1):\n"
                        "    return a + b\n"
                        "def outer(spec):\n"
                        "    def inner(x, spec=spec):\n"
                        "        return spec(x)\n"
                        "    return inner\n"
                        "class Probe:\n"
                        "    def __init__(self, l2=0.0, history=10):\n"
                        "        self.l2, self.history = l2, history\n"
                        "    def fit(self, x, iters=100, tol=1e-7):\n"
                        "        return search(x, x, 1e-3) + backtrack(x, x, shrink=0.25)\n"
                        "    @staticmethod\n"
                        "    def make(k, width=4):\n"
                        "        return k * width\n"
                        "print(Probe(0.1).fit(1, 50), Probe.make(2, 8), spread(*[1, 2]))\n")}
    bench = {"run.py": "from a import search as find\nfind(len, 1, c2=0.5)\n"}
    # Probe(0.1) sets l2, fit(1, 50) sets iters, make(2, 8) sets width, and
    # find, which names search, sets c2.
    assert unset_defaults(package, bench) == [
        "a.py:search.max_iter", "a.py:backtrack.steps", "a.py:Probe.__init__.history",
        "a.py:Probe.fit.tol"]
    assert "a.py:search.c2" in unset_defaults(package, {})


def test_scan_finds_a_default_no_call_leaves():
    package = {"a.py": ("def probe(x, iters=100, l2=0.0):\n"
                        "    return x * iters + l2\n"
                        "def spread(a, b=1):\n"
                        "    return a + b\n"
                        "def orphan(a, b=1):\n"
                        "    return a - b\n"
                        "class Table:\n"
                        "    def __init__(self, rows, width=4):\n"
                        "        self.rows, self.width = rows, width\n"
                        "print(probe(1, 50, l2=0.5), spread(*[1, 2]), Table([], 8))\n")}
    tests = {"test_a.py": "from a import probe as fit\nfit(2, iters=10, l2=0.5)\nfit(3, 20)\n"}
    # Every call sets iters and width, fit(3, 20) leaves l2, the spread call
    # may leave b, and no call reaches orphan.
    assert unused_defaults(package, tests) == [
        "a.py:probe.iters", "a.py:orphan.b", "a.py:Table.__init__.width"]
    assert unused_defaults(package, {}) == [
        "a.py:probe.iters", "a.py:probe.l2", "a.py:orphan.b", "a.py:Table.__init__.width"]


def test_every_default_is_set_by_some_call():
    assert unset_defaults(sources(PACKAGE), sources(BENCHMARK)) == []


def test_every_default_is_left_by_some_call():
    assert unused_defaults(sources(PACKAGE), sources([*TESTS, *BENCHMARK])) == []
