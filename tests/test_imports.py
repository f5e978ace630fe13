"""No module imports a name that it never reads. The package's
``__init__.py`` is exempt: its imports are the public re-exports."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted(p for folder in ("src/psdlab", "tests") for p in (ROOT / folder).glob("*.py")
                 if p.name != "__init__.py")


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
