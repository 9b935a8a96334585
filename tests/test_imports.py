"""Every name a uccert module imports is used in that module, and every
module-level private name is read somewhere in the package."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "uccert"


def unused_imports(source: str) -> list:
    """Names bound by an import statement and never read as a name."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted(imported - used)


def test_detector_flags_unused_names():
    source = ("from __future__ import annotations\nimport os\nimport numpy as np\n"
              "import scipy.fft\nfrom .grids import Grid, d1\n"
              "def f(g: Grid):\n    from .errors import E\n    return np.zeros(3), scipy.fft\n")
    assert unused_imports(source) == ["E", "d1", "os"]


# the package __init__ imports its public names only to re-export them
@pytest.mark.parametrize("path", sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py"),
                         ids=lambda p: p.name)
def test_module_uses_every_import(path):
    assert unused_imports(path.read_text()) == []


def stranded_private_names(sources: dict) -> list:
    """Module-level private names (``_x``, not dunders) that no module reads,
    as ``module.name``; sources maps module names to their text."""
    defined, read = [], set()
    for module, source in sources.items():
        tree = ast.parse(source)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                names = []
            defined += [(module, n) for n in names
                        if n.startswith("_") and not (n.startswith("__") and n.endswith("__"))]
        for n in ast.walk(tree):
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
                read.add(n.id)
            elif isinstance(n, ast.Attribute):
                read.add(n.attr)
    return sorted(f"{module}.{n}" for module, n in defined if n not in read)


def test_stranded_detector_flags_unread_private_names():
    sources = {"a": "def _used():\n    pass\ndef _stranded():\n    pass\n_CONST: int = 1\n"
                    "_ALONE = 2\n__all__ = []\nx = _used()\n",
               "b": "from .a import _CONST\nimport a\nprint(_CONST, a._helper)\n",
               "c": "def _helper():\n    pass\n"}
    assert stranded_private_names(sources) == ["a._ALONE", "a._stranded"]


def test_every_private_name_is_read():
    # a helper left behind when its last caller is deleted fails here
    sources = {p.stem: p.read_text() for p in sorted(SRC.glob("*.py"))}
    assert stranded_private_names(sources) == []
