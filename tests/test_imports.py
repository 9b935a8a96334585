"""Every name a uccert module imports is used in that module, every
module-level private name is read somewhere in the package, every public
function, class and method is read by the package, the acceptance tests, the
benchmark tracer or an oracle test, and the declared runtime dependencies are
the third-party packages the package imports at load time."""

import ast
import importlib
import importlib.util
import re
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "uccert"

# public names that only a test reads, each with the test that checks the
# library against it
ORACLES = {
    "extend_by_zero": "tests/test_corner.py::TestSeparablePairing::test_lab_forms_no_grid_array",
    "hp2_bracket": "tests/test_certify.py::TestCertificateProperties::"
                   "test_closed_form_hp2_matrix_matches_loop_and_bracket",
    "null_cone_max": "tests/test_certify.py::TestPinnedJets::"
                     "test_certificate_matches_the_helpers_on_the_fields",
}


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


def reads(tree: ast.AST) -> set:
    """Names a tree reads: ``ast.Name`` loads and attribute names."""
    out = set()
    for n in ast.walk(tree):
        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
            out.add(n.id)
        elif isinstance(n, ast.Attribute):
            out.add(n.attr)
    return out


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
        read |= reads(tree)
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


def unread_public_names(sources: dict, readers: set) -> list:
    """Public module-level functions and classes, and the public methods of
    such classes, that no module but ``__init__`` reads and ``readers`` does
    not hold, as ``module.name`` or ``module.Class.method``; sources maps
    module names to their text."""
    functions = (ast.FunctionDef, ast.AsyncFunctionDef)
    defined, read = [], set(readers)
    for module, source in sources.items():
        tree = ast.parse(source)
        for node in tree.body:
            if isinstance(node, functions + (ast.ClassDef,)) and not node.name.startswith("_"):
                defined.append((node.name, f"{module}.{node.name}"))
                if isinstance(node, ast.ClassDef):
                    defined += [(m.name, f"{module}.{node.name}.{m.name}") for m in node.body
                                if isinstance(m, functions) and not m.name.startswith("_")]
        if module != "__init__":            # a re-export is not a use
            read |= reads(tree)
    return sorted(qualified for name, qualified in defined if name not in read)


def test_public_detector_flags_unread_names():
    sources = {"a": "def used():\n    pass\ndef unread():\n    pass\nclass K:\n"
                    "    def m(self):\n        pass\n    def _p(self):\n        pass\n"
                    "    def gone(self):\n        pass\nused()\n",
               "b": "from .a import K\nK().m()\n",
               "c": "def oracle():\n    pass\n",
               "__init__": "from .a import unread, K\nK.gone\n"}
    assert unread_public_names(sources, {"oracle"}) == ["a.K.gone", "a.unread"]
    assert unread_public_names(sources, set()) == ["a.K.gone", "a.unread", "c.oracle"]


def tracer_reads() -> set:
    """The callables and classes the benchmark tracer wraps, by name; the
    tracer is loaded from its file and only its target list is read."""
    spec = importlib.util.spec_from_file_location("perfbench_tracer", ROOT / "perfbench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    uc = {p.stem: importlib.import_module(f"uccert.{p.stem}") for p in SRC.glob("*.py")
          if p.stem not in ("__init__", "__main__")}
    names = set()
    for _, owner, attr, _, _ in tracer.layer_targets(uc):
        names.add(attr)
        if isinstance(owner, type):
            names.add(owner.__name__)
    return names


def test_every_public_name_is_read():
    # a public name that only tests read is deleted, or named in ORACLES
    sources = {p.stem: p.read_text() for p in sorted(SRC.glob("*.py"))}
    readers = (reads(ast.parse((ROOT / "tests" / "test_acceptance.py").read_text()))
               | tracer_reads() | set(ORACLES))
    assert unread_public_names(sources, readers) == []


@pytest.mark.parametrize("name", sorted(ORACLES))
def test_oracle_is_read_by_its_test(name):
    path, *scopes = ORACLES[name].split("::")
    body = ast.parse((ROOT / path).read_text()).body
    for scope in scopes:
        node = next(n for n in body if getattr(n, "name", None) == scope)
        body = node.body
    assert name in reads(node)


def module_level_imports(source: str) -> set:
    """Top-level packages that a module's own statements import, so at load
    time, leaving out relative imports."""
    out = set()
    for node in ast.parse(source).body:
        if isinstance(node, ast.Import):
            out.update(a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            out.add(node.module.split(".")[0])
    return out


def test_runtime_dependencies_are_the_load_time_imports():
    tomllib = pytest.importorskip("tomllib")         # Python 3.11+
    imported = set().union(*(module_level_imports(p.read_text()) for p in SRC.glob("*.py")))
    third_party = imported - set(sys.stdlib_module_names) - {"uccert"}
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    declared = {re.match(r"[A-Za-z0-9_.-]+", d).group(0) for d in project["dependencies"]}
    assert "numpy" in third_party
    assert declared == third_party
