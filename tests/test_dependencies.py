"""numpy is the package's only runtime dependency: every module under
``src/sectes`` imports only the standard library, numpy and the package
itself, and reaches numpy through its public API only."""

import ast
import re
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "sectes"
ALLOWED = set(sys.stdlib_module_names) | {"numpy", "sectes"}
PRIVATE_NUMPY = re.compile(r"(numpy|np)\.(_core|core)(\..*)?")


def test_package_imports_only_the_standard_library_and_numpy():
    imported = set()
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                imported |= {(path.name, a.name.split(".")[0])
                             for a in node.names}
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imported.add((path.name, node.module.split(".")[0]))
    assert ("ensemble.py", "numpy") in imported
    assert {(f, m) for f, m in imported if m not in ALLOWED} == set()


def private_numpy_uses(source: str) -> set[str]:
    """Dotted names of numpy's private modules (``numpy._core``, the old
    ``numpy.core``) that ``source`` imports or reaches as attributes of
    ``numpy`` or ``np``."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names |= {a.name for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names |= {f"{node.module}.{a.name}" for a in node.names}
        elif (isinstance(node, ast.Attribute)
              and isinstance(node.value, ast.Name)):
            names.add(f"{node.value.id}.{node.attr}")
    return {n for n in names if PRIVATE_NUMPY.fullmatch(n)}


def test_package_uses_no_private_numpy_api():
    used = {(path.name, name) for path in sorted(PACKAGE.glob("*.py"))
            for name in private_numpy_uses(path.read_text())}
    assert used == set()


def test_private_numpy_check_catches_each_spelling():
    for source in ("import numpy._core.umath", "from numpy.core import umath",
                   "from numpy import _core", "np._core.umath.clip(x, 0, 1)",
                   "numpy.core.multiarray"):
        assert private_numpy_uses(source), source
    for source in ("np.clip(x, 0, 1)", "import numpy as np",
                   "np.corrcoef(a)", "from numpy.lib import stride_tricks",
                   "x = 'numpy._core'"):
        assert not private_numpy_uses(source), source
