"""numpy is the package's only runtime dependency: every module under
``src/sectes`` imports only the standard library, numpy and the package
itself, and reaches numpy through its public API only. The package also
sets no environment variable: allocator or thread settings through the
environment would change how every caller's process runs, so the
package's speed has to come from how it allocates and computes. Nor does
it reshape an array argument with ``np.atleast_*d``: a 1-D array read as
one wide row is a silent misread, so every array argument goes through
``datagen._rows``, which refuses it by name."""

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


ENVIRON_WRITES = {"setdefault", "update", "pop", "popitem", "clear"}


def environment_writes(source: str) -> set[str]:
    """The statements of ``source`` that set or delete a process
    environment variable: item assignment or ``del`` on ``os.environ``,
    its mutating methods, and ``os.putenv``/``os.unsetenv`` (also when
    imported from ``os`` by name). Reads such as ``os.environ.get`` pass."""
    tree = ast.parse(source)
    environ, setters = {"os.environ"}, {"os.putenv", "os.unsetenv"}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "os":
            for a in node.names:
                if a.name == "environ":
                    environ.add(a.asname or a.name)
                elif a.name in ("putenv", "unsetenv"):
                    setters.add(a.asname or a.name)
    found = set()
    for node in ast.walk(tree):
        if (isinstance(node, ast.Subscript)
                and isinstance(node.ctx, (ast.Store, ast.Del))
                and ast.unparse(node.value) in environ):
            found.add(ast.unparse(node))
        elif isinstance(node, ast.Call) and (
                ast.unparse(node.func) in setters
                or (isinstance(node.func, ast.Attribute)
                    and node.func.attr in ENVIRON_WRITES
                    and ast.unparse(node.func.value) in environ)):
            found.add(ast.unparse(node))
    return found


def test_package_sets_no_environment_variable():
    found = {(path.name, stmt) for path in sorted(PACKAGE.glob("*.py"))
             for stmt in environment_writes(path.read_text())}
    assert found == set()


def test_environment_check_catches_each_spelling():
    for source in ("os.environ['X'] = '1'", "os.environ['X'] += '1'",
                   "del os.environ['X']", "os.environ.setdefault('X', '1')",
                   "os.environ.update(X='1')", "os.environ.pop('X', None)",
                   "os.environ.clear()", "os.putenv('X', '1')",
                   "os.unsetenv('X')",
                   "from os import environ\nenviron['X'] = '1'",
                   "from os import environ as env\nenv.update(X='1')",
                   "from os import putenv\nputenv('X', '1')"):
        assert environment_writes(source), source
    for source in ("os.environ.get('CTES_LOG', 'WARNING')",
                   "x = os.environ['X']", "'X' in os.environ",
                   "env = dict(os.environ)", "os.getenv('X')",
                   "settings['X'] = '1'", "settings.update(X='1')"):
        assert not environment_writes(source), source


ATLEAST = re.compile(r"atleast_[123]d")


def atleast_uses(source: str) -> set[str]:
    """The uses in ``source`` of numpy's ``atleast_1d``, ``atleast_2d``
    and ``atleast_3d``: as attributes of numpy under any name it is
    imported as, or imported from numpy by name."""
    tree = ast.parse(source)
    numpy = {"numpy", "np"}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            numpy |= {a.asname or a.name for a in node.names
                      if a.name == "numpy"}
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "numpy":
            found |= {f"numpy.{a.name}" for a in node.names
                      if ATLEAST.fullmatch(a.name)}
        elif (isinstance(node, ast.Attribute) and ATLEAST.fullmatch(node.attr)
              and ast.unparse(node.value) in numpy):
            found.add(ast.unparse(node))
    return found


def test_package_reshapes_no_array_argument():
    found = {(path.name, use) for path in sorted(PACKAGE.glob("*.py"))
             for use in atleast_uses(path.read_text())}
    assert found == set()


def test_atleast_check_catches_each_spelling():
    for source in ("np.atleast_1d(x)", "np.atleast_2d(x)",
                   "numpy.atleast_3d(x)",
                   "import numpy as xp\nxp.atleast_2d(x)",
                   "from numpy import atleast_2d\natleast_2d(x)",
                   "from numpy import atleast_1d as rows\nrows(x)",
                   "f = np.atleast_2d"):
        assert atleast_uses(source), source
    for source in ("np.asarray(x)", "_rows(x, 'x')", "x = 'np.atleast_2d'",
                   "np.atleast_4d(x)", "# np.atleast_2d(x)",
                   "frame.atleast_2d(x)"):
        assert not atleast_uses(source), source
