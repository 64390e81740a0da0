"""numpy is the package's only runtime dependency: every module under
``src/sectes`` imports only the standard library, numpy and the package
itself."""

import ast
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "sectes"
ALLOWED = set(sys.stdlib_module_names) | {"numpy", "sectes"}


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
