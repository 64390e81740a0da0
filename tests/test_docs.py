"""The demos and the README's python blocks import only names that exist.

The scripts are parsed, not run, so this check is fast; it keeps a
deleted or renamed public name from silently breaking the narrative
examples.
"""

import ast
import importlib
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DOCS = sorted(ROOT.glob("demos/*.py")) + [ROOT / "README.md"]


def python_sources(path):
    text = path.read_text()
    if path.suffix == ".md":
        return re.findall(r"^```python\n(.*?)^```", text, re.M | re.S)
    return [text]


def sectes_imports(source):
    """(module, name) for every ``from sectes... import name`` and
    (module, None) for every ``import sectes...``."""
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and node.level == 0 \
                and node.module.split(".")[0] == "sectes":
            yield from ((node.module, alias.name) for alias in node.names)
        elif isinstance(node, ast.Import):
            yield from ((alias.name, None) for alias in node.names
                        if alias.name.split(".")[0] == "sectes")


def test_docs_are_found():
    assert len(DOCS) >= 6
    assert python_sources(ROOT / "README.md")


@pytest.mark.parametrize("path", DOCS, ids=lambda p: p.name)
def test_doc_imports_from_sectes_exist(path):
    pairs = [pair for source in python_sources(path)
             for pair in sectes_imports(source)]
    assert pairs, f"{path.name} imports nothing from sectes"
    for module, name in pairs:
        mod = importlib.import_module(module)
        assert name is None or hasattr(mod, name), \
            f"{path.name}: {module} has no {name!r}"
