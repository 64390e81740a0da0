"""The demos and the README's python blocks import only names that exist,
and the README's JSON blocks are valid experiment configs.

The scripts are parsed, not run, so this check is fast; it keeps a
deleted or renamed public name or config field from silently breaking
the narrative examples.
"""

import ast
import importlib
import json
import re
from dataclasses import fields
from pathlib import Path

import pytest

from sectes.cli import ExperimentConfig, build_config

ROOT = Path(__file__).resolve().parent.parent
DOCS = sorted(ROOT.glob("demos/*.py")) + [ROOT / "README.md"]


def fenced_blocks(path, language):
    return re.findall(rf"^```{language}\n(.*?)^```", path.read_text(),
                      re.M | re.S)


def python_sources(path):
    if path.suffix == ".md":
        return fenced_blocks(path, "python")
    return [path.read_text()]


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


def test_readme_json_blocks_are_valid_configs():
    blocks = fenced_blocks(ROOT / "README.md", "json")
    assert blocks
    for block in blocks:
        build_config(json.loads(block))


def test_every_config_field_is_documented():
    # a config field nobody can find in the README is a knob nobody sets
    readme = (ROOT / "README.md").read_text()
    missing = [f.name for f in fields(ExperimentConfig)
               if f'"{f.name}"' not in readme and f"`{f.name}`" not in readme]
    assert not missing, f"README.md does not document {missing}"
