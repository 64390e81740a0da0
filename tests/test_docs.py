"""The demos and the README's python blocks import only names that exist
and call them only with keywords they take, the README's JSON blocks
are valid experiment configs, and its ``sectes`` command lines parse.

The scripts are parsed, not run, so this check is fast; it keeps a
deleted or renamed public name, keyword or config field from silently
breaking the narrative examples.
"""

import argparse
import ast
import importlib
import inspect
import json
import re
import shlex
from dataclasses import fields
from pathlib import Path

import pytest

from sectes.cli import (MODEL_FORMAT_VERSION, ExperimentConfig, build_config,
                        build_parser)
from sectes.ctes import CtesModel
from sectes.ensemble import EnsembleModel

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
    """(module, name, local name) for every ``from sectes... import name``
    and (module, None, None) for every ``import sectes...``."""
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and node.level == 0 \
                and node.module.split(".")[0] == "sectes":
            yield from ((node.module, alias.name, alias.asname or alias.name)
                        for alias in node.names)
        elif isinstance(node, ast.Import):
            yield from ((alias.name, None, None) for alias in node.names
                        if alias.name.split(".")[0] == "sectes")


def stale_keywords(source):
    """(name, keyword) for every keyword of a call to a name imported
    from sectes that the name's signature does not take."""
    imported = {local: getattr(importlib.import_module(module), name)
                for module, name, local in sectes_imports(source) if name}
    for node in ast.walk(ast.parse(source)):
        if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id in imported):
            continue
        params = inspect.signature(imported[node.func.id]).parameters
        if any(p.kind is p.VAR_KEYWORD for p in params.values()):
            continue
        yield from ((node.func.id, kw.arg) for kw in node.keywords
                    if kw.arg is not None and kw.arg not in params)


def test_docs_are_found():
    assert len(DOCS) >= 6
    assert python_sources(ROOT / "README.md")


@pytest.mark.parametrize("path", DOCS, ids=lambda p: p.name)
def test_doc_imports_from_sectes_exist(path):
    pairs = [pair[:2] for source in python_sources(path)
             for pair in sectes_imports(source)]
    assert pairs, f"{path.name} imports nothing from sectes"
    for module, name in pairs:
        mod = importlib.import_module(module)
        assert name is None or hasattr(mod, name), \
            f"{path.name}: {module} has no {name!r}"


@pytest.mark.parametrize("path", DOCS, ids=lambda p: p.name)
def test_doc_calls_use_keywords_that_exist(path):
    stale = [pair for source in python_sources(path)
             for pair in stale_keywords(source)]
    assert not stale, f"{path.name}: calls with keywords not taken: {stale}"


def test_stale_keyword_scan_sees_a_stale_keyword():
    source = ("from sectes import EnsembleConfig as EC, TrainConfig\n"
              "EC(k=5, seed=7, train=TrainConfig(seed=7, jitter=0.1))\n")
    assert sorted(stale_keywords(source)) == [("EC", "seed"),
                                              ("TrainConfig", "jitter")]


def test_readme_json_blocks_are_valid_configs():
    blocks = fenced_blocks(ROOT / "README.md", "json")
    assert blocks
    for block in blocks:
        build_config(json.loads(block))


def readme_commands():
    """The arguments of every ``sectes`` command line in the README's sh
    blocks, continuations joined and comments dropped."""
    for block in fenced_blocks(ROOT / "README.md", "sh"):
        for line in block.replace("\\\n", " ").splitlines():
            argv = shlex.split(line, comments=True)
            if argv[:1] == ["sectes"]:
                yield argv[1:]


def test_readme_command_lines_parse():
    # a renamed or dropped flag stops the documented command
    parser = build_parser()
    subparsers, = [a for a in parser._actions
                   if isinstance(a, argparse._SubParsersAction)]
    for sub in subparsers.choices.values():
        sub.allow_abbrev = False  # --out is no abbreviation of an --out-dir
    commands = list(readme_commands())
    assert len(commands) >= 6
    for argv in commands:
        try:
            parser.parse_args(argv)
        except SystemExit:
            pytest.fail(f"README.md: sectes {shlex.join(argv)} does not parse")


def test_every_config_field_is_documented():
    # a config field nobody can find in the README is a knob nobody sets
    readme = (ROOT / "README.md").read_text()
    missing = [f.name for f in fields(ExperimentConfig)
               if f'"{f.name}"' not in readme and f"`{f.name}`" not in readme]
    assert not missing, f"README.md does not document {missing}"


def test_readme_states_the_current_model_format():
    # a format bump must carry the README's model-file paragraph with it
    readme = (ROOT / "README.md").read_text()
    stated = re.findall(r'\bformat (\d+)\b|"format_version": (\d+)', readme)
    assert len(stated) >= 2
    assert {int(a or b) for a, b in stated} == {MODEL_FORMAT_VERSION}
    # and name every field that a ctes or se-ctes payload saves
    paragraph, = re.findall(r"^Model files are .*?$(?=\n\n|\Z)", readme,
                            re.M | re.S)
    missing = [f.name for tp in (CtesModel, EnsembleModel) for f in fields(tp)
               if f.metadata.get("saved", True)
               and f"`{f.name}`" not in paragraph]
    assert not missing, f"README.md's model-file paragraph lacks {missing}"
