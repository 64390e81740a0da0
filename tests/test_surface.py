"""The package's public surface: the names ``sectes`` exports are pinned,
and every public top-level name under ``src/sectes`` has a caller in the
package, the demos, the README's python blocks or the benchmark.

A public name that nothing calls is code kept working for no one; a name
added to or dropped from the exports changes what users can import, so
either is done on purpose, here.
"""

import ast
import re
from pathlib import Path

import sectes

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "sectes"

# public names kept without a caller, each with its reason
UNCALLED = {
    "discriminator_forward": "scores one pair with a trained discriminator, "
                             "for checking a trained model against the "
                             "optimal-discriminator theory",
}


def test_exported_names_are_pinned():
    # an export added or dropped changes what users can import: edit here
    exported = sorted(n for n in vars(sectes)
                      if not n.startswith("_")
                      and not isinstance(getattr(sectes, n), type(sectes)))
    assert exported == [
        "ConfigError", "ConfusionCounts", "CtesModel",
        "EnsembleConfig", "EnsembleError", "EnsembleModel", "EnsembleSize",
        "Forest", "ForestConfig", "GpSimConfig",
        "GrnnModel", "MethodSettings", "MismatchImpossible",
        "ModelFormatError", "Normalization", "PairedDataset", "PlsModel",
        "RiskEvalReport", "SimConfig", "TrainConfig", "TrainingDiverged",
        "ValidationReport", "aggregate_trials", "compute_a_metrics",
        "discriminator_forward", "discriminator_loss", "ensemble_synthesize",
        "expression_transform", "fit_and_synthesize", "fit_forest",
        "fit_method", "gen_multivariate_dataset",
        "gen_scalar_to_matrix_dataset", "generator_loss", "gp_sample",
        "grnn_fit", "grnn_predict", "identify_group_experiment",
        "inverse_validation_scores", "mismatch_table", "pls_fit",
        "pls_predict", "predict_forest", "predict_proba",
        "read_dataset_csv", "risk_difference_eval", "sample_mismatch",
        "sample_model", "select_top_h", "split_train_test",
        "synthesize_each", "toy_minimax_oracle", "train_ctes",
        "train_se_ctes", "write_dataset_csv"]


def public_definitions():
    """Every public top-level function, class or assigned name in the
    package's modules; ``__init__`` only re-exports."""
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                targets = [node.name]
            elif isinstance(node, ast.Assign):
                targets = [t.id for t in node.targets
                           if isinstance(t, ast.Name)]
            elif isinstance(node, ast.AnnAssign) \
                    and isinstance(node.target, ast.Name):
                targets = [node.target.id]
            else:
                continue
            yield from (n for n in targets if not n.startswith("_"))


def referenced_names(source: str) -> set[str]:
    """The names ``source`` uses: plain names, attributes, and string
    constants that are identifiers (the benchmark's tracer patches
    functions by name). A definition or an import alone is no use."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) \
                and node.value.isidentifier():
            names.add(node.value)
    return names


def caller_sources():
    paths = [p for p in sorted(PACKAGE.glob("*.py"))
             if p.name != "__init__.py"]
    paths += sorted(ROOT.glob("demos/*.py")) + sorted(ROOT.glob("perfbench/*.py"))
    yield from (p.read_text() for p in paths)
    yield from re.findall(r"^```python\n(.*?)^```",
                          (ROOT / "README.md").read_text(), re.M | re.S)


def test_every_public_name_has_a_caller():
    # an allowlisted name that gains a caller leaves the allowlist too
    used = set().union(*map(referenced_names, caller_sources()))
    uncalled = set(public_definitions()) - used
    assert uncalled == set(UNCALLED), \
        f"public names nothing calls: {sorted(uncalled - set(UNCALLED))}"


def test_reference_scan_sees_each_kind_of_use():
    for source in ("f(x)", "mod.f(x)", "hook('f')", "class A(f): pass",
                   "def g(x: f): pass"):
        assert "f" in referenced_names(source), source
    for source in ("def f(): pass", "from m import f", "x = 'f()'",
                   "# f"):
        assert "f" not in referenced_names(source), source
