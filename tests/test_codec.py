"""Property tests for the typed JSON decoder behind config and model files."""

import json
import tempfile
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from sectes.baselines import grnn_fit, pls_fit
from sectes.cli import (KNOWN_METHODS, STUDIES, ExperimentConfig, GpSize,
                        build_config, dumps_canonical, load_model, save_model)
from sectes.ctes import TrainConfig, train_ctes
from sectes.datagen import PairedDataset
from sectes.ensemble import EnsembleConfig, EnsembleSize, train_se_ctes
from sectes.forest import ForestConfig
from sectes.validation import sample_model

# drawn configs may set beta <= 0.5, which warns by design
pytestmark = pytest.mark.filterwarnings("ignore:beta=:UserWarning")

small_int = st.integers(min_value=1, max_value=50)
seeds = st.integers(min_value=0, max_value=2 ** 63 - 1)


def train_configs(min_channels: int = 0):
    return st.builds(
        TrainConfig,
        beta=st.floats(min_value=0.0, max_value=1.0),
        batch_size=st.integers(min_value=2, max_value=100),
        iterations=st.integers(min_value=0, max_value=5000),
        z_dim=small_int,
        learning_rate=st.floats(min_value=1e-9, max_value=1.0),
        hidden=small_int,
        convergence_window=small_int,
        convergence_tol=st.floats(min_value=0.0, max_value=1.0),
        conv_channels=st.lists(small_int, min_size=min_channels,
                               max_size=6).map(tuple))


forest_configs = st.builds(ForestConfig, n_trees=small_int)


@st.composite
def experiment_configs(draw):
    study = draw(st.sampled_from(STUDIES))
    grid = draw(st.integers(2, 64))
    # a scalar-to-matrix config needs a conv channel size per grid halving,
    # and adversarial methods need a power-of-two grid
    depth = int(np.log2(grid)) if study == "scalar-to-matrix" else 0
    adversarial = depth == 0 or grid == 2 ** depth
    methods = KNOWN_METHODS if adversarial else ("pls", "grnn")
    return draw(st.builds(
        ExperimentConfig,
        study=st.just(study),
        sigmas=st.lists(st.floats(min_value=0.0, max_value=1.0,
                                  exclude_min=True, exclude_max=True),
                        max_size=5, unique=True),
        trials=small_int,
        methods=st.lists(st.sampled_from(methods), max_size=6, unique=True),
        groups=st.lists(st.integers(1, 5), max_size=4, unique=True),
        samples_per_group=small_int, train=train_configs(depth),
        ensemble=st.integers(1, 4).flatmap(
            lambda h: st.builds(EnsembleSize,
                                k=st.integers(2 * h + 1, 2 * h + 5),
                                h=st.just(h))),
        forest=forest_configs,
        beta_grid=st.lists(st.floats(min_value=0.0, max_value=1.0),
                           max_size=4 if adversarial else 0,
                           unique=True),
        gp=st.builds(GpSize, grid=st.just(grid),
                     images_per_category=small_int),
        data_csv=st.none() | st.text(max_size=20),
        out_dir=st.text(max_size=20),
        master_seed=seeds, workers=st.integers(1, 8)))


@settings(max_examples=60, deadline=None)
@given(experiment_configs())
def test_config_round_trips_through_asdict_and_json(cfg):
    raw = asdict(cfg)
    del raw["train"]["seed"], raw["forest"]["seed"]  # derived per job
    assert build_config(raw) == cfg
    assert build_config(json.loads(dumps_canonical(cfg))) == cfg


def _dataset(seed: int, n: int, m: int, shape=None) -> PairedDataset:
    rng = np.random.default_rng(seed)
    width = shape[0] * shape[1] if shape else int(rng.integers(1, 4))
    return PairedDataset(x=rng.uniform(0, 1, (n, m)),
                         y=rng.standard_normal((n, width)),
                         groups=np.ones(n, int), n_groups=1, expr_shape=shape)


@st.composite
def models(draw):
    """A fitted model of any kind and its characteristic width."""
    kind = draw(st.sampled_from(["pls", "grnn", "ctes", "ctes-matrix",
                                 "se-ctes"]))
    seed = draw(st.integers(0, 2 ** 32 - 1))
    m = draw(st.integers(1, 3))
    n = draw(st.integers(12, 24))
    if kind == "pls":
        ds = _dataset(seed, n, m)
        return pls_fit(ds.x, ds.y, draw(st.integers(1, m))), m
    if kind == "grnn":
        ds = _dataset(seed, n, m)
        bandwidth = draw(st.none() | st.floats(min_value=0.01, max_value=10))
        return grnn_fit(ds.x, ds.y, bandwidth), m
    train = TrainConfig(iterations=draw(st.integers(1, 3)), batch_size=4,
                        hidden=draw(st.integers(2, 6)),
                        z_dim=draw(st.integers(1, 3)),
                        conv_channels=(2, 3), seed=seed)
    if kind == "se-ctes":
        return train_se_ctes(_dataset(seed, n, m), EnsembleConfig(
            k=3, h=1, train=train, clf=ForestConfig(n_trees=2))), m
    shape = (4, 4) if kind == "ctes-matrix" else None
    return train_ctes(_dataset(seed, n, m, shape), train), m


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(models(), st.integers(0, 2 ** 32 - 1), st.integers(1, 6))
def test_model_file_round_trip_is_bit_identical(fitted, seed, rows):
    model, width = fitted
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "model.json"
        save_model(model, path)
        loaded = load_model(path)
    assert type(loaded) is type(model)
    assert dumps_canonical(loaded) == dumps_canonical(model)
    X = np.random.default_rng(seed).uniform(0, 1, (rows, width))
    a = sample_model(model, X, np.random.default_rng(seed))
    b = sample_model(loaded, X, np.random.default_rng(seed))
    assert a.shape[0] == rows
    assert np.array_equal(a, b)
