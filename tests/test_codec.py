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
from sectes.cli import (KNOWN_METHODS, STUDIES, EnsembleSize,
                        ExperimentConfig, GpSize, build_config,
                        dumps_canonical, load_model, save_model)
from sectes.ctes import TrainConfig, train_ctes
from sectes.datagen import PairedDataset
from sectes.ensemble import EnsembleConfig, train_se_ctes
from sectes.forest import ForestConfig
from sectes.validation import sample_model

# drawn configs may set beta <= 0.5, which warns by design
pytestmark = pytest.mark.filterwarnings("ignore:beta=:UserWarning")

small_int = st.integers(min_value=1, max_value=50)
seeds = st.integers(min_value=0, max_value=2 ** 63 - 1)

train_configs = st.builds(
    TrainConfig,
    beta=st.floats(min_value=0.0, max_value=1.0),
    batch_size=st.integers(min_value=2, max_value=100),
    iterations=st.integers(min_value=0, max_value=5000),
    z_dim=small_int,
    learning_rate=st.floats(min_value=1e-9, max_value=1.0),
    hidden=small_int,
    convergence_window=small_int,
    convergence_tol=st.floats(min_value=0.0, max_value=1.0),
    jitter=st.floats(min_value=0.0, max_value=1.0),
    seed=seeds,
    conv_channels=st.lists(small_int, max_size=5).map(tuple))

forest_configs = st.builds(
    ForestConfig, n_trees=small_int, max_depth=st.integers(0, 10),
    seed=seeds)

experiment_configs = st.builds(
    ExperimentConfig,
    study=st.sampled_from(STUDIES),
    sigmas=st.lists(st.floats(min_value=0.0, max_value=1.0, exclude_min=True,
                              exclude_max=True), max_size=5),
    trials=small_int,
    methods=st.lists(st.sampled_from(KNOWN_METHODS), max_size=6),
    groups=st.lists(st.integers(1, 5), max_size=4),
    samples_per_group=small_int, train=train_configs,
    ensemble=st.integers(1, 4).flatmap(
        lambda h: st.builds(EnsembleSize, k=st.integers(2 * h + 1, 2 * h + 5),
                            h=st.just(h))),
    forest=forest_configs,
    beta_grid=st.lists(st.floats(min_value=0.0, max_value=1.0), max_size=4),
    gp=st.builds(GpSize, grid=st.integers(2, 64), images_per_category=small_int),
    data_csv=st.none() | st.text(max_size=20), out_dir=st.text(max_size=20),
    master_seed=seeds, workers=st.integers(1, 8))


@settings(max_examples=60, deadline=None)
@given(experiment_configs)
def test_config_round_trips_through_asdict_and_json(cfg):
    assert build_config(asdict(cfg)) == cfg
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
                        jitter=draw(st.sampled_from([0.0, 0.1])),
                        conv_channels=(2, 3), seed=seed)
    if kind == "se-ctes":
        return train_se_ctes(_dataset(seed, n, m), EnsembleConfig(
            k=3, h=1, train=train, clf=ForestConfig(n_trees=2), seed=seed)), m
    shape = (4, 4) if kind == "ctes-matrix" else None
    return train_ctes(_dataset(seed, n, m, shape), train), m


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(models(), st.integers(0, 2 ** 32 - 1), st.integers(1, 6),
       st.none() | st.floats(min_value=0.0, max_value=0.5))
def test_model_file_round_trip_is_bit_identical(fitted, seed, rows, jitter):
    model, width = fitted
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "model.json"
        save_model(model, path)
        loaded = load_model(path)
    assert type(loaded) is type(model)
    assert dumps_canonical(loaded) == dumps_canonical(model)
    X = np.random.default_rng(seed).uniform(0, 1, (rows, width))
    a = sample_model(model, X, np.random.default_rng(seed), jitter)
    b = sample_model(loaded, X, np.random.default_rng(seed), jitter)
    assert a.shape[0] == rows
    assert np.array_equal(a, b)
