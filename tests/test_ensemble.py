import numpy as np
import pytest

from sectes import ensemble as ensemble_mod
from sectes.ctes import TrainConfig, train_ctes
from sectes.datagen import (GpSimConfig, PairedDataset,
                            gen_scalar_to_matrix_dataset)
from sectes.ensemble import (EnsembleConfig, EnsembleModel,
                             ensemble_synthesize, inverse_validation_scores,
                             select_top_h, train_se_ctes)
from sectes.errors import ConfigError, EnsembleError, TrainingDiverged
from sectes.forest import ForestConfig
from sectes.validation import sample_model


def small_dataset(seed=0, n=60):
    rng = np.random.default_rng(seed)
    x = rng.uniform(0, 1, size=(n, 1))
    y = np.hstack([x + 0.05 * rng.standard_normal((n, 1)),
                   2 * x + 0.05 * rng.standard_normal((n, 1))])
    return PairedDataset(x=x, y=y, groups=np.ones(n, int), n_groups=1)


def constant_model(dataset, value, seed=0):
    """A generator that always emits `value` (zero net + shifted offset)."""
    model = train_ctes(dataset, TrainConfig(iterations=0, batch_size=8,
                                            seed=seed))
    for net in (model.generator.mixer, model.generator.decoder):
        for lay in net.layers:
            lay["W"][:] = 0.0
            lay["b"][:] = 0.0
    model.generator.norm.y_mean = np.full(dataset.expr_dim, float(value))
    return model


def test_select_top_h_basic():
    assert select_top_h([0.9, 0.2, 0.8, 0.5, 0.7], 2) == [0, 2]
    assert select_top_h([0.5, 0.5, 0.5], 2) == [0, 1]  # tie -> lowest index
    assert select_top_h([0.1, 0.9, 0.4], 3) == [0, 1, 2]
    with pytest.raises(ConfigError):
        select_top_h([0.1, 0.2], 3)


def test_ensemble_config_enforces_k_greater_than_2h():
    with pytest.raises(ConfigError):
        EnsembleConfig(k=4, h=2)
    with pytest.raises(ConfigError):
        EnsembleConfig(k=2, h=1)
    with pytest.raises(ConfigError):
        EnsembleConfig(k=5, h=0)
    EnsembleConfig(k=5, h=2)  # the published default is valid


def test_inverse_validation_identical_batches_scores_equal():
    rng = np.random.default_rng(0)
    batch = rng.normal(size=(40, 3))
    real = rng.normal(size=(40, 3))
    scores = inverse_validation_scores([batch, batch.copy(), batch.copy()],
                                       real, ForestConfig(n_trees=30), seed=1)
    assert len(scores) == 3
    assert np.allclose(scores, scores[0])


def test_inverse_validation_default_k_five_gives_five_scores():
    rng = np.random.default_rng(1)
    batches = [rng.normal(size=(30, 2)) for _ in range(5)]
    real = rng.normal(size=(30, 2))
    scores = inverse_validation_scores(batches, real,
                                       ForestConfig(n_trees=20), seed=2)
    assert scores.shape == (5,)
    assert np.all((scores >= 0) & (scores <= 1))


def test_inverse_validation_flags_degenerate_member():
    rng = np.random.default_rng(2)
    real = rng.normal(0.0, 1.0, size=(200, 4))
    good1 = rng.normal(0.0, 0.7, size=(200, 4))
    good2 = rng.normal(0.0, 0.7, size=(200, 4))
    degenerate = np.full((200, 4), 100.0)
    scores = inverse_validation_scores([good1, degenerate, good2], real,
                                       ForestConfig(n_trees=60), seed=3)
    assert scores[1] < scores[0] and scores[1] < scores[2]
    assert 1 not in select_top_h(scores, 2)


def test_inverse_validation_permutation_symmetry():
    rng = np.random.default_rng(3)
    batches = [rng.normal(loc=i * 0.2, size=(50, 3)) for i in range(4)]
    real = rng.normal(size=(60, 3))
    cfg = ForestConfig(n_trees=40)
    base = inverse_validation_scores(batches, real, cfg, seed=5)
    perm = [2, 0, 3, 1]
    permuted = inverse_validation_scores([batches[i] for i in perm], real,
                                         cfg, seed=5)
    assert np.array_equal(permuted, base[perm])
    # the selected model set (as models) is unchanged
    sel_base = {id(batches[i]) for i in select_top_h(base, 2)}
    sel_perm = {id(batches[perm[i]]) for i in select_top_h(permuted, 2)}
    assert sel_base == sel_perm


def test_inverse_validation_input_errors():
    rng = np.random.default_rng(4)
    with pytest.raises(ValueError):
        inverse_validation_scores([rng.normal(size=(10, 2))],
                                  rng.normal(size=(10, 2)),
                                  ForestConfig(n_trees=5), seed=0)
    with pytest.raises(ValueError):
        inverse_validation_scores(
            [rng.normal(size=(10, 2)), rng.normal(size=(10, 3))],
            rng.normal(size=(10, 2)), ForestConfig(n_trees=5), seed=0)


def tiny_ensemble_config(k=3, h=1, seed=0):
    return EnsembleConfig(
        k=k, h=h,
        train=TrainConfig(iterations=25, batch_size=10, seed=0),
        clf=ForestConfig(n_trees=20), seed=seed)


def test_train_se_ctes_counts_and_selection():
    ds = small_dataset()
    cfg = EnsembleConfig(k=5, h=2,
                         train=TrainConfig(iterations=20, batch_size=10),
                         clf=ForestConfig(n_trees=15), seed=1)
    ens = train_se_ctes(ds, cfg)
    assert len(ens.models) == 5
    assert len(ens.scores) == 5
    assert len(ens.selected) == 2
    assert ens.selected == sorted(ens.selected)
    # selection optimality: every selected score >= every non-selected score
    not_sel = [i for i in range(5) if i not in ens.selected]
    assert min(ens.scores[ens.selected]) >= max(ens.scores[not_sel])


def test_train_se_ctes_deterministic():
    ds = small_dataset()
    a = train_se_ctes(ds, tiny_ensemble_config(seed=7))
    b = train_se_ctes(ds, tiny_ensemble_config(seed=7))
    assert a.selected == b.selected
    assert np.array_equal(a.scores, b.scores)


def test_train_se_ctes_divergent_member_scores_zero(monkeypatch):
    ds = small_dataset()
    real_train = ensemble_mod.train_ctes
    calls = {"n": 0}

    def flaky(dataset, config):
        calls["n"] += 1
        if calls["n"] == 2:  # second member blows up
            raise TrainingDiverged("forced", iteration=3)
        return real_train(dataset, config)

    monkeypatch.setattr(ensemble_mod, "train_ctes", flaky)
    ens = train_se_ctes(ds, tiny_ensemble_config(k=3, h=1, seed=2))
    assert ens.models[1] is None
    assert ens.scores[1] == 0.0
    assert "diverged" in ens.diagnostics[1]
    assert 1 not in ens.selected


def test_train_se_ctes_too_many_failures(monkeypatch):
    ds = small_dataset()

    def always_fails(dataset, config):
        raise TrainingDiverged("forced")

    monkeypatch.setattr(ensemble_mod, "train_ctes", always_fails)
    with pytest.raises(EnsembleError):
        train_se_ctes(ds, tiny_ensemble_config(k=3, h=1, seed=3))


def ens_of_constants(values, h=None):
    ds = small_dataset()
    models = [constant_model(ds, v, seed=i) for i, v in enumerate(values)]
    k = len(models)
    h = h or (k - 1) // 2
    cfg = EnsembleConfig(k=k, h=h, train=TrainConfig(iterations=0,
                                                     batch_size=8))
    return EnsembleModel(models=models, scores=np.linspace(1, 0.5, k),
                         selected=list(range(h)), config=cfg,
                         diagnostics=[None] * k)


def test_ensemble_synthesize_even_split():
    ens = ens_of_constants([10.0, 20.0, 30.0, 40.0, 50.0], h=2)
    out = ensemble_synthesize(ens, np.repeat([[0.5]], 200, 0),
                              rng=np.random.default_rng(0), jitter=0.0)
    assert out.shape == (200, 2)
    assert np.sum(np.all(out == 10.0, axis=1)) == 100
    assert np.sum(np.all(out == 20.0, axis=1)) == 100


def test_ensemble_synthesize_remainder_to_lowest_index():
    ens = ens_of_constants([10.0, 20.0, 30.0, 40.0, 50.0], h=2)
    out = ensemble_synthesize(ens, np.repeat([[0.5]], 201, 0),
                              rng=np.random.default_rng(0), jitter=0.0)
    assert np.sum(np.all(out == 10.0, axis=1)) == 101
    assert np.sum(np.all(out == 20.0, axis=1)) == 100


def test_ensemble_serves_fewer_rows_than_members():
    # one row and h=2: the second member's share is empty and is skipped
    ens = ens_of_constants([10.0, 20.0, 30.0, 40.0, 50.0], h=2)
    one = np.array([[0.5]])
    out = ensemble_synthesize(ens, one, rng=0, jitter=0.0)
    assert np.array_equal(out, [[10.0, 10.0]])
    assert np.array_equal(sample_model(ens, one, rng=0, jitter=0.0), out)


def test_matrix_ensemble_serves_one_row():
    # the conv decoder cannot take an empty batch, so empty shares must
    # never reach it
    ds = gen_scalar_to_matrix_dataset(GpSimConfig(
        grid=4, images_per_category=6, categories=2, char_dim=3, seed=0))
    ens = train_se_ctes(ds, EnsembleConfig(
        k=5, h=2, train=TrainConfig(iterations=2, batch_size=6,
                                    conv_channels=(2, 3)),
        clf=ForestConfig(n_trees=3), seed=4))
    out = sample_model(ens, ds.x[:1], rng=0)
    assert out.shape == (1, 16)
    assert np.all(np.isfinite(out))
    with pytest.raises(ValueError):
        sample_model(ens, ds.x[:0], rng=0)


def test_ensemble_synthesize_mixture_mean_of_constants():
    # selected members emit constants 4 and 8
    ens = ens_of_constants([4.0, 8.0, 0.0, 1.0, 2.0], h=2)
    out = ensemble_synthesize(ens, np.repeat([[0.5]], 1000, 0),
                              rng=np.random.default_rng(1), jitter=0.0)
    assert np.allclose(out.mean(axis=0), 6.0)


def test_ensemble_synthesize_validation():
    ens = ens_of_constants([1.0, 2.0, 3.0], h=1)
    with pytest.raises(ValueError):
        ensemble_synthesize(ens, np.empty((0, 1)))
    empty = EnsembleModel(models=ens.models, scores=ens.scores, selected=[],
                          config=ens.config, diagnostics=[None] * 3)
    with pytest.raises(EnsembleError):
        ensemble_synthesize(empty, np.repeat([[0.5]], 10, 0))


def test_ensemble_synthesize_mixture_mean_matches_member_means():
    # trained members: ensemble mean ~ arithmetic mean of member means
    ds = small_dataset(n=80)
    cfg = EnsembleConfig(k=3, h=1,
                         train=TrainConfig(iterations=150, batch_size=16),
                         clf=ForestConfig(n_trees=20), seed=9)
    ens = train_se_ctes(ds, cfg)
    x = np.array([[0.5]])
    pooled = ensemble_synthesize(ens, np.repeat(x, 4000, 0),
                                 rng=np.random.default_rng(0), jitter=0.0)
    from sectes.ctes import synthesize_each
    member_means = []
    member_vars = []
    for i in ens.selected:
        draws = synthesize_each(ens.models[i], np.repeat(x, 4000, 0),
                                rng=np.random.default_rng(i + 1), jitter=0.0)
        member_means.append(draws.mean(axis=0))
        member_vars.append(draws.var(axis=0))
    target = np.mean(member_means, axis=0)
    h = len(ens.selected)
    se = np.sqrt(pooled.var(axis=0) / len(pooled)
                 + np.sum(member_vars, axis=0) / (h * h * 4000))
    assert np.all(np.abs(pooled.mean(axis=0) - target) <= 3 * se + 1e-12)
