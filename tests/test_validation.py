import numpy as np
import pytest

from sectes.ctes import TrainConfig, build_discriminator
from sectes.datagen import (GpSimConfig, PairedDataset, SimConfig,
                            gen_multivariate_dataset,
                            gen_scalar_to_matrix_dataset)
from sectes.errors import ConfigError
from sectes.forest import ForestConfig
from sectes.validation import (ConfusionCounts, MethodSettings,
                               ValidationReport, aggregate_trials,
                               compute_a_metrics, fit_conv_classifier,
                               identify_group_experiment,
                               predict_conv_classifier, risk_difference_eval,
                               split_train_test)


def test_a_metrics_reference_values():
    assert compute_a_metrics(ConfusionCounts(90, 10, 5, 95)) == \
        (pytest.approx(0.9), pytest.approx(0.95))
    assert compute_a_metrics(ConfusionCounts(100, 0, 0, 100)) == (1.0, 1.0)
    a1, _ = compute_a_metrics(ConfusionCounts(0, 100, 5, 95))
    assert a1 == 0.0


def test_a_metrics_undefined_denominators():
    with pytest.raises(ValueError):
        compute_a_metrics(ConfusionCounts(0, 0, 5, 95))
    with pytest.raises(ValueError):
        compute_a_metrics(ConfusionCounts(5, 95, 0, 0))


def grouped_dataset(sizes, seed=0):
    rng = np.random.default_rng(seed)
    xs, ys, gs = [], [], []
    for g, n in enumerate(sizes, start=1):
        xs.append(rng.normal(g, 0.1, size=(n, 2)))
        ys.append(rng.normal(g, 0.1, size=(n, 3)))
        gs.append(np.full(n, g))
    return PairedDataset(x=np.vstack(xs), y=np.vstack(ys),
                         groups=np.concatenate(gs), n_groups=len(sizes))


def test_split_halves_even_group():
    ds = grouped_dataset([200, 200])
    train_idx, test_idx = split_train_test(ds, seed=1)
    assert len(train_idx[1]) == 100 and len(test_idx[1]) == 100


def test_split_odd_group_favors_train():
    ds = grouped_dataset([5, 4])
    train_idx, test_idx = split_train_test(ds, seed=2)
    assert len(train_idx[1]) == 3 and len(test_idx[1]) == 2
    assert len(train_idx[2]) == 2 and len(test_idx[2]) == 2


def test_split_is_deterministic_and_disjoint():
    ds = grouped_dataset([30, 40, 50])
    a_train, a_test = split_train_test(ds, seed=3)
    b_train, b_test = split_train_test(ds, seed=3)
    for g in (1, 2, 3):
        assert np.array_equal(a_train[g], b_train[g])
        assert np.array_equal(a_test[g], b_test[g])
        assert not set(a_train[g]) & set(a_test[g])
        rows = set(np.nonzero(ds.groups == g)[0])
        assert set(a_train[g]) | set(a_test[g]) == rows
    c_train, _ = split_train_test(ds, seed=4)
    assert any(not np.array_equal(a_train[g], c_train[g]) for g in (1, 2, 3))


def test_split_rejects_tiny_group():
    ds = grouped_dataset([1, 10])
    with pytest.raises(ValueError):
        split_train_test(ds, seed=0)


def oracle_synthesizer(full_dataset, group):
    """Returns the identified group's real expressions (cheating oracle)."""
    y_i = full_dataset.y[full_dataset.groups == group]

    def synth(train_ds, x_target, rng):
        return y_i[:len(x_target)]
    synth.__name__ = "oracle"
    return synth


def degenerate_synthesizer(train_ds, x_target, rng):
    scale = train_ds.y.std()
    return np.full((len(x_target), train_ds.expr_dim),
                   train_ds.y.mean() + 100.0 * scale)


def test_experiment_test_set_composition():
    ds = gen_multivariate_dataset(SimConfig(sigma=0.01, seed=1))
    rep = identify_group_experiment(ds, group=4, method="pls", seed=0)
    # 200 identified rows plus 4 remaining groups x 100 held-out rows
    assert rep.confusion.tp + rep.confusion.fp == 200
    assert rep.confusion.fn + rep.confusion.tn == 400
    assert rep.confusion.total == 600
    assert rep.method == "pls"


def test_experiment_oracle_scores_high():
    ds = gen_multivariate_dataset(SimConfig(sigma=0.01, seed=2))
    rep = identify_group_experiment(ds, group=3,
                                    method=oracle_synthesizer(ds, 3), seed=1)
    assert rep.a1 >= 0.9


def test_experiment_degenerate_scores_low():
    ds = gen_multivariate_dataset(SimConfig(sigma=0.01, seed=3))
    rep = identify_group_experiment(ds, group=3, method=degenerate_synthesizer,
                                    seed=1)
    assert rep.a1 <= 0.05


def test_oracle_sandwich_over_seeds():
    # degenerate A1 <= method A1 <= oracle A1 + 0.1, five seeds
    ds = gen_multivariate_dataset(SimConfig(sigma=0.03, seed=4))
    for seed in range(5):
        lo = identify_group_experiment(ds, 3, degenerate_synthesizer,
                                       seed=seed).a1
        mid = identify_group_experiment(ds, 3, "pls", seed=seed).a1
        hi = identify_group_experiment(ds, 3, oracle_synthesizer(ds, 3),
                                       seed=seed).a1
        assert lo <= mid <= hi + 0.1


def test_experiment_metrics_within_bounds_and_complete():
    ds = gen_multivariate_dataset(SimConfig(sigma=0.05, samples_per_group=40,
                                            seed=5))
    rep = identify_group_experiment(ds, group=2, method="grnn", seed=3)
    assert 0.0 <= rep.a1 <= 1.0 and 0.0 <= rep.a2 <= 1.0
    assert rep.confusion.total == 40 + 4 * 20


def test_experiment_replicates_merge_and_subsample():
    ds = gen_multivariate_dataset(SimConfig(sigma=0.05, samples_per_group=30,
                                            seed=6))
    sizes = []

    def counting(train_ds, x_target, rng):
        sizes.append(len(x_target))
        return np.tile(train_ds.y.mean(axis=0), (len(x_target), 1))
    counting.__name__ = "counting"

    rep = identify_group_experiment(ds, group=2, method=counting, seed=0,
                                    replicates=3)
    assert sizes == [30, 30, 30]  # one synthesis pass per replicate
    assert rep.replicates == 3
    # merged pool subsampled back: still 30 identified-vs-rest test rows
    assert rep.confusion.tp + rep.confusion.fp == 30


def test_experiment_requires_multiple_groups():
    ds = grouped_dataset([50])
    with pytest.raises(ValueError):
        identify_group_experiment(ds, group=1, method="pls", seed=0)


def test_experiment_conv_classifier_path():
    cfg = GpSimConfig(grid=8, images_per_category=12, categories=3,
                      char_dim=6, seed=7)
    ds = gen_scalar_to_matrix_dataset(cfg)
    settings = MethodSettings(classifier_epochs=8)
    rep = identify_group_experiment(ds, group=2,
                                    method=oracle_synthesizer(ds, 2),
                                    settings=settings, seed=2)
    assert rep.confusion.total == 12 + 2 * 6
    assert 0.0 <= rep.a1 <= 1.0


def test_conv_classifier_separates_easy_classes():
    rng = np.random.default_rng(8)
    a = rng.normal(0.0, 0.2, size=(40, 16))
    b = rng.normal(3.0, 0.2, size=(40, 16))
    Y = np.vstack([a, b])
    labels = np.array([0] * 40 + [1] * 40)
    clf = fit_conv_classifier(Y, labels, (4, 4), seed=0, epochs=30)
    pred = predict_conv_classifier(clf, Y)
    assert np.mean(pred == labels) >= 0.95


def test_conv_encoders_share_the_channel_check():
    # grid 16 takes four stride-2 conv layers; three channel sizes are too
    # few for both the discriminator and the validation classifier
    few = (8, 16, 32)
    with pytest.raises(ConfigError, match="conv_channels"):
        build_discriminator(4, 256, TrainConfig(conv_channels=few), 0,
                            (16, 16))
    ds = gen_scalar_to_matrix_dataset(GpSimConfig(
        grid=16, images_per_category=4, categories=3, char_dim=4, seed=1))
    settings = MethodSettings(train=TrainConfig(conv_channels=few),
                              classifier_epochs=1)
    with pytest.raises(ConfigError, match="conv_channels"):
        identify_group_experiment(ds, group=2, method="pls",
                                  settings=settings, seed=0)
    # the classifier keeps its log2 depth on grids that are not powers of two
    ds = gen_scalar_to_matrix_dataset(GpSimConfig(
        grid=6, images_per_category=4, categories=3, char_dim=4, seed=1))
    rep = identify_group_experiment(
        ds, group=2, method="grnn", seed=0,
        settings=MethodSettings(train=TrainConfig(conv_channels=(4, 4)),
                                classifier_epochs=1))
    assert rep.confusion.total == 4 + 2 * 2


def risk_dataset(seed=0, n_per_group=80):
    rng = np.random.default_rng(seed)
    xs, ys, gs = [], [], []
    for g in (1, 2):
        xs.append(rng.normal(g, 0.5, size=(n_per_group, 2)))
        ys.append(rng.normal(g, 0.5, size=(n_per_group, 3)))
        gs.append(np.full(n_per_group, g))
    x, y = np.vstack(xs), np.vstack(ys)
    logits = y.sum(axis=1) - 4.5 + 0.5 * rng.standard_normal(len(y))
    outcome = (logits > 0).astype(int)
    return PairedDataset(x=x, y=y, groups=np.concatenate(gs), n_groups=2,
                         outcome=outcome)


def test_risk_eval_zero_for_perfect_synthesis():
    ds = risk_dataset()
    y_by_group = {g: ds.y[ds.groups == g] for g in (1, 2)}

    def perfect(train_ds, x_target, rng):
        return y_by_group[1][:len(x_target)]
    perfect.__name__ = "perfect"

    rep = risk_difference_eval(ds, group=1, method=perfect, seed=0)
    assert rep.mean_abs_diff == 0.0
    assert rep.std == 0.0
    assert rep.n == 80


def test_risk_eval_bounds():
    ds = risk_dataset(seed=1)
    for method in ("pls", degenerate_synthesizer):
        rep = risk_difference_eval(ds, group=1, method=method, seed=1)
        assert 0.0 <= rep.mean_abs_diff <= 1.0
        assert rep.std >= 0.0


def test_risk_eval_requires_outcome():
    ds = grouped_dataset([40, 40])
    with pytest.raises(ValueError):
        risk_difference_eval(ds, group=1, method="pls", seed=0)


def make_report(method, sigma, group, a1, a2, trial=0):
    return ValidationReport(group=group,
                            confusion=ConfusionCounts(1, 1, 1, 1),
                            a1=a1, a2=a2, method=method, sigma=sigma,
                            trial=trial)


def test_aggregate_reference_values():
    reports = [make_report("pls", 0.01, 4, a1, 1.0, t)
               for t, a1 in enumerate([0.9, 1.0, 0.8])]
    summary = aggregate_trials(reports)
    assert len(summary) == 1
    row = summary[0]
    assert row.a1_mean == pytest.approx(0.9)
    assert row.a1_std == pytest.approx(0.1)
    assert row.a2_std == 0.0
    assert row.n_trials == 3 and not row.single_trial


def test_aggregate_single_report_flagged():
    summary = aggregate_trials([make_report("grnn", 0.05, 2, 0.7, 0.99)])
    assert summary[0].single_trial
    assert summary[0].a1_std == 0.0


def test_aggregate_groups_cells_and_orders_rows():
    reports = [make_report("pls", 0.05, 4, 0.8, 1.0, 0),
               make_report("pls", 0.05, 4, 0.9, 1.0, 1),
               make_report("pls", 0.01, 2, 0.5, 1.0, 0),
               make_report("grnn", 0.01, 2, 0.4, 1.0, 0)]
    summary = aggregate_trials(reports)
    keys = [(s.method, s.sigma, s.group) for s in summary]
    assert keys == [("grnn", 0.01, 2), ("pls", 0.01, 2), ("pls", 0.05, 4)]
    assert summary[2].n_trials == 2


def test_aggregate_rejects_empty():
    with pytest.raises(ValueError):
        aggregate_trials([])
