import hashlib
import re

import numpy as np
import pytest

from sectes import validation as validation_mod
from sectes.baselines import grnn_fit, grnn_predict, pls_fit, pls_predict
from sectes.ctes import (CtesModel, Normalization, TrainConfig, build_ctes,
                         synthesize_each)
from sectes.datagen import (GpSimConfig, PairedDataset, SimConfig,
                            gen_multivariate_dataset,
                            gen_scalar_to_matrix_dataset)
from sectes.ensemble import (EnsembleConfig, EnsembleModel,
                             ensemble_synthesize, inverse_validation_scores)
from sectes.errors import ConfigError
from sectes.forest import ForestConfig, fit_forest, predict_proba
from sectes.validation import (KNOWN_METHODS, ConfusionCounts, MethodSettings,
                               aggregate_trials, compute_a_metrics,
                               fit_and_synthesize, fit_conv_classifier,
                               fit_method,
                               identify_group_experiment,
                               predict_conv_classifier, risk_difference_eval,
                               sample_model, split_train_test)


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
    return synth


def degenerate_synthesizer(train_ds, x_target, rng):
    scale = train_ds.y.std()
    return np.full((len(x_target), train_ds.expr_dim),
                   train_ds.y.mean() + 100.0 * scale)


@pytest.mark.filterwarnings("ignore:beta=:UserWarning")
def test_fit_method_table(monkeypatch):
    forest = ForestConfig(n_trees=3)
    settings = MethodSettings(
        train=TrainConfig(iterations=0, batch_size=10), forest=forest,
        ensemble=EnsembleConfig(k=3, h=1))
    train_ds = grouped_dataset([20, 20])
    fit = lambda method: fit_method(method, settings, train_ds, 0)
    assert fit("cgan").config.beta == 1.0
    assert fit("gan-cls").config.beta == 0.5
    ctes = fit("ctes")
    assert isinstance(ctes, CtesModel) and ctes.config.beta == 0.9
    handed = []  # the configs fit_method hands the ensemble trainer
    train = validation_mod.train_se_ctes

    def spy(dataset, config):
        handed.append(config)
        return train(dataset, config)
    monkeypatch.setattr(validation_mod, "train_se_ctes", spy)
    se = fit("se-ctes")
    assert isinstance(se, EnsembleModel)
    assert [m.config.beta for m in se.models] == [0.9] * 3
    # one forest config fits every forest
    assert [(c.k, c.h, c.clf) for c in handed] == [(3, 1, forest)]
    assert (EnsembleConfig().k, EnsembleConfig().h) == (5, 2)
    with pytest.raises(ConfigError) as exc:
        fit("wgan")
    for name in ("wgan",) + KNOWN_METHODS:
        assert repr(name) in str(exc.value)


def test_experiment_test_set_composition():
    ds = gen_multivariate_dataset(SimConfig(sigma=0.01, seed=1))
    rep = identify_group_experiment(ds, group=4, method="pls", seed=0)
    # 200 identified rows plus 4 remaining groups x 100 held-out rows
    assert rep.confusion.tp + rep.confusion.fp == 200
    assert rep.confusion.fn + rep.confusion.tn == 400


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
    c = rep.confusion
    assert c.tp + c.fp + c.fn + c.tn == 40 + 4 * 20


def test_experiment_synthesizes_the_identified_group_once():
    ds = gen_multivariate_dataset(SimConfig(sigma=0.05, samples_per_group=30,
                                            seed=6))
    sizes = []

    def counting(train_ds, x_target, rng):
        sizes.append(len(x_target))
        return np.tile(train_ds.y.mean(axis=0), (len(x_target), 1))

    rep = identify_group_experiment(ds, group=2, method=counting, seed=0)
    assert sizes == [30]  # one synthesized row per identified row
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
    c = rep.confusion
    assert c.tp + c.fp + c.fn + c.tn == 12 + 2 * 6
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


def test_conv_classifier_matches_pinned_digest():
    # taken from the classifier with one Adam state per network; it pins
    # this numpy build's float64 results, like the trainer digests
    rng = np.random.default_rng(8)
    Y = np.vstack([rng.normal(0.0, 0.2, size=(40, 16)),
                   rng.normal(3.0, 0.2, size=(40, 16))])
    labels = np.array([0] * 40 + [1] * 40)
    clf = fit_conv_classifier(Y, labels, (4, 4), seed=0, epochs=5, batch=16,
                              channels=(4, 8))
    h = hashlib.sha256()
    for net in (clf.encoder, clf.head):
        for lay in net.layers:
            h.update(lay["W"].tobytes())
            h.update(lay["b"].tobytes())
    assert h.hexdigest() == ("5dca448014be6893fcc27f07da882f62"
                             "9c980d46657aeceb9331d5e244be1f76")


def test_conv_classifier_on_16x16_matches_pinned_digest():
    # four conv layers at the default channels, and a short last batch
    # (84 rows at batch 16); taken from the classifier whose ndnet passes
    # allocated every array per call
    rng = np.random.default_rng(8)
    Y = np.vstack([rng.normal(0.0, 0.2, size=(42, 256)),
                   rng.normal(3.0, 0.2, size=(42, 256))])
    labels = np.array([0] * 42 + [1] * 42)
    clf = fit_conv_classifier(Y, labels, (16, 16), seed=0, epochs=3,
                              batch=16)
    h = hashlib.sha256()
    for net in (clf.encoder, clf.head):
        for lay in net.layers:
            h.update(lay["W"].tobytes())
            h.update(lay["b"].tobytes())
    assert h.hexdigest() == ("531402e42399966a77bc15a0777a3861"
                             "8776e818ca4a9c8175e442d8474e02c6")


@pytest.mark.parametrize("labels,shape", [
    pytest.param(np.repeat([0, 1], 3), r"\(6,\)", id="short"),
    pytest.param(np.repeat([0, 1], 4)[:, None], r"\(8, 1\)", id="column"),
])
def test_conv_classifier_needs_one_label_per_row(labels, shape):
    # these once failed with an IndexError and with ndnet's "out_grad shape
    # (8, 8, 2) != output shape (8, 2)", naming no argument
    Y = np.random.default_rng(0).normal(size=(8, 16))
    with pytest.raises(ValueError,
                       match=rf"labels have shape {shape}, not \(8,\)"):
        fit_conv_classifier(Y, labels, (4, 4), epochs=1, channels=(2, 2))


def widths(m, n):
    """A unit normalization of m characteristics and n expression values."""
    return Normalization.fit(np.zeros((1, m)), np.zeros((1, n)))


def test_conv_stacks_reject_a_non_square_grid():
    with pytest.raises(ConfigError, match="square grid, got 4x8"):
        build_ctes(widths(2, 32), TrainConfig(), (4, 8))
    with pytest.raises(ConfigError, match="square grid, got 4x8"):
        fit_conv_classifier(np.zeros((4, 32)), [0, 0, 1, 1], (4, 8))


def test_conv_encoders_share_the_channel_check():
    # grid 16 takes four stride-2 conv layers; three channel sizes are too
    # few for both the discriminator and the validation classifier
    few = (8, 16, 32)
    with pytest.raises(ConfigError, match="conv_channels"):
        build_ctes(widths(4, 256), TrainConfig(conv_channels=few), (16, 16))
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
    c = rep.confusion
    assert c.tp + c.fp + c.fn + c.tn == 4 + 2 * 2


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


@pytest.mark.parametrize("protocol", [identify_group_experiment,
                                      risk_difference_eval])
def test_hold_out_names_an_empty_group_or_training_pool(protocol):
    # a group holding every row once failed in PairedDataset with "need at
    # least one x row", naming neither the group nor the training pool
    rng = np.random.default_rng(0)
    ds = PairedDataset(x=rng.normal(size=(6, 2)), y=rng.normal(size=(6, 3)),
                       groups=np.ones(6, int), n_groups=2,
                       outcome=np.arange(6) % 2)
    with pytest.raises(ValueError, match="group 2 has no rows"):
        protocol(ds, 2, "pls")
    with pytest.raises(ValueError, match="group 1 holds every row, so the "
                       "training pool of the other groups is empty"):
        protocol(ds, 1, "pls")


KEYS = ("method", "sigma", "group")
STDS = {"A1": "A1_std", "A2": "A2_std"}


def make_row(method, sigma, group, a1, a2, trial=0):
    return {"method": method, "sigma": sigma, "group": group, "trial": trial,
            "A1": a1, "A2": a2}


def test_aggregate_reference_values():
    rows = [make_row("pls", 0.01, 4, a1, 1.0, t)
            for t, a1 in enumerate([0.9, 1.0, 0.8])]
    summary = aggregate_trials(rows, KEYS, STDS)
    assert len(summary) == 1
    row = summary[0]
    assert row["A1"] == pytest.approx(0.9)
    assert row["A1_std"] == pytest.approx(0.1)
    assert row["A2_std"] == 0.0
    assert row["n_trials"] == 3


def test_aggregate_single_report_flagged():
    summary = aggregate_trials([make_row("grnn", 0.05, 2, 0.7, 0.99)],
                               KEYS, STDS)
    assert summary[0]["n_trials"] == 1
    assert summary[0]["A1_std"] == summary[0]["A2_std"] == 0.0


def test_aggregate_groups_cells_and_orders_rows():
    rows = [make_row("pls", 0.05, 4, 0.8, 1.0, 0),
            make_row("pls", 0.05, 4, 0.9, 1.0, 1),
            make_row("pls", 0.01, 2, 0.5, 1.0, 0),
            make_row("grnn", 0.01, 2, 0.4, 1.0, 0),
            make_row("pls", None, 2, 0.6, 1.0, 0)]
    summary = aggregate_trials(rows, KEYS, STDS)
    keys = [tuple(s[k] for k in KEYS) for s in summary]
    assert keys == [("grnn", 0.01, 2), ("pls", None, 2), ("pls", 0.01, 2),
                    ("pls", 0.05, 4)]
    assert summary[3]["n_trials"] == 2
    # a study without sigma keys its cells by method and group alone
    risk = [{"method": "pls", "group": g, "mean_abs_diff": d}
            for g, d in ((3, 0.1), (1, 0.2), (3, 0.3))]
    summary = aggregate_trials(risk, ("method", "group"),
                               {"mean_abs_diff": "std"})
    assert [(s["group"], s["n_trials"]) for s in summary] == [(1, 1), (3, 2)]
    assert summary[1]["mean_abs_diff"] == pytest.approx(0.2)
    assert summary[1]["std"] == pytest.approx(0.02 ** 0.5)


def test_aggregate_rejects_empty():
    with pytest.raises(ValueError):
        aggregate_trials([], KEYS, STDS)


# --- the synthesis contract: a (rows, m) array and a Generator in ---

@pytest.fixture(scope="module")
def synthesizers():
    """The five synthesis entry points, each as ``X -> rows`` over models
    of characteristic width 2 and expression width 3."""
    rng = np.random.default_rng(0)
    x, y = rng.uniform(size=(12, 2)), rng.normal(size=(12, 3))
    ctes = build_ctes(Normalization.fit(x, y), TrainConfig(hidden=4))
    ens = EnsembleModel(models=[ctes] * 3, scores=np.array([1.0, 0.5, 0.2]),
                        selected=[0], diagnostics=[None] * 3)
    pls, grnn = pls_fit(x, y, 2), grnn_fit(x, y)
    gen = np.random.default_rng
    return {"pls_predict": lambda X: pls_predict(pls, X),
            "grnn_predict": lambda X: grnn_predict(grnn, X),
            "synthesize_each": lambda X: synthesize_each(ctes, X, gen(1)),
            "ensemble_synthesize":
                lambda X: ensemble_synthesize(ens, X, gen(1)),
            "sample_model": lambda X: sample_model(ens, X, gen(1))}


ENTRY_POINTS = ["pls_predict", "grnn_predict", "synthesize_each",
                "ensemble_synthesize", "sample_model"]


@pytest.mark.parametrize("name", ENTRY_POINTS)
def test_synthesizers_map_rows_to_rows(synthesizers, name):
    assert synthesizers[name](np.full((4, 2), 0.5)).shape == (4, 3)


@pytest.mark.parametrize("X,message", [
    pytest.param(np.array([0.5, 0.5]),
                 r"characteristics must be a \(rows, 2\) array, got shape "
                 r"\(2,\)", id="1-d-row"),
    pytest.param(np.empty((0, 2)), "need at least one characteristic row",
                 id="zero-rows"),
    pytest.param(np.full((3, 3), 0.5),
                 "characteristics have 3 columns, expected 2",
                 id="wrong-width"),
    pytest.param(np.array([[0.5, np.nan]]), "characteristics must be finite",
                 id="nan"),
])
@pytest.mark.parametrize("name", ENTRY_POINTS)
def test_synthesizers_refuse_other_input(synthesizers, name, X, message):
    with pytest.raises(ValueError, match=message):
        synthesizers[name](X)


# --- every other array argument: the same rule, naming the argument ---

ARRAY_ARGUMENTS = [  # (entry point, argument, width the callee knows)
    ("PairedDataset", "x", None), ("PairedDataset", "y", None),
    ("pls_fit", "X", None), ("pls_fit", "Y", None),
    ("grnn_fit", "X", None), ("grnn_fit", "Y", None),
    ("fit_forest", "X", None), ("predict_proba", "X", 3),
    ("inverse_validation_scores", "real", None),
    ("inverse_validation_scores", "fake_batches[1]", 3),
    ("fit_conv_classifier", "Y", 16), ("predict_conv_classifier", "Y", 16),
    ("fit_and_synthesize", "x_target", 2),
    ("fit_and_synthesize", "synthesizer output", 3),
]


def _with_nan(a):
    a = a.copy()
    a[-1, -1] = np.nan
    return a


BAD_ROWS = {  # id: (damage, message with the argument's name and width)
    "1-d": (lambda a: a[0], "{name} must be a (rows, "),
    "zero-rows": (lambda a: a[:0], "need at least one {name} row"),
    "zero-columns": (lambda a: a[:, :0], "need at least one {name} column"),
    "wrong-width": (lambda a: np.hstack([a, a[:, :1]]),
                    "{name} have {wide} columns, expected {width}"),
    "nan": (_with_nan, "{name} must be finite"),
}


@pytest.fixture(scope="module")
def array_arguments():
    """Per ``ARRAY_ARGUMENTS`` entry, ``(a -> call, array it accepts)``;
    characteristics are 2 wide, expressions 3 wide and images 4x4."""
    rng = np.random.default_rng(0)
    x, y = rng.uniform(size=(12, 2)), rng.normal(size=(12, 3))
    labels, imgs = np.repeat([1, 2], 6), rng.normal(size=(12, 16))
    ds = PairedDataset(x=x, y=y, groups=labels, n_groups=2)
    cfg = ForestConfig(n_trees=2)
    forest = fit_forest(y, labels, cfg)
    clf = fit_conv_classifier(imgs, labels, (4, 4), epochs=1,
                              channels=(2, 2))
    settings = MethodSettings()
    return {
        ("PairedDataset", "x"): (lambda a: PairedDataset(
            x=a, y=y, groups=labels, n_groups=2), x),
        ("PairedDataset", "y"): (lambda a: PairedDataset(
            x=x, y=a, groups=labels, n_groups=2), y),
        ("pls_fit", "X"): (lambda a: pls_fit(a, y, 1), x),
        ("pls_fit", "Y"): (lambda a: pls_fit(x, a, 1), y),
        ("grnn_fit", "X"): (lambda a: grnn_fit(a, y), x),
        ("grnn_fit", "Y"): (lambda a: grnn_fit(x, a), y),
        ("fit_forest", "X"): (lambda a: fit_forest(a, labels, cfg), y),
        ("predict_proba", "X"): (lambda a: predict_proba(forest, a), y),
        ("inverse_validation_scores", "real"):
            (lambda a: inverse_validation_scores([y, y], a, cfg), y),
        ("inverse_validation_scores", "fake_batches[1]"):
            (lambda a: inverse_validation_scores([y, a], y, cfg), y),
        ("fit_conv_classifier", "Y"): (lambda a: fit_conv_classifier(
            a, labels, (4, 4), epochs=1, channels=(2, 2)), imgs),
        ("predict_conv_classifier", "Y"):
            (lambda a: predict_conv_classifier(clf, a), imgs),
        ("fit_and_synthesize", "x_target"):
            (lambda a: fit_and_synthesize("pls", settings, ds, a, 0), x),
        ("fit_and_synthesize", "synthesizer output"):
            (lambda a: fit_and_synthesize(lambda tr, xt, g: a, settings, ds,
                                          x, 0), y),
    }


@pytest.mark.parametrize("entry,name,width,case", [
    pytest.param(entry, name, width, case, id=f"{entry}-{name}-{case}")
    for entry, name, width in ARRAY_ARGUMENTS for case in BAD_ROWS
    if width is not None or case != "wrong-width"])
def test_array_arguments_refuse_other_input(array_arguments, entry, name,
                                            width, case):
    call, good = array_arguments[entry, name]
    call(good)
    damage, message = BAD_ROWS[case]
    with pytest.raises(ValueError, match=re.escape(message.format(
            name=name, width=width, wide=(width or 0) + 1))):
        call(damage(good))


def test_one_dimensional_arrays_are_not_read_as_one_row():
    # 1-D arrays were once read as one wide row, with no error
    with pytest.raises(ValueError, match=re.escape(
            "X must be a (rows, columns) array, got shape (5,)")):
        grnn_fit(np.linspace(0, 1, 5), np.linspace(0, 2, 5))
    ds = grouped_dataset([5, 5, 5, 5])
    ds = PairedDataset(x=ds.x, y=ds.y[:, :1], groups=ds.groups, n_groups=4)
    with pytest.raises(ValueError, match=re.escape(
            "synthesizer output must be a (rows, 1) array, got shape (5,)")):
        identify_group_experiment(ds, 2, lambda tr, x, g: np.zeros(len(x)))


def test_injected_synthesizer_output_has_a_row_per_target():
    ds = grouped_dataset([5, 5])
    with pytest.raises(ValueError, match="synthesizer output has 1 rows, "
                                         "expected 5"):
        identify_group_experiment(ds, 1, lambda tr, x, g: np.zeros((1, 3)))
