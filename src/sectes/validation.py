"""Classification-based validation of synthesized expressions.

To judge a synthesizer on group i, fit it on every other group, have it
synthesize group i's expressions from group i's characteristics, and
train a classifier on the synthesized batch (labeled i) together with
half of the other groups' real expressions. The classifier then labels
group i's real expressions and the held-out halves: the fraction of real
group-i rows pulled into label i (A1) and the fraction of held-out rows
kept away from it (A2) measure synthesis quality.

A parallel protocol for outcome-labeled tabular data compares
forest-estimated outcome probabilities between real and synthesized
participants.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from . import ndnet
from .baselines import (GrnnModel, PlsModel, grnn_fit, grnn_predict, pls_fit,
                        pls_predict, variant_config)
from .ctes import TrainConfig, conv_encoder_spec, synthesize_each, train_ctes
from .datagen import PairedDataset
from .ensemble import (EnsembleConfig, EnsembleModel, ensemble_synthesize,
                       train_se_ctes)
from .forest import ForestConfig, fit_forest, predict_forest, predict_proba


@dataclass
class ConfusionCounts:
    """Two-way collapse of the validation classifier's decisions."""

    tp: int  # identified group's rows classified into the identified label
    fp: int  # identified group's rows classified elsewhere
    fn: int  # held-out rows classified into the identified label
    tn: int  # held-out rows classified elsewhere

    @property
    def total(self) -> int:
        return self.tp + self.fp + self.fn + self.tn


@dataclass
class ValidationReport:
    group: int
    confusion: ConfusionCounts
    a1: float
    a2: float
    method: str
    sigma: float | None = None
    trial: int | None = None
    replicates: int = 1


@dataclass
class RiskEvalReport:
    group: int
    mean_abs_diff: float
    std: float
    method: str
    n: int


@dataclass
class TrialSummary:
    method: str
    sigma: float | None
    group: int
    a1_mean: float
    a1_std: float
    a2_mean: float
    a2_std: float
    n_trials: int
    single_trial: bool


@dataclass
class MethodSettings:
    """Shared knobs for every synthesis method in an experiment."""

    train: TrainConfig = field(default_factory=TrainConfig)
    forest: ForestConfig = field(default_factory=ForestConfig)
    ensemble: EnsembleConfig | None = None  # None = EnsembleConfig defaults
    classifier_epochs: int = 30  # conv classifier, matrix expressions only
    beta_override: float | None = None  # tuning sweeps trump the variant value


def compute_a_metrics(confusion: ConfusionCounts) -> tuple[float, float]:
    """A1 = TP/(TP+FP), A2 = TN/(TN+FN)."""
    if confusion.tp + confusion.fp == 0 or confusion.tn + confusion.fn == 0:
        raise ValueError("confusion counts leave a metric undefined")
    a1 = confusion.tp / (confusion.tp + confusion.fp)
    a2 = confusion.tn / (confusion.tn + confusion.fn)
    return a1, a2


def split_train_test(dataset: PairedDataset, seed: int):
    """Per-group 50/50 split of expression rows (odd counts favor train).

    Returns (train_idx, test_idx): dicts mapping each group label to row
    indices into the dataset.
    """
    rng = np.random.default_rng(seed)
    train_idx, test_idx = {}, {}
    for g in np.unique(dataset.groups):
        rows = np.nonzero(dataset.groups == g)[0]
        if len(rows) < 2:
            raise ValueError(f"group {g} has fewer than 2 rows")
        perm = rng.permutation(len(rows))
        cut = (len(rows) + 1) // 2
        train_idx[int(g)] = np.sort(rows[perm[:cut]])
        test_idx[int(g)] = np.sort(rows[perm[cut:]])
    return train_idx, test_idx


def _method_name(method) -> str:
    return method if isinstance(method, str) else getattr(
        method, "__name__", "custom")


def fit_method(method: str, settings: MethodSettings,
               train_ds: PairedDataset, seed: int):
    """Fit a named method (pls, grnn, cgan, gan-cls, ctes, se-ctes) on the
    training pool and return its model."""
    if method == "pls":
        return pls_fit(train_ds.x, train_ds.y, min(train_ds.char_dim, 2))
    if method == "grnn":
        return grnn_fit(train_ds.x, train_ds.y)
    variant = variant_config(method)
    beta = variant.beta if settings.beta_override is None else settings.beta_override
    tc = replace(settings.train, beta=beta, seed=seed)
    if variant.ensemble:
        base = settings.ensemble or EnsembleConfig(clf=settings.forest)
        return train_se_ctes(train_ds, replace(base, train=tc, seed=seed))
    return train_ctes(train_ds, tc)


def sample_model(model, X: np.ndarray, rng,
                 jitter: float | None = None) -> np.ndarray:
    """One expression per characteristic row of X from any model
    :func:`fit_method` returns. PLS and GRNN are deterministic and ignore
    ``rng`` and ``jitter``; ``jitter=None`` uses the trained setting."""
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    if not np.isfinite(X).all():
        raise ValueError("characteristics must be finite")
    if isinstance(model, PlsModel):
        return pls_predict(model, X)
    if isinstance(model, GrnnModel):
        return grnn_predict(model, X)
    if isinstance(model, EnsembleModel):
        return ensemble_synthesize(model, X, rng=rng, jitter=jitter)
    return synthesize_each(model, X, rng=rng, jitter=jitter)


def fit_and_synthesize(method, settings: MethodSettings,
                       train_ds: PairedDataset, x_target: np.ndarray,
                       seed: int) -> np.ndarray:
    """Fit ``method`` (a :func:`fit_method` name, or a callable
    ``(train_ds, x_target, rng) -> expressions`` injecting an oracle or
    stub synthesizer) and synthesize one expression per target row."""
    x_target = np.atleast_2d(np.asarray(x_target, dtype=np.float64))
    if callable(method):
        out = method(train_ds, x_target, np.random.default_rng(seed))
        return np.atleast_2d(np.asarray(out, dtype=np.float64))
    train_seq, synth_seq = np.random.SeedSequence(seed).spawn(2)
    model = fit_method(method, settings, train_ds,
                       int(train_seq.generate_state(1)[0]))
    return sample_model(model, x_target, np.random.default_rng(synth_seq))


def identify_group_experiment(dataset: PairedDataset, group: int, method,
                              settings: MethodSettings | None = None,
                              seed: int = 0, replicates: int = 1,
                              subsample_merged: bool = True,
                              sigma: float | None = None,
                              trial: int | None = None) -> ValidationReport:
    """Full identify-group run: fit on the other groups, synthesize the
    identified group, and measure A1/A2 through the validation classifier.

    ``replicates`` refits the synthesizer that many times and merges the
    batches; by default the merged pool is subsampled back to one row per
    target characteristic so classifier training stays balanced.
    """
    settings = settings or MethodSettings()
    if dataset.n_groups < 2:
        raise ValueError("need at least 2 groups")
    mask = dataset.group_mask(group)
    if not mask.any():
        raise ValueError(f"group {group} has no rows")
    train_ds = dataset.select(~mask)
    x_i = dataset.x[mask]
    y_i = dataset.y[mask]

    root = np.random.SeedSequence(seed)
    fit_seqs = root.spawn(replicates)
    split_seq, clf_seq, sub_seq = root.spawn(3)

    batches = [fit_and_synthesize(method, settings, train_ds, x_i,
                                  int(fs.generate_state(1)[0]))
               for fs in fit_seqs]
    merged = np.vstack(batches)
    if subsample_merged and merged.shape[0] > x_i.shape[0]:
        pick = np.random.default_rng(sub_seq).choice(
            merged.shape[0], size=x_i.shape[0], replace=False)
        merged = merged[np.sort(pick)]

    train_idx, test_idx = split_train_test(
        train_ds, int(split_seq.generate_state(1)[0]))
    other_groups = sorted(train_idx)
    clf_x = np.vstack([merged] + [train_ds.y[train_idx[g]] for g in other_groups])
    clf_y = np.concatenate(
        [np.full(merged.shape[0], group, dtype=np.int64)]
        + [np.full(len(train_idx[g]), g, dtype=np.int64) for g in other_groups])
    test_x = np.vstack([y_i] + [train_ds.y[test_idx[g]] for g in other_groups])
    n_identified = y_i.shape[0]

    clf_seed = int(clf_seq.generate_state(1)[0])
    if dataset.expr_shape is None:
        clf = fit_forest(clf_x, clf_y, replace(settings.forest, seed=clf_seed))
        pred = predict_forest(clf, test_x)
    else:
        clf = fit_conv_classifier(clf_x, clf_y, dataset.expr_shape,
                                  seed=clf_seed,
                                  epochs=settings.classifier_epochs,
                                  channels=settings.train.conv_channels)
        pred = predict_conv_classifier(clf, test_x)

    hit = pred == group
    confusion = ConfusionCounts(
        tp=int(hit[:n_identified].sum()),
        fp=int((~hit[:n_identified]).sum()),
        fn=int(hit[n_identified:].sum()),
        tn=int((~hit[n_identified:]).sum()))
    a1, a2 = compute_a_metrics(confusion)
    return ValidationReport(group=group, confusion=confusion, a1=a1, a2=a2,
                            method=_method_name(method), sigma=sigma,
                            trial=trial, replicates=replicates)


def risk_difference_eval(dataset: PairedDataset, group: int, method,
                         settings: MethodSettings | None = None,
                         seed: int = 0) -> RiskEvalReport:
    """Compare forest-estimated outcome probabilities for group i between
    a forest trained on all actual participants and one where group i's
    expressions are replaced by synthesized ones.

    Both forests share the same seed and row ordering, so a synthesizer
    reproducing the actual expressions yields a zero difference.
    """
    if dataset.outcome is None:
        raise ValueError("dataset has no outcome column")
    settings = settings or MethodSettings()
    mask = dataset.group_mask(group)
    if not mask.any():
        raise ValueError(f"group {group} has no rows")
    train_ds = dataset.select(~mask)
    x_i, y_i = dataset.x[mask], dataset.y[mask]
    out_i, out_rest = dataset.outcome[mask], dataset.outcome[~mask]

    fit_seq, clf_seq = np.random.SeedSequence(seed).spawn(2)
    yhat = fit_and_synthesize(method, settings, train_ds, x_i,
                              int(fit_seq.generate_state(1)[0]))

    rest = np.hstack([train_ds.x, train_ds.y])
    actual_i = np.hstack([x_i, y_i])
    fake_i = np.hstack([x_i, yhat])
    labels = np.concatenate([out_i, out_rest])
    cfg = replace(settings.forest, seed=int(clf_seq.generate_state(1)[0]))

    f_actual = fit_forest(np.vstack([actual_i, rest]), labels, cfg)
    f_fake = fit_forest(np.vstack([fake_i, rest]), labels, cfg)
    col = int(np.nonzero(f_actual.classes == 1)[0][0])
    r_s = predict_proba(f_actual, actual_i)[:, col]
    col = int(np.nonzero(f_fake.classes == 1)[0][0])
    r_a = predict_proba(f_fake, actual_i)[:, col]
    diff = np.abs(r_a - r_s)
    std = float(diff.std(ddof=1)) if diff.size > 1 else 0.0
    return RiskEvalReport(group=group, mean_abs_diff=float(diff.mean()),
                          std=std, method=_method_name(method),
                          n=int(diff.size))


def aggregate_trials(reports: list) -> list[TrialSummary]:
    """Mean and sample standard deviation of A1/A2 per
    (method, sigma, group); single-report cells are flagged with std 0."""
    if not reports:
        raise ValueError("no reports to aggregate")
    cells: dict = {}
    for r in reports:
        cells.setdefault((r.method, r.sigma, r.group), []).append(r)
    out = []
    for (method, sigma, group) in sorted(
            cells, key=lambda k: (k[0], k[1] if k[1] is not None else -1.0, k[2])):
        rs = cells[(method, sigma, group)]
        a1 = np.array([r.a1 for r in rs])
        a2 = np.array([r.a2 for r in rs])
        single = len(rs) == 1
        out.append(TrialSummary(
            method=method, sigma=sigma, group=group,
            a1_mean=float(a1.mean()),
            a1_std=0.0 if single else float(a1.std(ddof=1)),
            a2_mean=float(a2.mean()),
            a2_std=0.0 if single else float(a2.std(ddof=1)),
            n_trials=len(rs), single_trial=single))
    return out


# --- small convolutional classifier for matrix-valued expressions ---

@dataclass
class ConvClassifier:
    encoder: ndnet.NetParams
    head: ndnet.NetParams
    classes: np.ndarray
    expr_shape: tuple
    mean: float
    std: float


def _softmax(z: np.ndarray) -> np.ndarray:
    z = z - z.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


def fit_conv_classifier(Y: np.ndarray, labels: np.ndarray, expr_shape: tuple,
                        seed: int = 0, epochs: int = 30, batch: int = 64,
                        lr: float = 1e-3,
                        channels: tuple = (8, 16, 32, 64)) -> ConvClassifier:
    """Strided conv stack plus a linear head trained with softmax
    cross-entropy; used where flat-feature forests fit poorly."""
    Y = np.atleast_2d(np.asarray(Y, dtype=np.float64))
    classes, codes = np.unique(labels, return_inverse=True)
    h, w = expr_shape
    seeds = np.random.SeedSequence(seed).spawn(3)
    # log2 depth leaves a 1x1 map on any grid, not only powers of two
    encoder = ndnet.init_params(conv_encoder_spec(int(np.log2(h)), channels),
                                seeds[0])
    head = ndnet.init_params(
        [ndnet.dense(encoder.spec[-1].out_channels, len(classes), "none")],
        seeds[1])
    rng = np.random.default_rng(seeds[2])

    mean = float(Y.mean())
    std = float(Y.std()) or 1.0
    imgs = ((Y - mean) / std).reshape(-1, 1, h, w)
    onehot = np.eye(len(classes))[codes]

    opt_e = ndnet.init_opt_state(encoder, "adam", lr)
    opt_h = ndnet.init_opt_state(head, "adam", lr)
    n = imgs.shape[0]
    for _ in range(epochs):
        order = rng.permutation(n)
        for start in range(0, n, batch):
            sel = order[start:start + batch]
            enc_tr = ndnet.forward(encoder, imgs[sel])
            flat = enc_tr.output.reshape(len(sel), -1)
            head_tr = ndnet.forward(head, flat)
            probs = _softmax(head_tr.output)
            out_grad = (probs - onehot[sel]) / len(sel)
            hg, flat_grad = ndnet.backprop(head, head_tr, out_grad)
            eg, _ = ndnet.backprop(encoder, enc_tr,
                                   flat_grad.reshape(enc_tr.output.shape))
            ndnet.optimizer_step(head, hg, opt_h)
            ndnet.optimizer_step(encoder, eg, opt_e)
    return ConvClassifier(encoder=encoder, head=head, classes=classes,
                          expr_shape=expr_shape, mean=mean, std=std)


def predict_conv_classifier(clf: ConvClassifier, Y: np.ndarray) -> np.ndarray:
    Y = np.atleast_2d(np.asarray(Y, dtype=np.float64))
    h, w = clf.expr_shape
    imgs = ((Y - clf.mean) / clf.std).reshape(-1, 1, h, w)
    enc_tr = ndnet.forward(clf.encoder, imgs)
    flat = enc_tr.output.reshape(imgs.shape[0], -1)
    logits = ndnet.forward(clf.head, flat).output
    return clf.classes[np.argmax(logits, axis=1)]
