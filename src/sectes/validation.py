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
                        pls_predict)
from .ctes import TrainConfig, conv_encoder_spec, synthesize_each, train_ctes
from .datagen import PairedDataset
from .ensemble import (EnsembleConfig, EnsembleModel, ensemble_synthesize,
                       train_se_ctes)
from .errors import ConfigError
from .forest import ForestConfig, fit_forest, predict_forest, predict_proba

KNOWN_METHODS = ("pls", "grnn", "cgan", "gan-cls", "ctes", "se-ctes")
# the two baselines defined by their mismatch weight; ctes and se-ctes
# train at TrainConfig.beta
_FIXED_BETA = {"cgan": 1.0, "gan-cls": 0.5}


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


@dataclass
class RiskEvalReport:
    group: int
    mean_abs_diff: float
    std: float
    method: str
    n: int


@dataclass
class MethodSettings:
    """Shared knobs for every synthesis method in an experiment.

    ``train`` sets every adversarial training run. ``forest`` sets the
    validation forests, and the inverse-validation forests only when
    ``ensemble`` is None. Of ``ensemble``, only ``k``, ``h`` and ``clf``
    are read: :func:`fit_method` replaces its ``train`` and ``seed`` with
    ``train`` (at the label's beta) and the job seed, and its ``clf``, not
    ``forest``, fits the inverse-validation forests.
    """

    train: TrainConfig = field(default_factory=TrainConfig)
    forest: ForestConfig = field(default_factory=ForestConfig)
    ensemble: EnsembleConfig | None = None  # None = EnsembleConfig defaults
    classifier_epochs: int = 30  # conv classifier, matrix expressions only


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
    """Fit a method label on the training pool and return its model.

    The label is a name from :data:`KNOWN_METHODS`; an adversarial name
    may carry a mismatch weight, as in ``ctes[beta=0.7]``, that replaces
    the name's own (``settings.train.beta`` for ctes and se-ctes).
    """
    name, sweep, arg = method.partition("[beta=")
    if name not in KNOWN_METHODS or (sweep and (
            name in ("pls", "grnn") or not arg.endswith("]"))):
        raise ConfigError(f"unknown method {method!r}; expected one of "
                          f"{KNOWN_METHODS}")
    if name == "pls":
        return pls_fit(train_ds.x, train_ds.y, min(train_ds.char_dim, 2))
    if name == "grnn":
        return grnn_fit(train_ds.x, train_ds.y)
    beta = _FIXED_BETA.get(name, settings.train.beta)
    if sweep:
        try:
            beta = float(arg[:-1])
        except ValueError:
            raise ConfigError(
                f"method {method!r}: beta is not a number") from None
    tc = replace(settings.train, beta=beta, seed=seed)
    if name == "se-ctes":
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
    """Fit ``method`` (a :func:`fit_method` label, or a callable
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
                              seed: int = 0) -> ValidationReport:
    """Full identify-group run: fit on the other groups, synthesize the
    identified group, and measure A1/A2 through the validation classifier."""
    settings = settings or MethodSettings()
    if dataset.n_groups < 2:
        raise ValueError("need at least 2 groups")
    mask = dataset.group_mask(group)
    if not mask.any():
        raise ValueError(f"group {group} has no rows")
    train_ds = dataset.select(~mask)
    x_i = dataset.x[mask]
    y_i = dataset.y[mask]

    fit_seq, split_seq, clf_seq = np.random.SeedSequence(seed).spawn(3)
    yhat = fit_and_synthesize(method, settings, train_ds, x_i,
                              int(fit_seq.generate_state(1)[0]))

    train_idx, test_idx = split_train_test(
        train_ds, int(split_seq.generate_state(1)[0]))
    other_groups = sorted(train_idx)
    clf_x = np.vstack([yhat] + [train_ds.y[train_idx[g]] for g in other_groups])
    clf_y = np.concatenate(
        [np.full(yhat.shape[0], group, dtype=np.int64)]
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
                            method=_method_name(method))


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


def aggregate_trials(rows: list[dict], keys, stds: dict) -> list[dict]:
    """One summary row per distinct ``keys`` cell of the trial rows.

    Each column ``c`` in ``stds`` gets its mean over the cell's trials and,
    under the name ``stds[c]``, its sample standard deviation (0 for a
    single trial); ``n_trials`` counts the cell's rows. Rows are sorted by
    key, a None key value (the sigma of a study without one) as -1.
    """
    if not rows:
        raise ValueError("no reports to aggregate")
    cells: dict = {}
    for r in rows:
        cells.setdefault(tuple(r[k] for k in keys), []).append(r)
    out = []
    for key in sorted(cells, key=lambda k: tuple(
            -1.0 if v is None else v for v in k)):
        rs = cells[key]
        row = dict(zip(keys, key), n_trials=len(rs))
        for col, std in stds.items():
            vals = np.array([r[col] for r in rs])
            row[col] = float(vals.mean())
            row[std] = float(vals.std(ddof=1)) if len(rs) > 1 else 0.0
        out.append(row)
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

    nets = (head, encoder)
    opt = ndnet.init_opt_state(nets, lr)
    head_grads, enc_grads = opt.grads
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
            flat_grad = ndnet.backprop(head, head_tr, out_grad,
                                       out=head_grads)
            ndnet.backprop(encoder, enc_tr,
                           flat_grad.reshape(enc_tr.output.shape),
                           out=enc_grads, input_grad=False)
            ndnet.optimizer_step(nets, opt)
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
