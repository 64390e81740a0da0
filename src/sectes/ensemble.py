"""Selective ensembling of adversarial synthesis models.

Train k models, score each one by inverse validation (a classifier
learns peer-generated fakes vs real expressions and each member is
scored by how firmly its own output lands in the peer-fake class), keep
the h best, and synthesize from the uniform mixture of the survivors.
Members that diverge during training score 0 and fall out naturally.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .ctes import CtesModel, TrainConfig, synthesize_each, train_ctes
from .datagen import PairedDataset
from .errors import ConfigError, EnsembleError, TrainingDiverged
from .forest import ForestConfig, fit_forest, predict_forest


@dataclass
class EnsembleConfig:
    """Settings of one selective-ensemble run.

    ``k`` models are trained and ``h`` survive selection; k must exceed
    2h so that a majority of members being well trained guarantees the
    selected ones are.
    """

    k: int = 5
    h: int = 2
    train: TrainConfig = field(default_factory=TrainConfig)
    clf: ForestConfig = field(default_factory=ForestConfig)
    synth_per_model: int | None = None  # None = one per training row
    seed: int = 0

    def __post_init__(self):
        if self.h < 1:
            raise ConfigError("h must be >= 1")
        if self.k <= 2 * self.h:
            raise ConfigError(f"k must exceed 2*h (got k={self.k}, h={self.h})")


@dataclass
class EnsembleModel:
    """k trained members, their inverse-validation scores, and the
    selected indices (ascending)."""

    models: list[CtesModel | None]  # None for diverged members
    scores: np.ndarray
    selected: list[int]
    config: EnsembleConfig
    diagnostics: list[str | None]  # per-member failure description


def inverse_validation_scores(fake_batches: list, real: np.ndarray,
                              clf_settings: ForestConfig,
                              seed: int) -> np.ndarray:
    """Score each member's batch by its own inverse-validation classifier.

    Classifier i trains on all other members' fakes (category 0) against
    the real expressions (category 1); the score is the fraction of batch
    i assigned to category 0. Peer rows are put in a canonical sorted
    order so scores do not depend on how members are numbered.
    """
    k = len(fake_batches)
    if k < 2:
        raise ValueError("inverse validation needs at least 2 member batches")
    batches = [np.atleast_2d(np.asarray(b, dtype=np.float64))
               for b in fake_batches]
    real = np.atleast_2d(np.asarray(real, dtype=np.float64))
    dims = {b.shape[1] for b in batches} | {real.shape[1]}
    if len(dims) != 1:
        raise ValueError("expression dimensions differ across batches")
    if any(b.shape[0] == 0 for b in batches) or real.shape[0] == 0:
        raise ValueError("batches must be non-empty")
    cfg = replace(clf_settings, seed=seed)
    labels_real = np.ones(real.shape[0], dtype=np.int64)
    scores = np.empty(k)
    for i in range(k):
        peers = np.vstack([b for j, b in enumerate(batches) if j != i])
        peers = peers[np.lexsort(peers.T[::-1])]
        X = np.vstack([peers, real])
        y = np.concatenate([np.zeros(peers.shape[0], dtype=np.int64),
                            labels_real])
        clf = fit_forest(X, y, cfg)
        pred = predict_forest(clf, batches[i])
        scores[i] = float(np.mean(pred == 0))
    return scores


def select_top_h(scores, h: int) -> list[int]:
    """Indices of the h largest scores, ties broken toward the lower
    index; returned ascending."""
    scores = np.asarray(scores, dtype=np.float64)
    if h > len(scores):
        raise ConfigError(f"h={h} exceeds the number of scores {len(scores)}")
    ranked = sorted(range(len(scores)), key=lambda i: (-scores[i], i))
    return sorted(ranked[:h])


def train_se_ctes(dataset: PairedDataset, config: EnsembleConfig) -> EnsembleModel:
    """Train k members on distinct derived seeds, score them by inverse
    validation on one synthesized expression per training characteristic,
    and select the top h."""
    root = np.random.SeedSequence(config.seed)
    member_seqs = root.spawn(config.k)
    score_seq = root.spawn(1)[0]
    member_children = [seq.spawn(2) for seq in member_seqs]  # (train, synth)

    models: list = [None] * config.k
    diagnostics: list = [None] * config.k
    for i in range(config.k):
        cfg_i = replace(config.train,
                        seed=int(member_children[i][0].generate_state(1)[0]))
        try:
            models[i] = train_ctes(dataset, cfg_i)
        except TrainingDiverged as exc:
            diagnostics[i] = f"member {i} diverged: {exc}"
    finished = [i for i in range(config.k) if models[i] is not None]
    if len(finished) < config.h:
        raise EnsembleError(
            f"only {len(finished)} of {config.k} members finished; "
            f"need at least h={config.h}")

    per_model = config.synth_per_model or dataset.n_samples
    x_rows = dataset.x[np.arange(per_model) % dataset.n_samples]
    batches = []
    for i in finished:
        rng = np.random.default_rng(member_children[i][1])
        batches.append(synthesize_each(models[i], x_rows, rng=rng, jitter=0.0))

    scores = np.zeros(config.k)
    if len(finished) >= 2:
        sub_scores = inverse_validation_scores(
            batches, dataset.y, config.clf,
            seed=int(score_seq.generate_state(1)[0]))
        for pos, i in enumerate(finished):
            scores[i] = sub_scores[pos]
    else:  # a single finished member is selected by default
        scores[finished[0]] = 1.0

    selected = select_top_h(scores, config.h)
    return EnsembleModel(models=models, scores=scores, selected=selected,
                         config=config, diagnostics=diagnostics)


def ensemble_synthesize(ens: EnsembleModel, X: np.ndarray, total: int,
                        rng=None, jitter: float | None = None) -> np.ndarray:
    """Uniform-mixture synthesis over the selected members.

    Each selected model contributes floor(total/h) draws, with the
    remainder going to the lowest-index members; characteristic rows are
    cycled to cover the request.
    """
    if not ens.selected:
        raise EnsembleError("ensemble has no selected members")
    if total < len(ens.selected):
        raise ValueError("total must be >= the number of selected members")
    rng = rng if isinstance(rng, np.random.Generator) else np.random.default_rng(rng)
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    h = len(ens.selected)
    base, extra = divmod(total, h)
    row_ids = np.arange(total) % X.shape[0]
    out = []
    start = 0
    for pos, i in enumerate(ens.selected):
        quota = base + (1 if pos < extra else 0)
        rows = X[row_ids[start:start + quota]]
        out.append(synthesize_each(ens.models[i], rows, rng=rng, jitter=jitter))
        start += quota
    return np.vstack(out)
