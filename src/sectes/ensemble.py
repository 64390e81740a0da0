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

from .ctes import (CtesModel, TrainConfig, _as_rng, synthesize_each,
                   train_ctes)
from .datagen import PairedDataset
from .errors import ConfigError, EnsembleError, TrainingDiverged
from .forest import ForestConfig, fit_forest, predict_forest
from .parallel import serial_map, task_map


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
                              clf_settings: ForestConfig, seed: int, *,
                              map_fn=serial_map) -> np.ndarray:
    """Score each member's batch by its own inverse-validation classifier.

    Classifier i trains on all other members' fakes (category 0) against
    the real expressions (category 1); the score is the fraction of batch
    i assigned to category 0. Peer rows are put in a canonical sorted
    order so scores do not depend on how members are numbered. The k
    classifier fits go through ``map_fn``, such as a
    :func:`parallel.task_map` map.
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
    return np.array(map_fn(_member_score, range(k), [batches] * k,
                           [real] * k, [cfg] * k))


def _member_score(i: int, batches: list, real: np.ndarray,
                  cfg: ForestConfig) -> float:
    """Fraction of batch i that a forest fitted to the other batches
    (category 0) against the real rows (category 1) puts in category 0."""
    peers = np.vstack(batches[:i] + batches[i + 1:])
    peers = peers[np.lexsort(peers.T[::-1])]
    X = np.vstack([peers, real])
    y = np.repeat([0, 1], [peers.shape[0], real.shape[0]])
    clf = fit_forest(X, y, cfg)
    return float(np.mean(predict_forest(clf, batches[i]) == 0))


def select_top_h(scores, h: int) -> list[int]:
    """Indices of the h largest scores, ties broken toward the lower
    index; returned ascending."""
    scores = np.asarray(scores, dtype=np.float64)
    if h > len(scores):
        raise ConfigError(f"h={h} exceeds the number of scores {len(scores)}")
    ranked = sorted(range(len(scores)), key=lambda i: (-scores[i], i))
    return sorted(ranked[:h])


def _train_member(dataset: PairedDataset, config: TrainConfig):
    """One member's model, or the divergence that stopped it."""
    try:
        return train_ctes(dataset, config)
    except TrainingDiverged as exc:
        return exc


def train_se_ctes(dataset: PairedDataset, config: EnsembleConfig) -> EnsembleModel:
    """Train k members on distinct derived seeds, score them by inverse
    validation on one synthesized expression per training characteristic,
    and select the top h.

    The k trainings, then the k classifier fits, run on one process pool
    (:func:`parallel.task_map`); every task has its own seed, so the result
    does not depend on the number of workers.
    """
    root = np.random.SeedSequence(config.seed)
    member_seqs = root.spawn(config.k)
    score_seq = root.spawn(1)[0]
    member_children = [seq.spawn(2) for seq in member_seqs]  # (train, synth)
    member_cfgs = [replace(config.train,
                           seed=int(children[0].generate_state(1)[0]))
                   for children in member_children]

    with task_map(config.k) as map_fn:
        models: list = [None] * config.k
        diagnostics: list = [None] * config.k
        for i, out in enumerate(map_fn(_train_member, [dataset] * config.k,
                                       member_cfgs)):
            if isinstance(out, TrainingDiverged):
                diagnostics[i] = f"member {i} diverged: {out}"
            else:
                models[i] = out
        finished = [i for i in range(config.k) if models[i] is not None]
        if len(finished) < config.h:
            raise EnsembleError(
                f"only {len(finished)} of {config.k} members finished; "
                f"need at least h={config.h}")

        batches = [synthesize_each(
            models[i], dataset.x, jitter=0.0,
            rng=np.random.default_rng(member_children[i][1]))
            for i in finished]

        scores = np.zeros(config.k)
        if len(finished) >= 2:
            sub_scores = inverse_validation_scores(
                batches, dataset.y, config.clf,
                seed=int(score_seq.generate_state(1)[0]), map_fn=map_fn)
            for pos, i in enumerate(finished):
                scores[i] = sub_scores[pos]
        else:  # a single finished member is selected by default
            scores[finished[0]] = 1.0

    selected = select_top_h(scores, config.h)
    return EnsembleModel(models=models, scores=scores, selected=selected,
                         config=config, diagnostics=diagnostics)


def ensemble_synthesize(ens: EnsembleModel, X: np.ndarray,
                        rng=None, jitter: float | None = None) -> np.ndarray:
    """Uniform-mixture synthesis over the selected members: one expression
    per characteristic row.

    X's rows are split in order into h contiguous shares of floor(n/h)
    rows, the remainder going one each to the lowest-index members.
    """
    if not ens.selected:
        raise EnsembleError("ensemble has no selected members")
    rng = _as_rng(rng)
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    if X.shape[0] < 1:
        raise ValueError("need at least one characteristic row")
    shares = np.array_split(X, len(ens.selected))
    return np.vstack([synthesize_each(ens.models[i], rows, rng=rng,
                                      jitter=jitter)
                      for i, rows in zip(ens.selected, shares) if len(rows)])
