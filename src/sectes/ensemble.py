"""Selective ensembling of adversarial synthesis models.

Train k models, score each one by inverse validation (a classifier
learns peer-generated fakes vs real expressions and each member is
scored by how firmly its own output lands in the peer-fake class), keep
the h best, and synthesize from the uniform mixture of the survivors.
Members that diverge during training score 0 and fall out naturally.
"""

from __future__ import annotations

import itertools
import mmap
import multiprocessing
from concurrent.futures import FIRST_COMPLETED, wait
from contextlib import contextmanager
from dataclasses import dataclass, field, replace

import numpy as np

from .ctes import (CtesModel, TrainConfig, _as_rng, synthesize_each,
                   train_ctes)
from .datagen import PairedDataset
from .errors import ConfigError, EnsembleError, TrainingDiverged
from .forest import ForestConfig, fit_forest, predict_forest
from .parallel import task_pool


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
    return np.array([_member_score(batches[:i] + batches[i + 1:], real, cfg,
                                   batches[i]) for i in range(k)])


def _member_score(peers: list, real: np.ndarray, cfg: ForestConfig,
                  batch: np.ndarray | int) -> float | None:
    """A member's inverse-validation score: the share of its batch that a
    forest fitted to its peers' batches (category 0) against the real
    rows (category 1) puts in category 0.

    For a member still training, ``batch`` is instead the key of its
    late-batch slot, read once the forest is fitted; a member that
    diverged there gives None.
    """
    peers = np.vstack(peers)
    peers = peers[np.lexsort(peers.T[::-1])]
    X = np.vstack([peers, real])
    y = np.repeat([0, 1], [peers.shape[0], real.shape[0]])
    clf = fit_forest(X, y, cfg)
    if isinstance(batch, int):
        ready, batch = _late_batches[batch]
        if not ready.recv():
            return None
    return float(np.mean(predict_forest(clf, batch) == 0))


# A forest started before its own member is done waits, in its worker,
# for that member's batch. The batch is copied to memory shared with the
# pool's workers, and a flag sent down a pipe says whether it is there.
# The workers inherit both: the pool forks them at its first task, after
# the slot is made. A flag never fills the pipe, so sending it never
# waits for the worker. Slots are kept by call, so concurrent calls stay
# apart.
_late_batches: dict = {}
_calls = itertools.count()


@contextmanager
def _late_batch_slot(shape: tuple):
    """Yield (key, post) of a new slot for a batch of ``shape``.
    ``post(batch)`` hands the batch to a forest waiting on ``key``;
    ``post(None)``, or leaving the block, tells it no batch will come."""
    key = next(_calls)
    ready, sender = multiprocessing.Pipe(duplex=False)
    nbytes = 8 * int(np.prod(shape))
    shared = np.ndarray(shape, buffer=mmap.mmap(-1, max(nbytes, 1)))
    _late_batches[key] = ready, shared

    def post(batch):
        if batch is not None:
            shared[...] = batch
        sender.send(batch is not None)

    try:
        yield key, post
    finally:
        sender.send(False)
        del _late_batches[key]
        ready.close()
        sender.close()


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

    The tasks run on one process pool (:func:`parallel.task_pool`) and
    are scheduled by what they need, not by phase: member i's forest is
    fitted on the other members' batches only, so it starts as soon as
    every other member has finished or diverged, while member i may still
    be training. Each member's batch is synthesized here as the member
    arrives; a forest that started early gets its member's batch through
    shared memory and scores it in its worker. A diverged member gets no
    score. Every task has its own seed, so the result does not depend on the
    number of workers or on the order in which tasks finish. Once more
    than k - h members have diverged, the queued tasks are cancelled and
    :class:`EnsembleError` is raised.
    """
    k, h = config.k, config.h
    root = np.random.SeedSequence(config.seed)
    member_seqs = root.spawn(k)
    score_seq = root.spawn(1)[0]
    member_children = [seq.spawn(2) for seq in member_seqs]  # (train, synth)
    member_cfgs = [replace(config.train,
                           seed=int(children[0].generate_state(1)[0]))
                   for children in member_children]
    clf_cfg = replace(config.clf, seed=int(score_seq.generate_state(1)[0]))

    models: list = [None] * k
    diagnostics: list = [None] * k
    batches: dict = {}  # finished member -> its synthesized batch
    scores = np.zeros(k)
    with (task_pool(k) as pool,
          _late_batch_slot(dataset.y.shape) as (key, post_late_batch)):
        pending = {pool.submit(_train_member, dataset, cfg): ("member", i)
                   for i, cfg in enumerate(member_cfgs)}
        training = set(range(k))
        forest_due = set(range(k))
        # the member whose forest started before it was done; never set
        # when tasks run inline, as every member is then done at the
        # first wait
        early = None
        while pending:
            done, _ = wait(pending, return_when=FIRST_COMPLETED)
            for future in sorted(done, key=pending.get):
                kind, i = pending.pop(future)
                out = future.result()
                if kind == "score":
                    if out is not None:
                        scores[i] = out
                    continue
                training.discard(i)
                if isinstance(out, TrainingDiverged):
                    diagnostics[i] = f"member {i} diverged: {out}"
                else:
                    models[i] = out
                    batches[i] = synthesize_each(
                        out, dataset.x, jitter=0.0,
                        rng=np.random.default_rng(member_children[i][1]))
                if i == early:
                    post_late_batch(batches.get(i))
                diverged = k - len(training) - len(batches)
                if k - diverged < h:
                    raise EnsembleError(f"{diverged} of {k} members diverged; "
                                        f"need at least h={h} to finish")
            # forest j waits for every member but j; a diverged member, or
            # one without a finished peer, gets none
            for j in sorted(forest_due):
                if training - {j}:
                    continue
                forest_due.discard(j)
                peers = [batches[p] for p in sorted(batches) if p != j]
                if peers and (j in batches or j in training):
                    if j in training:
                        early = j
                    batch = batches[j] if j in batches else key
                    pending[pool.submit(_member_score, peers, dataset.y,
                                        clf_cfg, batch)] = ("score", j)

    if len(batches) == 1:  # a single finished member is selected by default
        scores[next(iter(batches))] = 1.0
    selected = select_top_h(scores, h)
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
