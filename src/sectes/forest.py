"""Random-forest classifier: CART trees, Gini splits, stratified bootstrap.

Trees grow until pure (or until the configured limits), thresholds sit at
midpoints of consecutive sorted values, and every source of randomness
derives from the config seed, so (data, config) fixes the forest exactly.
The bootstrap resamples each class separately, preserving class ratios in
every tree; inverse validation relies on this under heavy imbalance.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError


@dataclass
class ForestConfig:
    n_trees: int = 100
    max_depth: int = 0  # 0 = unlimited
    seed: int = 0

    def __post_init__(self):
        if self.n_trees < 1:
            raise ConfigError("n_trees must be >= 1")


def gini(class_counts) -> float:
    """Impurity 1 - sum((n_c / N)^2); zero iff one class holds all counts."""
    counts = np.asarray(class_counts, dtype=np.float64)
    total = counts.sum()
    if total <= 0:
        raise ValueError("class counts sum to zero")
    frac = counts / total
    return float(1.0 - np.dot(frac, frac))


@dataclass
class _Tree:
    """CART tree as flat node arrays; node 0 is the root, ``feature`` is -1
    at a leaf, a split node's right child is ``left + 1``, and ``leaf``
    holds every node's majority class (ties to the lower class)."""

    feature: np.ndarray
    threshold: np.ndarray
    left: np.ndarray
    leaf: np.ndarray

    def votes(self, X: np.ndarray) -> np.ndarray:
        """One majority-class vote per sample."""
        # all rows still above a leaf step down one level together
        node = np.zeros(X.shape[0], dtype=np.int64)
        rows = np.flatnonzero(self.feature[node] >= 0)
        while rows.size:
            at = node[rows]
            go_left = X[rows, self.feature[at]] <= self.threshold[at]
            node[rows] = self.left[at] + ~go_left  # right is left + 1
            rows = rows[self.feature[node[rows]] >= 0]
        return self.leaf[node]


def _best_split(vals: np.ndarray, codes: np.ndarray, n_classes: int):
    """Lowest weighted-Gini split of one feature, or None if constant.

    Returns (score, threshold) where score orders candidates like the
    weighted Gini (shared constants dropped); thresholds are midpoints
    strictly between two observed values.
    """
    order = vals.argsort()
    sv = vals[order]
    boundary = (sv[1:] > sv[:-1]).nonzero()[0]
    if boundary.size == 0:
        return None
    sy = codes[order]
    n_left = boundary + 1.0
    n_right = vals.size - n_left
    if n_classes == 2:
        cum = sy.cumsum()
        l1 = cum[boundary]
        l0 = n_left - l1
        r1 = cum[-1] - l1
        r0 = n_right - r1
        # n_side * gini_side == 2 * count0 * count1 / n_side
        score = l0 * l1 / n_left + r0 * r1 / n_right
    else:
        onehot = sy[:, None] == np.arange(n_classes)[None, :]
        cum = onehot.cumsum(axis=0).astype(np.float64)
        lc = cum[boundary]
        rc = cum[-1] - lc
        score = (n_left - (lc * lc).sum(axis=1) / n_left
                 + n_right - (rc * rc).sum(axis=1) / n_right)
    while True:
        best = int(score.argmin())
        b = int(boundary[best])
        lo, hi = float(sv[b]), float(sv[b + 1])
        mid = (lo + hi) / 2.0
        # adjacent floats can collapse the midpoint onto an observed value
        if lo < mid < hi:
            return float(score[best]), mid
        score[best] = np.inf
        if not np.isfinite(score).any():
            return None


def _grow_tree(X: np.ndarray, codes: np.ndarray, n_classes: int,
               cfg: ForestConfig, rng: np.random.Generator) -> _Tree:
    """One tree on the columns of the feature-major ``X`` (features,
    rows), so each candidate feature's values are one contiguous row."""
    d = X.shape[0]
    mtry = max(1, int(np.floor(np.sqrt(d))))
    feature, threshold, left, leaf = [-1], [0.0], [-1], [0]
    stack = [(0, np.arange(X.shape[1]), 0)]
    while stack:
        node, idx, depth = stack.pop()
        node_codes = codes[idx]
        counts = np.bincount(node_codes, minlength=n_classes)
        leaf[node] = int(counts.argmax())
        depth_capped = cfg.max_depth and depth >= cfg.max_depth
        if counts[leaf[node]] == idx.size or depth_capped:
            continue
        # scan a random feature order; constant features do not use up mtry
        best = None
        evaluated = 0
        for f in rng.permutation(d):
            split = _best_split(X[f, idx], node_codes, n_classes)
            if split is None:
                continue
            evaluated += 1
            if best is None or split[0] < best[0]:
                best = (split[0], int(f), split[1])
            if evaluated >= mtry:
                break
        if best is None:
            continue
        _, feat, thr = best
        go_left = X[feat, idx] <= thr
        feature[node], threshold[node] = feat, thr
        left[node] = len(feature)
        feature += [-1, -1]
        threshold += [0.0, 0.0]
        left += [-1, -1]
        leaf += [0, 0]
        stack.append((left[node], idx[go_left], depth + 1))
        stack.append((left[node] + 1, idx[~go_left], depth + 1))
    return _Tree(*map(np.asarray, (feature, threshold, left, leaf)))


@dataclass
class Forest:
    trees: list
    classes: np.ndarray  # sorted original labels
    n_features: int

    @property
    def n_classes(self) -> int:
        return len(self.classes)


def fit_forest(X: np.ndarray, labels: np.ndarray, cfg: ForestConfig) -> Forest:
    """Fit trees on per-class stratified bootstrap resamples."""
    X = np.asarray(X, dtype=np.float64)
    labels = np.asarray(labels)
    if X.ndim != 2 or X.shape[0] != labels.shape[0]:
        raise ValueError("X must be 2-D and aligned with labels")
    if X.shape[0] < 2:
        raise ValueError("need at least 2 samples")
    classes, codes = np.unique(labels, return_inverse=True)
    if len(classes) < 2:
        raise ValueError("need at least 2 classes")
    by_class = [np.nonzero(codes == c)[0] for c in range(len(classes))]
    seeds = np.random.SeedSequence(cfg.seed).spawn(cfg.n_trees)
    XT = np.ascontiguousarray(X.T)  # one contiguous row per feature
    trees = []
    for t in range(cfg.n_trees):
        rng = np.random.default_rng(seeds[t])
        boot = np.concatenate([
            cls_idx[rng.integers(0, len(cls_idx), size=len(cls_idx))]
            for cls_idx in by_class])
        trees.append(_grow_tree(XT[:, boot], codes[boot], len(classes), cfg,
                                rng))
    return Forest(trees=trees, classes=classes, n_features=X.shape[1])


def predict_proba(forest: Forest, X: np.ndarray) -> np.ndarray:
    """Per-class vote fractions, shape (n_samples, n_classes)."""
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != forest.n_features:
        raise ValueError(f"expected (n, {forest.n_features}) features")
    votes = np.zeros((X.shape[0], forest.n_classes))
    for tree in forest.trees:
        votes[np.arange(X.shape[0]), tree.votes(X)] += 1.0
    return votes / len(forest.trees)


def predict_forest(forest: Forest, X: np.ndarray) -> np.ndarray:
    """Majority vote across trees; ties go to the lower class label."""
    frac = predict_proba(forest, X)
    return forest.classes[np.argmax(frac, axis=1)]
