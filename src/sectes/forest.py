"""Random-forest classifier: CART trees, Gini splits, stratified bootstrap.

Trees grow until every leaf is pure or unsplittable, thresholds sit at
midpoints of consecutive sorted values, and every source of randomness
derives from the config seed, so (data, config) fixes the forest exactly.
The bootstrap resamples each class separately, preserving class ratios in
every tree; inverse validation relies on this under heavy imbalance.

Trees grow in lockstep. Each tree in flight keeps its own generator (its
bootstrap, then one feature order per node it tries to split), its own
depth-first node order and its own node numbering, so it comes out
bit-identical to the same tree grown alone, node by node and feature by
feature; ``tests/oracles.py`` keeps that grower as the reference. Each
step takes the next node of every tree in flight and searches all their
splits at once: one sort orders every (node, candidate feature) segment
by value rank, running sums score every boundary with the one-node
search's operands in its order, and reductions take each segment's and
each node's first minimum. A bootstrap is held as its distinct rows with
their copy counts, which leaves the counts, and so the scores, as they
were. ``_STEP_CELLS`` caps a step's rows x candidate features x classes,
and ``_IN_FLIGHT`` the trees grown at once; both bound the scratch memory
of a fit and neither changes the trees.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .datagen import _labels, _rows
from .errors import ConfigError


@dataclass
class ForestConfig:
    n_trees: int = 100
    # every job derives its own; not part of config or model files
    seed: int = field(default=0, metadata={"saved": False})

    def __post_init__(self):
        if self.n_trees < 1:
            raise ConfigError("n_trees must be >= 1")


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


# A step sorts at most _STEP_CELLS (row, candidate feature, class) cells
# (a larger node is searched alone), and at most _IN_FLIGHT trees grow at
# once. Both bound a fit's scratch memory; neither changes the trees.
_STEP_CELLS = 1 << 14
_IN_FLIGHT = 16


class _Growing:
    """A tree in flight: its generator, the stack of nodes it has yet to
    visit, its slot of bootstrap rows, its node count and its splits as
    (node, feature, threshold, left child, the children's majority
    classes)."""

    __slots__ = ("index", "rng", "stack", "slot", "n_nodes", "splits")

    def __init__(self, index: int, rng: np.random.Generator, stack: list,
                 slot: int):
        self.index, self.rng, self.stack, self.slot = index, rng, stack, slot
        self.n_nodes, self.splits = 1, []

    def tree(self, root_leaf: int) -> _Tree:
        feature = np.full(self.n_nodes, -1, dtype=np.int64)
        threshold = np.zeros(self.n_nodes)
        left = np.full(self.n_nodes, -1, dtype=np.int64)
        leaf = np.zeros(self.n_nodes, dtype=np.int64)
        leaf[0] = root_leaf
        if self.splits:
            node, feat, thr, child, leaf_l, leaf_r = map(np.array,
                                                         zip(*self.splits))
            feature[node], threshold[node], left[node] = feat, thr, child
            leaf[child], leaf[child + 1] = leaf_l, leaf_r
        return _Tree(feature, threshold, left, leaf)


class _Grower:
    """Grows a forest's trees in lockstep on the feature-major ``X``
    (features, rows).

    A tree in flight keeps its bootstrap in ``rows[slot]`` and
    ``copies[slot]``, each distinct row once with its number of copies,
    and each node on its stack owns a contiguous range of them. A stack
    entry is ``(node, start, stop, order)``; ``order`` is None
    until the node draws its feature order. A feature that is constant at
    the node, or has no midpoint strictly between two of its values there,
    moves to the back of the order as feature ``d``, a constant stand-in,
    so the node searches the next one instead.
    """

    def __init__(self, X: np.ndarray, codes: np.ndarray, n_classes: int,
                 cfg: ForestConfig):
        self.d, self.n = X.shape
        self.mtry = max(1, int(np.floor(np.sqrt(self.d))))
        self.n_classes, self.cfg, self.codes = n_classes, cfg, codes
        self.X = X.ravel()
        # a sort key packs (segment, value rank) above a position
        self.shift = max(self.n, _STEP_CELLS).bit_length()
        ranks = np.zeros((self.d + 1, self.n), dtype=np.int64)
        for f, col in enumerate(X):
            ranks[f] = np.unique(col, return_inverse=True)[1]
        self.ranks = (ranks << self.shift).ravel()
        slots = min(cfg.n_trees, _IN_FLIGHT)
        # row numbers and copy counts are below n, so n's type holds both
        self.rows = np.empty((slots, self.n), dtype=np.min_scalar_type(self.n))
        self.copies = np.empty_like(self.rows)

    def grow(self, by_class: list) -> list:
        n_trees, cells_per_row = self.cfg.n_trees, self.mtry * self.n_classes
        seeds = np.random.SeedSequence(self.cfg.seed).spawn(n_trees)
        # every bootstrap keeps the class sizes, so every root is mixed and
        # takes the largest class
        root_leaf = int(np.argmax([len(c) for c in by_class]))
        trees, flying = [None] * n_trees, []
        free, started = list(range(len(self.rows))), 0
        while True:
            for tr in [tr for tr in flying if not tr.stack]:
                flying.remove(tr)
                free.append(tr.slot)
                trees[tr.index] = tr.tree(root_leaf)
            while free and started < n_trees:
                rng = np.random.default_rng(seeds[started])
                slot = free.pop()
                boot = np.concatenate([
                    cls_idx[rng.integers(0, len(cls_idx), size=len(cls_idx))]
                    for cls_idx in by_class])
                copies = np.bincount(boot, minlength=self.n)
                distinct = np.flatnonzero(copies)
                self.rows[slot, :distinct.size] = distinct
                self.copies[slot, :distinct.size] = copies[distinct]
                flying.append(_Growing(started, rng,
                                       [(0, 0, distinct.size, None)], slot))
                started += 1
            if not flying:
                return trees
            batch, cells = [], 0
            for tr in flying:  # each still has a node to search
                node, start, stop, order = tr.stack[-1]
                need = (stop - start) * cells_per_row
                if batch and cells + need > _STEP_CELLS:
                    continue
                cells += need
                tr.stack.pop()
                if order is None:
                    order = tr.rng.permutation(self.d)
                batch.append((tr, node, start, stop, order))
            self.step(batch)  # the first tree always joins
            # a node too large to join others goes first before long
            flying.append(flying.pop(0))

    def step(self, batch: list) -> None:
        """Search and split one node of each tree in ``batch``."""
        n, C, mtry, shift = self.n, self.n_classes, self.mtry, self.shift
        trs, nodes, starts, stops, orders = zip(*batch)
        nn = len(batch)
        start = np.array(starts)
        size = np.array(stops) - start
        offs = np.zeros(nn + 1, dtype=np.intp)
        np.cumsum(size, out=offs[1:])
        M = int(offs[-1])
        base = np.array([tr.slot for tr in trs]) * n + start
        idx = np.repeat(base - offs[:-1], size) + np.arange(M)
        rows, copies = self.rows.ravel()[idx], self.copies.ravel()[idx]
        # segment c * nn + i holds node i's rows keyed by the value rank of
        # its c-th candidate feature; one sort orders every segment
        cand = np.array(orders)[:, :mtry].T
        seg = np.arange(mtry * nn).reshape(mtry, nn)
        key = np.repeat(cand * n, size, axis=1)
        key += rows
        key = self.ranks[key]
        key += np.repeat((seg * n) << shift, size, axis=1)
        key += np.arange(M)
        key = key.ravel()
        key.sort()
        at = key & ((1 << shift) - 1)  # position in ``rows``
        key >>= shift
        tie = key[1:] == key[:-1]
        del key
        seg_size = np.tile(size, mtry)
        seg_off = (offs[:-1] + M * np.arange(mtry)[:, None]).ravel()
        seg_end = seg_off + seg_size
        # running row and class counts through every segment
        w = copies[at]
        cw = np.zeros(at.size + 1)
        np.cumsum(w, dtype=cw.dtype, out=cw[1:])
        y = self.codes[rows[at]]
        cc = np.zeros((C, at.size + 1), dtype=np.int64)
        for c, counts in enumerate(cc):
            np.cumsum((y == c) * w, dtype=counts.dtype, out=counts[1:])
        del w, y
        # the weighted Gini of a split after every position, with a
        # one-node search's operands in its order: integer counts, sizes
        # as exact floats; a segment's last position splits nothing
        def sides(run):
            left = run[1:] - np.repeat(run[seg_off], seg_size)
            return left, np.repeat(run[seg_end] - run[seg_off], seg_size) - left

        n_left, n_right = sides(cw)
        n_right[seg_end - 1] = 1.0  # not 0: that position scores inf below
        if C == 2:
            l1, r1 = sides(cc[1])
            # n_side * gini_side == 2 * count0 * count1 / n_side
            score = (n_left - l1) * l1 / n_left
            score += (n_right - r1) * r1 / n_right
        else:
            left_sq = right_sq = 0
            for run in cc:
                lc, rc = sides(run)
                left_sq, right_sq = left_sq + lc * lc, right_sq + rc * rc
            score = (n_left - left_sq / n_left
                     + n_right - right_sq / n_right)
        # only a position whose next value differs can split
        np.copyto(score[:-1], np.inf, where=tie)
        score[seg_end - 1] = np.inf
        # each segment's first lowest split whose midpoint lies strictly
        # between its two values (adjacent floats can collapse it)
        fcol = np.minimum(cand.ravel(), self.d - 1) * n
        pos = np.arange(score.size)
        while True:
            low = np.minimum.reduceat(score, seg_off)
            best = np.minimum.reduceat(
                np.where(score == np.repeat(low, seg_size), pos, score.size),
                seg_off)
            lo = self.X[fcol + rows[at[best]]]
            hi = self.X[fcol + rows[at[np.minimum(best + 1, at.size - 1)]]]
            mid = (lo + hi) / 2.0
            bad = ~((lo < mid) & (mid < hi)) & (low < np.inf)
            if not bad.any():
                break
            score[best[bad]] = np.inf
        # each node's first lowest candidate; a node with a candidate left
        # without a split drops it and tries again next step
        low = low.reshape(mtry, nn)
        dead = (low == np.inf) & (cand < self.d)
        retry = dead.any(axis=0)
        for i in np.flatnonzero(retry):
            keep = ~np.isin(orders[i], cand[dead[:, i], i])
            again = np.append(orders[i][keep], np.full((~keep).sum(), self.d))
            trs[i].stack.append((nodes[i], starts[i], stops[i], again))
        win = low.argmin(axis=0)
        node_i = np.flatnonzero((low.min(axis=0) < np.inf) & ~retry)
        if node_i.size == 0:
            return
        win = win[node_i] * nn + node_i  # segment ids
        cut = best[win]
        n_split = cut - seg_off[win] + 1
        # the winning segments' sorted rows become their nodes' rows, so
        # each child's rows are a subrange, the left child's first
        wsize = size[node_i]
        wofs = np.cumsum(wsize) - wsize
        j = np.arange(wsize.sum())
        src = at[j + np.repeat(seg_off[win] - wofs, wsize)]
        dst = j + np.repeat(base[node_i] - wofs, wsize)
        self.rows.ravel()[dst] = rows[src]
        self.copies.ravel()[dst] = copies[src]
        counts = np.stack([cc[:, cut + 1] - cc[:, seg_off[win]],
                           cc[:, seg_end[win]] - cc[:, cut + 1]], axis=-1)
        leaf = counts.argmax(axis=0)  # (split, side)
        pure = counts.max(axis=0) == counts.sum(axis=0)
        for i, feat, thr, cut_at, (leaf_l, leaf_r), (pure_l, pure_r) in zip(
                node_i.tolist(), cand.ravel()[win].tolist(), mid[win].tolist(),
                (start[node_i] + n_split).tolist(), leaf.tolist(),
                pure.tolist()):
            tr = trs[i]
            left = tr.n_nodes
            tr.n_nodes += 2
            tr.splits.append((nodes[i], feat, thr, left, leaf_l, leaf_r))
            # the right child is pushed last, so it is grown first
            if not pure_l:
                tr.stack.append((left, starts[i], cut_at, None))
            if not pure_r:
                tr.stack.append((left + 1, cut_at, stops[i], None))


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
    X = _rows(X, "X")
    labels = _labels(labels, len(X))
    if X.shape[0] < 2:
        raise ValueError("need at least 2 samples")
    classes, codes = np.unique(labels, return_inverse=True)
    if len(classes) < 2:
        raise ValueError("need at least 2 classes")
    by_class = [np.nonzero(codes == c)[0] for c in range(len(classes))]
    trees = _Grower(np.ascontiguousarray(X.T), codes, len(classes),
                    cfg).grow(by_class)
    return Forest(trees=trees, classes=classes, n_features=X.shape[1])


def predict_proba(forest: Forest, X: np.ndarray) -> np.ndarray:
    """Per-class vote fractions, shape (n_samples, n_classes)."""
    X = _rows(X, "X", forest.n_features)
    votes = np.zeros((X.shape[0], forest.n_classes))
    for tree in forest.trees:
        votes[np.arange(X.shape[0]), tree.votes(X)] += 1.0
    return votes / len(forest.trees)


def predict_forest(forest: Forest, X: np.ndarray) -> np.ndarray:
    """Majority vote across trees; ties go to the lower class label."""
    frac = predict_proba(forest, X)
    return forest.classes[np.argmax(frac, axis=1)]
