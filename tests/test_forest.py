import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from sectes import forest as forest_mod
from sectes.forest import (Forest, ForestConfig, _Tree, fit_forest,
                           predict_forest, predict_proba)
from sectes.errors import ConfigError

from oracles import (gini, reference_trees, stack_walk_leaves,
                     stack_walk_votes)


def test_gini_reference_values():
    assert gini([5, 5]) == pytest.approx(0.5)
    assert gini([10, 0]) == 0.0
    assert gini([1, 1, 1, 1]) == pytest.approx(0.75)


def test_gini_bounds_and_zero_condition():
    rng = np.random.default_rng(0)
    for _ in range(100):
        counts = rng.integers(0, 20, size=rng.integers(2, 6))
        if counts.sum() == 0:
            continue
        g = gini(counts)
        assert 0.0 <= g < 1.0
        assert (g == 0.0) == ((counts > 0).sum() == 1)


def test_gini_rejects_empty():
    with pytest.raises(ValueError):
        gini([0, 0])


def test_unique_samples_reach_training_accuracy_one():
    rng = np.random.default_rng(1)
    X = rng.normal(size=(60, 4))
    y = rng.integers(0, 3, size=60)
    y[:3] = [0, 1, 2]  # make sure every class appears
    forest = fit_forest(X, y, ForestConfig(n_trees=30, seed=2))
    assert np.mean(predict_forest(forest, X) == y) == 1.0


def _blobs(rng, n=100, sep=6.0):
    a = rng.normal(0.0, 1.0, size=(n, 2))
    b = rng.normal(sep, 1.0, size=(n, 2))
    return np.vstack([a, b]), np.array([0] * n + [1] * n)


def test_blob_heldout_accuracy():
    rng = np.random.default_rng(3)
    X, y = _blobs(rng, n=100)
    forest = fit_forest(X, y, ForestConfig(n_trees=100, seed=4))
    Xt, yt = _blobs(rng, n=200)
    assert np.mean(predict_forest(forest, Xt) == yt) >= 0.95


def test_blob_probe_deep_inside_blob():
    rng = np.random.default_rng(5)
    X, y = _blobs(rng)
    forest = fit_forest(X, y, ForestConfig(n_trees=50, seed=6))
    assert predict_forest(forest, np.array([[0.0, 0.0]]))[0] == 0
    assert predict_forest(forest, np.array([[6.0, 6.0]]))[0] == 1


def test_determinism():
    rng = np.random.default_rng(7)
    X, y = _blobs(rng, n=50, sep=2.0)
    probe = rng.normal(1.0, 2.0, size=(80, 2))
    fits = [fit_forest(X, y, ForestConfig(n_trees=40, seed=s))
            for s in (8, 8, 9)]
    assert np.array_equal(predict_forest(fits[0], probe),
                          predict_forest(fits[1], probe))

    def nodes(forest):
        return [(t.feature.tolist(), t.threshold.tolist(), t.left.tolist(),
                 t.leaf.tolist()) for t in forest.trees]

    # predictions may coincide on easy data; the grown trees must not
    assert nodes(fits[0]) == nodes(fits[1]) != nodes(fits[2])


def _leaf_tree(cls):
    return _Tree(*map(np.asarray, ([-1], [0.0], [-1], [cls])))


def _tied_leaf_forest():
    """One tree grown on identical rows, two of each class: every
    bootstrap keeps the 2:2 tie, and no split separates the rows."""
    return fit_forest(np.zeros((4, 2)), np.array([7, 7, 2, 2]),
                      ForestConfig(n_trees=1, seed=3))


def test_tie_breaks_toward_lower_class():
    # two trees voting different classes: forest tie resolves to class 0
    forest = Forest(trees=[_leaf_tree(0), _leaf_tree(1)],
                    classes=np.array([0, 1]), n_features=2)
    assert predict_forest(forest, np.zeros((3, 2))).tolist() == [0, 0, 0]
    # leaf-majority tie inside a single grown tree also takes the lower class
    forest1 = _tied_leaf_forest()
    assert forest1.trees[0].feature.tolist() == [-1]
    assert predict_forest(forest1, np.zeros((1, 2)))[0] == 2


def test_single_tree_forest_equals_tree_majority():
    rng = np.random.default_rng(10)
    X, y = _blobs(rng, n=30)
    forest = fit_forest(X, y, ForestConfig(n_trees=1, seed=11))
    probe = rng.normal(3.0, 3.0, size=(40, 2))
    votes = forest.trees[0].votes(probe)
    assert np.array_equal(predict_forest(forest, probe), forest.classes[votes])


def test_duplicate_tree_keeps_decisive_predictions():
    rng = np.random.default_rng(12)
    X, y = _blobs(rng)
    forest = fit_forest(X, y, ForestConfig(n_trees=25, seed=13))
    probe = np.vstack([rng.normal(0, 1, size=(50, 2)),
                       rng.normal(6, 1, size=(50, 2))])
    before = predict_forest(forest, probe)
    bigger = Forest(trees=forest.trees + [forest.trees[0]],
                    classes=forest.classes, n_features=forest.n_features)
    assert np.array_equal(predict_forest(bigger, probe), before)


def test_predict_proba_is_vote_fraction():
    rng = np.random.default_rng(14)
    X, y = _blobs(rng, n=40, sep=3.0)
    forest = fit_forest(X, y, ForestConfig(n_trees=20, seed=15))
    probe = rng.normal(1.5, 2.0, size=(30, 2))
    frac = predict_proba(forest, probe)
    assert frac.shape == (30, 2)
    assert np.allclose(frac.sum(axis=1), 1.0)
    assert np.all((frac >= 0) & (frac <= 1))
    assert np.all(frac * 20 == np.round(frac * 20))  # integral vote counts


def test_thresholds_straddle_observed_values():
    rng = np.random.default_rng(16)
    X, y = _blobs(rng, n=60, sep=1.5)
    forest = fit_forest(X, y, ForestConfig(n_trees=10, seed=17))
    for tree in forest.trees:
        n_nodes = len(tree.feature)
        splits = np.flatnonzero(tree.feature >= 0)
        # every bootstrap row is a row of X, so a leaf no row of X reaches
        # would be one the grower left empty
        reached = set(stack_walk_leaves(tree, X).tolist())
        assert reached == set(np.flatnonzero(tree.feature < 0).tolist())
        # every allocated node but the root is some split's child
        children = np.concatenate([tree.left[splits], tree.left[splits] + 1])
        assert sorted(children.tolist()) == list(range(1, n_nodes))
        for node in range(n_nodes):
            f = tree.feature[node]
            if f < 0:
                assert 0 <= tree.leaf[node] < forest.n_classes
                continue
            thr = tree.threshold[node]
            col = X[:, f]
            assert (col < thr).any() and (col > thr).any()
            # both children come after their parent, right after left
            assert node < tree.left[node] < n_nodes - 1


def test_leaf_class_is_that_of_the_rows_routed_to_it():
    # 12 distinct points with mixed labels, each repeated 40 times: every
    # per-class bootstrap of 240 rows keeps every point (a point is missed
    # with odds (5/6)^240), so the rows a leaf was grown on are exactly
    # the rows of X routed to it, and all of them carry one label
    rng = np.random.default_rng(28)
    points = rng.normal(size=(12, 3))
    X = np.repeat(points, 40, axis=0)
    y = np.repeat(np.array([0, 1, 1, 0, 1, 0, 0, 1, 0, 1, 1, 0]), 40)
    forest = fit_forest(X, y, ForestConfig(n_trees=10, seed=29))
    for tree in forest.trees:
        ends = stack_walk_leaves(tree, X)
        leaves = np.flatnonzero(tree.feature < 0)
        assert set(ends.tolist()) == set(leaves.tolist())  # none empty
        for node in leaves:
            assert set(y[ends == node].tolist()) == {tree.leaf[node]}


def test_stratified_bootstrap_preserves_minority_class():
    # a 19:1 imbalance must still yield usable minority predictions
    rng = np.random.default_rng(18)
    X0 = rng.normal(0.0, 1.0, size=(380, 3))
    X1 = rng.normal(8.0, 1.0, size=(20, 3))
    X = np.vstack([X0, X1])
    y = np.array([0] * 380 + [1] * 20)
    forest = fit_forest(X, y, ForestConfig(n_trees=60, seed=19))
    probe = rng.normal(8.0, 0.5, size=(50, 3))
    assert np.mean(predict_forest(forest, probe) == 1) >= 0.9


def test_input_validation():
    X = np.ones((10, 2))
    with pytest.raises(ValueError):
        fit_forest(X, np.zeros(10, dtype=int), ForestConfig(n_trees=5))
    with pytest.raises(ValueError):
        fit_forest(np.ones((1, 2)), np.array([0]), ForestConfig(n_trees=5))
    rng = np.random.default_rng(20)
    Xb, yb = _blobs(rng, n=20)
    forest = fit_forest(Xb, yb, ForestConfig(n_trees=5, seed=21))
    with pytest.raises(ValueError):
        predict_forest(forest, np.ones((4, 7)))
    with pytest.raises(ConfigError):
        ForestConfig(n_trees=0)


def _forest_cases():
    rng = np.random.default_rng(24)
    Xb, yb = _blobs(rng, n=60, sep=1.5)
    Xm = rng.normal(size=(150, 4))
    ym = np.digitize(Xm[:, 0] + 0.5 * rng.normal(size=150), [-0.5, 0.5])
    return {
        "binary": (fit_forest(Xb, yb, ForestConfig(n_trees=15, seed=25)), 2),
        "multiclass": (fit_forest(Xm, ym, ForestConfig(n_trees=15, seed=26)),
                       4),
        "leaf_trees": (Forest(trees=[_leaf_tree(0), _leaf_tree(1),
                                     *_tied_leaf_forest().trees],
                              classes=np.array([0, 1]), n_features=4), 4),
    }


@pytest.mark.parametrize("case", ["binary", "multiclass", "leaf_trees"])
def test_votes_match_stack_walk(case):
    forest, d = _forest_cases()[case]
    rng = np.random.default_rng(28)
    # rows exactly on split thresholds test the <= rule
    on_split = np.repeat(np.asarray(forest.trees[0].threshold)[:, None], d, 1)
    probe = np.vstack([rng.normal(0.0, 3.0, size=(200, d)), on_split,
                       np.full((1, d), np.nan)])
    for tree in forest.trees:
        votes = tree.votes(probe)
        assert votes.dtype == np.int64
        assert np.array_equal(votes, stack_walk_votes(tree, probe))
    assert forest.trees[0].votes(np.empty((0, d))).shape == (0,)


def assert_reference_trees(forest, X, y, cfg):
    """The forest's trees equal, node for node and in dtype, the ones the
    one-node-one-feature reference grower makes."""
    want = reference_trees(X, y, cfg)
    assert len(forest.trees) == len(want)
    for got, ref in zip(forest.trees, want):
        for name in ("feature", "threshold", "left", "leaf"):
            a, b = getattr(got, name), getattr(ref, name)
            assert a.dtype == b.dtype, name
            assert np.array_equal(a, b), name


@st.composite
def tied_data(draw):
    """Integer-valued columns, so values tie, with 2-5 classes."""
    n = draw(st.integers(5, 60))
    n_classes = draw(st.integers(2, 5))
    X = draw(arrays(np.int64, (n, draw(st.integers(1, 6))),
                    elements=st.integers(-3, 3))).astype(np.float64)
    y = draw(arrays(np.int64, n, elements=st.integers(0, n_classes - 1)))
    y[:n_classes] = np.arange(n_classes)  # every class appears
    cfg = ForestConfig(n_trees=draw(st.integers(1, 5)),
                       seed=draw(st.integers(0, 2 ** 32 - 1)))
    return X, y, cfg


@settings(max_examples=150, deadline=None)
@given(tied_data())
def test_lockstep_trees_equal_the_reference_grower(case):
    X, y, cfg = case
    assert_reference_trees(fit_forest(X, y, cfg), X, y, cfg)


def _orders_searched(monkeypatch) -> list:
    """Records the feature order of every node each grower step takes."""
    seen = []
    real = forest_mod._Grower.step

    def step(self, batch):
        seen.extend(entry[-1] for entry in batch)
        return real(self, batch)

    monkeypatch.setattr(forest_mod._Grower, "step", step)
    return seen


def test_constant_feature_does_not_use_up_mtry(monkeypatch):
    # 4 features give mtry 2, and column 0 is constant: a node that draws
    # it among its first two searches the next feature instead
    rng = np.random.default_rng(30)
    X = rng.normal(size=(80, 4))
    X[:, 0] = 1.5
    y = (X[:, 1] + X[:, 2] > 0).astype(int)
    cfg = ForestConfig(n_trees=8, seed=31)
    seen = _orders_searched(monkeypatch)
    forest = fit_forest(X, y, cfg)
    # a node moved column 0 behind the others (as feature d) and came back
    assert any((order == 4).any() for order in seen)
    assert_reference_trees(forest, X, y, cfg)
    assert all((tree.feature != 0).all() for tree in forest.trees)


V, V_NEXT = 1.0, np.nextafter(1.0, np.inf)


def test_collapsed_midpoint_falls_back_to_the_next_best_split():
    assert (V + V_NEXT) / 2.0 in (V, V_NEXT)  # no float between them
    X = np.repeat([0.0, V, V_NEXT, 2.0], 10)[:, None]
    y = np.repeat([0, 0, 1, 1], 10)
    cfg = ForestConfig(n_trees=5, seed=32)
    forest = fit_forest(X, y, cfg)
    assert_reference_trees(forest, X, y, cfg)
    for tree in forest.trees:
        # a split between V and V_NEXT leaves both sides pure, the lowest
        # score there is; its midpoint collapses, so the root takes one of
        # the two others
        assert tree.feature[0] == 0
        assert tree.threshold[0] in (V / 2.0, (V_NEXT + 2.0) / 2.0)


def test_feature_without_any_midpoint_is_skipped(monkeypatch):
    # column 0 separates the classes but takes only V and V_NEXT; with
    # 2 features (mtry 1) a node that draws it searches column 1 instead
    rng = np.random.default_rng(33)
    y = np.repeat([0, 1], 30)
    X = np.column_stack([np.where(y == 0, V, V_NEXT),
                         rng.normal(size=60) + y])
    cfg = ForestConfig(n_trees=6, seed=34)
    seen = _orders_searched(monkeypatch)
    forest = fit_forest(X, y, cfg)
    assert any((order == 2).any() for order in seen)
    assert_reference_trees(forest, X, y, cfg)
    assert all((tree.feature != 0).all() for tree in forest.trees)


def test_non_finite_features_are_rejected():
    y = np.array([0, 1] * 3)
    X = np.arange(12.0).reshape(6, 2)
    bad = X.copy()
    bad[1, 0], bad[4, 1] = np.nan, np.inf
    with pytest.raises(ValueError, match="X must be finite"):
        fit_forest(bad, y, ForestConfig(n_trees=2))
    forest = fit_forest(X, y, ForestConfig(n_trees=2))
    with pytest.raises(ValueError, match="X must be finite"):
        predict_proba(forest, np.array([[0.0, -np.inf], [1.0, 2.0]]))


def test_labels_must_be_a_vector():
    # a column of labels once reached the grower and broke a broadcast
    y = np.array([0, 1] * 4)
    with pytest.raises(ValueError,
                       match=r"labels have shape \(8, 1\), not \(8,\)"):
        fit_forest(np.arange(16.0).reshape(8, 2), y[:, None],
                   ForestConfig(n_trees=2))


def _peer_shape_data():
    """The inverse-validation shape: 3,200 peer rows against 800 real
    rows, 6 features."""
    rng = np.random.default_rng(0)
    X = np.vstack([rng.normal(0.0, 1.0, (3200, 6)),
                   rng.normal(1.5, 1.0, (800, 6))])
    return X, np.repeat([0, 1], [3200, 800])


def _classifier_shape_data():
    """The validation-classifier shape: 600 rows, 6 features, 5 groups."""
    rng = np.random.default_rng(1)
    y = np.repeat(np.arange(5), 120)
    return rng.normal(size=(600, 6)) + 0.8 * y[:, None], y


# Peaks of 100-tree fits measured under tracemalloc (numpy 2.4): 2.5-2.8 MB
# and 1.2 MB, of which the returned forests hold 0.9 and 0.8 MB; one tree
# at a time, node by node, the grower peaked at 2.0 and 1.1 MB.
@pytest.mark.parametrize("data,bound_mb", [(_peer_shape_data, 3.2),
                                           (_classifier_shape_data, 1.5)])
def test_fit_peak_memory_stays_bounded(data, bound_mb):
    X, y = data()
    tracemalloc.start()
    try:
        fit_forest(X, y, ForestConfig(n_trees=100, seed=3))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < bound_mb * 1e6
