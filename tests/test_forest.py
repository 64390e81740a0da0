import numpy as np
import pytest

from sectes.forest import (Forest, ForestConfig, _Tree, fit_forest, gini,
                           predict_forest, predict_proba)
from sectes.errors import ConfigError

from oracles import stack_walk_votes


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
                 t.right.tolist()) for t in forest.trees]

    # predictions may coincide on easy data; the grown trees must not
    assert nodes(fits[0]) == nodes(fits[1]) != nodes(fits[2])


def _leaf_tree(counts):
    return _Tree(*map(np.asarray, ([-1], [0.0], [-1], [-1], [counts])))


def test_tie_breaks_toward_lower_class():
    # two trees voting different classes: forest tie resolves to class 0
    forest = Forest(trees=[_leaf_tree([5, 1]), _leaf_tree([1, 5])],
                    classes=np.array([0, 1]), n_features=2)
    assert predict_forest(forest, np.zeros((3, 2))).tolist() == [0, 0, 0]
    # leaf-majority tie inside a single tree also takes the lower class
    forest1 = Forest(trees=[_leaf_tree([4, 4])], classes=np.array([0, 1]),
                     n_features=2)
    assert predict_forest(forest1, np.zeros((1, 2)))[0] == 0


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
        for node in range(len(tree.feature)):
            f = tree.feature[node]
            if f < 0:
                assert tree.counts[node] is not None
                assert tree.counts[node].sum() >= 1
                continue
            thr = tree.threshold[node]
            col = X[:, f]
            assert (col < thr).any() and (col > thr).any()
            assert tree.left[node] >= 0 and tree.right[node] >= 0


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
    with pytest.raises(ConfigError):
        ForestConfig(min_samples_split=1)


def test_max_depth_limits_tree():
    rng = np.random.default_rng(22)
    X, y = _blobs(rng, n=80, sep=1.0)
    forest = fit_forest(X, y, ForestConfig(n_trees=5, max_depth=2, seed=23))
    for tree in forest.trees:
        # depth 2 allows at most 7 nodes
        assert len(tree.feature) <= 7


def _forest_cases():
    rng = np.random.default_rng(24)
    Xb, yb = _blobs(rng, n=60, sep=1.5)
    Xm = rng.normal(size=(150, 4))
    ym = np.digitize(Xm[:, 0] + 0.5 * rng.normal(size=150), [-0.5, 0.5])
    return {
        "binary": (fit_forest(Xb, yb, ForestConfig(n_trees=15, seed=25)), 2),
        "multiclass": (fit_forest(Xm, ym, ForestConfig(n_trees=15, seed=26)),
                       4),
        "max_depth": (fit_forest(Xm, ym, ForestConfig(n_trees=15, max_depth=2,
                                                      seed=27)), 4),
        "leaf_trees": (Forest(trees=[_leaf_tree([5, 1]), _leaf_tree([1, 5]),
                                     _leaf_tree([4, 4])],
                              classes=np.array([0, 1]), n_features=4), 4),
    }


@pytest.mark.parametrize("case", ["binary", "multiclass", "max_depth",
                                  "leaf_trees"])
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
