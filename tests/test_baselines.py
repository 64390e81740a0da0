import numpy as np
import pytest

from sectes.baselines import grnn_fit, grnn_predict, pls_fit, pls_predict
from sectes.datagen import (GpSimConfig, SimConfig, gen_multivariate_dataset,
                            gen_scalar_to_matrix_dataset)
from sectes.errors import ConfigError

from oracles import nipals_pls


def test_pls_exact_on_scalar_linear_map():
    X = np.linspace(-1, 1, 20)[:, None]
    Y = 2.0 * X
    model = pls_fit(X, Y, components=1)
    assert np.max(np.abs(pls_predict(model, X) - Y)) <= 1e-9


def test_pls_full_components_match_least_squares():
    rng = np.random.default_rng(0)
    X = rng.normal(size=(60, 4))
    B = rng.normal(size=(4, 3))
    Y = X @ B
    model = pls_fit(X, Y, components=4)
    # normal-equation oracle on centered data
    Xc = X - X.mean(axis=0)
    Yc = Y - Y.mean(axis=0)
    B_ols = np.linalg.solve(Xc.T @ Xc, Xc.T @ Yc)
    probe = rng.normal(size=(25, 4))
    want = Y.mean(axis=0) + (probe - X.mean(axis=0)) @ B_ols
    assert np.max(np.abs(pls_predict(model, probe) - want)) <= 1e-6


def test_pls_prediction_at_mean_is_mean():
    rng = np.random.default_rng(1)
    X = rng.normal(size=(30, 3))
    Y = rng.normal(size=(30, 2))
    model = pls_fit(X, Y, components=2)
    assert np.allclose(pls_predict(model, X.mean(axis=0)), Y.mean(axis=0),
                       atol=1e-10)


def test_pls_prediction_is_affine():
    rng = np.random.default_rng(2)
    X = rng.normal(size=(40, 3))
    Y = rng.normal(size=(40, 4))
    model = pls_fit(X, Y, components=2)
    x1, x2 = rng.normal(size=3), rng.normal(size=3)
    y1, y2 = pls_predict(model, x1), pls_predict(model, x2)
    for a in (0.0, 0.3, 1.0, 1.7, -0.5):
        blended = pls_predict(model, a * x1 + (1 - a) * x2)
        assert np.max(np.abs(blended - (a * y1 + (1 - a) * y2))) <= 1e-12


def test_pls_validation_errors():
    X = np.ones((10, 2))  # zero variance
    Y = np.random.default_rng(3).normal(size=(10, 2))
    with pytest.raises(ValueError):
        pls_fit(X, Y, components=1)
    Xr = np.random.default_rng(4).normal(size=(10, 2))
    with pytest.raises(ConfigError):
        pls_fit(Xr, Y, components=0)
    with pytest.raises(ConfigError):
        pls_fit(Xr, Y, components=3)  # > m


def _orthogonal_columns_with_y_in_span():
    # centered, orthogonal, equal-norm columns: X'X = 4I, so the first
    # weight vector is parallel to b and one component explains y exactly
    X = np.array([[1.0, 1.0], [1.0, -1.0], [-1.0, 1.0], [-1.0, -1.0]])
    return X, X @ np.array([[2.0], [-0.5]])


@pytest.mark.parametrize("case", ["multivariate", "scalar_to_matrix",
                                  "y_deflates"])
def test_pls_matches_nipals_oracle(case):
    if case == "multivariate":
        ds = gen_multivariate_dataset(SimConfig(sigma=0.07, groups=3,
                                                samples_per_group=40, seed=1))
        X, Y = ds.x, ds.y
    elif case == "scalar_to_matrix":
        ds = gen_scalar_to_matrix_dataset(GpSimConfig(
            images_per_category=8, categories=2, seed=2))
        X, Y = ds.x, ds.y
    else:
        X, Y = _orthogonal_columns_with_y_in_span()
    model = pls_fit(X, Y, components=2)
    coef, fitted = nipals_pls(X, Y, 2)
    assert model.n_components == fitted == (1 if case == "y_deflates" else 2)
    assert model.coef.shape == (X.shape[1], Y.shape[1])
    assert (np.abs(model.coef - coef).max()
            <= 1e-9 * np.abs(coef).max())


def test_grnn_single_pair_returns_its_target():
    model = grnn_fit(np.array([[1.0, 2.0]]), np.array([[5.0, 6.0, 7.0]]),
                     bandwidth=0.5)
    for probe in ([0.0, 0.0], [100.0, -3.0], [1.0, 2.0]):
        assert np.allclose(grnn_predict(model, np.array(probe)), [5.0, 6.0, 7.0])


@pytest.mark.parametrize("bandwidth", [10.0, 1.0, 1e-3, 1e-6])
def test_grnn_equidistant_probe_averages_targets(bandwidth):
    X = np.array([[-1.0, 0.0], [1.0, 0.0]])
    Y = np.array([[2.0], [6.0]])
    model = grnn_fit(X, Y, bandwidth=bandwidth)
    assert grnn_predict(model, np.array([0.0, 0.0]))[0] == pytest.approx(4.0)


def test_grnn_tiny_bandwidth_matches_nearest_neighbor():
    rng = np.random.default_rng(5)
    X = rng.normal(size=(50, 3))
    Y = rng.normal(size=(50, 2))
    model = grnn_fit(X, Y, bandwidth=1e-6)
    probes = rng.normal(size=(40, 3))
    for p in probes:
        nn = int(np.argmin(((X - p) ** 2).sum(axis=1)))
        assert np.allclose(grnn_predict(model, p), Y[nn])


def test_grnn_underflowing_bandwidth_falls_back_to_nearest_neighbor():
    # b**2 underflows to zero, so every Gaussian weight is NaN: probes on
    # and off the training points take their nearest neighbor's target
    model = grnn_fit(np.array([[0.0], [1.0], [3.0]]),
                     np.array([[1.0], [2.0], [3.0]]), bandwidth=1e-200)
    with np.errstate(divide="ignore", invalid="ignore"):
        pred = grnn_predict(model, np.array([[0.9], [3.0], [0.2]]))
    assert pred.ravel().tolist() == [2.0, 3.0, 1.0]


def test_grnn_output_is_convex_combination():
    rng = np.random.default_rng(6)
    X = rng.normal(size=(30, 2))
    Y = rng.normal(size=(30, 4))
    model = grnn_fit(X, Y)
    preds = grnn_predict(model, rng.normal(size=(20, 2)))
    lo, hi = Y.min(axis=0), Y.max(axis=0)
    assert np.all(preds >= lo - 1e-12) and np.all(preds <= hi + 1e-12)


def test_grnn_default_bandwidth_is_median_distance():
    X = np.array([[0.0], [1.0], [3.0]])
    Y = np.zeros((3, 1))
    model = grnn_fit(X, Y)
    # pairwise distances 1, 3, 2 -> median 2
    assert model.bandwidth == pytest.approx(2.0)


def test_grnn_validation():
    with pytest.raises(ValueError):
        grnn_fit(np.empty((0, 2)), np.empty((0, 1)))
    with pytest.raises(ConfigError):
        grnn_fit(np.ones((2, 1)), np.ones((2, 1)), bandwidth=-1.0)
