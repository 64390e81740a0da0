import math

import numpy as np
import pytest

from sectes.datagen import (GpSimConfig, PairedDataset, SimConfig,
                            expression_transform, gen_multivariate_dataset,
                            gen_scalar_to_matrix_dataset, gp_sample,
                            low_pass_filter, quantile_discretize,
                            read_dataset_csv, write_dataset_csv)
from sectes.errors import ConfigError


def test_expression_transform_at_origin():
    y = expression_transform(0.0, 0.0, np.zeros(6))
    assert np.array_equal(y, [1.0, 0.0, 0.0, 0.0, 0.0, 0.0])


def test_expression_transform_reference_point():
    # frozen from direct evaluation of the generating formulas at (0.2, 0.2)
    y = expression_transform(0.2, 0.2, np.zeros(6))
    expected = [0.923116, 0.073849, 0.002954, 0.04, 0.04, 0.04]
    assert np.allclose(y, expected, atol=1e-6)


def test_expression_transform_zero_noise_identities():
    rng = np.random.default_rng(1)
    for _ in range(200):
        x1, x2 = rng.uniform(-1.5, 1.5, size=2)
        y = expression_transform(x1, x2, np.zeros(6))
        assert y[1] == 2.0 * y[5] * y[0]  # bitwise: same op order
        assert y[3] * y[4] == pytest.approx(y[5] ** 2, rel=1e-14, abs=1e-300)


def test_expression_transform_uses_per_coordinate_noise():
    eps = np.array([0.0, 0.0, 0.0, 0.1, 0.0, 0.0])
    y = expression_transform(0.5, 0.5, eps)
    assert y[3] == pytest.approx(0.36)  # (0.5 + 0.1)^2
    assert y[4] == pytest.approx(0.25)


def test_multivariate_dataset_dimensions():
    ds = gen_multivariate_dataset(SimConfig(sigma=0.05, seed=0))
    assert ds.n_samples == 1000
    assert ds.char_dim == 2
    assert ds.expr_dim == 6
    assert ds.n_groups == 5
    assert sorted(np.unique(ds.groups)) == [1, 2, 3, 4, 5]
    assert all((ds.groups == g).sum() == 200 for g in range(1, 6))


def test_multivariate_group_means():
    sigma = 0.05
    ds = gen_multivariate_dataset(SimConfig(sigma=sigma, seed=3))
    x1 = ds.x[ds.groups == 3, 0]
    assert abs(x1.mean() - 0.6) <= 4 * sigma / math.sqrt(200)


def test_multivariate_overlap_grows_with_sigma():
    def overlap(sigma):
        ds = gen_multivariate_dataset(SimConfig(sigma=sigma, seed=11))
        means = np.array([[0.2 * g, 0.2 * g] for g in range(1, 6)])
        d = np.linalg.norm(ds.x[:, None, :] - means[None, :, :], axis=2)
        nearest = np.argmin(d, axis=1) + 1
        return float(np.mean(nearest != ds.groups))

    assert overlap(0.01) < overlap(0.09)


def test_multivariate_deterministic():
    a = gen_multivariate_dataset(SimConfig(sigma=0.03, seed=9))
    b = gen_multivariate_dataset(SimConfig(sigma=0.03, seed=9))
    assert np.array_equal(a.x, b.x) and np.array_equal(a.y, b.y)
    c = gen_multivariate_dataset(SimConfig(sigma=0.03, seed=10))
    assert not np.array_equal(a.x, c.x)


def test_sim_config_validation():
    with pytest.raises(ConfigError):
        SimConfig(sigma=0.0)
    with pytest.raises(ConfigError):
        SimConfig(sigma=1.5)
    with pytest.raises(ConfigError):
        SimConfig(samples_per_group=0)


def test_gp_sample_pixel_variance():
    cfg = GpSimConfig(grid=6, seed=0)
    rng = np.random.default_rng(0)
    draws = np.stack([gp_sample(cfg, 1, rng) for _ in range(10_000)])
    var = draws.var(axis=0)
    assert var.min() >= 0.9 and var.max() <= 1.1


@pytest.mark.parametrize("l", [1, 3])
def test_gp_adjacent_pixel_correlation(l):
    cfg = GpSimConfig(grid=6, seed=0)
    rng = np.random.default_rng(l)
    draws = np.stack([gp_sample(cfg, l, rng) for _ in range(10_000)])
    flat_a = draws[:, :, :-1].reshape(len(draws), -1)
    flat_b = draws[:, :, 1:].reshape(len(draws), -1)
    corrs = [np.corrcoef(flat_a[:, j], flat_b[:, j])[0, 1]
             for j in range(flat_a.shape[1])]
    assert abs(np.mean(corrs) - math.exp(-1.0 / (2 * l))) <= 0.03


def test_gp_smoothness_increases_with_length_scale():
    cfg = GpSimConfig(grid=8, seed=0)
    roughness = []
    for l in range(1, 6):
        rng = np.random.default_rng(100 + l)
        ms = [np.mean(np.diff(gp_sample(cfg, l, rng), axis=1) ** 2)
              for _ in range(200)]
        roughness.append(np.mean(ms))
    assert all(roughness[i] > roughness[i + 1] for i in range(4))


def test_gp_kronecker_matches_dense_kernel():
    grid, l, n_draws = 4, 2, 20_000
    cfg = GpSimConfig(grid=grid, seed=0)
    rng = np.random.default_rng(7)
    draws = np.stack([gp_sample(cfg, l, rng).ravel() for _ in range(n_draws)])
    emp = np.cov(draws.T)
    idx = np.arange(grid)
    k1 = np.exp(-((idx[:, None] - idx[None, :]) ** 2) / (2.0 * l))
    dense = np.kron(k1, k1)
    rel = np.linalg.norm(emp - dense) / np.linalg.norm(dense)
    assert rel <= 0.12


def test_scalar_to_matrix_dataset():
    cfg = GpSimConfig(grid=8, images_per_category=16, categories=5,
                      char_dim=64, seed=1)
    ds = gen_scalar_to_matrix_dataset(cfg)
    assert ds.n_samples == 80
    assert ds.char_dim == 64
    assert ds.expr_dim == 64  # 8x8 flattened
    assert ds.expr_shape == (8, 8)
    # category 2, coordinate q=10: mean 20*2 + 10/10 = 41
    v = ds.x[ds.groups == 2, 9]
    assert abs(v.mean() - 41.0) <= 4.0 / math.sqrt(16)


def test_quantile_discretize_uniform():
    bins = quantile_discretize(np.arange(1, 13, dtype=float), 6)
    counts = np.bincount(bins, minlength=6)
    assert np.array_equal(counts, [2, 2, 2, 2, 2, 2])


def test_quantile_discretize_thirteen_values():
    bins = quantile_discretize(np.arange(1, 14, dtype=float), 6)
    counts = np.bincount(bins, minlength=6)
    assert set(counts) <= {2, 3}
    assert counts.sum() == 13


def test_quantile_discretize_constant_warns():
    with pytest.warns(UserWarning):
        bins = quantile_discretize(np.full(10, 3.3), 6)
    assert np.all(bins == 0)


def test_quantile_discretize_validation():
    with pytest.raises(ValueError):
        quantile_discretize(np.array([]), 6)
    with pytest.raises(ValueError):
        quantile_discretize(np.ones(5), 1)


def test_low_pass_constant_unchanged():
    img = np.full((5, 7), 2.5)
    assert np.allclose(low_pass_filter(img), img, atol=1e-15)


def test_low_pass_impulse():
    img = np.zeros((5, 5))
    img[2, 2] = 1.0
    out = low_pass_filter(img)
    assert np.allclose(out[1:4, 1:4], 1.0 / 9.0)
    assert out[0, 0] == 0.0
    assert out.sum() == pytest.approx(1.0)


def test_low_pass_contracts_energy():
    rng = np.random.default_rng(4)
    for _ in range(20):
        img = rng.normal(size=(12, 12))
        img -= img.mean()
        assert np.sum(low_pass_filter(img) ** 2) <= np.sum(img ** 2)


def test_csv_round_trip_vector():
    ds = gen_multivariate_dataset(SimConfig(sigma=0.05, samples_per_group=7,
                                            seed=5))
    path = "/tmp/sectes_test_vec.csv"
    write_dataset_csv(ds, path)
    back = read_dataset_csv(path)
    assert np.array_equal(back.x, ds.x)
    assert np.array_equal(back.y, ds.y)
    assert np.array_equal(back.groups, ds.groups)
    assert back.expr_shape is None


def test_csv_round_trip_images_and_outcome():
    cfg = GpSimConfig(grid=4, images_per_category=3, categories=2,
                      char_dim=5, seed=2)
    ds = gen_scalar_to_matrix_dataset(cfg)
    ds.outcome = np.arange(ds.n_samples) % 2
    path = "/tmp/sectes_test_img.csv"
    write_dataset_csv(ds, path)
    back = read_dataset_csv(path)
    assert back.expr_shape == (4, 4)
    assert np.array_equal(back.y, ds.y)
    assert np.array_equal(back.outcome, ds.outcome)


def test_paired_dataset_invariants():
    with pytest.raises(ValueError):
        PairedDataset(x=np.ones((3, 2)), y=np.ones((4, 2)),
                      groups=np.ones(3, int), n_groups=1)
    with pytest.raises(ValueError):
        PairedDataset(x=np.ones((3, 2)), y=np.ones((3, 2)),
                      groups=np.array([0, 1, 1]), n_groups=1)
    with pytest.raises(ValueError):
        PairedDataset(x=np.ones((3, 2)), y=np.ones((3, 4)),
                      groups=np.ones(3, int), n_groups=1, expr_shape=(3, 3))
