"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Criteria 1-3 exercise the full selective-ensemble pipeline at the
published settings (mismatch weight 0.9, batch 50, 1000 iterations, k=5,
h=2) and judge statistical reproduction; the remainder are exact or
tightly-bounded property checks. Run with ``pytest tests/test_acceptance.py
-v -s`` to see the per-criterion lines.
"""

import math
import time
import warnings

import numpy as np
import pytest

from sectes import ndnet
from sectes.baselines import grnn_fit, grnn_predict, pls_fit, pls_predict
from sectes.cli import build_config, run_suite, stable_seed
from sectes.ctes import (TrainConfig, synthesize_each, toy_minimax_oracle)
from sectes.datagen import (GpSimConfig, PairedDataset, SimConfig,
                            expression_transform, gen_multivariate_dataset,
                            gp_sample)
from sectes.ensemble import (EnsembleConfig, ensemble_synthesize,
                             inverse_validation_scores, select_top_h,
                             train_se_ctes)
from sectes.forest import ForestConfig, fit_forest, predict_forest
from sectes.validation import identify_group_experiment

from oracles import (fd_grads, loss_and_grads, max_grad_rel_error,
                     min_preactivation)

MASTER = 20240817


def report(num, name, passed, detail):
    state = "PASS" if passed else "FAIL"
    print(f"\nACCEPTANCE {num:2d} {state} - {name}: {detail}")


def se_trial(sigma, group, trial):
    ds = gen_multivariate_dataset(SimConfig(
        sigma=sigma, seed=stable_seed(MASTER, "data", sigma, trial)))
    return identify_group_experiment(
        ds, group, "se-ctes", seed=stable_seed(MASTER, "se-ctes", sigma,
                                               group, trial),
        sigma=sigma, trial=trial)


@pytest.fixture(scope="module")
def runs_sigma_001():
    started = time.perf_counter()
    runs = [se_trial(0.01, 4, t) for t in range(3)]
    return runs, time.perf_counter() - started


@pytest.fixture(scope="module")
def runs_sigma_009():
    return [se_trial(0.09, 4, t) for t in range(3)]


def test_criterion_1_easy_regime_reproduction(runs_sigma_001):
    runs, elapsed = runs_sigma_001
    hits = sum(1 for r in runs if r.a1 >= 0.90 and r.a2 >= 0.99)
    a1s = [round(r.a1, 3) for r in runs]
    a2s = [round(r.a2, 3) for r in runs]
    passed = hits >= 2
    report(1, "easy-regime reproduction (sigma=0.01, group 4)", passed,
           f"A1={a1s} A2={a2s}, {hits}/3 trials hit A1>=0.90 & A2>=0.99 "
           f"in {elapsed:.0f}s (budget 600s)")
    assert passed


def test_criterion_2_difficulty_trend(runs_sigma_001, runs_sigma_009):
    easy = float(np.mean([r.a1 for r in runs_sigma_001[0]]))
    hard = float(np.mean([r.a1 for r in runs_sigma_009]))
    passed = easy > hard
    report(2, "difficulty trend (sigma 0.01 vs 0.09)", passed,
           f"mean A1 {easy:.3f} vs {hard:.3f}")
    assert passed


def test_criterion_3_group_difficulty_ordering_soft():
    means = {}
    for group in (4, 2):
        runs = [se_trial(0.05, group, t) for t in range(5)]
        means[group] = float(np.mean([r.a1 for r in runs]))
        assert all(0.0 <= r.a1 <= 1.0 and 0.0 <= r.a2 <= 1.0 for r in runs)
    ordered = means[4] > means[2]
    note = "ordering held" if ordered else (
        "ordering inverted, as the published sigma=0.05 row itself is; "
        "reported, not fatal")
    report(3, "group-difficulty ordering at sigma=0.05 (soft)", True,
           f"mean A1: group4={means[4]:.3f} group2={means[2]:.3f}; {note}")


def _random_pmf(rng, size):
    cuts = np.sort(rng.uniform(size=size - 1))
    return np.diff(np.concatenate([[0.0], cuts, [1.0]]))


def test_criterion_4_minimax_theory_oracle():
    rng = np.random.default_rng(4)
    floor = -math.log(4.0)
    worst_bound = np.inf
    for _ in range(1000):
        size = int(rng.integers(2, 11))
        p_data = _random_pmf(rng, size)
        p_g = _random_pmf(rng, size)
        p_prime = _random_pmf(rng, size)
        beta = float(rng.uniform())
        _, value = toy_minimax_oracle(p_data, p_g, p_prime, beta)
        assert value >= floor - 1e-9
        worst_bound = min(worst_bound, value - floor)
        mix = beta * p_g + (1 - beta) * p_prime
        if np.abs(mix - p_data).sum() > 0.02:
            assert value > floor + 1e-9
    worst_eq = 0.0
    for _ in range(1000):
        size = int(rng.integers(2, 11))
        p_g = _random_pmf(rng, size)
        p_prime = _random_pmf(rng, size)
        beta = float(rng.uniform())
        p_data = beta * p_g + (1 - beta) * p_prime  # mixture holds exactly
        _, value = toy_minimax_oracle(p_data, p_g, p_prime, beta)
        worst_eq = max(worst_eq, abs(value - floor))
    passed = worst_eq <= 1e-9
    report(4, "minimax value floor -log(4)", passed,
           f"1000 random triples >= floor (min gap {worst_bound:.2e}); "
           f"1000 constructed mixtures |V+log4| <= {worst_eq:.2e}")
    assert passed


def test_criterion_5_mixture_mean_property():
    rng = np.random.default_rng(5)
    x = rng.uniform(0, 1, size=(120, 1))
    y = np.hstack([x + 0.05 * rng.standard_normal((120, 1)),
                   1.5 * x + 0.05 * rng.standard_normal((120, 1))])
    ds = PairedDataset(x=x, y=y, groups=np.ones(120, int), n_groups=1)
    ens = train_se_ctes(ds, EnsembleConfig(
        k=5, h=2, train=TrainConfig(iterations=250, batch_size=20),
        clf=ForestConfig(n_trees=30), seed=55))
    probe = np.array([[0.5]])
    draws = 10_000
    pooled = ensemble_synthesize(ens, np.repeat(probe, draws, 0),
                                 rng=np.random.default_rng(1), jitter=0.0)
    member_means, member_vars = [], []
    for i in ens.selected:
        d = synthesize_each(ens.models[i], np.repeat(probe, draws, 0),
                            rng=np.random.default_rng(100 + i), jitter=0.0)
        member_means.append(d.mean(axis=0))
        member_vars.append(d.var(axis=0))
    target = np.mean(member_means, axis=0)
    h = len(ens.selected)
    se = np.sqrt(pooled.var(axis=0) / draws
                 + np.sum(member_vars, axis=0) / (h * h * draws))
    gap = np.abs(pooled.mean(axis=0) - target)
    passed = bool(np.all(gap <= 3 * se + 1e-12))
    report(5, "ensemble mixture mean matches member means", passed,
           f"per-feature gap {np.round(gap, 5).tolist()} vs 3*SE "
           f"{np.round(3 * se, 5).tolist()} over {draws} draws")
    assert passed


def _dense_instance(rng):
    sizes = [int(rng.integers(2, 6)) for _ in range(3)]
    acts = [str(rng.choice(["relu", "sigmoid", "none"])) for _ in range(2)]
    spec = [ndnet.dense(sizes[0], sizes[1], acts[0]),
            ndnet.dense(sizes[1], sizes[2], acts[1])]
    x_shape = (3, sizes[0])
    return spec, x_shape


def _conv_instance(rng):
    kind = rng.choice(["conv2d", "deconv2d"])
    ci, co = int(rng.integers(1, 4)), int(rng.integers(1, 4))
    kernel = int(rng.integers(2, 5))
    stride = int(rng.integers(1, 3))
    padding = int(rng.integers(0, 2))
    act = str(rng.choice(["relu", "sigmoid", "none"]))
    fn = ndnet.conv2d if kind == "conv2d" else ndnet.deconv2d
    spec = [fn(ci, co, kernel=kernel, stride=stride, padding=padding,
               activation=act)]
    return spec, (2, ci, 6, 6)


def test_criterion_6_gradient_suite():
    rng = np.random.default_rng(6)
    worst = 0.0
    checked = 0
    while checked < 100:
        make = _dense_instance if checked % 5 < 3 else _conv_instance
        try:
            spec, x_shape = make(rng)
        except ValueError:
            continue
        seed = int(rng.integers(2 ** 31))
        params = ndnet.init_params(spec, seed)
        x = np.random.default_rng(seed + 1).normal(size=x_shape)
        try:
            if min_preactivation(params, x) < 1e-3:
                continue
        except ValueError:
            continue  # geometry collapsed the spatial dims
        trace = ndnet.forward(params, x)
        proj = np.random.default_rng(seed + 2).normal(size=trace.output.shape)
        _, analytic = loss_and_grads(params, x, proj)
        worst = max(worst, max_grad_rel_error(analytic,
                                              fd_grads(params, x, proj)))
        checked += 1
    passed = worst <= 1e-5
    report(6, "gradient suite vs central finite differences", passed,
           f"max relative error {worst:.2e} over {checked} instances")
    assert passed


def test_criterion_7_baseline_oracles():
    rng = np.random.default_rng(7)
    # PLS against the normal-equation solution on noiseless linear data
    X = rng.normal(size=(80, 3))
    B = rng.normal(size=(3, 4))
    Y = X @ B
    model = pls_fit(X, Y, components=3)
    Xc, Yc = X - X.mean(axis=0), Y - Y.mean(axis=0)
    B_ols = np.linalg.solve(Xc.T @ Xc, Xc.T @ Yc)
    probe = rng.normal(size=(40, 3))
    want = Y.mean(axis=0) + (probe - X.mean(axis=0)) @ B_ols
    pls_err = float(np.max(np.abs(pls_predict(model, probe) - want)))

    # GRNN at bandwidth 1e-6 against the nearest-neighbor oracle
    Xg = rng.normal(size=(60, 3))
    Yg = rng.normal(size=(60, 2))
    grnn = grnn_fit(Xg, Yg, bandwidth=1e-6)
    nn_exact = True
    for p in rng.normal(size=(50, 3)):
        nn = int(np.argmin(((Xg - p) ** 2).sum(axis=1)))
        nn_exact &= bool(np.array_equal(grnn_predict(grnn, p), Yg[nn]))

    # forest on 6-unit-separated unit-variance blobs
    Xa = rng.normal(0.0, 1.0, size=(100, 2))
    Xb = rng.normal(6.0, 1.0, size=(100, 2))
    forest = fit_forest(np.vstack([Xa, Xb]),
                        np.array([0] * 100 + [1] * 100),
                        ForestConfig(n_trees=100, seed=70))
    Xt = np.vstack([rng.normal(0, 1, (200, 2)), rng.normal(6, 1, (200, 2))])
    yt = np.array([0] * 200 + [1] * 200)
    acc = float(np.mean(predict_forest(forest, Xt) == yt))

    passed = pls_err <= 1e-6 and nn_exact and acc >= 0.95
    report(7, "baseline oracles (PLS / GRNN / forest)", passed,
           f"PLS-vs-OLS max err {pls_err:.2e}; GRNN==NN {nn_exact}; "
           f"blob accuracy {acc:.3f}")
    assert passed


def test_criterion_8_gp_generator_fidelity():
    draws = 10_000
    corr_errs = {}
    for l in (1, 5):
        cfg = GpSimConfig(grid=8, seed=0)
        rng = np.random.default_rng(80 + l)
        fields = np.stack([gp_sample(cfg, l, rng) for _ in range(draws)])
        pairs_a = np.concatenate([fields[:, :, :-1].reshape(draws, -1),
                                  fields[:, :-1, :].reshape(draws, -1)], axis=1)
        pairs_b = np.concatenate([fields[:, :, 1:].reshape(draws, -1),
                                  fields[:, 1:, :].reshape(draws, -1)], axis=1)
        corrs = [np.corrcoef(pairs_a[:, j], pairs_b[:, j])[0, 1]
                 for j in range(pairs_a.shape[1])]
        corr_errs[l] = abs(float(np.mean(corrs)) - math.exp(-1 / (2 * l)))

    grid, l, n = 4, 2, 50_000
    cfg = GpSimConfig(grid=grid, seed=0)
    rng = np.random.default_rng(88)
    flat = np.stack([gp_sample(cfg, l, rng).ravel() for _ in range(n)])
    emp = np.cov(flat.T)
    idx = np.arange(grid)
    k1 = np.exp(-((idx[:, None] - idx[None, :]) ** 2) / (2.0 * l))
    dense = np.kron(k1, k1)
    frob = float(np.linalg.norm(emp - dense) / np.linalg.norm(dense))

    passed = corr_errs[1] <= 0.03 and corr_errs[5] <= 0.03 and frob <= 0.1
    report(8, "random-field generator fidelity", passed,
           f"adjacent-corr err l=1: {corr_errs[1]:.4f}, l=5: "
           f"{corr_errs[5]:.4f} (tol 0.03); Kronecker-vs-dense Frobenius "
           f"{frob:.4f} (tol 0.1)")
    assert passed


def _direct_expression(x1, x2):
    """Independently coded scalar evaluation of the noiseless transform."""
    e = math.exp(-(x1 ** 2) - (x2 ** 2))
    y = [0.0] * 6
    for m in (1, 2, 3):
        y[m - 1] = (2.0 ** (m - 1) / math.factorial(m - 1)
                    * (x1 ** (m - 1)) * (x2 ** (m - 1)) * e)
    y[3] = x1 ** 2
    y[4] = x2 ** 2
    y[5] = x1 * x2
    return np.array(y)


def test_criterion_9_expression_transform_exactness():
    rng = np.random.default_rng(9)
    worst = 0.0
    bitwise_linear = True
    worst_product = 0.0
    for _ in range(1000):
        x1, x2 = rng.uniform(-1.5, 1.5, size=2)
        got = expression_transform(x1, x2, np.zeros(6))
        worst = max(worst, float(np.max(np.abs(got - _direct_expression(x1, x2)))))
        bitwise_linear &= bool(got[1] == 2.0 * got[5] * got[0])
        denom = max(abs(got[5] ** 2), 1e-300)
        worst_product = max(worst_product,
                            abs(got[3] * got[4] - got[5] ** 2) / denom)
    # the product identity in float differs only by op ordering (<=2 ulp)
    passed = worst <= 1e-12 and bitwise_linear and worst_product <= 1e-15
    report(9, "expression transform exactness", passed,
           f"max |impl - direct| {worst:.2e} (tol 1e-12); linear identity "
           f"bitwise {bitwise_linear}; product identity within "
           f"{worst_product:.2e} relative (float rounding)")
    assert passed


def test_criterion_10_selection_sanity():
    wins = 0
    excluded = 0
    for seed in range(10):
        rng = np.random.default_rng(1000 + seed)
        real = rng.normal(0.0, 1.0, size=(300, 6))
        good1 = rng.normal(0.0, 0.7, size=(300, 6))
        good2 = rng.normal(0.0, 0.7, size=(300, 6))
        degenerate = np.full((300, 6), 100.0)
        scores = inverse_validation_scores(
            [good1, degenerate, good2], real, ForestConfig(n_trees=100),
            seed=seed)
        if scores[1] < scores[0] and scores[1] < scores[2]:
            wins += 1
            if 1 not in select_top_h(scores, 2):
                excluded += 1
    passed = wins >= 9 and excluded == wins
    report(10, "inverse validation flags the degenerate member", passed,
           f"strictly lowest in {wins}/10 seeded runs; excluded from "
           f"top-2 in {excluded}/{wins}")
    assert passed


def test_criterion_11_end_to_end_determinism(tmp_path):
    def cfg(out, workers):
        return build_config({
            "study": "multivariate", "sigmas": [0.05], "trials": 2,
            "methods": ["pls", "ctes"], "groups": [3],
            "samples_per_group": 40,
            "train": {"iterations": 60, "batch_size": 10},
            "forest": {"n_trees": 30}, "master_seed": 99,
            "workers": workers, "out_dir": str(tmp_path / out)})

    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        m1 = run_suite(cfg("run1", 1))
        m2 = run_suite(cfg("run2", 1))
        m4 = run_suite(cfg("run4", 4))
    same = True
    for name in ("multivariate_trials.csv", "multivariate_summary.csv"):
        blobs = [(tmp_path / d / name).read_bytes()
                 for d in ("run1", "run2", "run4")]
        same &= blobs[0] == blobs[1] == blobs[2]
    passed = same and m1["n_failed"] == m2["n_failed"] == m4["n_failed"] == 0
    report(11, "bench reports byte-identical across runs and workers",
           passed, f"{m1['n_jobs']} jobs; workers 1/1/4; identical={same}")
    assert passed
