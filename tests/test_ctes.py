import dataclasses
import hashlib
import math

import numpy as np
import pytest

from oracles import three_pass_disc_grads
from sectes import ctes, ndnet
from sectes.ctes import (Normalization, TrainConfig, _disc_step_grads,
                         build_ctes, discriminator_forward, discriminator_loss,
                         generator_loss, mismatch_table, sample_mismatch,
                         synthesize_each,
                         toy_minimax_oracle, train_ctes)
from sectes.datagen import PairedDataset, SimConfig, gen_multivariate_dataset
from sectes.errors import ConfigError, MismatchImpossible


def toy_dataset(seed=3, n=200):
    rng = np.random.default_rng(seed)
    x = rng.uniform(0, 1, size=(n, 1))
    y = x + 0.01 * rng.standard_normal((n, 1))
    return PairedDataset(x=x, y=y, groups=np.ones(n, int), n_groups=1)


@pytest.fixture(scope="module")
def trained_toy():
    return train_ctes(toy_dataset(), TrainConfig(iterations=1000, seed=5))


def test_default_config_matches_published_settings():
    cfg = TrainConfig()
    assert cfg.beta == 0.9
    assert cfg.batch_size == 50
    assert cfg.iterations == 1000


def test_config_validation_and_low_beta_warning():
    with pytest.raises(ConfigError):
        TrainConfig(beta=1.5)
    with pytest.raises(ConfigError):
        TrainConfig(batch_size=1)
    for window in (-1, 0):  # an empty window has no mean to test
        with pytest.raises(ConfigError, match="convergence_window must be >= 1"):
            TrainConfig(convergence_window=window)
    with pytest.raises(ConfigError, match="convergence_tol must be >= 0"):
        TrainConfig(convergence_tol=-1e-4)
    TrainConfig(convergence_window=1, convergence_tol=0.0)
    with pytest.warns(UserWarning):
        TrainConfig(beta=0.5)
    with pytest.warns(UserWarning):
        TrainConfig(beta=0.3)


def test_discriminator_loss_equal_scores():
    # weights sum to one, so any beta gives 2*log(0.5)
    for beta in (0.0, 0.5, 0.9, 1.0):
        val = discriminator_loss(0.5, 0.5, 0.5, beta)
        assert val == pytest.approx(2 * math.log(0.5), abs=1e-12)
        assert val == pytest.approx(-1.386294, abs=1e-6)


def test_discriminator_loss_reference_value():
    want = math.log(0.9) + 0.9 * math.log(0.9) + 0.1 * math.log(0.8)
    got = discriminator_loss(0.9, 0.1, 0.2, 0.9)
    assert got == pytest.approx(want, abs=1e-12)
    assert got == pytest.approx(-0.222499, abs=1e-6)


def test_discriminator_loss_beta_one_ignores_mismatch_pair():
    a = discriminator_loss(0.7, 0.4, 0.1, 1.0)
    b = discriminator_loss(0.7, 0.4, 0.9, 1.0)
    assert a == b


def test_discriminator_loss_linear_in_beta():
    d = (0.8, 0.3, 0.6)
    at0 = discriminator_loss(*d, 0.0)
    at1 = discriminator_loss(*d, 1.0)
    athalf = discriminator_loss(*d, 0.5)
    assert athalf == pytest.approx((at0 + at1) / 2, abs=1e-15)
    for beta in (0.2, 0.7):
        want = (1 - beta) * at0 + beta * at1
        assert discriminator_loss(*d, beta) == pytest.approx(want, abs=1e-12)


def test_loss_clamping_keeps_values_finite():
    assert np.isfinite(discriminator_loss(0.0, 1.0, 1.0, 0.9))
    assert np.isfinite(generator_loss(0.0))


def test_generator_loss_values_and_monotonicity():
    assert generator_loss(0.5) == pytest.approx(math.log(0.5), abs=1e-12)
    assert generator_loss(1 - 1e-7) == pytest.approx(-1e-7, rel=1e-6)
    ds = np.linspace(0.01, 0.99, 25)
    vals = generator_loss(ds)
    assert np.all(np.diff(vals) > 0)


def test_generator_forward_zero_params_returns_mean_offset(trained_toy):
    ds = toy_dataset()
    model = train_ctes(ds, TrainConfig(iterations=0, seed=1))
    for net in (model.mixer, model.decoder):
        for lay in net.layers:
            lay["W"][:] = 0.0
            lay["b"][:] = 0.0
    out = synthesize_each(model, np.array([[0.5]]), np.random.default_rng(0))
    assert np.allclose(out, model.norm.y_mean)


def test_generator_forward_shape_and_determinism(trained_toy):
    a = synthesize_each(trained_toy, np.array([[0.5]]),
                        np.random.default_rng(0))
    b = synthesize_each(trained_toy, np.array([[0.5]]),
                        np.random.default_rng(0))
    assert a.shape == (1, 1)
    assert np.array_equal(a, b)
    with pytest.raises(ValueError):
        synthesize_each(trained_toy, np.array([[0.5, 0.5]]),
                        np.random.default_rng(0))


def test_multivariate_generator_emits_six_entries():
    ds = gen_multivariate_dataset(SimConfig(sigma=0.05, samples_per_group=20,
                                            seed=0))
    model = train_ctes(ds, TrainConfig(iterations=20, batch_size=10, seed=2))
    out = synthesize_each(model, np.array([[0.4, 0.4]]),
                          np.random.default_rng(1))
    assert out.shape == (1, 6)


def test_discriminator_forward_zero_params_is_half():
    model = train_ctes(toy_dataset(), TrainConfig(iterations=0, seed=1))
    for net in (model.encoder, model.head):
        for lay in net.layers:
            lay["W"][:] = 0.0
            lay["b"][:] = 0.0
    assert discriminator_forward(model, np.array([0.5]),
                                 np.array([0.5])) == 0.5


def test_discriminator_forward_range_and_determinism(trained_toy):
    rng = np.random.default_rng(2)
    for _ in range(20):
        x, y = rng.uniform(0, 1, 1), rng.uniform(0, 1, 1)
        s = discriminator_forward(trained_toy, x, y)
        assert 0.0 < s < 1.0
        assert s == discriminator_forward(trained_toy, x, y)


def char_ids(x):
    return np.unique(x, axis=0, return_inverse=True)[1].ravel()


def table(x):
    return mismatch_table(char_ids(x))


def test_sample_mismatch_two_rows_forced():
    ds = PairedDataset(x=np.array([[0.0], [1.0]]), y=np.zeros((2, 1)),
                       groups=np.ones(2, int), n_groups=1)
    rng = np.random.default_rng(0)
    mis = sample_mismatch([0, 1, 0], table(ds.x), rng)
    assert mis.tolist() == [1, 0, 1]


def test_sample_mismatch_batch_of_fifty():
    ds = gen_multivariate_dataset(SimConfig(sigma=0.05, seed=1))
    train = ds.select(ds.groups != 4)  # 800-sample training pool
    rng = np.random.default_rng(3)
    idx = rng.choice(train.n_samples, size=50, replace=False)
    mis = sample_mismatch(idx, table(train.x), rng)
    assert len(mis) == 50
    for j, i in zip(mis, idx):
        assert not np.array_equal(train.x[j], train.x[i])


def test_sample_mismatch_deterministic():
    ds = toy_dataset()
    idx = list(range(10))
    tab = table(ds.x)
    a = sample_mismatch(idx, tab, np.random.default_rng(9))
    b = sample_mismatch(idx, tab, np.random.default_rng(9))
    assert np.array_equal(a, b)


def test_sample_mismatch_identical_characteristics_error():
    ds = PairedDataset(x=np.ones((5, 2)), y=np.zeros((5, 1)),
                       groups=np.ones(5, int), n_groups=1)
    with pytest.raises(MismatchImpossible):
        table(ds.x)
    with pytest.raises(MismatchImpossible):
        train_ctes(ds, TrainConfig(iterations=5, batch_size=2, seed=0))


# characteristic rows in shuffled order: a x3, b x2, c x1, d x4
CHARS = np.array([[0.4, 1.0], [0.1, 0.0], [0.9, 0.5], [0.4, 1.0],
                  [0.1, 0.0], [0.2, 0.2], [0.9, 0.5], [0.9, 0.5],
                  [0.4, 1.0], [0.9, 0.5]])


def test_sample_mismatch_never_draws_an_equal_row_at_another_index():
    idx = np.tile(np.arange(len(CHARS)), 500)
    mis = sample_mismatch(idx, table(CHARS), np.random.default_rng(5))
    assert not (CHARS[mis] == CHARS[idx]).all(axis=1).any()
    # every eligible row does get drawn for every batch row
    for i in range(len(CHARS)):
        eligible = np.nonzero((CHARS != CHARS[i]).any(axis=1))[0]
        assert set(mis[idx == i].tolist()) == set(eligible.tolist())


def test_sample_mismatch_draws_uniformly_over_eligible_rows():
    draws = 90_000
    ids = char_ids(CHARS)
    tab = mismatch_table(ids)
    rng = np.random.default_rng(11)
    for i in range(len(CHARS)):
        mis = sample_mismatch(np.full(draws, i), tab, rng)
        eligible = np.nonzero(ids != ids[i])[0]
        freq = np.bincount(mis, minlength=len(CHARS))[eligible] / draws
        # at most 9 eligible rows: >= 10k expected draws per row, so the
        # standard error is under 1% of it and 5% is over five of them
        assert np.abs(freq * len(eligible) - 1.0).max() < 0.05


def test_sample_mismatch_dominant_characteristic_returns_lone_row():
    x = np.full((1000, 2), 0.5)
    x[637] = [0.2, 0.3]
    tab = table(x)
    rng = np.random.default_rng(2)
    others = np.delete(np.arange(1000), 637)
    assert (sample_mismatch(others, tab, rng) == 637).all()
    mis = sample_mismatch(np.full(200, 637), tab, rng)
    assert (mis != 637).all() and len(np.unique(mis)) > 100


def _rel_err(a, b):
    return float(np.abs(a - b).max() / max(np.abs(b).max(), 1e-300))


@pytest.mark.parametrize("expr_shape", [None, (4, 4)])
def test_stacked_disc_step_matches_three_pair_passes(expr_shape):
    m, s, beta = 3, 12, 0.9
    n = 5 if expr_shape is None else 16
    widths = Normalization.fit(np.zeros((1, m)), np.zeros((1, n)))
    model = build_ctes(widths, TrainConfig(hidden=16, seed=7), expr_shape)
    rng = np.random.default_rng(4)
    xn, xn_mis = rng.standard_normal((2, s, m))
    yn, yhat_n = rng.standard_normal((2, s, n))
    head_in = np.empty((3 * s, model.head.spec[0].in_size))
    head_in[:, :m] = np.vstack([xn, xn, xn_mis])
    opt = ndnet.init_opt_state((model.head, model.encoder))
    loss, scores, _ = _disc_step_grads(model, np.vstack([yn, yhat_n, yn]),
                                       head_in, beta, opt.grads)
    head_g, enc_g = opt.grads
    ref_loss, ref_scores, ref_head, ref_enc = three_pass_disc_grads(
        model, m, xn, yn, yhat_n, xn_mis, beta)
    assert _rel_err(loss, ref_loss) < 1e-12
    assert _rel_err(scores, ref_scores) < 1e-12
    for got, want in ((head_g, ref_head), (enc_g, ref_enc)):
        for lay, ref_lay in zip(got, want, strict=True):
            for key in ref_lay:
                assert _rel_err(lay[key], ref_lay[key]) < 1e-12, key


def test_training_is_deterministic():
    ds = toy_dataset(n=80)
    cfg = TrainConfig(iterations=40, batch_size=16, seed=21)
    a = train_ctes(ds, cfg)
    b = train_ctes(ds, cfg)
    assert np.array_equal(a.loss_d, b.loss_d)
    assert np.array_equal(a.loss_g, b.loss_g)
    for na, nb in ((a.mixer, b.mixer), (a.head, b.head)):
        for la, lb in zip(na.layers, nb.layers):
            assert np.array_equal(la["W"], lb["W"])
    c = train_ctes(ds, TrainConfig(iterations=40, batch_size=16, seed=22))
    assert not np.array_equal(a.loss_d, c.loss_d)


def test_trained_model_does_not_hold_optimizer_buffers(monkeypatch):
    states, real_init = [], ndnet.init_opt_state

    def recording_init(nets, lr):
        states.append(real_init(nets, lr))
        return states[-1]

    monkeypatch.setattr(ndnet, "init_opt_state", recording_init)
    model = train_ctes(toy_dataset(n=40),
                       TrainConfig(iterations=5, batch_size=8, seed=2))
    monkeypatch.undo()
    # one state per player, together covering every parameter once
    assert len(states) == 2 and all(s.step == 5 for s in states)
    nets = (model.mixer, model.decoder, model.encoder, model.head)
    assert sum(s.buffer.shape[1] for s in states) == sum(
        a.size for net in nets for lay in net.layers for a in lay.values())
    for net in nets:
        for lay in net.layers:
            for a in lay.values():
                assert not any(np.shares_memory(a, s.buffer) for s in states)


def test_training_improves_over_untrained(trained_toy):
    ds = toy_dataset()
    untrained = train_ctes(ds, TrainConfig(iterations=0, seed=5))
    probe = np.linspace(0.05, 0.95, 50)[:, None]

    def mean_abs_err(model):
        preds = np.vstack([synthesize_each(model, probe,
                                           rng=np.random.default_rng(s))
                           for s in range(5)])
        return float(np.abs(preds - np.vstack([probe] * 5)).mean())

    assert mean_abs_err(trained_toy) < mean_abs_err(untrained)


def test_training_score_range_stays_in_unit_interval(trained_toy):
    assert 0.0 < trained_toy.diagnostics["score_min"]
    assert trained_toy.diagnostics["score_max"] < 1.0


def test_recorded_mismatches_never_equal_paired_rows(monkeypatch):
    ds = toy_dataset(n=60)
    batches = []

    def recording(idx, tab, rng):
        mis = sample_mismatch(idx, tab, rng)
        batches.append((idx.copy(), mis.copy()))
        return mis

    monkeypatch.setattr(ctes, "sample_mismatch", recording)
    model = train_ctes(ds, TrainConfig(iterations=30, batch_size=10, seed=4))
    assert len(batches) == model.iterations_run
    for idx, mis in batches:
        for i, j in zip(idx, mis):
            assert not np.array_equal(ds.x[i], ds.x[j])


def test_convergence_break_fires_early():
    ds = toy_dataset(n=60)
    cfg = TrainConfig(iterations=500, batch_size=10, seed=4,
                      convergence_window=20, convergence_tol=1e9)
    model = train_ctes(ds, cfg)
    assert model.iterations_run == 21  # first possible break point


def test_synthesize_count_and_reproducibility(trained_toy):
    batch = synthesize_each(trained_toy, np.repeat([[0.5]], 100, 0),
                            rng=np.random.default_rng(0))
    assert batch.shape == (100, 1)
    again = synthesize_each(trained_toy, np.repeat([[0.5]], 100, 0),
                            rng=np.random.default_rng(0))
    assert np.array_equal(batch, again)


def test_minimax_oracle_equal_distributions():
    p = np.full(4, 0.25)
    d_star, value = toy_minimax_oracle(p, p, p, 0.7)
    assert np.allclose(d_star, 0.5)
    assert value == pytest.approx(-math.log(4), abs=1e-12)


def test_minimax_oracle_two_point_hand_computation():
    d_star, value = toy_minimax_oracle([1.0, 0.0], [0.0, 1.0], [0.5, 0.5], 1.0)
    assert np.array_equal(d_star, [1.0, 0.0])
    assert value == pytest.approx(0.0, abs=1e-15)


def test_minimax_oracle_constructed_mixture_hits_floor():
    # beta=0.5 with p_prime chosen so the mixture equals p_data exactly
    p_g = np.array([0.0, 1.0])
    p_data = np.array([0.3, 0.7])
    p_prime = 2 * p_data - p_g  # [0.6, 0.4], a valid pmf
    d_star, value = toy_minimax_oracle(p_data, p_g, p_prime, 0.5)
    assert np.allclose(d_star, 0.5)
    assert value == pytest.approx(-math.log(4), abs=1e-12)


def test_minimax_oracle_random_family_bounded_below():
    rng = np.random.default_rng(8)
    floor = -math.log(4)
    for _ in range(300):
        size = int(rng.integers(2, 9))
        draw = lambda: np.diff(np.sort(np.concatenate(
            [[0.0], rng.uniform(size=size - 1), [1.0]])))
        p_data, p_g, p_prime = draw(), draw(), draw()
        beta = float(rng.uniform())
        _, value = toy_minimax_oracle(p_data, p_g, p_prime, beta)
        assert value >= floor - 1e-9
        mix = beta * p_g + (1 - beta) * p_prime
        if np.abs(mix - p_data).sum() >= 0.05:
            assert value > floor + 1e-9


def test_minimax_oracle_skips_zero_mass_points():
    d_star, value = toy_minimax_oracle([0.5, 0.5, 0.0], [0.6, 0.4, 0.0],
                                       [0.4, 0.6, 0.0], 0.5)
    assert d_star[2] == 0.5  # convention at dead points
    assert np.isfinite(value)


def test_minimax_oracle_validation():
    with pytest.raises(ValueError):
        toy_minimax_oracle([0.5, 0.6], [0.5, 0.5], [0.5, 0.5], 0.5)
    with pytest.raises(ValueError):
        toy_minimax_oracle([0.5, 0.5], [1.0], [0.5, 0.5], 0.5)
    with pytest.raises(ValueError):
        toy_minimax_oracle([0.5, 0.5], [0.5, 0.5], [0.5, 0.5], 1.5)


def training_digest(model):
    """sha256 over the loss traces and every final weight of a model."""
    h = hashlib.sha256()
    h.update(model.loss_d.tobytes())
    h.update(model.loss_g.tobytes())
    for net in (model.mixer, model.decoder, model.encoder, model.head):
        for lay in net.layers:
            h.update(lay["W"].tobytes())
            h.update(lay["b"].tobytes())
    return h.hexdigest()


def matrix_toy_dataset(seed=3, n=24, grid=4):
    rng = np.random.default_rng(seed)
    x = rng.integers(0, 3, size=(n, 2)).astype(float)
    y = rng.standard_normal((n, grid * grid))
    return PairedDataset(x=x, y=y, groups=np.ones(n, int), n_groups=1,
                         expr_shape=(grid, grid))


# ids as the cases were collected under before their messages changed
@pytest.mark.parametrize("conv, changes, message", [
    pytest.param(True, {"expr_shape": None},
                 "weights.mixer: 2 layer specs but 1 layers",
                 id="True-None-expr_shape: null, but the encoder and decoder "
                    "are [['conv2d'], ['deconv2d']] stacks"),
    pytest.param(True, {"expr_shape": (8, 8)},
                 "expr_shape: (8, 8) holds 64 pixels, but norm.y_mean has 16 "
                 "entries",
                 id="True-shape1-expr_shape: (8, 8) holds 64 pixels, but "
                    "norm.y_mean has 16 entries"),
    pytest.param(True, {"expr_shape": (3, 3)},
                 "expr_shape: matrix expressions need a power-of-two grid",
                 id="True-shape2-expr_shape: matrix expressions need a "
                    "power-of-two grid"),
    pytest.param(False, {"expr_shape": (4, 4)},
                 "weights.mixer: 1 layer specs but 2 layers",
                 id="False-shape3-expr_shape: (4, 4) takes conv stacks 2 "
                    "deep, but the encoder and decoder are [['dense'], "
                    "['dense']] stacks"),
    pytest.param(True, {"config": TrainConfig(iterations=0, batch_size=8,
                                              conv_channels=(4, 6))},
                 "weights.mixer: layer 0: parameter shapes {'W': (10, 8), "
                 "'b': (8,)}, expected {'W': (10, 6), 'b': (6,)}",
                 id="conv-channels"),
])
def test_model_checks_expr_shape_against_norm_and_nets(conv, changes,
                                                       message):
    # the nets' layer specs are built from config, norm and expr_shape,
    # so a weight array that does not fit them names its net
    ds = matrix_toy_dataset()
    if not conv:  # the same 16 expression values as vectors
        ds = PairedDataset(x=ds.x, y=ds.y, groups=ds.groups, n_groups=1)
    model = train_ctes(ds, TrainConfig(iterations=0, batch_size=8,
                                       conv_channels=(4, 8)))
    with pytest.raises(ConfigError) as info:
        dataclasses.replace(model, **changes)
    assert str(info.value).startswith(message)


# Digests taken from the per-array Adam and per-call mismatch sampling
# that the flat optimizer buffers and the mismatch table replaced: the
# trainer must reproduce those runs bit for bit. They pin float64
# results of this numpy build's kernels, so a numpy or BLAS change that
# moves rounding needs them re-derived from that earlier trainer. The
# 16x16 case, four conv layers at the default channels, was taken from
# the trainer whose ndnet passes allocated every array per call.
@pytest.mark.parametrize("case, digest", [
    ("dense", "ec14dd992c25bbd65dab778e03138d5a76e73cc7e89bab706fb399dce299e595"),
    ("matrix", "6cc839352bfecc10b991bdfe8412e61f6d92860005dc8989ffd53f4c4a9e5dfa"),
    ("matrix-16x16", "9cea951661950db409814572f3aad225b849560ad67aac3a1b464d2a69f769f3"),
])
def test_training_run_matches_pinned_digest(case, digest):
    if case == "dense":
        model = train_ctes(toy_dataset(n=80),
                           TrainConfig(iterations=40, batch_size=16, seed=21))
    elif case == "matrix":
        model = train_ctes(matrix_toy_dataset(), TrainConfig(
            iterations=20, batch_size=8, seed=21, conv_channels=(4, 8)))
    else:  # the four-layer conv stacks at the default channels
        model = train_ctes(matrix_toy_dataset(n=40, grid=16), TrainConfig(
            iterations=5, batch_size=16, seed=21))
    assert training_digest(model) == digest


# Digests of the dense trainer on the paths the two pins above miss,
# taken from the trainer with one Adam state per network, hstack/vstack
# pair batches and a convergence window rebuilt from list slices every
# iteration. The same numpy-build caveat applies.
@pytest.mark.parametrize("n, overrides, iterations_run, digest", [
    pytest.param(80, {"beta": 1.0}, 40, "da254f12b6f357ea91ff85de92895a92"
                 "841cfe8fc7c3ffb00f9e4340661bb688", id="cgan"),
    pytest.param(80, {"beta": 0.5}, 40, "bddebd7980cf6f2495a9316a140d8349"
                 "868684bc1e071c752711f8d72bda201b", id="gan-cls"),
    pytest.param(12, {}, 40, "f1a200ff182203c052f008a5e52639e7"
                 "3ed62993d814d1e301e7c454c12e8e08", id="batch-over-rows"),
    pytest.param(80, {"hidden": 32}, 40, "250600555648c55b9ca8887423216fa8"
                 "e251bd3cfe1cf96fba951833c4ea085e", id="hidden-32"),
    pytest.param(80, {"iterations": 400, "convergence_window": 30,
                      "convergence_tol": 0.016}, 241,
                 "001471fe8821c3d5e067e0140ed23e76"
                 "6808f1d5b3f6abe048fd2d4727a5205f", id="converged"),
])
def test_dense_training_paths_match_pinned_digests(n, overrides,
                                                   iterations_run, digest):
    settings = {"iterations": 40, "batch_size": 16, "seed": 21, **overrides}
    if settings.get("beta", 0.9) <= 0.5:
        with pytest.warns(UserWarning, match="beta=0.5"):
            cfg = TrainConfig(**settings)
    else:
        cfg = TrainConfig(**settings)
    model = train_ctes(toy_dataset(n=n), cfg)
    assert model.iterations_run == iterations_run
    assert training_digest(model) == digest
