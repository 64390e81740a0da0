import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from sectes import ndnet
from sectes.errors import ConfigError, TrainingDiverged

from oracles import (fd_grads, loss_and_grads, max_grad_rel_error,
                     min_preactivation, naive_conv2d, naive_conv2d_grads,
                     naive_deconv2d, naive_deconv2d_grads)


def params_equal(a, b):
    return all(np.array_equal(la[k], lb[k])
               for la, lb in zip(a.layers, b.layers) for k in la)


def test_init_deterministic():
    spec = [ndnet.dense(3, 8, "relu"), ndnet.dense(8, 2)]
    assert params_equal(ndnet.init_params(spec, 7), ndnet.init_params(spec, 7))
    assert not params_equal(ndnet.init_params(spec, 7), ndnet.init_params(spec, 8))


def test_init_biases_zero_and_bound():
    dense_params = ndnet.init_params([ndnet.dense(2, 4)], 0)
    conv_params = ndnet.init_params([ndnet.conv2d(3, 5, kernel=3)], 0)
    for params in (dense_params, conv_params):
        for lay in params.layers:
            assert np.all(lay["b"] == 0.0)
    # dense 2->4: bound sqrt(6/6) = 1
    assert np.all(np.abs(dense_params.layers[0]["W"]) <= 1.0)
    # conv fan = k*k*channels
    bound = np.sqrt(6.0 / (3 * 9 + 5 * 9))
    assert np.all(np.abs(conv_params.layers[0]["W"]) <= bound)
    # uniform draws should come close to the bound on a large layer
    wide = ndnet.init_params([ndnet.dense(200, 100)], 1).layers[0]["W"]
    assert np.abs(wide).max() > 0.95 * np.sqrt(6.0 / 300)


def test_init_rejects_bad_specs():
    with pytest.raises(ConfigError):
        ndnet.init_params([], 0)
    with pytest.raises(ConfigError):
        ndnet.init_params([ndnet.dense(3, 4), ndnet.dense(5, 2)], 0)
    with pytest.raises(ConfigError):
        ndnet.init_params([ndnet.dense(3, 4), ndnet.conv2d(4, 8)], 0)
    with pytest.raises(ConfigError):
        ndnet.init_params([ndnet.LayerSpec(kind="dense", activation="tanh",
                                           in_size=2, out_size=2)], 0)


def test_forward_sigmoid_of_zero_params_is_half():
    params = ndnet.init_params([ndnet.dense(4, 1, "sigmoid")], 0)
    params.layers[0]["W"][:] = 0.0
    out = ndnet.forward(params, np.ones((3, 4))).output
    assert np.all(out == 0.5)


def test_forward_relu_clips_negative():
    params = ndnet.init_params([ndnet.dense(1, 1, "relu")], 0)
    params.layers[0]["W"][:] = 1.0
    assert ndnet.forward(params, np.array([[-3.0]])).output[0, 0] == 0.0
    assert ndnet.forward(params, np.array([[2.5]])).output[0, 0] == 2.5


def test_forward_deterministic_and_shape_checked():
    params = ndnet.init_params([ndnet.dense(3, 5, "relu"), ndnet.dense(5, 2)], 3)
    x = np.random.default_rng(0).normal(size=(4, 3))
    assert np.array_equal(ndnet.forward(params, x).output,
                          ndnet.forward(params, x).output)
    with pytest.raises(ValueError):
        ndnet.forward(params, np.ones((4, 7)))


def test_forward_promotes_single_sample():
    params = ndnet.init_params([ndnet.dense(3, 2)], 0)
    single = ndnet.forward(params, np.ones(3)).output
    batched = ndnet.forward(params, np.ones((1, 3))).output
    assert single.shape == (1, 2)
    assert np.array_equal(single, batched)


def test_backprop_linear_case():
    # f(w) = w*x with x=2: dL/dw = 2*out_grad
    params = ndnet.init_params([ndnet.dense(1, 1)], 0)
    params.layers[0]["W"][0, 0] = 1.7
    trace = ndnet.forward(params, np.array([[2.0]]))
    grads, in_grad = ndnet.backprop(params, trace, np.array([[3.0]]))
    assert grads[0]["W"][0, 0] == 6.0
    assert grads[0]["b"][0] == 3.0
    assert in_grad[0, 0] == 1.7 * 3.0


@pytest.mark.parametrize("acts", [("relu", "none"), ("relu", "sigmoid"),
                                  ("sigmoid", "none"), ("none", "sigmoid")])
def test_gradients_dense_mlp_match_finite_differences(acts):
    rng = np.random.default_rng(abs(hash(acts)) % 2 ** 31)
    checked = 0
    attempt = 0
    while checked < 5 and attempt < 50:
        attempt += 1
        seed = int(rng.integers(2 ** 31))
        spec = [ndnet.dense(3, 6, acts[0]), ndnet.dense(6, 2, acts[1])]
        params = ndnet.init_params(spec, seed)
        x = np.random.default_rng(seed + 1).normal(size=(4, 3))
        if min_preactivation(params, x) < 1e-3:  # stay clear of relu kinks
            continue
        proj = np.random.default_rng(seed + 2).normal(size=(4, 2))
        _, analytic = loss_and_grads(params, x, proj)
        assert max_grad_rel_error(analytic, fd_grads(params, x, proj)) <= 1e-5
        checked += 1
    assert checked == 5


@pytest.mark.parametrize("spec_fn", [
    lambda: [ndnet.conv2d(2, 3, kernel=3, stride=1, padding=1, activation="relu")],
    lambda: [ndnet.conv2d(1, 2, kernel=4, stride=2, padding=1, activation="none")],
    lambda: [ndnet.deconv2d(3, 2, kernel=4, stride=2, padding=1, activation="relu")],
    lambda: [ndnet.deconv2d(2, 1, kernel=3, stride=1, padding=0, activation="none")],
])
def test_gradients_conv_match_finite_differences(spec_fn):
    spec = spec_fn()
    rng = np.random.default_rng(abs(hash(str(spec))) % 2 ** 31)
    checked = 0
    attempt = 0
    while checked < 3 and attempt < 40:
        attempt += 1
        seed = int(rng.integers(2 ** 31))
        params = ndnet.init_params(spec, seed)
        c = spec[0].in_channels
        x = np.random.default_rng(seed + 1).normal(size=(2, c, 5, 5))
        if min_preactivation(params, x) < 1e-3:
            continue
        trace = ndnet.forward(params, x)
        proj = np.random.default_rng(seed + 2).normal(size=trace.output.shape)
        _, analytic = loss_and_grads(params, x, proj)
        assert max_grad_rel_error(analytic, fd_grads(params, x, proj)) <= 1e-5
        checked += 1
    assert checked == 3


@pytest.mark.parametrize("stride,padding,kernel", [(1, 1, 3), (2, 1, 4), (1, 0, 2)])
def test_conv2d_forward_matches_naive_loops(stride, padding, kernel):
    rng = np.random.default_rng(5)
    spec = [ndnet.conv2d(2, 3, kernel=kernel, stride=stride, padding=padding,
                         activation="none")]
    params = ndnet.init_params(spec, 11)
    x = rng.normal(size=(2, 2, 6, 6))
    fast = ndnet.forward(params, x).output
    slow = naive_conv2d(x, params.layers[0]["W"], params.layers[0]["b"],
                        stride, padding)
    assert np.max(np.abs(fast - slow)) <= 1e-12


def test_conv2d_backward_matches_naive_loops():
    rng = np.random.default_rng(6)
    spec = [ndnet.conv2d(2, 3, kernel=3, stride=2, padding=1, activation="none")]
    params = ndnet.init_params(spec, 12)
    x = rng.normal(size=(2, 2, 5, 5))
    trace = ndnet.forward(params, x)
    g = rng.normal(size=trace.output.shape)
    grads, dx = ndnet.backprop(params, trace, g)
    dW, db, dx_ref = naive_conv2d_grads(x, params.layers[0]["W"], g, 2, 1)
    assert np.max(np.abs(grads[0]["W"] - dW)) <= 1e-10
    assert np.max(np.abs(grads[0]["b"] - db)) <= 1e-10
    assert np.max(np.abs(dx - dx_ref)) <= 1e-10


DECONV_GEOMETRIES = [(s, p, k) for s in (1, 2) for p in (0, 1)
                     for k in (2, 3, 4)]


def _deconv_case(stride, padding, kernel):
    spec = [ndnet.deconv2d(2, 3, kernel=kernel, stride=stride,
                           padding=padding, activation="none")]
    params = ndnet.init_params(spec, 13)
    rng = np.random.default_rng(7)
    params.layers[0]["b"][:] = rng.normal(size=3)
    return params, rng.normal(size=(2, 2, 4, 5)), rng


@pytest.mark.parametrize("stride,padding,kernel", DECONV_GEOMETRIES)
def test_deconv2d_forward_matches_naive_loops(stride, padding, kernel):
    params, x, _ = _deconv_case(stride, padding, kernel)
    fast = ndnet.forward(params, x).output
    slow = naive_deconv2d(x, params.layers[0]["W"], params.layers[0]["b"],
                          stride, padding)
    assert fast.shape == slow.shape
    assert np.max(np.abs(fast - slow)) <= 1e-12


@pytest.mark.parametrize("stride,padding,kernel", DECONV_GEOMETRIES)
def test_deconv2d_backward_matches_naive_loops(stride, padding, kernel):
    params, x, rng = _deconv_case(stride, padding, kernel)
    trace = ndnet.forward(params, x)
    g = rng.normal(size=trace.output.shape)
    grads, dx = ndnet.backprop(params, trace, g)
    dW, db, dx_ref = naive_deconv2d_grads(x, params.layers[0]["W"], g,
                                          stride, padding)
    assert np.max(np.abs(grads[0]["W"] - dW)) <= 1e-10
    assert np.max(np.abs(grads[0]["b"] - db)) <= 1e-10
    assert np.max(np.abs(dx - dx_ref)) <= 1e-10


@settings(max_examples=60, deadline=None)
@given(cin=st.integers(1, 3), cout=st.integers(1, 3),
       kernel=st.integers(1, 4), stride=st.integers(1, 3),
       padding=st.integers(0, 2), out_hw=st.integers(1, 5),
       seed=st.integers(0, 2 ** 32 - 1))
def test_deconv2d_is_adjoint_of_conv2d(cin, cout, kernel, stride, padding,
                                       out_hw, seed):
    # <conv(x), g> == <x, deconv(g)> with one shared W and zero bias, on
    # inputs the conv covers exactly (so deconv(g) has x's shape)
    side = (out_hw - 1) * stride - 2 * padding + kernel
    assume(side >= 1)
    geom = dict(kernel=kernel, stride=stride, padding=padding,
                activation="none")
    conv = ndnet.init_params([ndnet.conv2d(cin, cout, **geom)], seed)
    deconv = ndnet.init_params([ndnet.deconv2d(cout, cin, **geom)], seed)
    deconv.layers[0]["W"] = conv.layers[0]["W"]
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(2, cin, side, side))
    g = rng.normal(size=(2, cout, out_hw, out_hw))
    cx = ndnet.forward(conv, x).output
    dg = ndnet.forward(deconv, g).output
    assert cx.shape == g.shape and dg.shape == x.shape
    lhs, rhs = float(np.sum(cx * g)), float(np.sum(x * dg))
    scale = float(np.sum(np.abs(cx * g))) + float(np.sum(np.abs(x * dg)))
    assert abs(lhs - rhs) <= 1e-12 * scale + 1e-300


def test_deconv_mirrors_conv_geometry():
    # 16x16 -> 1x1 through four stride-2 layers, and back
    enc = [ndnet.conv2d(1, 8), ndnet.conv2d(8, 16), ndnet.conv2d(16, 32),
           ndnet.conv2d(32, 64)]
    dec = [ndnet.deconv2d(64, 32), ndnet.deconv2d(32, 16),
           ndnet.deconv2d(16, 8), ndnet.deconv2d(8, 1, activation="none")]
    x = np.zeros((1, 1, 16, 16))
    encoded = ndnet.forward(ndnet.init_params(enc, 0), x).output
    assert encoded.shape == (1, 64, 1, 1)
    decoded = ndnet.forward(ndnet.init_params(dec, 0), encoded).output
    assert decoded.shape == (1, 1, 16, 16)


def test_shapes_preserved_by_forward_backprop_and_optimizer():
    spec = [ndnet.dense(3, 4, "relu"), ndnet.dense(4, 2, "sigmoid")]
    params = ndnet.init_params(spec, 0)
    shapes = [{k: v.shape for k, v in lay.items()} for lay in params.layers]
    trace = ndnet.forward(params, np.ones((2, 3)))
    grads, _ = ndnet.backprop(params, trace, np.ones((2, 2)))
    state = ndnet.init_opt_state(params)
    ndnet.optimizer_step(params, grads, state)
    for lay, glay, want in zip(params.layers, grads, shapes):
        for key in lay:
            assert lay[key].shape == want[key]
            assert glay[key].shape == want[key]
    for lay in params.layers:
        for key in lay:
            assert np.all(np.isfinite(lay[key]))


def test_sgd_update_rule():
    params = ndnet.init_params([ndnet.dense(1, 1)], 0)
    params.layers[0]["W"][0, 0] = 1.0
    state = ndnet.init_opt_state(params, "sgd", lr=0.1)
    ndnet.optimizer_step(params, [{"W": np.array([[0.5]]),
                                   "b": np.zeros(1)}], state)
    assert params.layers[0]["W"][0, 0] == pytest.approx(0.95, abs=1e-15)


def test_zero_gradient_leaves_params_unchanged():
    for kind in ("sgd", "adam"):
        params = ndnet.init_params([ndnet.dense(2, 2)], 3)
        before = params.layers[0]["W"].copy()
        state = ndnet.init_opt_state(params, kind)
        zero = [{"W": np.zeros((2, 2)), "b": np.zeros(2)}]
        ndnet.optimizer_step(params, zero, state)
        assert np.array_equal(params.layers[0]["W"], before)


def test_adam_first_step_magnitude():
    # with g=1 everywhere: m_hat=1, v_hat=1, step = lr/(sqrt(1)+eps)
    lr = 1e-3
    params = ndnet.init_params([ndnet.dense(2, 2)], 3)
    before = params.layers[0]["W"].copy()
    state = ndnet.init_opt_state(params, "adam", lr)
    ones = [{"W": np.ones((2, 2)), "b": np.ones(2)}]
    ndnet.optimizer_step(params, ones, state)
    delta = before - params.layers[0]["W"]
    expected = lr / (1.0 + 1e-8)
    assert np.allclose(delta, expected, rtol=1e-9)


def test_nonfinite_gradient_raises():
    params = ndnet.init_params([ndnet.dense(2, 2)], 0)
    state = ndnet.init_opt_state(params)
    bad = [{"W": np.full((2, 2), np.nan), "b": np.zeros(2)}]
    with pytest.raises(TrainingDiverged):
        ndnet.optimizer_step(params, bad, state)


def test_backprop_rejects_mismatched_out_grad():
    params = ndnet.init_params([ndnet.dense(2, 3)], 0)
    trace = ndnet.forward(params, np.ones((2, 2)))
    with pytest.raises(ValueError):
        ndnet.backprop(params, trace, np.ones((2, 5)))
