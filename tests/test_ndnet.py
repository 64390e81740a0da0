import functools

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from sectes import ndnet
from sectes.errors import ConfigError, TrainingDiverged

from oracles import (fd_grads, loss_and_grads, max_grad_rel_error,
                     per_array_adam, zero_grads,
                     min_preactivation, naive_conv2d, naive_conv2d_grads,
                     naive_deconv2d, naive_deconv2d_grads, tap_loop_layer)


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


def test_forward_and_backprop_reject_unbatched_arrays():
    params = ndnet.init_params([ndnet.dense(3, 2)], 0)
    with pytest.raises(ValueError, match="batch"):
        ndnet.forward(params, np.ones(3))
    trace = ndnet.forward(params, np.ones((1, 3)))
    with pytest.raises(ValueError, match="out_grad shape"):
        ndnet.backprop(params, trace, np.ones(2))
    conv = ndnet.init_params([ndnet.conv2d(1, 2)], 0)
    with pytest.raises(ValueError, match="batch"):
        ndnet.forward(conv, np.ones((1, 4, 4)))


def test_backprop_linear_case():
    # f(w) = w*x with x=2: dL/dw = 2*out_grad
    params = ndnet.init_params([ndnet.dense(1, 1)], 0)
    params.layers[0]["W"][0, 0] = 1.7
    trace = ndnet.forward(params, np.array([[2.0]]))
    grads = zero_grads(params)
    in_grad = ndnet.backprop(params, trace, np.array([[3.0]]), out=grads)
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
    grads = zero_grads(params)
    dx = ndnet.backprop(params, trace, g, out=grads)
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
    grads = zero_grads(params)
    dx = ndnet.backprop(params, trace, g, out=grads)
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


def _linear_layer(lay, seed):
    params = ndnet.init_params([lay], seed)
    params.layers[0]["b"][:] = np.random.default_rng(seed).normal(
        size=lay.out_channels)
    return params


def _check_layer_against(params, x, oracle, fwd_tol, grad_tol):
    """ndnet's output and (W, b, input) gradients of one linear layer
    against oracle(x, W, b, g) -> (output, dW, db, dx); each tolerance maps
    the oracle's array to the largest absolute error allowed."""
    W, b = params.layers[0]["W"], params.layers[0]["b"]
    trace = ndnet.forward(params, x)
    g = np.random.default_rng(x.size).normal(size=trace.output.shape)
    grads = zero_grads(params)
    dx = ndnet.backprop(params, trace, g, out=grads)
    got = (trace.output, grads[0]["W"], grads[0]["b"], dx)
    for i, (a, r) in enumerate(zip(got, oracle(x, W, b, g))):
        assert a.shape == r.shape, (params.spec[0], i)
        tol = fwd_tol if i == 0 else grad_tol
        assert np.max(np.abs(a - r)) <= tol(r), (params.spec[0], i)


def _absolute(limit):
    return lambda ref: limit


@settings(max_examples=100, deadline=None)
@given(batch=st.integers(1, 3), cin=st.integers(1, 3), cout=st.integers(1, 3),
       kernel=st.integers(1, 4), stride=st.integers(1, 3),
       padding=st.integers(0, 2), out_h=st.integers(1, 4),
       out_w=st.integers(1, 4), skip_h=st.integers(0, 2),
       skip_w=st.integers(0, 2), seed=st.integers(0, 2 ** 32 - 1))
def test_conv2d_matches_naive_loops_on_random_geometries(
        batch, cin, cout, kernel, stride, padding, out_h, out_w, skip_h,
        skip_w, seed):
    # skip_h/skip_w (< stride) trailing rows/columns no window reaches
    assume(skip_h < stride and skip_w < stride)
    h = (out_h - 1) * stride + kernel - 2 * padding + skip_h
    w = (out_w - 1) * stride + kernel - 2 * padding + skip_w
    assume(h >= 1 and w >= 1)
    params = _linear_layer(ndnet.conv2d(cin, cout, kernel=kernel,
                                        stride=stride, padding=padding,
                                        activation="none"), seed)
    x = np.random.default_rng(seed).normal(size=(batch, cin, h, w))

    def oracle(x, W, b, g):
        return ((naive_conv2d(x, W, b, stride, padding),)
                + naive_conv2d_grads(x, W, g, stride, padding))

    _check_layer_against(params, x, oracle, _absolute(1e-12),
                         _absolute(1e-10))


@settings(max_examples=100, deadline=None)
@given(batch=st.integers(1, 3), cin=st.integers(1, 3), cout=st.integers(1, 3),
       kernel=st.integers(1, 4), stride=st.integers(1, 3),
       padding=st.integers(0, 2), h=st.integers(1, 5), w=st.integers(1, 5),
       seed=st.integers(0, 2 ** 32 - 1))
def test_deconv2d_matches_naive_loops_on_random_geometries(
        batch, cin, cout, kernel, stride, padding, h, w, seed):
    # output side (side - 1) * stride - 2 * padding + kernel must be >= 1
    assume((min(h, w) - 1) * stride - 2 * padding + kernel >= 1)
    params = _linear_layer(ndnet.deconv2d(cin, cout, kernel=kernel,
                                          stride=stride, padding=padding,
                                          activation="none"), seed)
    x = np.random.default_rng(seed).normal(size=(batch, cin, h, w))

    def oracle(x, W, b, g):
        return ((naive_deconv2d(x, W, b, stride, padding),)
                + naive_deconv2d_grads(x, W, g, stride, padding))

    _check_layer_against(params, x, oracle, _absolute(1e-12),
                         _absolute(1e-10))


# every layer of the 16x16 discriminator encoder and generator decoder,
# with the input side it sees in training
TRAINING_LAYERS = (
    [(ndnet.conv2d(ci, co, activation="none"), side)
     for ci, co, side in ((1, 8, 16), (8, 16, 8), (16, 32, 4), (32, 64, 2))]
    + [(ndnet.deconv2d(ci, co, activation="none"), side)
       for ci, co, side in ((64, 32, 1), (32, 16, 2), (16, 8, 4), (8, 1, 8))])


@pytest.mark.parametrize("lay,side", TRAINING_LAYERS, ids=[
    f"{lay.kind}-{lay.in_channels}to{lay.out_channels}-{side}x{side}"
    for lay, side in TRAINING_LAYERS])
def test_training_shape_layers_match_tap_loop_kernels(lay, side):
    params = _linear_layer(lay, side)
    x = np.random.default_rng(side).normal(size=(50, lay.in_channels,
                                                 side, side))
    relative = lambda ref: 1e-12 * np.max(np.abs(ref))
    _check_layer_against(params, x, functools.partial(tap_loop_layer, lay),
                         relative, relative)


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


def step_with(nets, grads, state):
    """One optimizer step of ``nets`` on ``grads`` (a per-layer list per
    network), copied into the state's gradient row."""
    for net_grads, dest in zip(grads, state.grads, strict=True):
        for glay, dlay in zip(net_grads, dest, strict=True):
            for key in dlay:
                dlay[key][...] = glay[key]
    ndnet.optimizer_step(nets, state)


def test_shapes_preserved_by_forward_backprop_and_optimizer():
    spec = [ndnet.dense(3, 4, "relu"), ndnet.dense(4, 2, "sigmoid")]
    params = ndnet.init_params(spec, 0)
    shapes = [{k: v.shape for k, v in lay.items()} for lay in params.layers]
    trace = ndnet.forward(params, np.ones((2, 3)))
    state = ndnet.init_opt_state((params,))
    ndnet.backprop(params, trace, np.ones((2, 2)), out=state.grads[0])
    ndnet.optimizer_step((params,), state)
    for lay, glay, want in zip(params.layers, state.grads[0], shapes):
        for key in lay:
            assert lay[key].shape == want[key]
            assert glay[key].shape == want[key]
    for lay in params.layers:
        for key in lay:
            assert np.all(np.isfinite(lay[key]))


def test_zero_gradient_leaves_params_unchanged():
    params = ndnet.init_params([ndnet.dense(2, 2)], 3)
    before = params.layers[0]["W"].copy()
    state = ndnet.init_opt_state((params,))
    step_with((params,), [[{"W": np.zeros((2, 2)), "b": np.zeros(2)}]],
              state)
    assert np.array_equal(params.layers[0]["W"], before)


def test_adam_first_step_magnitude():
    # with g=1 everywhere: m_hat=1, v_hat=1, step = lr/(sqrt(1)+eps)
    lr = 1e-3
    params = ndnet.init_params([ndnet.dense(2, 2)], 3)
    before = params.layers[0]["W"].copy()
    state = ndnet.init_opt_state((params,), lr)
    step_with((params,), [[{"W": np.ones((2, 2)), "b": np.ones(2)}]], state)
    delta = before - params.layers[0]["W"]
    expected = lr / (1.0 + 1e-8)
    assert np.allclose(delta, expected, rtol=1e-9)


def test_nonfinite_gradient_raises():
    params = ndnet.init_params([ndnet.dense(2, 2)], 0)
    state = ndnet.init_opt_state((params,))
    bad = [[{"W": np.full((2, 2), np.nan), "b": np.zeros(2)}]]
    with pytest.raises(TrainingDiverged):
        step_with((params,), bad, state)


def test_backprop_rejects_mismatched_out_grad():
    params = ndnet.init_params([ndnet.dense(2, 3)], 0)
    trace = ndnet.forward(params, np.ones((2, 2)))
    with pytest.raises(ValueError):
        ndnet.backprop(params, trace, np.ones((2, 5)))


# (layer specs, input shape) of a small stack of each layer kind
STACKS = {
    "dense": ([ndnet.dense(5, 7, "relu"), ndnet.dense(7, 3, "sigmoid")],
              (6, 5)),
    "conv2d": ([ndnet.conv2d(1, 3), ndnet.conv2d(3, 4, activation="none")],
               (6, 1, 8, 8)),
    "deconv2d": ([ndnet.deconv2d(4, 3),
                  ndnet.deconv2d(3, 1, activation="none")], (6, 4, 2, 2)),
}


@pytest.mark.parametrize("kind", ["dense", "conv2d", "deconv2d"])
def test_backprop_without_input_grad_keeps_parameter_grads(kind):
    spec, shape = STACKS[kind]
    params = ndnet.init_params(spec, 4)
    rng = np.random.default_rng(8)
    trace = ndnet.forward(params, rng.normal(size=shape))
    out_grad = rng.normal(size=trace.output.shape)
    full, lean = zero_grads(params), zero_grads(params)
    in_grad = ndnet.backprop(params, trace, out_grad, out=full)
    none = ndnet.backprop(params, trace, out_grad, out=lean, input_grad=False)
    assert in_grad.shape == trace.x.shape and none is None
    assert_grads_identical(lean, full)


@pytest.mark.parametrize("kind", ["dense", "conv2d"])
def test_flat_adam_matches_per_array_adam(kind):
    spec, shape = STACKS[kind]
    params = ndnet.init_params(spec, 6)
    start = [{k: a.copy() for k, a in lay.items()} for lay in params.layers]
    state = ndnet.init_opt_state((params,), lr=3e-3)
    rng = np.random.default_rng(2)
    grads_seq = []
    for _ in range(25):
        trace = ndnet.forward(params, rng.normal(size=shape))
        ndnet.backprop(params, trace, rng.normal(size=trace.output.shape),
                       out=state.grads[0])
        grads_seq.append([{k: a.copy() for k, a in lay.items()}
                          for lay in state.grads[0]])
        ndnet.optimizer_step((params,), state)
    want = per_array_adam(start, grads_seq, lr=3e-3)
    assert state.step == 25
    for got, ref in zip(params.layers, want, strict=True):
        for key in ref:
            assert np.array_equal(got[key], ref[key])


def test_optimizer_state_holds_params_in_one_buffer():
    # one state covers the networks that one player steps together
    nets = (ndnet.init_params(STACKS["conv2d"][0], 1),
            ndnet.init_params(STACKS["dense"][0], 2))
    before = [[{k: a.copy() for k, a in lay.items()} for lay in net.layers]
              for net in nets]
    state = ndnet.init_opt_state(nets)
    n = sum(a.size for net in before for lay in net for a in lay.values())
    # rows: parameters, gradients, two moments and two of scratch space
    assert state.buffer.shape == (6, n) and state.buffer.flags.c_contiguous
    assert not state.buffer[1:].any()  # gradients and moments start at zero
    for net, ref_net, grads in zip(nets, before, state.grads, strict=True):
        for lay, ref, glay in zip(net.layers, ref_net, grads, strict=True):
            for key in ref:
                assert np.array_equal(lay[key], ref[key])
                assert np.shares_memory(lay[key], state.buffer[0])
                assert glay[key].shape == ref[key].shape
                assert np.shares_memory(glay[key], state.buffer[1])


def test_optimizer_step_rejects_params_rebound_from_the_buffer():
    params = ndnet.init_params(STACKS["dense"][0], 0)
    state = ndnet.init_opt_state((params,))
    params.layers[1]["W"] = params.layers[1]["W"].copy()
    grads = [[{k: np.ones_like(a) for k, a in lay.items()}
              for lay in params.layers]]
    stale = state.buffer.copy()
    with pytest.raises(ValueError, match="init_opt_state"):
        ndnet.optimizer_step((params,), state)
    assert state.step == 0 and np.array_equal(state.buffer, stale)
    # a fresh state adopts the rebound arrays
    state = ndnet.init_opt_state((params,))
    step_with((params,), grads, state)
    assert state.step == 1


@st.composite
def stacks(draw):
    """(params, input, output gradient) of a random dense, conv2d or
    deconv2d stack of one to three layers with random activations."""
    kind = draw(st.sampled_from(["dense", "conv2d", "deconv2d"]))
    depth = draw(st.integers(1, 3))
    acts = draw(st.lists(st.sampled_from(["relu", "sigmoid", "none"]),
                         min_size=depth, max_size=depth))
    width = draw(st.lists(st.integers(1, 4), min_size=depth + 1,
                          max_size=depth + 1))
    if kind == "dense":
        spec = [ndnet.dense(width[i], width[i + 1], acts[i])
                for i in range(depth)]
        shape = (width[0],)
    else:
        layer = ndnet.conv2d if kind == "conv2d" else ndnet.deconv2d
        spec = [layer(width[i], width[i + 1], kernel=draw(st.integers(1, 4)),
                      stride=draw(st.integers(1, 2)),
                      padding=draw(st.integers(0, 1)), activation=acts[i])
                for i in range(depth)]
        side = draw(st.integers(1, 9))
        shape = (width[0], side, side)
    batch = draw(st.integers(1, 5))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    params = ndnet.init_params(spec, rng)
    x = rng.normal(size=(batch,) + shape)
    try:
        out_shape = ndnet.forward(params, x).output.shape
    except ValueError:  # a conv geometry that collapses the grid
        assume(False)
    return params, x, rng.normal(size=out_shape)


def assert_grads_identical(got, want):
    for lay, ref in zip(got, want, strict=True):
        assert lay.keys() == ref.keys()
        for key in ref:
            assert np.array_equal(lay[key], ref[key])


@settings(max_examples=150, deadline=None)
@given(case=stacks())
def test_forward_into_a_given_array_matches_the_allocating_forward(case):
    params, x, _ = case
    want = ndnet.forward(params, x)
    buf = np.full(want.output.shape, np.nan)
    got = ndnet.forward(params, x, buf)
    assert got.output is buf and np.array_equal(buf, want.output)
    for a, b in zip(got.post[:-1], want.post[:-1], strict=True):
        assert np.array_equal(a, b)


@settings(max_examples=150, deadline=None)
@given(case=stacks())
def test_backprop_modes_match_the_allocating_backprop(case):
    params, x, out_grad = case
    trace = ndnet.forward(params, x)
    kept = out_grad.copy()
    grads = zero_grads(params)
    in_grad = ndnet.backprop(params, trace, out_grad, out=grads)
    assert np.array_equal(out_grad, kept)  # the caller's gradient is kept
    # written into an optimizer state's gradient row: the same bits
    dest = ndnet.init_opt_state((params,)).grads[0]
    in_grad2 = ndnet.backprop(params, trace, out_grad, out=dest)
    assert_grads_identical(dest, grads)
    assert np.array_equal(in_grad2, in_grad)
    # input gradient only
    in_only = ndnet.backprop(params, trace, out_grad)
    assert np.array_equal(in_only, in_grad)
    assert np.array_equal(out_grad, kept)


@settings(max_examples=100, deadline=None)
@given(batch=st.integers(1, 200), in_size=st.integers(1, 80),
       seed=st.integers(0, 2 ** 32 - 1))
def test_one_column_input_grad_broadcast_matches_the_product(batch, in_size,
                                                             seed):
    rng = np.random.default_rng(seed)
    params = ndnet.init_params([ndnet.dense(in_size, 1, "none")], rng)
    trace = ndnet.forward(params, rng.normal(size=(batch, in_size)))
    g = rng.normal(size=(batch, 1))
    in_grad = ndnet.backprop(params, trace, g)
    assert np.array_equal(in_grad, g @ params.layers[0]["W"].T)


@settings(max_examples=40, deadline=None)
@given(a=stacks(), b=stacks(), steps=st.integers(1, 6),
       lr=st.floats(1e-4, 1e-1))
def test_multi_net_adam_matches_each_net_stepped_alone(a, b, steps, lr):
    nets = (a[0], b[0])
    start = [[{k: v.copy() for k, v in lay.items()} for lay in net.layers]
             for net in nets]
    state = ndnet.init_opt_state(nets, lr)
    rng = np.random.default_rng(steps)
    seqs = ([], [])
    for _ in range(steps):
        grads = [[{k: rng.normal(size=v.shape) for k, v in lay.items()}
                  for lay in net.layers] for net in nets]
        for seq, g in zip(seqs, grads):
            seq.append(g)
        step_with(nets, grads, state)
    assert state.step == steps
    for net, first, seq in zip(nets, start, seqs):
        assert_grads_identical(net.layers, per_array_adam(first, seq, lr))
