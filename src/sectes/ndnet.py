"""Minimal feed-forward network core: dense and 2-D convolutional layers,
exact reverse-mode gradients, and the Adam optimizer.

Networks are homogeneous stacks (all dense, or all conv-family). Composite
models (e.g. a dense mixer feeding a deconvolutional decoder) are built by
composing separate stacks and routing gradients between them.

Everything operates on float64 numpy arrays and is deterministic given the
seed. Inputs are batched: ``(B, d)`` for dense stacks, ``(B, C, H, W)`` for
convolutional stacks; a single sample may be passed unbatched and is
promoted to a batch of one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import ConfigError, TrainingDiverged

# sigmoid saturates beyond this; keeps exp() finite without visible effect
SIGMOID_CLAMP = 30.0

_ACTIVATIONS = ("relu", "sigmoid", "none")


@dataclass(frozen=True)
class LayerSpec:
    """Geometry and activation of one layer.

    ``kind`` is "dense", "conv2d" or "deconv2d". Dense layers use
    ``in_size``/``out_size``; conv layers use the channel/kernel/stride
    fields. ``padding`` is symmetric spatial zero padding.
    """

    kind: str
    activation: str = "none"
    in_size: int = 0
    out_size: int = 0
    in_channels: int = 0
    out_channels: int = 0
    kernel: int = 0
    stride: int = 1
    padding: int = 0


def dense(in_size: int, out_size: int, activation: str = "none") -> LayerSpec:
    return LayerSpec(kind="dense", activation=activation,
                     in_size=in_size, out_size=out_size)


def conv2d(in_channels: int, out_channels: int, kernel: int = 4,
           stride: int = 2, padding: int = 1,
           activation: str = "relu") -> LayerSpec:
    return LayerSpec(kind="conv2d", activation=activation,
                     in_channels=in_channels, out_channels=out_channels,
                     kernel=kernel, stride=stride, padding=padding)


def deconv2d(in_channels: int, out_channels: int, kernel: int = 4,
             stride: int = 2, padding: int = 1,
             activation: str = "relu") -> LayerSpec:
    return LayerSpec(kind="deconv2d", activation=activation,
                     in_channels=in_channels, out_channels=out_channels,
                     kernel=kernel, stride=stride, padding=padding)


@dataclass
class NetParams:
    """Per-layer weights and biases, plus the spec that produced them."""

    spec: list[LayerSpec]
    layers: list[dict[str, np.ndarray]]  # each {"W": ..., "b": ...}


@dataclass
class Trace:
    """All intermediate activations of one forward pass."""

    x: np.ndarray          # (promoted) network input
    pre: list[np.ndarray]  # pre-activation per layer
    post: list[np.ndarray]  # post-activation per layer

    @property
    def output(self) -> np.ndarray:
        return self.post[-1]


def _validate_spec(spec: list[LayerSpec]) -> None:
    if not spec:
        raise ConfigError("layer spec list is empty")
    kinds = {"dense" if l.kind == "dense" else "conv" for l in spec}
    if len(kinds) > 1:
        raise ConfigError("mixed dense and convolutional stacks; "
                          "compose separate networks instead")
    for i, lay in enumerate(spec):
        if lay.kind not in ("dense", "conv2d", "deconv2d"):
            raise ConfigError(f"layer {i}: unknown kind {lay.kind!r}")
        if lay.activation not in _ACTIVATIONS:
            raise ConfigError(f"layer {i}: unknown activation {lay.activation!r}")
        if lay.kind == "dense":
            if lay.in_size < 1 or lay.out_size < 1:
                raise ConfigError(f"layer {i}: dense sizes must be positive")
        else:
            if lay.in_channels < 1 or lay.out_channels < 1 or lay.kernel < 1:
                raise ConfigError(f"layer {i}: conv geometry must be positive")
            if lay.stride < 1 or lay.padding < 0:
                raise ConfigError(f"layer {i}: bad stride/padding")
    for i in range(len(spec) - 1):
        a, b = spec[i], spec[i + 1]
        if a.kind == "dense":
            if a.out_size != b.in_size:
                raise ConfigError(
                    f"layer {i} output size {a.out_size} != "
                    f"layer {i + 1} input size {b.in_size}")
        elif a.out_channels != b.in_channels:
            raise ConfigError(
                f"layer {i} output channels {a.out_channels} != "
                f"layer {i + 1} input channels {b.in_channels}")


def init_params(spec: list[LayerSpec], seed: int) -> NetParams:
    """Initialize weights uniformly in [-a, a] with a = sqrt(6/(fan_in+fan_out)).

    Biases start at zero. Deterministic given the seed.
    """
    _validate_spec(spec)
    rng = np.random.default_rng(seed)
    layers = []
    for lay in spec:
        if lay.kind == "dense":
            fan_in, fan_out = lay.in_size, lay.out_size
            w_shape = (lay.in_size, lay.out_size)
            b_shape = (lay.out_size,)
        else:
            fan_in = lay.in_channels * lay.kernel * lay.kernel
            fan_out = lay.out_channels * lay.kernel * lay.kernel
            if lay.kind == "conv2d":
                w_shape = (lay.out_channels, lay.in_channels, lay.kernel, lay.kernel)
            else:
                w_shape = (lay.in_channels, lay.out_channels, lay.kernel, lay.kernel)
            b_shape = (lay.out_channels,)
        bound = np.sqrt(6.0 / (fan_in + fan_out))
        layers.append({"W": rng.uniform(-bound, bound, size=w_shape),
                       "b": np.zeros(b_shape)})
    return NetParams(spec=list(spec), layers=layers)


def _apply_activation(z: np.ndarray, act: str) -> np.ndarray:
    if act == "relu":
        return np.maximum(z, 0.0)
    if act == "sigmoid":
        return 1.0 / (1.0 + np.exp(-np.clip(z, -SIGMOID_CLAMP, SIGMOID_CLAMP)))
    return z


def _activation_backward(g: np.ndarray, z: np.ndarray, post: np.ndarray,
                         act: str) -> np.ndarray:
    """Gradient at the pre-activation z from the gradient g at its
    activation ``post``."""
    if act == "relu":
        return g * (z > 0.0).astype(z.dtype)
    if act == "sigmoid":
        return g * (post * (1.0 - post))
    return g


def _promote(params: NetParams, x: np.ndarray) -> tuple[np.ndarray, bool]:
    x = np.asarray(x, dtype=np.float64)
    first = params.spec[0]
    want = 2 if first.kind == "dense" else 4
    if x.ndim == want - 1:
        return x[None, ...], True
    if x.ndim != want:
        raise ValueError(f"input has {x.ndim} dims, expected {want} "
                         f"(batched) or {want - 1} (single sample)")
    return x, False


def _conv_out_hw(h: int, w: int, lay: LayerSpec) -> tuple[int, int]:
    if lay.kind == "conv2d":
        ho = (h + 2 * lay.padding - lay.kernel) // lay.stride + 1
        wo = (w + 2 * lay.padding - lay.kernel) // lay.stride + 1
    else:
        ho = (h - 1) * lay.stride - 2 * lay.padding + lay.kernel
        wo = (w - 1) * lay.stride - 2 * lay.padding + lay.kernel
    if ho < 1 or wo < 1:
        raise ValueError(f"{lay.kind} collapses {h}x{w} input to {ho}x{wo}")
    return ho, wo


# The conv kernels work on batch-last views (C, H, W, B) of the (B, C, H, W)
# activations, so the batch is the contiguous inner axis of every im2col
# copy and col2im add; their arrays come back as (B, C, H, W) views.

def _batch_last(a):
    return a.transpose(1, 2, 3, 0)


def _pad(a, p: int):
    if p == 0:
        return a
    B, C, h, w = a.shape
    out = np.zeros((C, h + 2 * p, w + 2 * p, B))
    out[:, p:-p, p:-p] = _batch_last(a)
    return out.transpose(3, 0, 1, 2)


def _patches(xp, lay: LayerSpec):
    """(C, ho, wo, B, k, k) view of the padded input xp: the k x k window
    each output of the convolution reads."""
    s = lay.stride
    return sliding_window_view(_batch_last(xp), (lay.kernel, lay.kernel),
                               axis=(1, 2))[:, ::s, ::s]


# A conv2d layer's W is (out, in, k, k). A deconv2d layer's W is
# (in, out, k, k): the W of the conv2d layer mapping the deconv's output
# back to its input. So the three kernels below serve both kinds: the
# deconv forward pass is that conv's input-gradient scatter, its input
# gradient is that conv's forward contraction, and its weight gradient
# is that conv's weight gradient with the two activations swapped. Each
# is one BLAS product over the im2col patches (Chellapilla et al. 2006);
# the scatter then adds its columns back onto the input grid (col2im).

def _conv_contract(xp, W, lay: LayerSpec):
    """Convolution of the padded input xp, without bias."""
    z = np.tensordot(W, _patches(xp, lay),
                     axes=((1, 2, 3), (0, 4, 5)))  # (O, ho, wo, B)
    return z.transpose(3, 0, 1, 2)


def _conv_scatter(g, W, lay: LayerSpec, hp: int, wp: int):
    """Input gradient of the convolution, on the hp x wp padded input."""
    k, s = lay.kernel, lay.stride
    ho, wo = g.shape[2:]
    cols = np.tensordot(W, _batch_last(g), axes=(0, 0))  # (C, k, k, ho, wo, B)
    dxp = np.zeros((W.shape[1], hp, wp, g.shape[0]))
    for ki in range(k):
        for kj in range(k):
            dxp[:, ki:ki + s * ho:s, kj:kj + s * wo:s] += cols[:, ki, kj]
    return dxp.transpose(3, 0, 1, 2)


def _conv_weight_grad(g, xp, lay: LayerSpec):
    """Weight gradient of the convolution from its output gradient g and
    padded input xp."""
    dW = np.tensordot(_patches(xp, lay), _batch_last(g),
                      axes=((1, 2, 3), (1, 2, 3)))  # (C, k, k, O)
    return dW.transpose(3, 0, 1, 2)


def forward(params: NetParams, x: np.ndarray) -> Trace:
    """Run the network, recording every intermediate activation.

    Pure function of (params, x); returns a :class:`Trace` whose final
    entry is the network output.
    """
    x, _ = _promote(params, x)
    pre, post = [], []
    a = x
    for lay, weights in zip(params.spec, params.layers):
        W, b = weights["W"], weights["b"]
        if lay.kind == "dense":
            if a.shape[1] != lay.in_size:
                raise ValueError(f"input width {a.shape[1]} != layer "
                                 f"in_size {lay.in_size}")
            z = a @ W + b
        else:
            if a.shape[1] != lay.in_channels:
                raise ValueError("channel mismatch")
            ho, wo = _conv_out_hw(a.shape[2], a.shape[3], lay)
            p = lay.padding
            if lay.kind == "conv2d":
                z = _conv_contract(_pad(a, p), W, lay)
            else:
                full = _conv_scatter(a, W, lay, ho + 2 * p, wo + 2 * p)
                z = full[:, :, p:p + ho, p:p + wo]
            z = z + b[None, :, None, None]
        a = _apply_activation(z, lay.activation)
        pre.append(z)
        post.append(a)
    return Trace(x=x, pre=pre, post=post)


def backprop(params: NetParams, trace: Trace, out_grad: np.ndarray,
             input_grad: bool = True) -> tuple[list[dict], np.ndarray | None]:
    """Exact reverse-mode gradients of the forward map.

    ``out_grad`` is the loss gradient with respect to the network output
    (post-activation). Returns (per-layer {"W","b"} gradients, gradient
    with respect to the network input). With ``input_grad=False`` the
    first layer's input gradient is not computed and None takes its
    place; the parameter gradients are the same.
    """
    if len(trace.pre) != len(params.spec):
        raise ValueError("trace does not match network depth")
    g = np.asarray(out_grad, dtype=np.float64)
    if g.ndim == trace.output.ndim - 1:
        g = g[None, ...]
    if g.shape != trace.output.shape:
        raise ValueError(f"out_grad shape {g.shape} != output shape "
                         f"{trace.output.shape}")
    grads: list[dict] = [None] * len(params.spec)
    for i in range(len(params.spec) - 1, -1, -1):
        lay = params.spec[i]
        W = params.layers[i]["W"]
        a_prev = trace.post[i - 1] if i > 0 else trace.x
        g = _activation_backward(g, trace.pre[i], trace.post[i],
                                 lay.activation)
        need_in = i > 0 or input_grad
        if lay.kind == "dense":
            grads[i] = {"W": a_prev.T @ g, "b": g.sum(axis=0)}
            g = g @ W.T if need_in else None
            continue
        p, (h, w) = lay.padding, a_prev.shape[2:]
        g_in = None
        if lay.kind == "conv2d":
            xp = _pad(a_prev, p)
            dW = _conv_weight_grad(g, xp, lay)
            if need_in:
                dxp = _conv_scatter(g, W, lay, *xp.shape[2:])
                g_in = dxp[:, :, p:p + h, p:p + w]
        else:
            gp = _pad(g, p)
            dW = _conv_weight_grad(a_prev, gp, lay)
            if need_in:
                g_in = _conv_contract(gp, W, lay)
        grads[i] = {"W": dW, "b": g.sum(axis=(0, 2, 3))}
        g = g_in
    return grads, g


ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


@dataclass
class OptState:
    """Adam state of one network: a contiguous (3, n) float64 buffer whose
    rows hold the network's n parameters and their first and second
    moment estimates. The network's layer arrays are ``views`` into the
    first row."""

    lr: float
    buffer: np.ndarray
    views: tuple
    step: int = 0


def init_opt_state(params: NetParams, lr: float = 1e-3) -> OptState:
    """Adam state for ``params``. Every layer array is rebound, with the
    same values, to a view of the state's buffer, so that one update
    covers the whole network."""
    buffer = np.zeros((3, sum(a.size for lay in params.layers
                              for a in lay.values())))
    views, offset = [], 0
    for lay in params.layers:
        for key, a in lay.items():
            view = buffer[0, offset:offset + a.size].reshape(a.shape)
            view[...] = a
            lay[key] = view
            views.append(view)
            offset += a.size
    return OptState(lr=lr, buffer=buffer, views=tuple(views))


def optimizer_step(params: NetParams, grads: list[dict],
                   state: OptState) -> tuple[NetParams, OptState]:
    """Apply one Adam update in place, on the flat rows of ``state``'s
    buffer.

    Raises :class:`TrainingDiverged` on any non-finite gradient so callers
    can attribute the fault to a training iteration, and ValueError if a
    layer array of ``params`` is no longer the view that
    :func:`init_opt_state` made (the update would miss it).
    """
    arrays = [lay[key] for lay in params.layers for key in lay]
    if len(arrays) != len(state.views) or any(
            a is not b for a, b in zip(arrays, state.views)):
        raise ValueError("network parameters are not views of the optimizer "
                         "state's buffer; call init_opt_state again")
    g = np.concatenate([glay[key].ravel()
                        for lay, glay in zip(params.layers, grads)
                        for key in lay])
    if not np.isfinite(g).all():
        raise TrainingDiverged("non-finite gradient")
    state.step += 1
    b1, b2 = ADAM_BETA1, ADAM_BETA2
    bias1 = 1.0 - b1 ** state.step
    bias2 = 1.0 - b2 ** state.step
    params_flat, m, v = state.buffer
    # m = b1*m + (1-b1)*g and v = b2*v + ((1-b2)*g)*g, in place
    m *= b1
    m += (1.0 - b1) * g
    v *= b2
    tmp = (1.0 - b2) * g
    tmp *= g
    v += tmp
    # step = lr * (m / bias1) / (sqrt(v / bias2) + eps)
    np.divide(v, bias2, out=tmp)
    np.sqrt(tmp, out=tmp)
    tmp += ADAM_EPS
    step = m / bias1
    step *= state.lr
    step /= tmp
    params_flat -= step
    return params, state
