"""Minimal feed-forward network core: dense and 2-D convolutional layers,
exact reverse-mode gradients, and stochastic gradient optimizers.

Networks are homogeneous stacks (all dense, or all conv-family). Composite
models (e.g. a dense mixer feeding a deconvolutional decoder) are built by
composing separate stacks and routing gradients between them.

Everything operates on float64 numpy arrays and is deterministic given the
seed. Inputs are batched: ``(B, d)`` for dense stacks, ``(B, C, H, W)`` for
convolutional stacks; a single sample may be passed unbatched and is
promoted to a batch of one.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

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

    def copy(self) -> "NetParams":
        return NetParams(spec=list(self.spec),
                         layers=[{k: v.copy() for k, v in lay.items()}
                                 for lay in self.layers])


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


def _activation_grad(z: np.ndarray, post: np.ndarray, act: str) -> np.ndarray:
    if act == "relu":
        return (z > 0.0).astype(z.dtype)
    if act == "sigmoid":
        return post * (1.0 - post)
    return np.ones_like(z)


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


def _conv2d_forward(x, W, b, lay: LayerSpec):
    B, _, H, Wd = x.shape
    k, s, p = lay.kernel, lay.stride, lay.padding
    ho, wo = _conv_out_hw(H, Wd, lay)
    xp = np.pad(x, ((0, 0), (0, 0), (p, p), (p, p)))
    z = np.zeros((B, lay.out_channels, ho, wo))
    for ki in range(k):
        for kj in range(k):
            patch = xp[:, :, ki:ki + s * ho:s, kj:kj + s * wo:s]
            z += np.einsum("bchw,oc->bohw", patch, W[:, :, ki, kj])
    return z + b[None, :, None, None]


def _conv2d_backward(x, W, g, lay: LayerSpec):
    B, _, H, Wd = x.shape
    k, s, p = lay.kernel, lay.stride, lay.padding
    ho, wo = g.shape[2], g.shape[3]
    xp = np.pad(x, ((0, 0), (0, 0), (p, p), (p, p)))
    dW = np.zeros_like(W)
    dxp = np.zeros_like(xp)
    for ki in range(k):
        for kj in range(k):
            patch = xp[:, :, ki:ki + s * ho:s, kj:kj + s * wo:s]
            dW[:, :, ki, kj] = np.einsum("bohw,bchw->oc", g, patch)
            dxp[:, :, ki:ki + s * ho:s, kj:kj + s * wo:s] += \
                np.einsum("bohw,oc->bchw", g, W[:, :, ki, kj])
    db = g.sum(axis=(0, 2, 3))
    dx = dxp[:, :, p:p + H, p:p + Wd] if p else dxp
    return dW, db, dx


def _deconv2d_forward(x, W, b, lay: LayerSpec):
    B, _, H, Wd = x.shape
    k, s, p = lay.kernel, lay.stride, lay.padding
    ho, wo = _conv_out_hw(H, Wd, lay)
    full = np.zeros((B, lay.out_channels, ho + 2 * p, wo + 2 * p))
    for ki in range(k):
        for kj in range(k):
            full[:, :, ki:ki + s * H:s, kj:kj + s * Wd:s] += \
                np.einsum("bchw,co->bohw", x, W[:, :, ki, kj])
    z = full[:, :, p:p + ho, p:p + wo] if p else full
    return z + b[None, :, None, None]


def _deconv2d_backward(x, W, g, lay: LayerSpec):
    B, _, H, Wd = x.shape
    k, s, p = lay.kernel, lay.stride, lay.padding
    ho, wo = g.shape[2], g.shape[3]
    gfull = np.zeros((g.shape[0], g.shape[1], ho + 2 * p, wo + 2 * p))
    gfull[:, :, p:p + ho, p:p + wo] = g
    dW = np.zeros_like(W)
    dx = np.zeros_like(x)
    for ki in range(k):
        for kj in range(k):
            gpatch = gfull[:, :, ki:ki + s * H:s, kj:kj + s * Wd:s]
            dW[:, :, ki, kj] = np.einsum("bchw,bohw->co", x, gpatch)
            dx += np.einsum("bohw,co->bchw", gpatch, W[:, :, ki, kj])
    db = g.sum(axis=(0, 2, 3))
    return dW, db, dx


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
        elif lay.kind == "conv2d":
            if a.shape[1] != lay.in_channels:
                raise ValueError("channel mismatch")
            z = _conv2d_forward(a, W, b, lay)
        else:
            if a.shape[1] != lay.in_channels:
                raise ValueError("channel mismatch")
            z = _deconv2d_forward(a, W, b, lay)
        a = _apply_activation(z, lay.activation)
        pre.append(z)
        post.append(a)
    return Trace(x=x, pre=pre, post=post)


def backprop(params: NetParams, trace: Trace,
             out_grad: np.ndarray) -> tuple[list[dict], np.ndarray]:
    """Exact reverse-mode gradients of the forward map.

    ``out_grad`` is the loss gradient with respect to the network output
    (post-activation). Returns (per-layer {"W","b"} gradients, gradient
    with respect to the network input).
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
        g = g * _activation_grad(trace.pre[i], trace.post[i], lay.activation)
        if lay.kind == "dense":
            grads[i] = {"W": a_prev.T @ g, "b": g.sum(axis=0)}
            g = g @ W.T
        elif lay.kind == "conv2d":
            dW, db, g = _conv2d_backward(a_prev, W, g, lay)
            grads[i] = {"W": dW, "b": db}
        else:
            dW, db, g = _deconv2d_backward(a_prev, W, g, lay)
            grads[i] = {"W": dW, "b": db}
    return grads, g


@dataclass
class OptState:
    """Per-parameter accumulator state for the optimizer."""

    kind: str = "adam"  # "adam" | "sgd"
    lr: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    step: int = 0
    m: list = field(default_factory=list)
    v: list = field(default_factory=list)


def init_opt_state(params: NetParams, kind: str = "adam",
                   lr: float = 1e-3) -> OptState:
    if kind not in ("adam", "sgd"):
        raise ConfigError(f"unknown optimizer {kind!r}")
    zeros = lambda: [{k: np.zeros_like(v) for k, v in lay.items()}
                     for lay in params.layers]
    return OptState(kind=kind, lr=lr, m=zeros(), v=zeros())


def optimizer_step(params: NetParams, grads: list[dict],
                   state: OptState) -> tuple[NetParams, OptState]:
    """Apply one optimizer update in place.

    Raises :class:`TrainingDiverged` on any non-finite gradient so callers
    can attribute the fault to a training iteration.
    """
    for glay in grads:
        for g in glay.values():
            if not np.all(np.isfinite(g)):
                raise TrainingDiverged("non-finite gradient")
    if state.kind == "sgd":
        for lay, glay in zip(params.layers, grads):
            for key in lay:
                lay[key] -= state.lr * glay[key]
        return params, state
    state.step += 1
    b1, b2 = state.beta1, state.beta2
    bias1 = 1.0 - b1 ** state.step
    bias2 = 1.0 - b2 ** state.step
    for lay, glay, mlay, vlay in zip(params.layers, grads, state.m, state.v):
        for key in lay:
            g = glay[key]
            mlay[key] = b1 * mlay[key] + (1.0 - b1) * g
            vlay[key] = b2 * vlay[key] + (1.0 - b2) * g * g
            m_hat = mlay[key] / bias1
            v_hat = vlay[key] / bias2
            lay[key] -= state.lr * m_hat / (np.sqrt(v_hat) + state.eps)
    return params, state
