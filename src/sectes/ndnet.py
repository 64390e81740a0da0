"""Minimal feed-forward network core: dense and 2-D convolutional layers,
exact reverse-mode gradients, and the Adam optimizer.

Networks are homogeneous stacks (all dense, or all conv-family). Composite
models (e.g. a dense mixer feeding a deconvolutional decoder) are built by
composing separate stacks and routing gradients between them.

Everything operates on float64 numpy arrays and is deterministic given the
seed. Inputs and output gradients are batched: ``(B, d)`` for dense stacks,
``(B, C, H, W)`` for convolutional stacks, with ``B = 1`` for one sample.
A forward pass keeps one array per layer, its activation; backprop writes
parameter gradients into arrays the caller gives it (an :class:`OptState`'s)
and returns the input gradient.
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
    """The input and every layer's activation of one forward pass; the
    pre-activations are not kept (backprop reads only the activations)."""

    x: np.ndarray           # network input
    post: list[np.ndarray]  # activation per layer

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


def forward(params: NetParams, x: np.ndarray,
            out: np.ndarray | None = None) -> Trace:
    """Run the network on the batch x, recording every layer's activation.

    Pure function of (params, x); returns a :class:`Trace` whose final
    entry is the network output. Each activation is applied in place on
    its layer's pre-activation array. With ``out``, an array of the
    output's shape, the last layer writes its activation there.
    """
    x = np.asarray(x, dtype=np.float64)
    want = 2 if params.spec[0].kind == "dense" else 4
    if x.ndim != want:
        raise ValueError(f"input has {x.ndim} dims, expected {want} (a batch)")
    post = []
    a = x
    last = len(params.spec) - 1
    for i, (lay, weights) in enumerate(zip(params.spec, params.layers)):
        W, b = weights["W"], weights["b"]
        if lay.kind == "dense":
            if a.shape[1] != lay.in_size:
                raise ValueError(f"input width {a.shape[1]} != layer "
                                 f"in_size {lay.in_size}")
            z = a @ W
            z += b
        else:
            if a.shape[1] != lay.in_channels:
                raise ValueError("channel mismatch")
            ho, wo = _conv_out_hw(a.shape[2], a.shape[3], lay)
            p = lay.padding
            if lay.kind == "conv2d":
                z = _conv_contract(_pad(a, p), W, lay)
                z += b[None, :, None, None]
            else:
                full = _conv_scatter(a, W, lay, ho + 2 * p, wo + 2 * p)
                # adding out of place leaves a compact array, not a
                # strided crop, for the activation and backprop to read
                z = full[:, :, p:p + ho, p:p + wo] + b[None, :, None, None]
        a = z if i < last or out is None else out
        if lay.activation == "relu":
            np.maximum(z, 0.0, out=a)
        elif lay.activation == "sigmoid":
            # np.clip's result, without its Python-level dispatch
            clamped = np.minimum(np.maximum(z, -SIGMOID_CLAMP), SIGMOID_CLAMP)
            np.divide(1.0, 1.0 + np.exp(-clamped), out=a)
        elif a is not z:
            a[...] = z
        post.append(a)
    return Trace(x=x, post=post)


def backprop(params: NetParams, trace: Trace, out_grad: np.ndarray,
             out: list[dict] | None = None,
             input_grad: bool = True) -> np.ndarray | None:
    """Exact reverse-mode gradients of the forward map.

    ``out_grad`` is the loss gradient with respect to the network output
    (post-activation), batched like it. Parameter gradients are computed
    only with ``out``, per-layer {"W","b"} arrays of the parameters'
    shapes (such as an :attr:`OptState.grads` entry), and are written
    there. Returns the gradient with respect to the network input, or
    None with ``input_grad=False``, which skips the first layer's input
    gradient.
    """
    if len(trace.post) != len(params.spec):
        raise ValueError("trace does not match network depth")
    g = np.asarray(out_grad, dtype=np.float64)
    if g.shape != trace.output.shape:
        raise ValueError(f"out_grad shape {g.shape} != output shape "
                         f"{trace.output.shape}")
    # relu masks are applied in place only on contiguous gradients made
    # here: out_grad is the caller's, and on a strided view the new layout
    # would reorder the bias gradient's sum
    owned = False
    for i in range(len(params.spec) - 1, -1, -1):
        lay, post = params.spec[i], trace.post[i]
        W = params.layers[i]["W"]
        a_prev = trace.post[i - 1] if i > 0 else trace.x
        if lay.activation == "relu":
            # post > 0 exactly where the pre-activation is (NaN and -0 too)
            in_place = owned and g.flags.c_contiguous
            g = np.multiply(g, post > 0.0, out=g if in_place else None)
        elif lay.activation == "sigmoid":
            g = g * (post * (1.0 - post))
        need_in = i > 0 or input_grad
        dst = None if out is None else out[i]
        p, g_in = lay.padding, None
        if lay.kind == "dense":
            if dst is not None:
                np.matmul(a_prev.T, g, out=dst["W"])
            if need_in:
                # one output column: its K = 1 product is a broadcast
                g_in = g * W[:, 0] if lay.out_size == 1 else g @ W.T
        elif lay.kind == "conv2d":
            xp, (h, w) = _pad(a_prev, p), a_prev.shape[2:]
            if dst is not None:
                dst["W"][...] = _conv_weight_grad(g, xp, lay)
            if need_in:
                dxp = _conv_scatter(g, W, lay, *xp.shape[2:])
                g_in = dxp[:, :, p:p + h, p:p + w]
        else:
            gp = _pad(g, p)
            if dst is not None:
                dst["W"][...] = _conv_weight_grad(a_prev, gp, lay)
            if need_in:
                g_in = _conv_contract(gp, W, lay)
        if dst is not None:
            axes = 0 if lay.kind == "dense" else (0, 2, 3)
            np.add.reduce(g, axis=axes, out=dst["b"])
        g, owned = g_in, True
    return g


ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


@dataclass
class OptState:
    """Adam state of the networks that one player steps together: a
    contiguous (6, n) float64 buffer whose rows hold the networks' n
    parameters, their gradients, the first and second moment estimates
    and two rows of scratch space for the update. The networks' layer
    arrays are ``views`` into the first row; ``grads`` holds, per
    network, per-layer {"W","b"} views into the second row, which
    :func:`backprop` writes when given one as ``out``."""

    lr: float
    buffer: np.ndarray
    views: tuple
    grads: tuple
    step: int = 0


def init_opt_state(nets: tuple[NetParams, ...],
                   lr: float = 1e-3) -> OptState:
    """Adam state for the networks ``nets``, stepped together. Every layer
    array is rebound, with the same values, to a view of the state's
    buffer, so that one update covers all of them."""
    buffer = np.zeros((6, sum(a.size for net in nets for lay in net.layers
                              for a in lay.values())))
    views, grads, offset = [], [], 0
    for net in nets:
        grads.append([])
        for lay in net.layers:
            grads[-1].append({})
            for key, a in lay.items():
                view, grad = buffer[:2, offset:offset + a.size].reshape(
                    (2,) + a.shape)
                view[...] = a
                lay[key] = view
                views.append(view)
                grads[-1][-1][key] = grad
                offset += a.size
    return OptState(lr=lr, buffer=buffer, views=tuple(views),
                    grads=tuple(grads))


def optimizer_step(nets: tuple[NetParams, ...], state: OptState) -> None:
    """Apply one Adam update to ``nets`` in place, on the flat rows of
    ``state``'s buffer, from the gradients in its ``grads`` (which
    :func:`backprop` writes when given them as ``out``).

    Raises :class:`TrainingDiverged` on any non-finite gradient so callers
    can attribute the fault to a training iteration, and ValueError if a
    layer array of ``nets`` is no longer the view that
    :func:`init_opt_state` made (the update would miss it).
    """
    arrays = [lay[key] for net in nets for lay in net.layers for key in lay]
    if len(arrays) != len(state.views) or any(
            a is not b for a, b in zip(arrays, state.views)):
        raise ValueError("network parameters are not views of the optimizer "
                         "state's buffer; call init_opt_state again")
    params_flat, g, m, v, tmp, step = state.buffer
    if not np.isfinite(g).all():
        raise TrainingDiverged("non-finite gradient")
    state.step += 1
    b1, b2 = ADAM_BETA1, ADAM_BETA2
    bias1 = 1.0 - b1 ** state.step
    bias2 = 1.0 - b2 ** state.step
    # m = b1*m + (1-b1)*g and v = b2*v + ((1-b2)*g)*g, in place
    m *= b1
    m += np.multiply(1.0 - b1, g, out=tmp)
    v *= b2
    np.multiply(1.0 - b2, g, out=tmp)
    tmp *= g
    v += tmp
    # step = lr * (m / bias1) / (sqrt(v / bias2) + eps)
    np.divide(v, bias2, out=tmp)
    np.sqrt(tmp, out=tmp)
    tmp += ADAM_EPS
    np.divide(m, bias1, out=step)
    step *= state.lr
    step /= tmp
    params_flat -= step
