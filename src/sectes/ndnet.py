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

A training run's batch shapes are fixed, so its passes reuse their arrays:
a :class:`Trace` given back to :func:`forward` with an input of the shape
it was made for is refilled in place, and the conv layers' temporaries
come from scratch that the trace owns. What a trace holds, and the input
gradient that :func:`backprop` returns, therefore hold only until the
trace's next use.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

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
    """Per-layer weights and biases, plus the spec that produced them.
    A valid spec and one {"W", "b"} pair per layer, of the shapes that
    :func:`init_params` makes, are checked on construction."""

    spec: list[LayerSpec]
    layers: list[dict[str, np.ndarray]]  # each {"W": ..., "b": ...}

    def __post_init__(self):
        _validate_spec(self.spec)
        if len(self.layers) != len(self.spec):
            raise ConfigError(f"{len(self.spec)} layer specs but "
                              f"{len(self.layers)} layers")
        for i, (lay, arrays) in enumerate(zip(self.spec, self.layers)):
            got = {key: np.shape(a) for key, a in arrays.items()}
            want = _param_shapes(lay)
            if got != want:
                raise ConfigError(f"layer {i}: parameter shapes {got}, "
                                  f"expected {want}")


@dataclass
class Trace:
    """The input and every layer's activation of one forward pass; the
    pre-activations are not kept (backprop reads only the activations).

    A trace owns the arrays its passes fill, in ``arrays``: each layer's
    activation (for a layer before a conv2d layer that pads, the interior
    of that layer's zero-bordered padded input, so no pass pads it again),
    each deconv layer's padded output gradient, and the scratch for the
    other conv temporaries (im2col columns, col2im grid, pre-activation,
    weight gradient): one region per kind that all layers share, sized
    for the largest. :func:`forward` given the trace back with an input of
    the same shape overwrites the arrays in ``post``, and :func:`backprop`
    overwrites the scratch: ``post``, ``output`` and the input gradient
    backprop returns are views that the trace's next use overwrites, so
    copy what must outlive it.
    """

    x: np.ndarray           # network input
    post: list[np.ndarray]  # activation per layer
    arrays: dict = field(default_factory=dict, repr=False)

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


def _param_shapes(lay: LayerSpec) -> dict:
    """The shapes of a layer's W and b."""
    if lay.kind == "dense":
        return {"W": (lay.in_size, lay.out_size), "b": (lay.out_size,)}
    pair = ((lay.out_channels, lay.in_channels) if lay.kind == "conv2d"
            else (lay.in_channels, lay.out_channels))
    return {"W": pair + (lay.kernel, lay.kernel), "b": (lay.out_channels,)}


def init_params(spec: list[LayerSpec], seed: int) -> NetParams:
    """Initialize weights uniformly in [-a, a] with a = sqrt(6/(fan_in+fan_out)).

    Biases start at zero. Deterministic given the seed.
    """
    _validate_spec(spec)  # before a zero width divides below
    rng = np.random.default_rng(seed)
    layers = []
    for lay in spec:
        shapes = _param_shapes(lay)
        w = shapes["W"]
        # fan_in + fan_out: both channel (or size) counts times the taps
        bound = np.sqrt(6.0 / ((w[0] + w[1]) * math.prod(w[2:])))
        layers.append({"W": rng.uniform(-bound, bound, size=w),
                       "b": np.zeros(shapes["b"])})
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


def _kept(arrays: dict, key, shape, make=np.empty):
    """arrays[key], a ``shape`` view of a flat buffer remade when small."""
    view = arrays.get(key)
    if view is None or view.shape != shape:
        n = math.prod(shape)
        flat = make(n) if view is None or view.base.size < n else view.base
        view = arrays[key] = flat[:n].reshape(shape)
    return view


def _padded(arrays: dict, key, a, p: int, fill: bool = False):
    """a (B, C, h, w) padded by p, batch-last, in arrays[key]: its border
    stays zero, and ``fill`` copies a in (else the layer before writes it)."""
    if not p:
        return _batch_last(a)
    B, C, h, w = a.shape
    xp = _kept(arrays, key, (C, h + 2 * p, w + 2 * p, B), np.zeros)
    if fill:
        xp[:, p:-p, p:-p] = _batch_last(a)
    return xp


# A conv2d layer's W is (out, in, k, k). A deconv2d layer's W is
# (in, out, k, k): the W of the conv2d layer mapping the deconv's output
# back to its input. So the three kernels below serve both kinds: the
# deconv forward pass is that conv's input-gradient scatter, its input
# gradient is that conv's forward contraction, and its weight gradient
# is that conv's weight gradient with the two activations swapped. Each
# is one BLAS product over the im2col columns (Chellapilla et al. 2006),
# on the operand layouts that np.tensordot gave them; the scatter then
# adds its columns back onto the input grid (col2im).

def _im2col(xp, lay: LayerSpec, arrays: dict):
    """The (C*k*k, ho*wo*B) im2col matrix of the batch-last padded input
    xp: column (i, j, b) is the window that output (i, j) of sample b reads."""
    k, s = lay.kernel, lay.stride
    win = sliding_window_view(xp, (k, k), axis=(1, 2))[:, ::s, ::s]
    win = win.transpose(0, 4, 5, 1, 2, 3)
    try:  # windows that tile xp: a view, as np.tensordot took it
        return win.reshape(len(win) * k * k, -1, copy=False)
    except ValueError:
        cols = _kept(arrays, "cols", win.shape)
        cols[...] = win
        return cols.reshape(len(win) * k * k, -1)


def _scatter(g, W, lay: LayerSpec, arrays: dict, shape):
    """Input gradient of the convolution from its output gradient g, on
    its batch-last padded input of ``shape``."""
    k, s = lay.kernel, lay.stride
    B, O, ho, wo = g.shape
    cols = _kept(arrays, "cols", (W.shape[1], k, k, ho, wo, B))
    np.dot(W.reshape(O, -1).T, _batch_last(g).reshape(O, -1),
           out=cols.reshape(-1, ho * wo * B))
    grid = _kept(arrays, "grid", shape)
    grid[...] = 0.0
    for ki in range(k):
        for kj in range(k):
            grid[:, ki:ki + s * ho:s, kj:kj + s * wo:s] += cols[:, ki, kj]
    return grid


def _weight_grad(cols, g, dW, arrays: dict):
    """Write into dW the weight gradient of the convolution from the im2col
    matrix of its input and its output gradient g (deconv: swapped)."""
    gt = g.transpose(2, 3, 0, 1)  # (ho, wo, B, O)
    prod = _kept(arrays, "wgrad", (len(cols), gt.shape[3]))
    np.dot(cols, gt.reshape(-1, gt.shape[3]), out=prod)
    dW[...] = prod.reshape(*dW.shape[1:], -1).transpose(3, 0, 1, 2)


def forward(params: NetParams, x: np.ndarray,
            trace: Trace | None = None) -> Trace:
    """Run the network on the batch x, recording every layer's activation.

    Pure function of (params, x); returns a :class:`Trace` whose final
    entry is the network output. With ``trace``, one that an earlier call
    on this network returned, the call refills that trace and returns it
    when x has the shape it was made for (its earlier activations are
    overwritten; x must not be a view into it), and makes a new trace
    otherwise.
    """
    x = np.asarray(x, dtype=np.float64)
    want = 2 if params.spec[0].kind == "dense" else 4
    if x.ndim != want:
        raise ValueError(f"input has {x.ndim} dims, expected {want} (a batch)")
    if trace is None or trace.x.shape != x.shape:
        trace = Trace(x, [])
    trace.x, trace.post, kept = x, [], trace.arrays
    a, last = x, len(params.spec) - 1
    for i, (lay, weights) in enumerate(zip(params.spec, params.layers)):
        W, b = weights["W"], weights["b"]
        if lay.kind == "dense":
            if a.shape[1] != lay.in_size:
                raise ValueError(f"input width {a.shape[1]} != layer "
                                 f"in_size {lay.in_size}")
            z = act = np.matmul(a, W, out=_kept(kept, i, (len(a), len(b))))
            z += b
        else:
            if a.shape[1] != lay.in_channels:
                raise ValueError("channel mismatch")
            ho, wo = _conv_out_hw(a.shape[2], a.shape[3], lay)
            p, O, B = lay.padding, lay.out_channels, len(a)
            z = _kept(kept, "z", (O, ho, wo, B))
            if lay.kind == "conv2d":
                xp = _padded(kept, ("pad", i), a, p, fill=i == 0)
                np.dot(W.reshape(O, -1), _im2col(xp, lay, kept),
                       out=z.reshape(O, -1))
            else:
                grid = _scatter(a, W, lay, kept,
                                (O, ho + 2 * p, wo + 2 * p, B))
                z[...] = grid[:, p:p + ho, p:p + wo]
            z += b[:, None, None, None]
            z = z.transpose(3, 0, 1, 2)
            nxt = params.spec[i + 1] if i < last else None
            q = nxt.padding if nxt and nxt.kind == "conv2d" else 0
            act = (_padded(kept, ("pad", i + 1), z, q)[:, q:-q, q:-q] if q
                   else _kept(kept, i, (O, ho, wo, B))).transpose(3, 0, 1, 2)
        if lay.activation == "relu":
            np.maximum(z, 0.0, out=act)
        elif lay.activation == "sigmoid":
            # np.clip's result, without its Python-level dispatch
            clamped = np.minimum(np.maximum(z, -SIGMOID_CLAMP), SIGMOID_CLAMP)
            np.divide(1.0, 1.0 + np.exp(-clamped), out=act)
        elif act is not z:
            act[...] = z
        trace.post.append(act)
        a = act
    return trace


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
    gradient. The conv temporaries go to ``trace``'s scratch, and the input
    gradient may be a view into it, valid until the trace's next use.
    """
    if len(trace.post) != len(params.spec):
        raise ValueError("trace does not match network depth")
    g = np.asarray(out_grad, dtype=np.float64)
    if g.shape != trace.output.shape:
        raise ValueError(f"out_grad shape {g.shape} != output shape "
                         f"{trace.output.shape}")
    kept = trace.arrays
    # relu masks are applied in place only on contiguous gradients made
    # here: out_grad is the caller's, and on a strided view the new layout
    # would reorder the bias gradient's sum. Conv ones are masked into
    # scratch, batch-last as a new array would be; g is read (bias sum
    # first) before the kernels reuse the scratch it may view.
    owned = False
    for i in range(len(params.spec) - 1, -1, -1):
        lay, post = params.spec[i], trace.post[i]
        W = params.layers[i]["W"]
        a_prev = trace.post[i - 1] if i > 0 else trace.x
        conv = lay.kind != "dense"
        if lay.activation == "relu":
            # post > 0 exactly where the pre-activation is (NaN and -0 too)
            into = g if owned and g.flags.c_contiguous else None
            if owned and conv:
                into = _kept(kept, "z", _batch_last(g).shape).transpose(3, 0, 1, 2)
            g = np.multiply(g, post > 0.0, out=into)
        elif lay.activation == "sigmoid":
            g = g * (post * (1.0 - post))
        need_in = i > 0 or input_grad
        dst = None if out is None else out[i]
        if dst is not None:
            np.add.reduce(g, axis=(0, 2, 3) if conv else 0, out=dst["b"])
        p, g_in = lay.padding, None
        if lay.kind == "dense":
            if dst is not None:
                np.matmul(a_prev.T, g, out=dst["W"])
            if need_in:
                # one output column: its K = 1 product is a broadcast
                g_in = g * W[:, 0] if lay.out_size == 1 else g @ W.T
        else:  # a deconv's conv reads the output gradient, padded
            dec = lay.kind == "deconv2d"
            xp = (_padded(kept, ("gp", i), g, p, fill=True) if dec
                  else _padded(kept, ("pad", i), a_prev, p))
            # the im2col matrix serves the weight gradient and a deconv's
            # input gradient only
            if dst is not None or (dec and need_in):
                cols = _im2col(xp, lay, kept)
            if dst is not None:
                _weight_grad(cols, a_prev if dec else g, dst["W"], kept)
            if need_in and dec:
                g_in = _kept(kept, "grid", _batch_last(a_prev).shape)
                np.dot(W.reshape(len(W), -1), cols, out=g_in.reshape(len(W), -1))
                g_in = g_in.transpose(3, 0, 1, 2)
            elif need_in:
                grid = _scatter(g, W, lay, kept, xp.shape)
                h, w = a_prev.shape[2:]
                g_in = grid[:, p:p + h, p:p + w].transpose(3, 0, 1, 2)
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
