"""Characteristic-to-expression synthesis: a conditional generator and a
pair discriminator trained through a weighted three-pair minimax game.

The discriminator scores three kinds of pairs: a matched characteristic
and real expression, the same characteristic with a synthesized
expression, and a deliberately mismatched characteristic with a real
expression. The mismatch weight ``beta`` splits the two fake-pair terms;
values above one half keep the generator's distribution dominant in the
implied mixture, which is why sub-0.5 settings (used only by baseline
configurations) trigger a warning.

Vector expressions use dense stacks throughout; matrix expressions swap
the decoder/encoder for strided (de)convolutional stacks.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from . import ndnet
from .datagen import PairedDataset, _rows
from .errors import ConfigError, MismatchImpossible, TrainingDiverged

PROB_CLAMP = 1e-7  # scores are pushed inside [clamp, 1-clamp] before logs


@dataclass
class TrainConfig:
    """Settings of one adversarial training run.

    Training stops early once the mean absolute change of both losses over
    the last ``convergence_window`` iterations is below ``convergence_tol``;
    ``convergence_tol=0`` turns the early stop off.
    """

    beta: float = 0.9
    batch_size: int = 50
    iterations: int = 1000
    z_dim: int = 8
    learning_rate: float = 1e-3
    hidden: int = 64
    convergence_window: int = 50
    convergence_tol: float = 1e-4
    # every job derives its own; not part of config or model files
    seed: int = field(default=0, metadata={"saved": False})
    conv_channels: tuple[int, ...] = (8, 16, 32, 64)

    def __post_init__(self):
        if not 0.0 <= self.beta <= 1.0:
            raise ConfigError(f"beta must lie in [0, 1], got {self.beta}")
        if self.batch_size < 2:
            raise ConfigError("batch_size must be >= 2 (mismatch sampling "
                              "needs two distinct characteristics)")
        if self.iterations < 0 or self.z_dim < 1:
            raise ConfigError("iterations must be >= 0 and z_dim >= 1")
        if self.hidden < 1:
            raise ConfigError("hidden must be >= 1")
        if any(c < 1 for c in self.conv_channels):
            raise ConfigError("conv_channels entries must be >= 1")
        if self.convergence_window < 1:
            raise ConfigError("convergence_window must be >= 1")
        if not self.convergence_tol >= 0:
            raise ConfigError("convergence_tol must be >= 0")
        if not self.learning_rate > 0:
            raise ConfigError("learning_rate must be > 0")
        if self.beta <= 0.5:
            warnings.warn(
                f"beta={self.beta} <= 0.5 lets the mismatched-pair term "
                "dominate; expected only for baseline configurations",
                stacklevel=2)


@dataclass
class Normalization:
    """Per-feature z-score statistics shared by generator and discriminator."""

    x_mean: np.ndarray
    x_std: np.ndarray
    y_mean: np.ndarray
    y_std: np.ndarray

    @classmethod
    def fit(cls, x: np.ndarray, y: np.ndarray) -> "Normalization":
        def stats(a):
            mean = a.mean(axis=0)
            std = a.std(axis=0)
            return mean, np.where(std < 1e-8, 1.0, std)
        xm, xs = stats(x)
        ym, ys = stats(y)
        return cls(x_mean=xm, x_std=xs, y_mean=ym, y_std=ys)

    def norm_x(self, x):
        return (x - self.x_mean) / self.x_std

    def norm_y(self, y):
        return (y - self.y_mean) / self.y_std

    def denorm_y(self, yn):
        return yn * self.y_std + self.y_mean


_NETS = ("mixer", "decoder", "encoder", "head")
# a net built on construction from ``weights``; not saved or compared
_BUILT = dict(init=False, compare=False, repr=False, metadata={"saved": False})


@dataclass
class CtesModel:
    """A conditional generator (noise+characteristic mixer, expression
    decoder) and pair discriminator (expression encoder, sigmoid head over
    [x | encoding]), and the loss trace, one entry per iteration run.
    ``expr_shape`` is the grid of matrix expressions, whose decoder and
    encoder are conv stacks; None for vectors. ``weights`` holds each
    net's per-layer {"W", "b"} arrays, which the nets share: their layer
    specs are built from ``config``, the ``norm`` widths and
    ``expr_shape``, and the arrays are checked against them."""

    config: TrainConfig
    norm: Normalization
    weights: dict[str, list[dict[str, np.ndarray]]]
    expr_shape: tuple[int, ...] | None = None
    loss_d: np.ndarray = field(default_factory=lambda: np.empty(0))
    loss_g: np.ndarray = field(default_factory=lambda: np.empty(0))
    # run telemetry, left out of model files
    diagnostics: dict = field(default_factory=dict, metadata={"saved": False})
    mixer: ndnet.NetParams = field(**_BUILT)
    decoder: ndnet.NetParams = field(**_BUILT)
    encoder: ndnet.NetParams = field(**_BUILT)
    head: ndnet.NetParams = field(**_BUILT)

    def __post_init__(self):
        norm, shape = self.norm, self.expr_shape
        m, n = np.size(norm.x_mean), np.size(norm.y_mean)
        got = [np.shape(a) for a in (norm.x_mean, norm.x_std, norm.y_mean,
                                     norm.y_std)]
        if got != [(m,), (m,), (n,), (n,)]:
            raise ConfigError(f"norm: x_mean, x_std, y_mean, y_std have "
                              f"shapes {got}")
        if shape is not None:
            try:
                _conv_stack_depth(shape)
            except ValueError as exc:
                raise ConfigError(f"expr_shape: {exc}") from None
            if shape[0] * shape[1] != n:
                raise ConfigError(f"expr_shape: {shape} holds "
                                  f"{shape[0] * shape[1]} pixels, but "
                                  f"norm.y_mean has {n} entries")
        if sorted(self.weights) != sorted(_NETS):
            raise ConfigError(f"weights: nets {sorted(self.weights)}, "
                              f"expected {sorted(_NETS)}")
        try:
            specs = _ctes_specs(m, n, self.config, shape)
        except ConfigError as exc:  # conv_channels too short for the grid
            raise ConfigError(f"config.{exc}") from None
        for name, spec in zip(_NETS, specs):
            try:
                net = ndnet.NetParams(spec, self.weights[name])
            except ConfigError as exc:
                raise ConfigError(f"weights.{name}: {exc}") from None
            setattr(self, name, net)

    @property
    def iterations_run(self) -> int:
        return self.loss_d.size


def conv_grid_side(expr_shape: tuple) -> int:
    """The side of a square expression grid; the conv stacks, which halve
    it down to 1x1, reject any other shape."""
    h, w = expr_shape
    if h != w:
        raise ConfigError(f"matrix expressions need a square grid, got {h}x{w}")
    return h


def _conv_stack_depth(expr_shape: tuple) -> int:
    grid = conv_grid_side(expr_shape)
    depth = int(np.log2(grid))
    if 2 ** depth != grid or depth < 1:
        raise ConfigError(f"matrix expressions need a power-of-two grid, got {grid}")
    return depth


def conv_encoder_spec(depth: int, channels: tuple) -> list[ndnet.LayerSpec]:
    """``depth`` strided relu conv layers from one input channel through
    ``channels[:depth]``; each halves the grid."""
    if depth > len(channels):
        raise ConfigError(f"conv_channels: {depth} conv layers need {depth} "
                          f"channel sizes, got {len(channels)}")
    chans = (1, *channels[:depth])
    return [ndnet.conv2d(a, b, activation="relu")
            for a, b in zip(chans, chans[1:])]


def _ctes_specs(m: int, n: int, cfg: TrainConfig,
                expr_shape: tuple | None) -> tuple[list, list, list, list]:
    """The mixer, decoder, encoder and head layer specs for ``m``
    characteristic and ``n`` expression values: the mixer and decoder end
    linear, and the head in a sigmoid on its scalar output."""
    if expr_shape is None:
        mixer = [ndnet.dense(cfg.z_dim + m, cfg.hidden, "relu"),
                 ndnet.dense(cfg.hidden, cfg.hidden, "relu")]
        decoder = [ndnet.dense(cfg.hidden, n, "none")]
        encoder = [ndnet.dense(n, cfg.hidden, "relu")]
        enc_out = cfg.hidden
    else:
        encoder = conv_encoder_spec(_conv_stack_depth(expr_shape),
                                    cfg.conv_channels)
        # the decoder mirrors the encoder, widest at the 1x1 end
        chans = [lay.out_channels for lay in encoder][::-1]
        mixer = [ndnet.dense(cfg.z_dim + m, chans[0], "relu")]
        decoder = [ndnet.deconv2d(a, b, activation="relu")
                   for a, b in zip(chans, chans[1:])]
        decoder.append(ndnet.deconv2d(chans[-1], 1, activation="none"))
        enc_out = chans[0]
    head = [ndnet.dense(m + enc_out, cfg.hidden, "relu"),
            ndnet.dense(cfg.hidden, 1, "sigmoid")]
    return mixer, decoder, encoder, head


def build_ctes(norm: Normalization, cfg: TrainConfig,
               expr_shape: tuple | None = None) -> CtesModel:
    """An untrained model for ``norm``'s characteristic and expression
    widths: the mixer and decoder from child 0 of
    ``SeedSequence(cfg.seed).spawn(3)``, and the encoder and the head from
    child 1 (child 2 is the trainer's batch stream)."""
    specs = _ctes_specs(norm.x_mean.size, norm.y_mean.size, cfg, expr_shape)
    gen, disc = (seq.spawn(2) for seq in
                 np.random.SeedSequence(cfg.seed).spawn(3)[:2])
    weights = {name: ndnet.init_params(spec, seq).layers for name, spec, seq
               in zip(_NETS, specs, (*gen, *disc))}
    return CtesModel(config=cfg, norm=norm, weights=weights,
                     expr_shape=expr_shape)


def _gen_forward_traced(model: CtesModel, mix_in: np.ndarray,
                        out: np.ndarray, traces=(None, None)):
    """Normalized-space generator pass over mixer input rows [z | xn]; the
    decoder's expression rows are copied into ``out``, a contiguous (B, n)
    array. Returns the mixer and decoder traces, refilling ``traces``."""
    mix_tr = ndnet.forward(model.mixer, mix_in, traces[0])
    dec_in = mix_tr.output
    if model.expr_shape is not None:
        dec_in = dec_in.reshape(dec_in.shape[0], -1, 1, 1)
    dec_tr = ndnet.forward(model.decoder, dec_in, traces[1])
    out.reshape(dec_tr.output.shape, copy=False)[...] = dec_tr.output
    return mix_tr, dec_tr


def _disc_scores_traced(model: CtesModel, yn: np.ndarray,
                        head_in: np.ndarray, traces=(None, None)):
    """Normalized-space discriminator pass over expression rows ``yn``.
    The first ``norm.x_mean.size`` columns of ``head_in`` hold the matching
    normalized characteristic rows, and the encodings fill the rest.
    Returns (scores, encoder/head traces), refilling ``traces``."""
    enc_in = yn
    if model.expr_shape is not None:
        enc_in = yn.reshape(yn.shape[0], 1, *model.expr_shape)
    enc_tr = ndnet.forward(model.encoder, enc_in, traces[0])
    head_in[:, model.norm.x_mean.size:] = enc_tr.output.reshape(len(yn), -1)
    head_tr = ndnet.forward(model.head, head_in, traces[1])
    return head_tr.output[:, 0], enc_tr, head_tr


def _disc_backward(model: CtesModel, enc_tr, head_tr,
                   score_grad: np.ndarray, grads: tuple | None = None):
    """Backprop a per-row score gradient through head and encoder. With
    ``grads``, an :class:`ndnet.OptState`'s (head, encoder) gradients,
    only the parameter gradients are computed, summed over every traced
    row, and written there. Without, only the gradient w.r.t. the
    normalized expression rows is computed, and returned."""
    head_out, enc_out = grads or (None, None)
    head_in_grad = ndnet.backprop(model.head, head_tr, score_grad[:, None],
                                  out=head_out)
    enc_grad = head_in_grad[:, model.norm.x_mean.size:].reshape(
        enc_tr.output.shape)
    g = ndnet.backprop(model.encoder, enc_tr, enc_grad, out=enc_out,
                       input_grad=grads is None)
    return None if g is None else g.reshape(score_grad.shape[0], -1)


def discriminator_forward(model: CtesModel, x: np.ndarray,
                          y: np.ndarray) -> float:
    """Score one (characteristic, expression) pair with the model's
    discriminator; strictly inside (0, 1)."""
    norm = model.norm
    x = np.asarray(x, dtype=np.float64).ravel()
    y = np.asarray(y, dtype=np.float64).ravel()
    if x.size != norm.x_mean.size or y.size != norm.y_mean.size:
        raise ValueError("dimension mismatch")
    head_in = np.empty((1, model.head.spec[0].in_size))
    head_in[0, :x.size] = norm.norm_x(x)
    scores, _, _ = _disc_scores_traced(model, norm.norm_y(y)[None, :],
                                       head_in)
    return float(scores[0])


def _clamp(scores: np.ndarray) -> np.ndarray:
    # np.clip's semantics, without its Python-level dispatch
    return np.minimum(np.maximum(scores, PROB_CLAMP), 1.0 - PROB_CLAMP)


def discriminator_loss(d_real, d_fake_y, d_fake_x, beta: float):
    """log(d_real) + beta*log(1 - d_fake_y) + (1-beta)*log(1 - d_fake_x).

    The trainer maximizes this quantity (implemented by minimizing its
    negation). Accepts scalars or aligned arrays.
    """
    d_real = _clamp(np.asarray(d_real, dtype=np.float64))
    d_fake_y = _clamp(np.asarray(d_fake_y, dtype=np.float64))
    d_fake_x = _clamp(np.asarray(d_fake_x, dtype=np.float64))
    return (np.log(d_real) + beta * np.log1p(-d_fake_y)
            + (1.0 - beta) * np.log1p(-d_fake_x))


def generator_loss(d_fake_y):
    """log(d_fake_y): the non-saturating objective the generator maximizes."""
    return np.log(_clamp(np.asarray(d_fake_y, dtype=np.float64)))


@dataclass(frozen=True)
class MismatchTable:
    """Per-row lookups for :func:`sample_mismatch`, built once per dataset
    from its characteristic ids: the rows ordered by id, and for each row
    the size and start of its id's block in that order."""

    order: np.ndarray
    count: np.ndarray
    start: np.ndarray


def mismatch_table(char_ids) -> MismatchTable:
    """Table for ``char_ids``, which gives each dataset row a non-negative
    id shared exactly by equal characteristic rows (the inverse from
    ``np.unique(x, axis=0, return_inverse=True)``)."""
    char_ids = np.asarray(char_ids)
    counts = np.bincount(char_ids)
    if np.count_nonzero(counts) < 2:
        raise MismatchImpossible("all characteristic rows are identical")
    return MismatchTable(order=np.argsort(char_ids, kind="stable"),
                         count=counts[char_ids],
                         start=(np.cumsum(counts) - counts)[char_ids])


def sample_mismatch(batch_indices, table: MismatchTable,
                    rng: np.random.Generator) -> np.ndarray:
    """Mismatched characteristic indices: for every batch row j, a row
    drawn uniformly from the dataset rows whose characteristic differs
    from that of row ``batch_indices[j]``.

    With the rows ordered by characteristic id, one draw over the
    N - count(own id) eligible positions skips the row's own block.
    """
    count = table.count[batch_indices]
    r = rng.integers(0, table.order.size - count)
    return table.order[r + count * (r >= table.start[batch_indices])]


def _disc_step_grads(model: CtesModel, enc_in, head_in, beta: float,
                     grads: tuple, traces=(None, None)):
    """Score the real (x, y), generated (x, yhat) and mismatched (x', y)
    pairs as one stacked 3s-row batch: expression rows ``enc_in`` are y,
    yhat, y, and the first m columns of ``head_in`` hold x, x, x'.
    Backprop the negated three-pair objective once, into ``grads``, the
    (head, encoder) gradients of an :class:`ndnet.OptState`. Returns
    (L_D, the 3s scores in that pair order, the refilled ``traces``)."""
    s = enc_in.shape[0] // 3
    scores, *traces = _disc_scores_traced(model, enc_in, head_in, traces)
    d_real, d_fy, d_fx = scores[:s], scores[s:2 * s], scores[2 * s:]
    loss_d = float(np.mean(discriminator_loss(d_real, d_fy, d_fx, beta)))
    # minimizing -L_D: d/dd of the -log terms, weighted -1, beta and
    # 1 - beta, at d_real, 1 - d_fy and 1 - d_fx clamped like the loss
    at = scores.copy()
    np.subtract(1.0, scores[s:], out=at[s:])
    score_grad = np.repeat([-1.0, beta, 1.0 - beta], s) / (s * _clamp(at))
    _disc_backward(model, *traces, score_grad, grads)
    return loss_d, scores, traces


def train_ctes(dataset: PairedDataset, config: TrainConfig) -> CtesModel:
    """Run the adversarial loop: per iteration, batch matched pairs, draw
    mismatches and noise, score the three pair types in one stacked
    discriminator pass with one backprop (one ascent step on the weighted
    objective), then take one generator ascent step against the updated
    discriminator.

    Stops early once the moving averages of |dL_D| and |dL_G| over the
    convergence window drop below the tolerance. Deterministic given
    (dataset, config).
    """
    mismatch = mismatch_table(
        np.unique(dataset.x, axis=0, return_inverse=True)[1].ravel())
    m, n = dataset.char_dim, dataset.expr_dim
    norm = Normalization.fit(dataset.x, dataset.y)
    xn_all = norm.norm_x(dataset.x)
    yn_all = norm.norm_y(dataset.y)

    model = build_ctes(norm, config, dataset.expr_shape)
    rng = np.random.default_rng(
        np.random.SeedSequence(config.seed).spawn(3)[2])

    # one Adam state per player; backprop writes into their gradients
    d_nets, g_nets = (model.head, model.encoder), (model.decoder, model.mixer)
    opt_d = ndnet.init_opt_state(d_nets, config.learning_rate)
    opt_g = ndnet.init_opt_state(g_nets, config.learning_rate)
    dec_grads, mix_grads = opt_g.grads

    s, zd = config.batch_size, config.z_dim
    N = dataset.n_samples
    beta = config.beta
    # pair batches, filled in place: the mixer reads [z | x], the encoder
    # y, yhat (which the decoder writes) and y, and the head [x | encoding]
    # of the three pair types; the G step reuses the yhat third
    mix_in = np.empty((s, zd + m))
    enc_in = np.empty((3 * s, n))
    head_in = np.empty((3 * s, model.head.spec[0].in_size))
    fake = slice(s, 2 * s)
    # L_D and L_G, and their absolute change from the previous iteration
    losses = np.empty((2, config.iterations))
    changes = np.empty((2, config.iterations))
    w, tol = config.convergence_window, config.convergence_tol
    iterations_run = config.iterations
    score_min, score_max = np.inf, -np.inf
    gen_trs = d_trs = g_trs = (None, None)  # kept: the shapes are fixed

    for it in range(config.iterations):
        idx = rng.choice(N, size=s, replace=N < s)
        mis = sample_mismatch(idx, mismatch, rng)
        mix_in[:, :zd] = rng.standard_normal((s, zd))
        mix_in[:, zd:] = head_in[:s, :m] = head_in[fake, :m] = xn_all[idx]
        head_in[2 * s:, :m] = xn_all[mis]
        enc_in[:s] = enc_in[2 * s:] = yn_all[idx]

        # --- discriminator ascent on the three-pair objective
        gen_trs = mix_tr, dec_tr = _gen_forward_traced(model, mix_in,
                                                       enc_in[fake], gen_trs)
        loss_d, scores, d_trs = _disc_step_grads(model, enc_in, head_in,
                                                 beta, opt_d.grads, d_trs)
        if not np.isfinite(loss_d):
            raise TrainingDiverged(f"discriminator loss became {loss_d} at "
                                   f"iteration {it}", iteration=it)
        score_min = min(score_min, float(scores.min()))
        score_max = max(score_max, float(scores.max()))
        ndnet.optimizer_step(d_nets, opt_d)

        # --- generator ascent on log D(x, yhat) against the updated D; the
        # D step left the generator unchanged, so its traces still hold
        d_fy2, *g_trs = _disc_scores_traced(model, enc_in[fake],
                                            head_in[fake], g_trs)
        loss_g = float(np.mean(generator_loss(d_fy2)))
        if not np.isfinite(loss_g):
            raise TrainingDiverged(f"generator loss became {loss_g} at "
                                   f"iteration {it}", iteration=it)
        score_min = min(score_min, float(d_fy2.min()))
        score_max = max(score_max, float(d_fy2.max()))
        g_score = -1.0 / (s * _clamp(d_fy2))
        yhat_grad = _disc_backward(model, *g_trs, g_score)
        dec_in_grad = ndnet.backprop(
            model.decoder, dec_tr, yhat_grad.reshape(dec_tr.output.shape),
            out=dec_grads)
        ndnet.backprop(model.mixer, mix_tr,
                       dec_in_grad.reshape(mix_tr.output.shape),
                       out=mix_grads, input_grad=False)
        ndnet.optimizer_step(g_nets, opt_g)

        losses[:, it] = loss_d, loss_g
        if it:
            np.abs(losses[:, it] - losses[:, it - 1], out=changes[:, it])
        if (it >= w and changes[0, it - w + 1:it + 1].mean() < tol
                and changes[1, it - w + 1:it + 1].mean() < tol):
            iterations_run = it + 1
            break

    # the model keeps copies of the parameters, so that the optimizer
    # buffers holding them and their Adam moments are freed
    for params in (*g_nets, *d_nets):
        for lay in params.layers:
            for key in lay:
                lay[key] = lay[key].copy()
    model.loss_d = losses[0, :iterations_run].copy()
    model.loss_g = losses[1, :iterations_run].copy()
    model.diagnostics = {"score_min": score_min, "score_max": score_max}
    return model


def synthesize_each(model: CtesModel, X: np.ndarray,
                    rng: np.random.Generator) -> np.ndarray:
    """One synthesized expression per characteristic row of X (rows, m),
    each from its own standard-normal noise drawn from ``rng``."""
    norm = model.norm
    X = _rows(X, "characteristics", norm.x_mean.size)
    z = rng.standard_normal((X.shape[0], model.config.z_dim))
    yhat_n = np.empty((X.shape[0], norm.y_mean.size))
    _gen_forward_traced(model, np.hstack([z, norm.norm_x(X)]), yhat_n)
    return norm.denorm_y(yhat_n)


def toy_minimax_oracle(p_data, p_g, p_prime, beta: float):
    """Optimal-discriminator check on discrete distributions.

    Returns the pointwise optimal discriminator
    ``p_data / (p_data + beta*p_g + (1-beta)*p_prime)`` and the value of
    the maximized objective by exact summation. Support points with zero
    total mass contribute nothing (their discriminator entry defaults to
    0.5 by convention).
    """
    p_data = np.asarray(p_data, dtype=np.float64)
    p_g = np.asarray(p_g, dtype=np.float64)
    p_prime = np.asarray(p_prime, dtype=np.float64)
    if not (p_data.shape == p_g.shape == p_prime.shape):
        raise ValueError("distributions must share one support")
    for name, p in (("p_data", p_data), ("p_g", p_g), ("p_prime", p_prime)):
        if abs(p.sum() - 1.0) > 1e-12 or (p < 0).any():
            raise ValueError(f"{name} is not a probability vector")
    if not 0.0 <= beta <= 1.0:
        raise ValueError("beta must lie in [0, 1]")
    mix = beta * p_g + (1.0 - beta) * p_prime
    total = p_data + mix
    live = total > 0
    d_star = np.full_like(p_data, 0.5)
    d_star[live] = p_data[live] / total[live]
    # log(d*) = log p_data - log total and log(1-d*) = log mix - log total,
    # evaluated only where the weighting mass is positive
    value = 0.0
    mask = live & (p_data > 0)
    value += float(np.sum(p_data[mask]
                          * (np.log(p_data[mask]) - np.log(total[mask]))))
    mask = live & (mix > 0)
    value += float(np.sum(mix[mask]
                          * (np.log(mix[mask]) - np.log(total[mask]))))
    return d_star, value
