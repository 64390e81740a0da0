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
from dataclasses import dataclass, field, replace

import numpy as np

from . import ndnet
from .datagen import PairedDataset
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
    jitter: float = 0.0
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
        if self.convergence_window < 1:
            raise ConfigError("convergence_window must be >= 1")
        if not self.convergence_tol >= 0:
            raise ConfigError("convergence_tol must be >= 0")
        if self.jitter < 0:
            raise ConfigError("jitter must be >= 0")
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


@dataclass
class GeneratorModel:
    """Noise+characteristic mixer followed by an expression decoder."""

    mixer: ndnet.NetParams
    decoder: ndnet.NetParams
    z_dim: int
    norm: Normalization
    expr_shape: tuple[int, ...] | None = None


@dataclass
class DiscriminatorModel:
    """Expression encoder and a sigmoid scoring head over (x, encoding)."""

    encoder: ndnet.NetParams
    head: ndnet.NetParams
    norm: Normalization
    expr_shape: tuple[int, ...] | None = None


@dataclass
class CtesModel:
    """One trained generator/discriminator pair plus its loss trace."""

    generator: GeneratorModel
    discriminator: DiscriminatorModel
    config: TrainConfig
    loss_d: np.ndarray = field(default_factory=lambda: np.empty(0))
    loss_g: np.ndarray = field(default_factory=lambda: np.empty(0))
    iterations_run: int = 0
    # run telemetry, left out of model files
    diagnostics: dict = field(default_factory=dict, metadata={"saved": False})


def _conv_stack_depth(grid: int) -> int:
    depth = int(np.log2(grid))
    if 2 ** depth != grid or depth < 1:
        raise ConfigError(f"matrix expressions need a power-of-two grid, got {grid}")
    return depth


def _conv_stack_channels(depth: int, channels: tuple) -> tuple[int, ...]:
    if depth > len(channels):
        raise ConfigError(f"conv_channels: {depth} conv layers need {depth} "
                          f"channel sizes, got {len(channels)}")
    return tuple(channels[:depth])


def conv_encoder_spec(depth: int, channels: tuple) -> list[ndnet.LayerSpec]:
    """``depth`` strided relu conv layers from one input channel through
    ``channels[:depth]``; each halves the grid."""
    chans = (1,) + _conv_stack_channels(depth, channels)
    return [ndnet.conv2d(chans[i], chans[i + 1], activation="relu")
            for i in range(depth)]


def build_generator(m: int, n: int, cfg: TrainConfig, seed: int,
                    expr_shape: tuple | None = None) -> GeneratorModel:
    """Mixer+decoder with the last decoder layer left linear."""
    if expr_shape is None:
        mixer_spec = [ndnet.dense(cfg.z_dim + m, cfg.hidden, "relu"),
                      ndnet.dense(cfg.hidden, cfg.hidden, "relu")]
        decoder_spec = [ndnet.dense(cfg.hidden, n, "none")]
    else:
        depth = _conv_stack_depth(expr_shape[0])
        # widest at the 1x1 end
        chans = _conv_stack_channels(depth, cfg.conv_channels)[::-1]
        mixer_spec = [ndnet.dense(cfg.z_dim + m, chans[0], "relu")]
        decoder_spec = []
        for i in range(depth - 1):
            decoder_spec.append(ndnet.deconv2d(chans[i], chans[i + 1],
                                               activation="relu"))
        decoder_spec.append(ndnet.deconv2d(chans[-1], 1, activation="none"))
    seeds = _as_seed_seq(seed).spawn(2)
    return GeneratorModel(
        mixer=ndnet.init_params(mixer_spec, seeds[0]),
        decoder=ndnet.init_params(decoder_spec, seeds[1]),
        z_dim=cfg.z_dim, norm=None, expr_shape=expr_shape)


def build_discriminator(m: int, n: int, cfg: TrainConfig, seed: int,
                        expr_shape: tuple | None = None) -> DiscriminatorModel:
    """Encoder+head with a sigmoid on the scalar output."""
    if expr_shape is None:
        encoder_spec = [ndnet.dense(n, cfg.hidden, "relu")]
        enc_out = cfg.hidden
    else:
        encoder_spec = conv_encoder_spec(_conv_stack_depth(expr_shape[0]),
                                         cfg.conv_channels)
        enc_out = encoder_spec[-1].out_channels
    head_spec = [ndnet.dense(m + enc_out, cfg.hidden, "relu"),
                 ndnet.dense(cfg.hidden, 1, "sigmoid")]
    seeds = _as_seed_seq(seed).spawn(2)
    return DiscriminatorModel(
        encoder=ndnet.init_params(encoder_spec, seeds[0]),
        head=ndnet.init_params(head_spec, seeds[1]),
        norm=None, expr_shape=expr_shape)


def _as_rng(rng) -> np.random.Generator:
    if isinstance(rng, np.random.Generator):
        return rng
    return np.random.default_rng(rng)


def _as_seed_seq(seed) -> np.random.SeedSequence:
    if isinstance(seed, np.random.SeedSequence):
        return seed
    return np.random.SeedSequence(seed)


def _gen_forward_traced(gen: GeneratorModel, mix_in: np.ndarray,
                        out: np.ndarray):
    """Normalized-space generator pass over mixer input rows [z | xn]; the
    decoder writes the expression rows into ``out``, a contiguous (B, n)
    array. Returns the mixer and decoder traces."""
    mix_tr = ndnet.forward(gen.mixer, mix_in)
    dec_in = mix_tr.output
    if gen.expr_shape is not None:
        dec_in = dec_in.reshape(dec_in.shape[0], -1, 1, 1)
        out = out.reshape(out.shape[0], 1, *gen.expr_shape)
    dec_tr = ndnet.forward(gen.decoder, dec_in, out)
    return mix_tr, dec_tr


def _disc_scores_traced(disc: DiscriminatorModel, m: int, yn: np.ndarray,
                        head_in: np.ndarray):
    """Normalized-space discriminator pass over expression rows ``yn``.
    The first m columns of ``head_in`` hold the matching normalized
    characteristic rows, and the encoder writes its encodings into the
    rest. Returns (scores, encoder/head traces)."""
    enc_in, enc_out = yn, head_in[:, m:]
    if disc.expr_shape is not None:
        enc_in = yn.reshape(yn.shape[0], 1, *disc.expr_shape)
        enc_out = enc_out[:, :, None, None]
    enc_tr = ndnet.forward(disc.encoder, enc_in, enc_out)
    head_tr = ndnet.forward(disc.head, head_in)
    return head_tr.output[:, 0], enc_tr, head_tr


def _disc_backward(disc: DiscriminatorModel, m: int, enc_tr, head_tr,
                   score_grad: np.ndarray, grads: tuple | None = None):
    """Backprop a per-row score gradient through head and encoder. With
    ``grads``, an :class:`ndnet.OptState`'s (head, encoder) gradients,
    only the parameter gradients are computed, summed over every traced
    row, and written there. Without, only the gradient w.r.t. the
    normalized expression rows is computed, and returned."""
    head_out, enc_out = grads or (None, None)
    head_in_grad = ndnet.backprop(disc.head, head_tr, score_grad[:, None],
                                  out=head_out)
    enc_grad = head_in_grad[:, m:].reshape(enc_tr.output.shape)
    g = ndnet.backprop(disc.encoder, enc_tr, enc_grad, out=enc_out,
                       input_grad=grads is None)
    return None if g is None else g.reshape(score_grad.shape[0], -1)


def discriminator_forward(disc: DiscriminatorModel, x: np.ndarray,
                          y: np.ndarray) -> float:
    """Score one (characteristic, expression) pair; strictly inside (0, 1)."""
    x = np.asarray(x, dtype=np.float64).ravel()
    y = np.asarray(y, dtype=np.float64).ravel()
    if x.size != disc.norm.x_mean.size or y.size != disc.norm.y_mean.size:
        raise ValueError("dimension mismatch")
    head_in = np.empty((1, disc.head.spec[0].in_size))
    head_in[0, :x.size] = disc.norm.norm_x(x)
    scores, _, _ = _disc_scores_traced(disc, x.size,
                                       disc.norm.norm_y(y)[None, :], head_in)
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


def _disc_step_grads(disc: DiscriminatorModel, m: int, enc_in, head_in,
                     beta: float, grads: tuple):
    """Score the real (x, y), generated (x, yhat) and mismatched (x', y)
    pairs as one stacked 3s-row batch: expression rows ``enc_in`` are y,
    yhat, y, and the first m columns of ``head_in`` hold x, x, x'.
    Backprop the negated three-pair objective once, into ``grads``, the
    (head, encoder) gradients of an :class:`ndnet.OptState`. Returns
    (L_D, the 3s scores in that pair order)."""
    s = enc_in.shape[0] // 3
    scores, enc_tr, head_tr = _disc_scores_traced(disc, m, enc_in, head_in)
    d_real, d_fy, d_fx = scores[:s], scores[s:2 * s], scores[2 * s:]
    loss_d = float(np.mean(discriminator_loss(d_real, d_fy, d_fx, beta)))
    # minimizing -L_D: d/dd of the -log terms, weighted -1, beta and
    # 1 - beta, at d_real, 1 - d_fy and 1 - d_fx clamped like the loss
    at = scores.copy()
    np.subtract(1.0, scores[s:], out=at[s:])
    score_grad = np.repeat([-1.0, beta, 1.0 - beta], s) / (s * _clamp(at))
    _disc_backward(disc, m, enc_tr, head_tr, score_grad, grads)
    return loss_d, scores


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
    if dataset.n_samples < 1:
        raise ValueError("dataset is empty")
    mismatch = mismatch_table(
        np.unique(dataset.x, axis=0, return_inverse=True)[1].ravel())
    m, n = dataset.char_dim, dataset.expr_dim
    norm = Normalization.fit(dataset.x, dataset.y)
    xn_all = norm.norm_x(dataset.x)
    yn_all = norm.norm_y(dataset.y)

    seeds = np.random.SeedSequence(config.seed).spawn(3)
    gen = build_generator(m, n, config, seeds[0], dataset.expr_shape)
    disc = build_discriminator(m, n, config, seeds[1], dataset.expr_shape)
    gen.norm = disc.norm = norm
    rng = np.random.default_rng(seeds[2])

    # one Adam state per player; backprop writes into their gradients
    d_nets, g_nets = (disc.head, disc.encoder), (gen.decoder, gen.mixer)
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
    head_in = np.empty((3 * s, disc.head.spec[0].in_size))
    fake = slice(s, 2 * s)
    # L_D and L_G, and their absolute change from the previous iteration
    losses = np.empty((2, config.iterations))
    changes = np.empty((2, config.iterations))
    w, tol = config.convergence_window, config.convergence_tol
    iterations_run = config.iterations
    score_min, score_max = np.inf, -np.inf

    for it in range(config.iterations):
        idx = rng.choice(N, size=s, replace=N < s)
        mis = sample_mismatch(idx, mismatch, rng)
        mix_in[:, :zd] = rng.standard_normal((s, zd))
        mix_in[:, zd:] = head_in[:s, :m] = head_in[fake, :m] = xn_all[idx]
        head_in[2 * s:, :m] = xn_all[mis]
        enc_in[:s] = enc_in[2 * s:] = yn_all[idx]

        # --- discriminator ascent on the three-pair objective
        mix_tr, dec_tr = _gen_forward_traced(gen, mix_in, enc_in[fake])
        loss_d, scores = _disc_step_grads(disc, m, enc_in, head_in, beta,
                                          opt_d.grads)
        if not np.isfinite(loss_d):
            raise TrainingDiverged(f"discriminator loss became {loss_d} at "
                                   f"iteration {it}", iteration=it)
        score_min = min(score_min, float(scores.min()))
        score_max = max(score_max, float(scores.max()))
        ndnet.optimizer_step(d_nets, opt_d)

        # --- generator ascent on log D(x, yhat) against the updated D; the
        # D step left the generator unchanged, so its traces still hold
        d_fy2, enc_tr, head_tr = _disc_scores_traced(disc, m, enc_in[fake],
                                                     head_in[fake])
        loss_g = float(np.mean(generator_loss(d_fy2)))
        if not np.isfinite(loss_g):
            raise TrainingDiverged(f"generator loss became {loss_g} at "
                                   f"iteration {it}", iteration=it)
        score_min = min(score_min, float(d_fy2.min()))
        score_max = max(score_max, float(d_fy2.max()))
        g_score = -1.0 / (s * _clamp(d_fy2))
        yhat_grad = _disc_backward(disc, m, enc_tr, head_tr, g_score)
        dec_in_grad = ndnet.backprop(
            gen.decoder, dec_tr, yhat_grad.reshape(dec_tr.output.shape),
            out=dec_grads)
        ndnet.backprop(gen.mixer, mix_tr,
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
    return CtesModel(generator=gen, discriminator=disc, config=config,
                     loss_d=losses[0, :iterations_run].copy(),
                     loss_g=losses[1, :iterations_run].copy(),
                     iterations_run=iterations_run,
                     diagnostics={"score_min": score_min,
                                  "score_max": score_max})


def synthesize_each(model: CtesModel, X: np.ndarray,
                    rng=None, jitter: float | None = None) -> np.ndarray:
    """One synthesized expression per characteristic row.

    Each row gets fresh standard-normal noise; when ``jitter`` is
    positive the characteristic itself is perturbed by N(0, jitter^2)
    to diversify the outputs. ``jitter=None`` uses the trained setting.
    """
    gen = model.generator
    jitter = model.config.jitter if jitter is None else jitter
    if jitter < 0:
        raise ValueError("jitter must be >= 0")
    rng = _as_rng(rng)
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    if X.shape[0] < 1:
        raise ValueError("need at least one characteristic row")
    if X.shape[1] != gen.norm.x_mean.size:
        raise ValueError(f"characteristics have {X.shape[1]} columns, "
                         f"expected {gen.norm.x_mean.size}")
    if jitter > 0:
        X = X + rng.normal(0.0, jitter, size=X.shape)
    z = rng.standard_normal((X.shape[0], gen.z_dim))
    yhat_n = np.empty((X.shape[0], gen.norm.y_mean.size))
    _gen_forward_traced(gen, np.hstack([z, gen.norm.norm_x(X)]), yhat_n)
    return gen.norm.denorm_y(yhat_n)


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
