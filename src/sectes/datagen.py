"""Synthetic paired datasets and tabular utilities.

Two generators are provided: a grouped multivariate study (two
characteristics mapped through Gaussian-kernel Taylor terms and quadratic
interactions into six expression variables) and a grouped random-field
study (length-scale-indexed Gaussian process images paired with shifted
normal characteristic vectors). Both are deterministic given their seed.
"""

from __future__ import annotations

import csv
import math
import re
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError

NOISE_STD = 0.005  # per-coordinate expression noise of the multivariate study
CHOL_JITTER = 1e-9  # diagonal added to the random-field grid kernel


@dataclass
class PairedDataset:
    """Row-aligned characteristic/expression samples with group labels.

    ``x`` is (N, m), ``y`` is (N, n) with matrix-valued expressions stored
    flattened row-major and their geometry in ``expr_shape``. Group labels
    lie in [1, n_groups]. ``outcome`` optionally carries a binary label per
    row for risk-style studies.
    """

    x: np.ndarray
    y: np.ndarray
    groups: np.ndarray
    n_groups: int
    expr_shape: tuple | None = None
    outcome: np.ndarray | None = None

    def __post_init__(self):
        self.x = np.atleast_2d(np.asarray(self.x, dtype=np.float64))
        self.y = np.atleast_2d(np.asarray(self.y, dtype=np.float64))
        self.groups = np.asarray(self.groups, dtype=np.int64)
        if self.x.shape[0] != self.y.shape[0] or self.x.shape[0] != len(self.groups):
            raise ValueError("characteristics, expressions and groups must "
                             "have the same number of rows")
        if len(self.groups) and (self.groups.min() < 1
                                 or self.groups.max() > self.n_groups):
            raise ValueError(f"group labels must lie in [1, {self.n_groups}]")
        if self.expr_shape is not None:
            h, w = self.expr_shape
            if h * w != self.y.shape[1]:
                raise ValueError("expr_shape does not match expression width")
        if self.outcome is not None:
            self.outcome = np.asarray(self.outcome, dtype=np.int64)
            if len(self.outcome) != self.x.shape[0]:
                raise ValueError("outcome column must align with rows")

    @property
    def n_samples(self) -> int:
        return self.x.shape[0]

    @property
    def char_dim(self) -> int:
        return self.x.shape[1]

    @property
    def expr_dim(self) -> int:
        return self.y.shape[1]

    def select(self, mask: np.ndarray) -> "PairedDataset":
        """Row subset; group labelling and geometry are preserved."""
        return PairedDataset(
            x=self.x[mask], y=self.y[mask], groups=self.groups[mask],
            n_groups=self.n_groups, expr_shape=self.expr_shape,
            outcome=None if self.outcome is None else self.outcome[mask])

    def group_mask(self, group: int) -> np.ndarray:
        return self.groups == group


@dataclass
class SimConfig:
    """Settings for the grouped multivariate generator."""

    sigma: float = 0.05
    samples_per_group: int = 200
    groups: int = 5
    seed: int = 0

    def __post_init__(self):
        if not 0.0 < self.sigma < 1.0:
            raise ConfigError(f"sigma must lie in (0, 1), got {self.sigma}")
        if self.samples_per_group < 1:
            raise ConfigError("samples_per_group must be >= 1")
        if self.groups < 1:
            raise ConfigError("groups must be >= 1")


@dataclass
class GpSimConfig:
    """Settings for the grouped random-field generator."""

    grid: int = 16
    images_per_category: int = 128
    categories: int = 5
    char_dim: int = 64
    seed: int = 0

    def __post_init__(self):
        if self.grid < 2:
            raise ConfigError("grid side must be >= 2")
        if self.images_per_category < 1 or self.categories < 1:
            raise ConfigError("category sizes must be >= 1")

    def length_scale(self, category: int) -> float:
        return float(category)


def expression_transform(x1: float, x2: float, eps) -> np.ndarray:
    """Map a characteristic pair to the six expression coordinates.

    ``eps`` supplies six noise values, one per output coordinate. The first
    three coordinates are the leading Taylor terms of the Gaussian kernel
    in (x1, x2); the rest are the squares and the cross product.
    """
    eps = np.broadcast_to(np.asarray(eps, dtype=np.float64), (6,))
    out = np.empty(6)
    for m in (1, 2, 3):
        a = x1 + eps[m - 1]
        b = x2 + eps[m - 1]
        coef = 2.0 ** (m - 1) / math.factorial(m - 1)
        out[m - 1] = coef * (a * b) ** (m - 1) * np.exp(-a * a - b * b)
    out[3] = (x1 + eps[3]) ** 2
    out[4] = (x2 + eps[4]) ** 2
    out[5] = (x1 + eps[5]) * (x2 + eps[5])
    return out


def gen_multivariate_dataset(cfg: SimConfig) -> PairedDataset:
    """Grouped dataset: group i draws both characteristics from
    N(0.2*i, sigma^2) and pushes them through :func:`expression_transform`
    with fresh noise."""
    rng = np.random.default_rng(cfg.seed)
    xs, ys, gs = [], [], []
    for i in range(1, cfg.groups + 1):
        mu = 0.2 * i
        x = rng.normal(mu, cfg.sigma, size=(cfg.samples_per_group, 2))
        eps = rng.normal(0.0, NOISE_STD, size=(cfg.samples_per_group, 6))
        y = np.stack([expression_transform(x[j, 0], x[j, 1], eps[j])
                      for j in range(cfg.samples_per_group)])
        xs.append(x)
        ys.append(y)
        gs.append(np.full(cfg.samples_per_group, i))
    return PairedDataset(x=np.vstack(xs), y=np.vstack(ys),
                         groups=np.concatenate(gs), n_groups=cfg.groups)


_chol_cache: dict = {}


def _rbf_chol(size: int, length_scale: float) -> np.ndarray:
    key = (size, float(length_scale))
    if key not in _chol_cache:
        idx = np.arange(size, dtype=np.float64)
        k = np.exp(-((idx[:, None] - idx[None, :]) ** 2) / (2.0 * length_scale))
        k[np.diag_indices_from(k)] += CHOL_JITTER
        try:
            _chol_cache[key] = np.linalg.cholesky(k)
        except np.linalg.LinAlgError as exc:
            raise ValueError("grid kernel is not positive definite even "
                             "after jitter") from exc
    return _chol_cache[key]


def gp_sample(cfg: GpSimConfig, category: int, rng: np.random.Generator) -> np.ndarray:
    """One zero-mean random field over the pixel grid.

    The covariance between pixels (r, c) and (r', c') is
    exp(-((r-r')^2 + (c-c')^2) / (2*l)) with l the category's length
    scale, which factorizes over rows and columns; sampling applies the
    two one-dimensional Cholesky factors to a standard-normal matrix.
    """
    l = cfg.length_scale(category)
    lh = _rbf_chol(cfg.grid, l)
    z = rng.standard_normal((cfg.grid, cfg.grid))
    return lh @ z @ lh.T


def gen_scalar_to_matrix_dataset(cfg: GpSimConfig) -> PairedDataset:
    """Grouped image dataset: category i pairs random fields of length
    scale i with characteristic vectors v_q ~ N(20*i + q/10, 1)."""
    rng = np.random.default_rng(cfg.seed)
    q = np.arange(1, cfg.char_dim + 1, dtype=np.float64)
    xs, ys, gs = [], [], []
    for i in range(1, cfg.categories + 1):
        mean = 20.0 * cfg.length_scale(i) + q / 10.0
        for _ in range(cfg.images_per_category):
            xs.append(mean + rng.standard_normal(cfg.char_dim))
            ys.append(gp_sample(cfg, i, rng).ravel())
            gs.append(i)
    return PairedDataset(x=np.asarray(xs), y=np.asarray(ys),
                         groups=np.asarray(gs), n_groups=cfg.categories,
                         expr_shape=(cfg.grid, cfg.grid))


def quantile_discretize(column: np.ndarray, bins: int = 6) -> np.ndarray:
    """Map values to quantile-bin indices in [0, bins-1].

    Edges sit at the j/bins empirical quantiles; a value equal to an edge
    falls in the lower bin. Degenerate (near-constant) columns collapse
    into low bins with a warning.
    """
    column = np.asarray(column, dtype=np.float64)
    if column.size == 0:
        raise ValueError("column is empty")
    if bins < 2:
        raise ValueError("bins must be >= 2")
    if len(np.unique(column)) < bins:
        warnings.warn("fewer distinct values than bins; some bins are empty",
                      stacklevel=2)
    edges = np.quantile(column, np.arange(1, bins) / bins)
    return np.searchsorted(edges, column, side="left").astype(np.int64)


def low_pass_filter(image: np.ndarray) -> np.ndarray:
    """3x3 uniform mean filter with replicate padding; shape-preserving."""
    image = np.asarray(image, dtype=np.float64)
    padded = np.pad(image, 1, mode="edge")
    out = np.zeros_like(image)
    for di in range(3):
        for dj in range(3):
            out += padded[di:di + image.shape[0], dj:dj + image.shape[1]]
    return out / 9.0


def _fmt(v: float) -> str:
    return f"{v:.17g}"


def write_dataset_csv(ds: PairedDataset, path) -> None:
    """Write a dataset with header x1..xm, y1..yn (or px_r_c), group
    [, outcome]; floats carry 17 significant digits."""
    m, n = ds.char_dim, ds.expr_dim
    header = [f"x{j + 1}" for j in range(m)]
    if ds.expr_shape is not None:
        h, w = ds.expr_shape
        header += [f"px_{r}_{c}" for r in range(h) for c in range(w)]
    else:
        header += [f"y{j + 1}" for j in range(n)]
    header.append("group")
    if ds.outcome is not None:
        header.append("outcome")
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for i in range(ds.n_samples):
            row = [_fmt(v) for v in ds.x[i]] + [_fmt(v) for v in ds.y[i]]
            row.append(str(int(ds.groups[i])))
            if ds.outcome is not None:
                row.append(str(int(ds.outcome[i])))
            writer.writerow(row)


def read_dataset_csv(path) -> PairedDataset:
    """Read a dataset written by :func:`write_dataset_csv`; a missing
    column or a non-finite or non-numeric cell raises ValueError naming
    the file, line and column."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, [])
        rows = [(reader.line_num, row) for row in reader if row]
    x_cols = [i for i, h in enumerate(header) if re.fullmatch(r"x\d+", h)]
    y_cols = [i for i, h in enumerate(header) if re.fullmatch(r"y\d+", h)]
    px_cols = [i for i, h in enumerate(header) if h.startswith("px_")]
    if "group" not in header:
        raise ValueError(f"{path}: missing 'group' column")
    g_col = header.index("group")
    o_col = header.index("outcome") if "outcome" in header else None
    expr_shape = None
    if px_cols:
        coords = [tuple(int(t) for t in header[i].split("_")[1:]) for i in px_cols]
        expr_shape = (max(r for r, _ in coords) + 1, max(c for _, c in coords) + 1)
        y_cols = px_cols
    if not x_cols or not y_cols:
        raise ValueError(f"{path}: missing characteristic or expression columns")

    def cell(line: int, row: list, i: int, conv):
        text = row[i] if i < len(row) else ""
        try:
            value = conv(text)
        except ValueError:
            value = math.nan
        if not math.isfinite(value):
            raise ValueError(f"{path}, line {line}, column {header[i]!r}: "
                             f"expected a finite number, got {text!r}")
        return value

    x = np.array([[cell(n, row, i, float) for i in x_cols] for n, row in rows])
    y = np.array([[cell(n, row, i, float) for i in y_cols] for n, row in rows])
    groups = np.array([cell(n, row, g_col, int) for n, row in rows])
    outcome = (np.array([cell(n, row, o_col, int) for n, row in rows])
               if o_col is not None else None)
    return PairedDataset(x=x, y=y, groups=groups,
                         n_groups=int(groups.max()) if len(groups) else 0,
                         expr_shape=expr_shape, outcome=outcome)
