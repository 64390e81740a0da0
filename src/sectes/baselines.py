"""Benchmark regressors: partial least squares and GRNN.

Both are deterministic mappings; their "synthesis" repeats the
prediction for every requested sample.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .datagen import _rows
from .errors import ConfigError


@dataclass
class PlsModel:
    """Latent-component linear regression state."""

    mean_x: np.ndarray
    mean_y: np.ndarray
    coef: np.ndarray  # (m, n)
    n_components: int

    def __post_init__(self):
        m, n = np.size(self.mean_x), np.size(self.mean_y)
        got = [np.shape(a) for a in (self.mean_x, self.mean_y, self.coef)]
        if got != [(m,), (n,), (m, n)]:
            raise ConfigError(f"mean_x, mean_y, coef have shapes {got}")
        if not 1 <= self.n_components <= m:
            raise ConfigError(f"n_components: must lie in [1, {m}], got "
                              f"{self.n_components}")


def pls_fit(X: np.ndarray, Y: np.ndarray, components: int) -> PlsModel:
    """Fit partial-least-squares regression by deflation; each weight vector
    is the leading left singular vector of the deflated X'Y (NIPALS's limit).

    Handles multi-output responses; deterministic. Requested components
    may be cut short if X or Y deflates to zero first.
    """
    X, Y = _rows(X, "X"), _rows(Y, "Y")
    if X.shape[0] != Y.shape[0]:
        raise ValueError("X and Y must be row-aligned")
    n_samples, m = X.shape
    if components < 1:
        raise ConfigError("components must be >= 1")
    if components > min(n_samples - 1, m):
        raise ConfigError(f"components must be <= min(N-1, m) = "
                          f"{min(n_samples - 1, m)}")
    mean_x = X.mean(axis=0)
    mean_y = Y.mean(axis=0)
    Xc = X - mean_x
    Yc = Y - mean_y
    if not np.any(np.abs(Xc) > 1e-12):
        raise ValueError("X has zero variance")

    comps = []  # (w, p, q) of each fitted component
    while len(comps) < components:
        if np.all(np.abs(Yc) < 1e-12) or np.all(np.abs(Xc) < 1e-12):
            break
        U, sv, _ = np.linalg.svd(Xc.T @ Yc, full_matrices=False)
        if sv[0] < 1e-15:
            break
        w = U[:, 0]
        t = Xc @ w
        tt = t @ t
        p = Xc.T @ t / tt
        q = Yc.T @ t / tt
        Xc = Xc - np.outer(t, p)
        Yc = Yc - np.outer(t, q)
        comps.append((w, p, q))
    if not comps:
        raise ValueError("no usable component found")
    W, P, Q = (np.column_stack(cols) for cols in zip(*comps))
    coef = W @ np.linalg.solve(P.T @ W, Q.T)
    return PlsModel(mean_x=mean_x, mean_y=mean_y, coef=coef,
                    n_components=len(comps))


def pls_predict(model: PlsModel, X: np.ndarray) -> np.ndarray:
    """Linear prediction, one row per characteristic row of X (rows, m)."""
    X = _rows(X, "characteristics", model.mean_x.size)
    return model.mean_y + (X - model.mean_x) @ model.coef


@dataclass
class GrnnModel:
    """Kernel-weighted regression over stored training pairs."""

    train_x: np.ndarray
    train_y: np.ndarray
    bandwidth: float

    def __post_init__(self):
        self.train_x = _rows(self.train_x, "train_x")
        self.train_y = _rows(self.train_y, "train_y")
        if self.train_x.shape[0] != self.train_y.shape[0]:
            raise ValueError("train_x and train_y must be row-aligned")
        if not self.bandwidth > 0:
            raise ConfigError("bandwidth must be positive")


def grnn_fit(X: np.ndarray, Y: np.ndarray,
             bandwidth: float | None = None) -> GrnnModel:
    """Store the training pairs; bandwidth defaults to the median pairwise
    characteristic distance."""
    X, Y = _rows(X, "X"), _rows(Y, "Y")
    if bandwidth is None:
        if X.shape[0] < 2:
            bandwidth = 1.0
        else:
            d2 = ((X[:, None, :] - X[None, :, :]) ** 2).sum(axis=2)
            dists = np.sqrt(d2[np.triu_indices(X.shape[0], k=1)])
            positive = dists[dists > 0]
            bandwidth = float(np.median(dists)) if np.median(dists) > 0 else \
                (float(positive.min()) if positive.size else 1.0)
    return GrnnModel(train_x=X, train_y=Y, bandwidth=float(bandwidth))


def grnn_predict(model: GrnnModel, X: np.ndarray) -> np.ndarray:
    """Weighted average of training targets with Gaussian weights
    exp(-||x - x_i||^2 / (2 b^2)), one row per characteristic row x of X.

    Exponents are shifted by their maximum before exponentiation, so a
    vanishing bandwidth degrades gracefully to the nearest neighbor's
    target instead of underflowing.
    """
    X = _rows(X, "characteristics", model.train_x.shape[1])
    d2 = ((X[:, None, :] - model.train_x[None, :, :]) ** 2).sum(axis=2)
    expo = -d2 / (2.0 * model.bandwidth ** 2)
    w = np.exp(expo - expo.max(axis=1, keepdims=True))
    totals = w.sum(axis=1, keepdims=True)
    # defensive: rows without usable weights take the nearest neighbor's target
    return np.where((totals > 0) & np.isfinite(totals),
                    (w @ model.train_y) / totals,
                    model.train_y[d2.argmin(axis=1)])
