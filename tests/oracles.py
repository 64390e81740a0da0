"""Independent reference implementations used as test oracles.

Everything here is deliberately written the slow, obvious way (explicit
loops, central finite differences) and stays independent of the library
code paths it checks.
"""

from dataclasses import replace

import numpy as np

from sectes import ndnet
from sectes.forest import _Tree


def zero_grads(params):
    """Per-layer {"W","b"} zero arrays of ``params``' shapes, for
    :func:`ndnet.backprop` to write parameter gradients into."""
    return [{k: np.zeros_like(a) for k, a in lay.items()}
            for lay in params.layers]


def loss_and_grads(params, x, proj):
    """Scalar loss sum(proj * output); returns (loss, analytic grads)."""
    trace = ndnet.forward(params, x)
    loss = float(np.sum(proj * trace.output))
    grads = zero_grads(params)
    ndnet.backprop(params, trace, proj, out=grads)
    return loss, grads


def fd_grads(params, x, proj, h=1e-5):
    """Central finite differences of the same scalar loss."""
    out = []
    for lay in params.layers:
        glay = {}
        for key, arr in lay.items():
            g = np.zeros_like(arr)
            flat = arr.ravel()
            for j in range(flat.size):
                old = flat[j]
                flat[j] = old + h
                lp = float(np.sum(proj * ndnet.forward(params, x).output))
                flat[j] = old - h
                lm = float(np.sum(proj * ndnet.forward(params, x).output))
                flat[j] = old
                g.ravel()[j] = (lp - lm) / (2 * h)
            glay[key] = g
        out.append(glay)
    return out


def min_preactivation(params, x):
    """Smallest |pre-activation|; gates relu instances away from kinks.
    Layer i's pre-activation is the output of the first i + 1 layers with
    the last one's activation dropped."""
    smallest = np.inf
    for i in range(len(params.spec)):
        spec = params.spec[:i] + [replace(params.spec[i], activation="none")]
        z = ndnet.forward(ndnet.NetParams(spec, params.layers[:i + 1]),
                          x).output
        smallest = min(smallest, float(np.abs(z).min()))
    return smallest


def max_grad_rel_error(analytic, fd):
    """Worst relative error between gradient sets (absolute where both
    gradients are tiny)."""
    worst = 0.0
    for ga, gf in zip(analytic, fd):
        for key in ga:
            a, f = ga[key], gf[key]
            scale = np.maximum(np.abs(a), np.abs(f))
            big = scale > 1e-4
            if big.any():
                worst = max(worst, float(
                    (np.abs(a - f)[big] / scale[big]).max()))
            if (~big).any():
                # tiny entries: an absolute gap this small cannot matter
                assert np.abs(a - f)[~big].max() <= 1e-8
    return worst


def naive_conv2d(x, W, b, stride, padding):
    """Brute-force quadruple-loop convolution reference."""
    B, Ci, H, Wd = x.shape
    Co, _, kh, kw = W.shape
    ho = (H + 2 * padding - kh) // stride + 1
    wo = (Wd + 2 * padding - kw) // stride + 1
    xp = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    out = np.zeros((B, Co, ho, wo))
    for bi in range(B):
        for co in range(Co):
            for i in range(ho):
                for j in range(wo):
                    acc = b[co]
                    for ci in range(Ci):
                        for ki in range(kh):
                            for kj in range(kw):
                                acc += (xp[bi, ci, i * stride + ki,
                                           j * stride + kj]
                                        * W[co, ci, ki, kj])
                    out[bi, co, i, j] = acc
    return out


def naive_conv2d_grads(x, W, g, stride, padding):
    """Loop-based gradients of the convolution definition."""
    B, Ci, H, Wd = x.shape
    Co, _, kh, kw = W.shape
    _, _, ho, wo = g.shape
    xp = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    dW = np.zeros_like(W)
    db = np.zeros(Co)
    dxp = np.zeros_like(xp)
    for bi in range(B):
        for co in range(Co):
            for i in range(ho):
                for j in range(wo):
                    gv = g[bi, co, i, j]
                    db[co] += gv
                    for ci in range(Ci):
                        for ki in range(kh):
                            for kj in range(kw):
                                dW[co, ci, ki, kj] += \
                                    gv * xp[bi, ci, i * stride + ki,
                                            j * stride + kj]
                                dxp[bi, ci, i * stride + ki,
                                    j * stride + kj] += gv * W[co, ci, ki, kj]
    if padding:
        dx = dxp[:, :, padding:-padding, padding:-padding]
    else:
        dx = dxp
    return dW, db, dx


def naive_deconv2d(x, W, b, stride, padding):
    """Brute-force transposed convolution: every input pixel scatters its
    k x k kernel into the uncropped output, which is then cropped by the
    padding on each side."""
    B, Ci, H, Wd = x.shape
    _, Co, kh, kw = W.shape
    full = np.zeros((B, Co, (H - 1) * stride + kh, (Wd - 1) * stride + kw))
    for bi in range(B):
        for ci in range(Ci):
            for i in range(H):
                for j in range(Wd):
                    for co in range(Co):
                        for ki in range(kh):
                            for kj in range(kw):
                                full[bi, co, i * stride + ki,
                                     j * stride + kj] += \
                                    x[bi, ci, i, j] * W[ci, co, ki, kj]
    ho = full.shape[2] - 2 * padding
    wo = full.shape[3] - 2 * padding
    out = full[:, :, padding:padding + ho, padding:padding + wo]
    for co in range(Co):
        out[:, co] += b[co]
    return out


def naive_deconv2d_grads(x, W, g, stride, padding):
    """Loop-based gradients of the transposed-convolution definition."""
    B, Ci, H, Wd = x.shape
    _, Co, kh, kw = W.shape
    _, _, ho, wo = g.shape
    gfull = np.zeros((B, Co, ho + 2 * padding, wo + 2 * padding))
    gfull[:, :, padding:padding + ho, padding:padding + wo] = g
    dW = np.zeros_like(W)
    dx = np.zeros_like(x)
    db = np.zeros(Co)
    for bi in range(B):
        for co in range(Co):
            for i in range(ho):
                for j in range(wo):
                    db[co] += g[bi, co, i, j]
        for ci in range(Ci):
            for i in range(H):
                for j in range(Wd):
                    for co in range(Co):
                        for ki in range(kh):
                            for kj in range(kw):
                                gv = gfull[bi, co, i * stride + ki,
                                           j * stride + kj]
                                dW[ci, co, ki, kj] += x[bi, ci, i, j] * gv
                                dx[bi, ci, i, j] += gv * W[ci, co, ki, kj]
    return dW, db, dx


def _tap_windows(k, s, ho, wo):
    """Per kernel tap, the strided slice of the padded input it reads when
    the convolution produces an ho x wo output."""
    for ki in range(k):
        for kj in range(k):
            yield ki, kj, (slice(None), slice(None),
                           slice(ki, ki + s * ho, s), slice(kj, kj + s * wo, s))


def _tap_contract(xp, W, k, s, ho, wo):
    z = np.zeros((xp.shape[0], W.shape[0], ho, wo))
    for ki, kj, win in _tap_windows(k, s, ho, wo):
        z += np.einsum("bchw,oc->bohw", xp[win], W[:, :, ki, kj])
    return z


def _tap_scatter(g, W, k, s, hp, wp):
    dxp = np.zeros((g.shape[0], W.shape[1], hp, wp))
    for ki, kj, win in _tap_windows(k, s, g.shape[2], g.shape[3]):
        dxp[win] += np.einsum("bohw,oc->bchw", g, W[:, :, ki, kj])
    return dxp


def _tap_weight_grad(g, xp, k, s):
    dW = np.empty((g.shape[1], xp.shape[1], k, k))
    for ki, kj, win in _tap_windows(k, s, g.shape[2], g.shape[3]):
        dW[:, :, ki, kj] = np.einsum("bohw,bchw->oc", g, xp[win])
    return dW


def tap_loop_layer(lay, x, W, b, g):
    """One linear conv2d/deconv2d layer computed tap by tap, one einsum per
    kernel tap and no im2col buffer. Returns the layer's output for input x
    and, for output gradient g, dW, db and dx."""
    k, s, p = lay.kernel, lay.stride, lay.padding
    h, w = x.shape[2:]

    def pad(a):
        return np.pad(a, ((0, 0), (0, 0), (p, p), (p, p)))

    if lay.kind == "conv2d":
        ho = (h + 2 * p - k) // s + 1
        wo = (w + 2 * p - k) // s + 1
        z = _tap_contract(pad(x), W, k, s, ho, wo)
        dW = _tap_weight_grad(g, pad(x), k, s)
        dx = _tap_scatter(g, W, k, s, h + 2 * p, w + 2 * p)[
            :, :, p:p + h, p:p + w]
    else:
        ho, wo = (h - 1) * s - 2 * p + k, (w - 1) * s - 2 * p + k
        z = _tap_scatter(x, W, k, s, ho + 2 * p, wo + 2 * p)[
            :, :, p:p + ho, p:p + wo]
        dW = _tap_weight_grad(x, pad(g), k, s)
        dx = _tap_contract(pad(g), W, k, s, h, w)
    return z + b[None, :, None, None], dW, g.sum(axis=(0, 2, 3)), dx


def stack_walk_leaves(tree, X):
    """Per-sample index of the forest-tree leaf each row ends at, routing
    index sets down the tree one node at a time."""
    out = np.empty(X.shape[0], dtype=np.int64)
    stack = [(0, np.arange(X.shape[0]))]
    while stack:
        node, idx = stack.pop()
        if tree.feature[node] < 0:
            out[idx] = node
            continue
        go_left = X[idx, tree.feature[node]] <= tree.threshold[node]
        stack.append((tree.left[node], idx[go_left]))
        stack.append((tree.left[node] + 1, idx[~go_left]))
    return out


def stack_walk_votes(tree, X):
    """Per-sample majority-class vote of one forest tree (ties to the
    lower class)."""
    return tree.leaf[stack_walk_leaves(tree, X)]


def gini(class_counts) -> float:
    """Impurity 1 - sum((n_c / N)^2); zero iff one class holds all counts."""
    counts = np.asarray(class_counts, dtype=np.float64)
    total = counts.sum()
    if total <= 0:
        raise ValueError("class counts sum to zero")
    frac = counts / total
    return float(1.0 - np.dot(frac, frac))


def _best_split(vals: np.ndarray, codes: np.ndarray, n_classes: int):
    """Lowest weighted-Gini split of one feature, or None if constant.

    Returns (score, threshold) where score orders candidates like the
    weighted Gini (shared constants dropped); thresholds are midpoints
    strictly between two observed values.
    """
    order = vals.argsort()
    sv = vals[order]
    boundary = (sv[1:] > sv[:-1]).nonzero()[0]
    if boundary.size == 0:
        return None
    sy = codes[order]
    n_left = boundary + 1.0
    n_right = vals.size - n_left
    if n_classes == 2:
        cum = sy.cumsum()
        l1 = cum[boundary]
        l0 = n_left - l1
        r1 = cum[-1] - l1
        r0 = n_right - r1
        # n_side * gini_side == 2 * count0 * count1 / n_side
        score = l0 * l1 / n_left + r0 * r1 / n_right
    else:
        onehot = sy[:, None] == np.arange(n_classes)[None, :]
        cum = onehot.cumsum(axis=0).astype(np.float64)
        lc = cum[boundary]
        rc = cum[-1] - lc
        score = (n_left - (lc * lc).sum(axis=1) / n_left
                 + n_right - (rc * rc).sum(axis=1) / n_right)
    while True:
        best = int(score.argmin())
        b = int(boundary[best])
        lo, hi = float(sv[b]), float(sv[b + 1])
        mid = (lo + hi) / 2.0
        # adjacent floats can collapse the midpoint onto an observed value
        if lo < mid < hi:
            return float(score[best]), mid
        score[best] = np.inf
        if not np.isfinite(score).any():
            return None


def _grow_tree(X: np.ndarray, codes: np.ndarray, n_classes: int,
               rng: np.random.Generator) -> _Tree:
    """One tree on the columns of the feature-major ``X`` (features,
    rows), so each candidate feature's values are one contiguous row."""
    d = X.shape[0]
    mtry = max(1, int(np.floor(np.sqrt(d))))
    feature, threshold, left, leaf = [-1], [0.0], [-1], [0]
    stack = [(0, np.arange(X.shape[1]))]
    while stack:
        node, idx = stack.pop()
        node_codes = codes[idx]
        counts = np.bincount(node_codes, minlength=n_classes)
        leaf[node] = int(counts.argmax())
        if counts[leaf[node]] == idx.size:
            continue
        # scan a random feature order; constant features do not use up mtry
        best = None
        evaluated = 0
        for f in rng.permutation(d):
            split = _best_split(X[f, idx], node_codes, n_classes)
            if split is None:
                continue
            evaluated += 1
            if best is None or split[0] < best[0]:
                best = (split[0], int(f), split[1])
            if evaluated >= mtry:
                break
        if best is None:
            continue
        _, feat, thr = best
        go_left = X[feat, idx] <= thr
        feature[node], threshold[node] = feat, thr
        left[node] = len(feature)
        feature += [-1, -1]
        threshold += [0.0, 0.0]
        left += [-1, -1]
        leaf += [0, 0]
        stack.append((left[node], idx[go_left]))
        stack.append((left[node] + 1, idx[~go_left]))
    return _Tree(*map(np.asarray, (feature, threshold, left, leaf)))


def reference_trees(X, labels, cfg):
    """The trees of ``fit_forest(X, labels, cfg)`` grown one at a time,
    node by node and feature by feature, as ``(feature, threshold, left,
    leaf)`` arrays."""
    X = np.asarray(X, dtype=np.float64)
    classes, codes = np.unique(labels, return_inverse=True)
    by_class = [np.nonzero(codes == c)[0] for c in range(len(classes))]
    seeds = np.random.SeedSequence(cfg.seed).spawn(cfg.n_trees)
    XT = np.ascontiguousarray(X.T)
    trees = []
    for t in range(cfg.n_trees):
        rng = np.random.default_rng(seeds[t])
        boot = np.concatenate([
            cls_idx[rng.integers(0, len(cls_idx), size=len(cls_idx))]
            for cls_idx in by_class])
        trees.append(_grow_tree(XT[:, boot], codes[boot], len(classes), rng))
    return trees


def three_pass_disc_grads(model, m, xn, yn, yhat_n, xn_mis, beta):
    """Reference for the discriminator step on the three-pair objective:
    the real (x, y), generated (x, yhat) and mismatched (x', y) pairs each
    get their own forward pass and backprop, and the three gradient sets
    are summed. Returns (L_D, the 3s scores in that pair order, head grads,
    encoder grads) for minimizing -L_D with scores clamped as in the
    loss."""
    s = xn.shape[0]

    def clamp(d):
        return np.clip(d, 1e-7, 1.0 - 1e-7)

    pairs = ((xn, yn, lambda d: -1.0 / (s * clamp(d))),
             (xn, yhat_n, lambda d: beta / (s * clamp(1.0 - d))),
             (xn_mis, yn, lambda d: (1.0 - beta) / (s * clamp(1.0 - d))))
    scores, head_sum, enc_sum = [], None, None
    for x, y, score_grad in pairs:
        enc_in = y if model.expr_shape is None else y.reshape(
            s, 1, *model.expr_shape)
        enc_tr = ndnet.forward(model.encoder, enc_in)
        head_tr = ndnet.forward(
            model.head, np.hstack([x, enc_tr.output.reshape(s, -1)]))
        d = head_tr.output[:, 0]
        head_g, enc_g = zero_grads(model.head), zero_grads(model.encoder)
        head_in_g = ndnet.backprop(model.head, head_tr, score_grad(d)[:, None],
                                   out=head_g)
        ndnet.backprop(model.encoder, enc_tr,
                       head_in_g[:, m:].reshape(enc_tr.output.shape),
                       out=enc_g)
        scores.append(d)
        if head_sum is None:
            head_sum, enc_sum = head_g, enc_g
        else:
            for acc, new in zip(head_sum + enc_sum, head_g + enc_g):
                for key in acc:
                    acc[key] = acc[key] + new[key]
    d_real, d_fy, d_fx = (clamp(d) for d in scores)
    loss = float(np.mean(np.log(d_real) + beta * np.log1p(-d_fy)
                         + (1.0 - beta) * np.log1p(-d_fx)))
    return loss, np.concatenate(scores), head_sum, enc_sum


def nipals_pls(X, Y, components):
    """PLS regression by NIPALS power iteration with deflation: each weight
    vector comes from alternating X'u and Y q projections until the score
    vector stops moving. Returns (coef, components actually fitted)."""
    Xc = X - X.mean(axis=0)
    Yc = Y - Y.mean(axis=0)
    m = X.shape[1]
    W = np.zeros((m, components))
    P = np.zeros((m, components))
    Q = np.zeros((Y.shape[1], components))
    done = 0
    for a in range(components):
        if np.all(np.abs(Yc) < 1e-12) or np.all(np.abs(Xc) < 1e-12):
            break
        u = Yc[:, int(np.argmax(Yc.var(axis=0)))]
        t = None
        for _ in range(500):
            w = Xc.T @ u
            norm = np.linalg.norm(w)
            if norm < 1e-15:
                break
            w /= norm
            t_new = Xc @ w
            q = Yc.T @ t_new / (t_new @ t_new)
            qq = q @ q
            if qq < 1e-30:
                break
            u_new = Yc @ q / qq
            if t is not None and np.linalg.norm(t_new - t) < 1e-12:
                t = t_new
                break
            t, u = t_new, u_new
        if t is None or norm < 1e-15:
            break
        tt = t @ t
        p = Xc.T @ t / tt
        q = Yc.T @ t / tt
        Xc = Xc - np.outer(t, p)
        Yc = Yc - np.outer(t, q)
        W[:, a], P[:, a], Q[:, a] = w, p, q
        done = a + 1
    W, P, Q = W[:, :done], P[:, :done], Q[:, :done]
    return W @ np.linalg.solve(P.T @ W, Q.T), done


def per_array_adam(layers, grads_seq, lr):
    """Adam applied to each parameter array on its own, with the same
    in-place arithmetic in the same order as ``ndnet.optimizer_step``;
    returns copies of ``layers`` after each gradient set of ``grads_seq``
    in turn."""
    layers = [{k: a.copy() for k, a in lay.items()} for lay in layers]
    m = [{k: np.zeros_like(a) for k, a in lay.items()} for lay in layers]
    v = [{k: np.zeros_like(a) for k, a in lay.items()} for lay in layers]
    b1, b2 = ndnet.ADAM_BETA1, ndnet.ADAM_BETA2
    for step, grads in enumerate(grads_seq, 1):
        bias1 = 1.0 - b1 ** step
        bias2 = 1.0 - b2 ** step
        for lay, glay, mlay, vlay in zip(layers, grads, m, v):
            for key in lay:
                g, mk, vk = glay[key], mlay[key], vlay[key]
                mk *= b1
                mk += (1.0 - b1) * g
                vk *= b2
                tmp = (1.0 - b2) * g
                tmp *= g
                vk += tmp
                np.divide(vk, bias2, out=tmp)
                np.sqrt(tmp, out=tmp)
                tmp += ndnet.ADAM_EPS
                delta = mk / bias1
                delta *= lr
                delta /= tmp
                lay[key] -= delta
    return layers
