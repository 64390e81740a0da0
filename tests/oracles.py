"""Independent reference implementations used as test oracles.

Everything here is deliberately written the slow, obvious way (explicit
loops, central finite differences) and stays independent of the library
code paths it checks.
"""

import numpy as np

from sectes import ndnet


def loss_and_grads(params, x, proj):
    """Scalar loss sum(proj * output); returns (loss, analytic grads)."""
    trace = ndnet.forward(params, x)
    loss = float(np.sum(proj * trace.output))
    grads, _ = ndnet.backprop(params, trace, proj)
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
    """Smallest |pre-activation|; gates relu instances away from kinks."""
    trace = ndnet.forward(params, x)
    return min(float(np.abs(z).min()) for z in trace.pre)


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


def three_pass_disc_grads(disc, m, xn, yn, yhat_n, xn_mis, beta):
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
        enc_in = y if disc.expr_shape is None else y.reshape(
            s, 1, *disc.expr_shape)
        enc_tr = ndnet.forward(disc.encoder, enc_in)
        head_tr = ndnet.forward(
            disc.head, np.hstack([x, enc_tr.output.reshape(s, -1)]))
        d = head_tr.output[:, 0]
        head_g, head_in_g = ndnet.backprop(disc.head, head_tr,
                                           score_grad(d)[:, None])
        enc_g, _ = ndnet.backprop(disc.encoder, enc_tr,
                                  head_in_g[:, m:].reshape(enc_tr.output.shape))
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
