"""Slow reference implementations used to cross-check the fast paths.

Everything in here is deliberately written as plain Python loops over
scalars, directly transcribing the defining formulas. No vectorized
shortcuts: these results are only trusted because they are too simple
to be wrong in the same way as the real code.
"""

import numpy as np


def _padded(x, k, stride, padding, fill=0.0):
    """x padded with fill for a KxK window (extra pixel bottom/right), with
    the output size and the top/left padding."""
    n, c, h, wd = x.shape
    if padding == "same":
        ho = -(-h // stride)
        wo = -(-wd // stride)
        ph = max((ho - 1) * stride + k - h, 0)
        pw = max((wo - 1) * stride + k - wd, 0)
        pt, pl = ph // 2, pw // 2
        xp = np.full((n, c, h + ph, wd + pw), fill, dtype=x.dtype)
        xp[:, :, pt:pt + h, pl:pl + wd] = x
        return xp, ho, wo, pt, pl
    if padding != "valid":
        raise ValueError(padding)
    ho = (h - k) // stride + 1
    wo = (wd - k) // stride + 1
    return x, ho, wo, 0, 0


def conv2d_loops(x, w, stride=1, padding="same"):
    """Cross-correlation by six nested loops. x (N,C,H,W), w (K,K,Cin,Cout)."""
    n, c, h, wd = x.shape
    k = w.shape[0]
    xp, ho, wo, _, _ = _padded(x, k, stride, padding)
    cout = w.shape[3]
    y = np.zeros((n, cout, ho, wo), dtype=x.dtype)
    for b in range(n):
        for f in range(cout):
            for i in range(ho):
                for j in range(wo):
                    acc = 0.0
                    for ci in range(c):
                        for u in range(k):
                            for v in range(k):
                                acc += xp[b, ci, i * stride + u, j * stride + v] \
                                    * w[u, v, ci, f]
                    y[b, f, i, j] = acc
    return y


def patches_loops(x, k, stride=1, padding="same"):
    """The (N*Ho*Wo, K*K*C) patch matrix of an im2col conv, tap by tap:
    row (b, i, j) holds, at column (u, v, ci), the padded input that
    output pixel (i, j) of image b reads at kernel tap (u, v)."""
    n, c = x.shape[:2]
    xp, ho, wo, _, _ = _padded(x, k, stride, padding)
    cols = np.empty((n, ho, wo, k, k, c), dtype=x.dtype)
    for i in range(ho):
        for j in range(wo):
            for u in range(k):
                for v in range(k):
                    cols[:, i, j, u, v] = xp[:, :, i * stride + u, j * stride + v]
    return cols.reshape(n * ho * wo, k * k * c)


def conv2d_vjp_loops(x, w, g, stride=1, padding="same"):
    """Gradients of sum(g * conv2d(x, w)) with respect to x and w, by the
    same loops as the forward: each product xp[b, ci, i*s+u, j*s+v] *
    w[u, v, ci, f] sends g[b, f, i, j] times the other factor to each
    operand."""
    n, c, h, wd = x.shape
    k = w.shape[0]
    xp, ho, wo, pt, pl = _padded(x, k, stride, padding)
    gxp = np.zeros_like(xp)
    gw = np.zeros_like(w)
    for b in range(n):
        for f in range(w.shape[3]):
            for i in range(ho):
                for j in range(wo):
                    for ci in range(c):
                        for u in range(k):
                            for v in range(k):
                                r, q = i * stride + u, j * stride + v
                                gxp[b, ci, r, q] += g[b, f, i, j] * w[u, v, ci, f]
                                gw[u, v, ci, f] += g[b, f, i, j] * xp[b, ci, r, q]
    return gxp[:, :, pt:pt + h, pl:pl + wd], gw


def depthwise_conv2d_loops(x, w, stride=1, padding="same"):
    """Per-channel cross-correlation by five nested loops. w is (K,K,C)."""
    n, c, h, wd = x.shape
    k = w.shape[0]
    xp, ho, wo, _, _ = _padded(x, k, stride, padding)
    y = np.zeros((n, c, ho, wo), dtype=x.dtype)
    for b in range(n):
        for ci in range(c):
            for i in range(ho):
                for j in range(wo):
                    acc = 0.0
                    for u in range(k):
                        for v in range(k):
                            acc += xp[b, ci, i * stride + u, j * stride + v] \
                                * w[u, v, ci]
                    y[b, ci, i, j] = acc
    return y


def depthwise_conv2d_vjp_loops(x, w, g, stride=1, padding="same"):
    """Gradients of sum(g * depthwise_conv2d(x, w)) with respect to x and
    w, by the same loops as the forward: each product
    xp[b, c, i*s+u, j*s+v] * w[u, v, c] sends g[b, c, i, j] times the
    other factor to each operand."""
    n, c, h, wd = x.shape
    k = w.shape[0]
    xp, ho, wo, pt, pl = _padded(x, k, stride, padding)
    gxp = np.zeros_like(xp)
    gw = np.zeros_like(w)
    for b in range(n):
        for ci in range(c):
            for i in range(ho):
                for j in range(wo):
                    for u in range(k):
                        for v in range(k):
                            r, q = i * stride + u, j * stride + v
                            gxp[b, ci, r, q] += g[b, ci, i, j] * w[u, v, ci]
                            gw[u, v, ci] += g[b, ci, i, j] * xp[b, ci, r, q]
    return gxp[:, :, pt:pt + h, pl:pl + wd], gw


def dense_loops(x, w):
    """(N,D) @ (D,M) by three nested loops."""
    n, d = x.shape
    m = w.shape[1]
    y = np.zeros((n, m), dtype=x.dtype)
    for b in range(n):
        for j in range(m):
            acc = 0.0
            for i in range(d):
                acc += x[b, i] * w[i, j]
            y[b, j] = acc
    return y


def _first_max(xp, b, ci, i, j, k, stride):
    """(row, col) in xp of the first maximum of one pooling window in scan
    order; a NaN beats every number, and the first NaN wins."""
    best, at = None, None
    for u in range(k):
        for v in range(k):
            r, q = i * stride + u, j * stride + v
            val = xp[b, ci, r, q]
            if best is None or (not np.isnan(best)
                                and (np.isnan(val) or val > best)):
                best, at = val, (r, q)
    return at


def max_pool_loops(x, k, stride, padding="valid"):
    """Max pooling by explicit window scans; 'same' pads with -inf. Each
    output is the window's first maximum in scan order, sign of a zero
    included."""
    xp, ho, wo, _, _ = _padded(x, k, stride, padding, fill=-np.inf)
    n, c = x.shape[:2]
    y = np.zeros((n, c, ho, wo), dtype=x.dtype)
    for b in range(n):
        for ci in range(c):
            for i in range(ho):
                for j in range(wo):
                    y[b, ci, i, j] = xp[(b, ci) + _first_max(xp, b, ci, i, j,
                                                             k, stride)]
    return y


def max_pool_vjp_loops(x, g, k, stride, padding="valid"):
    """The input gradient of max pooling: each output's g lands on its
    window's first maximum, and overlapping windows add up."""
    xp, ho, wo, pt, pl = _padded(x, k, stride, padding, fill=-np.inf)
    n, c, h, wd = x.shape
    gxp = np.zeros(xp.shape, dtype=np.float64)
    for b in range(n):
        for ci in range(c):
            for i in range(ho):
                for j in range(wo):
                    r, q = _first_max(xp, b, ci, i, j, k, stride)
                    gxp[b, ci, r, q] += g[b, ci, i, j]
    return gxp[:, :, pt:pt + h, pl:pl + wd]


def _bn_stats(x, ci, mean, var):
    """Channel ci's batch mean and biased variance, or the given ones."""
    if mean is not None:
        return mean[ci], var[ci]
    n, _, h, w = x.shape
    vals = [x[b, ci, i, j] for b in range(n) for i in range(h) for j in range(w)]
    mu = sum(vals) / len(vals)
    return mu, sum((v - mu) ** 2 for v in vals) / len(vals)


def batch_norm_loops(x, gamma, beta, eps=1e-5, mean=None, var=None):
    """Batch norm per channel: train mode (batch statistics, biased
    variance), or eval mode when the running mean and var are given."""
    n, c, h, w = x.shape
    y = np.zeros_like(x)
    for ci in range(c):
        mu, v = _bn_stats(x, ci, mean, var)
        for b in range(n):
            for i in range(h):
                for j in range(w):
                    y[b, ci, i, j] = gamma[ci] * (x[b, ci, i, j] - mu) \
                        / np.sqrt(v + eps) + beta[ci]
    return y


def batch_norm_vjp_loops(x, gamma, g, eps=1e-5, mean=None, var=None):
    """(gx, ggamma, gbeta) of batch_norm_loops. In train mode the input
    gradient carries the paths through the batch mean and variance:
    gx = gamma/sqrt(var+eps) * (g - sum(g)/m - xhat * sum(g*xhat)/m)."""
    n, c, h, w = x.shape
    m = n * h * w
    gx = np.zeros_like(x)
    ggamma = np.zeros(c)
    gbeta = np.zeros(c)
    for ci in range(c):
        mu, v = _bn_stats(x, ci, mean, var)
        inv = 1.0 / np.sqrt(v + eps)
        for b in range(n):
            for i in range(h):
                for j in range(w):
                    gbeta[ci] += g[b, ci, i, j]
                    ggamma[ci] += g[b, ci, i, j] * (x[b, ci, i, j] - mu) * inv
        for b in range(n):
            for i in range(h):
                for j in range(w):
                    d = g[b, ci, i, j]
                    if mean is None:
                        d -= (gbeta[ci] + (x[b, ci, i, j] - mu) * inv
                              * ggamma[ci]) / m
                    gx[b, ci, i, j] = gamma[ci] * inv * d
    return gx, ggamma, gbeta


def kl_term_loops(t_logits, s_logits, tau):
    """tau^2 * mean over rows of KL(softmax(t/tau) || softmax(s/tau))."""
    t = np.asarray(t_logits, dtype=np.float64) / tau
    s = np.asarray(s_logits, dtype=np.float64) / tau
    total = 0.0
    for r in range(t.shape[0]):
        pt = np.exp(t[r] - t[r].max())
        pt /= pt.sum()
        ps = np.exp(s[r] - s[r].max())
        ps /= ps.sum()
        total += sum(pt[k] * (np.log(pt[k]) - np.log(ps[k])) for k in range(t.shape[1]))
    return tau * tau * total / t.shape[0]


def best_mask_exhaustive(scores, n_keep, min_f):
    """Exhaustive search over all keep-sets of size n_keep honoring the
    per-layer floor; returns the set of (layer, idx) pairs with maximum
    total score. Only usable for tiny instances."""
    import itertools

    entries = [(lid, i) for lid in sorted(scores) for i in range(len(scores[lid]))]
    best, best_total = None, -np.inf
    for combo in itertools.combinations(entries, n_keep):
        per_layer = {lid: 0 for lid in scores}
        for lid, _ in combo:
            per_layer[lid] += 1
        if any(per_layer[lid] < min(min_f, len(scores[lid])) for lid in scores):
            continue
        total = sum(scores[lid][i] for lid, i in combo)
        if total > best_total:
            best, best_total = set(combo), total
    return best


def surrogate_loops(dY, x, w, stride=1, padding="same"):
    """Score gradient by definition: elementwise product of the upstream
    gradient with the unmasked conv output, summed per out-channel."""
    pre = conv2d_loops(x, w, stride, padding)
    cout = pre.shape[1]
    g = np.zeros(cout, dtype=np.float64)
    for n in range(cout):
        for b in range(pre.shape[0]):
            for i in range(pre.shape[2]):
                for j in range(pre.shape[3]):
                    g[n] += dY[b, n, i, j] * pre[b, n, i, j]
    return g


def fd_grad(f, x, h=1e-5):
    """Central finite-difference gradient of scalar-valued f at x (f64)."""
    x = np.asarray(x, dtype=np.float64)
    g = np.zeros_like(x)
    flat = x.reshape(-1)
    gf = g.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        fp = f(x)
        flat[i] = orig - h
        fm = f(x)
        flat[i] = orig
        gf[i] = (fp - fm) / (2.0 * h)
    return g


def rel_err(a, b):
    """max |a-b| / max(1, |a|, |b|), elementwise then reduced."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    denom = np.maximum(1.0, np.maximum(np.abs(a), np.abs(b)))
    return float(np.abs(a - b) / denom) if a.ndim == 0 \
        else float((np.abs(a - b) / denom).max())


def int_tensor(rng, shape, lo=-4, hi=5, dtype=np.float64):
    """Integer-valued float array: sums are order-independent, so results
    from differently associated reductions must agree exactly."""
    return rng.integers(lo, hi, size=shape).astype(dtype)
