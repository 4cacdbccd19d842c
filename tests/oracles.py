"""Naive reference implementations used as independent oracles.

Everything here is deliberate loop-by-loop arithmetic with no shared code
with the library's vectorized paths.
"""

import math

import numpy as np


def naive_conv2d(x, w, b=None, stride=(1, 1), padding=(0, 0), dilation=(1, 1), groups=1):
    """Seven nested loops over batch, out-channel, output rows/cols, in-channel
    within the group, and kernel taps."""
    n, c, h, wdt = x.shape
    cout, cg, kh, kw = w.shape
    sh, sw = stride
    ph, pw = padding
    dh, dw = dilation
    og = cout // groups
    ho = (h + 2 * ph - dh * (kh - 1) - 1) // sh + 1
    wo = (wdt + 2 * pw - dw * (kw - 1) - 1) // sw + 1
    out = np.zeros((n, cout, ho, wo), dtype=np.float64)
    for ni in range(n):
        for oc in range(cout):
            gi = oc // og
            for oy in range(ho):
                for ox in range(wo):
                    acc = 0.0
                    for ic in range(cg):
                        src_c = gi * cg + ic
                        for ky in range(kh):
                            iy = oy * sh - ph + ky * dh
                            if iy < 0 or iy >= h:
                                continue
                            for kx in range(kw):
                                ix = ox * sw - pw + kx * dw
                                if ix < 0 or ix >= wdt:
                                    continue
                                acc += float(x[ni, src_c, iy, ix]) * float(w[oc, ic, ky, kx])
                    if b is not None:
                        acc += float(b[oc])
                    out[ni, oc, oy, ox] = acc
    return out


def naive_conv2d_vjp(x, w, grad, stride=(1, 1), padding=(0, 0), dilation=(1, 1), groups=1):
    """Gradients (gx, gw, gb) of sum(grad * conv(x, w, b)), accumulated tap by
    tap in float64 over the same seven loops as ``naive_conv2d``."""
    n, c, h, wdt = x.shape
    cout, cg, kh, kw = w.shape
    sh, sw = stride
    ph, pw = padding
    dh, dw = dilation
    og = cout // groups
    _, _, ho, wo = grad.shape
    gx = np.zeros(x.shape, dtype=np.float64)
    gw = np.zeros(w.shape, dtype=np.float64)
    gb = np.zeros(cout, dtype=np.float64)
    for ni in range(n):
        for oc in range(cout):
            gi = oc // og
            for oy in range(ho):
                for ox in range(wo):
                    g = float(grad[ni, oc, oy, ox])
                    gb[oc] += g
                    for ic in range(cg):
                        src_c = gi * cg + ic
                        for ky in range(kh):
                            iy = oy * sh - ph + ky * dh
                            if iy < 0 or iy >= h:
                                continue
                            for kx in range(kw):
                                ix = ox * sw - pw + kx * dw
                                if ix < 0 or ix >= wdt:
                                    continue
                                gx[ni, src_c, iy, ix] += g * float(w[oc, ic, ky, kx])
                                gw[oc, ic, ky, kx] += g * float(x[ni, src_c, iy, ix])
    return gx, gw, gb


def naive_maxpool2d(x, kernel, stride, padding=(0, 0)):
    n, c, h, w = x.shape
    kh, kw = kernel
    sh, sw = stride
    ph, pw = padding
    ho = (h + 2 * ph - kh) // sh + 1
    wo = (w + 2 * pw - kw) // sw + 1
    out = np.full((n, c, ho, wo), -np.inf, dtype=np.float64)
    for ni in range(n):
        for ci in range(c):
            for oy in range(ho):
                for ox in range(wo):
                    best = -math.inf
                    for ky in range(kh):
                        iy = oy * sh - ph + ky
                        if iy < 0 or iy >= h:
                            continue
                        for kx in range(kw):
                            ix = ox * sw - pw + kx
                            if ix < 0 or ix >= w:
                                continue
                            best = max(best, float(x[ni, ci, iy, ix]))
                    out[ni, ci, oy, ox] = best
    return out


def naive_batchnorm2d_train(x, gamma, beta, grad, running_mean, running_var,
                            momentum=0.1, eps=1e-5):
    """Train-mode batch norm channel by channel in float64: returns (out,
    new running mean, new running var, gx, ggamma, gbeta) for an upstream
    gradient ``grad``; the running variance takes the biased batch variance."""
    n, c, h, w = x.shape
    m = n * h * w
    out = np.zeros(x.shape)
    gx = np.zeros(x.shape)
    gg = np.zeros(c)
    gb = np.zeros(c)
    new_mean = np.zeros(c)
    new_var = np.zeros(c)
    for ci in range(c):
        total = 0.0
        for ni in range(n):
            for yi in range(h):
                for xi in range(w):
                    total += float(x[ni, ci, yi, xi])
        mu = total / m
        sq = 0.0
        for ni in range(n):
            for yi in range(h):
                for xi in range(w):
                    sq += (float(x[ni, ci, yi, xi]) - mu) ** 2
        var = sq / m
        inv = 1.0 / math.sqrt(var + eps)
        for ni in range(n):
            for yi in range(h):
                for xi in range(w):
                    xhat = (float(x[ni, ci, yi, xi]) - mu) * inv
                    g = float(grad[ni, ci, yi, xi])
                    out[ni, ci, yi, xi] = float(gamma[ci]) * xhat + float(beta[ci])
                    gb[ci] += g
                    gg[ci] += g * xhat
        for ni in range(n):
            for yi in range(h):
                for xi in range(w):
                    xhat = (float(x[ni, ci, yi, xi]) - mu) * inv
                    g = float(grad[ni, ci, yi, xi])
                    gx[ni, ci, yi, xi] = float(gamma[ci]) * inv * (g - gb[ci] / m
                                                                  - xhat * gg[ci] / m)
        new_mean[ci] = (1 - momentum) * float(running_mean[ci]) + momentum * mu
        new_var[ci] = (1 - momentum) * float(running_var[ci]) + momentum * var
    return out, new_mean, new_var, gx, gg, gb


def naive_batchnorm2d_eval(x, gamma, beta, grad, running_mean, running_var, eps=1e-5):
    """Eval-mode batch norm element by element in float64: returns (out, gx,
    ggamma, gbeta) for an upstream gradient ``grad``."""
    n, c, h, w = x.shape
    out = np.zeros(x.shape)
    gx = np.zeros(x.shape)
    gg = np.zeros(c)
    gb = np.zeros(c)
    for ni in range(n):
        for ci in range(c):
            inv = 1.0 / math.sqrt(float(running_var[ci]) + eps)
            for yi in range(h):
                for xi in range(w):
                    xhat = (float(x[ni, ci, yi, xi]) - float(running_mean[ci])) * inv
                    g = float(grad[ni, ci, yi, xi])
                    out[ni, ci, yi, xi] = float(gamma[ci]) * xhat + float(beta[ci])
                    gx[ni, ci, yi, xi] = g * float(gamma[ci]) * inv
                    gg[ci] += g * xhat
                    gb[ci] += g
    return out, gx, gg, gb


def _sigmoid(v):
    if v >= 0:
        return 1.0 / (1.0 + math.exp(-v))
    e = math.exp(v)
    return e / (1.0 + e)


def naive_channel_attention(x, w_squeeze, w_excite):
    """Per-channel loop oracle for the pooled-descriptor MLP gate.

    w_squeeze: [C, C/r], w_excite: [C/r, C] (matching Linear's x @ W layout).
    """
    n, c, h, w = x.shape
    hidden = w_squeeze.shape[1]
    gate = np.zeros((n, c, 1, 1), dtype=np.float64)
    for ni in range(n):
        avg = [0.0] * c
        mx = [-math.inf] * c
        for ci in range(c):
            for yi in range(h):
                for xi in range(w):
                    v = float(x[ni, ci, yi, xi])
                    avg[ci] += v
                    mx[ci] = max(mx[ci], v)
            avg[ci] /= h * w

        def mlp(desc):
            hid = []
            for j in range(hidden):
                s = sum(desc[i] * float(w_squeeze[i, j]) for i in range(c))
                hid.append(max(s, 0.0))
            return [sum(hid[j] * float(w_excite[j, k]) for j in range(hidden))
                    for k in range(c)]

        out_a = mlp(avg)
        out_m = mlp(mx)
        for ci in range(c):
            gate[ni, ci, 0, 0] = _sigmoid(out_a[ci] + out_m[ci])
    return gate


def naive_descriptor_map(x):
    """[N,2,H,W]: channelwise mean map then channelwise max map."""
    n, c, h, w = x.shape
    desc = np.zeros((n, 2, h, w), dtype=np.float64)
    for ni in range(n):
        for yi in range(h):
            for xi in range(w):
                s = 0.0
                m = -math.inf
                for ci in range(c):
                    v = float(x[ni, ci, yi, xi])
                    s += v
                    m = max(m, v)
                desc[ni, 0, yi, xi] = s / c
                desc[ni, 1, yi, xi] = m
    return desc


def naive_spatial_attention(x, conv_w, dilation=1):
    """Standard variant: k x k conv over the 2-channel descriptor map."""
    desc = naive_descriptor_map(x)
    k = conv_w.shape[2]
    pad = dilation * (k - 1) // 2
    pre = naive_conv2d(desc, conv_w, padding=(pad, pad), dilation=(dilation, dilation))
    out = np.zeros_like(pre)
    for idx in np.ndindex(pre.shape):
        out[idx] = _sigmoid(float(pre[idx]))
    return out


def naive_improved_spatial_attention(x, dw_w, pw_w, dilation=2):
    """Improved variant: depthwise dilated conv then 1x1 pointwise."""
    desc = naive_descriptor_map(x)
    k = dw_w.shape[2]
    pad = dilation * (k - 1) // 2
    mid = naive_conv2d(desc, dw_w, padding=(pad, pad),
                       dilation=(dilation, dilation), groups=2)
    pre = naive_conv2d(mid, pw_w)
    out = np.zeros_like(pre)
    for idx in np.ndindex(pre.shape):
        out[idx] = _sigmoid(float(pre[idx]))
    return out


def naive_gradcam(acts, grads):
    """Channel weights = spatial gradient means; relu of weighted sum;
    min-max normalized with all-zero maps kept zero."""
    c, h, w = acts.shape
    weights = []
    for ci in range(c):
        s = 0.0
        for yi in range(h):
            for xi in range(w):
                s += float(grads[ci, yi, xi])
        weights.append(s / (h * w))
    cam = np.zeros((h, w), dtype=np.float64)
    for yi in range(h):
        for xi in range(w):
            acc = sum(weights[ci] * float(acts[ci, yi, xi]) for ci in range(c))
            cam[yi, xi] = max(acc, 0.0)
    lo, hi = cam.min(), cam.max()
    if hi > lo:
        cam = (cam - lo) / (hi - lo)
    else:
        cam = np.zeros_like(cam)
    return cam


def naive_maxpool2d_vjp(x, grad, kernel, stride, padding=(0, 0)):
    """Gradient of sum(grad * maxpool(x)): each window's gradient goes to its
    first maximal input in row-major order, padding excluded."""
    n, c, h, w = x.shape
    kh, kw = kernel
    sh, sw = stride
    ph, pw = padding
    _, _, ho, wo = grad.shape
    gx = np.zeros(x.shape, dtype=np.float64)
    for ni in range(n):
        for ci in range(c):
            for oy in range(ho):
                for ox in range(wo):
                    best = None
                    for ky in range(kh):
                        iy = oy * sh - ph + ky
                        for kx in range(kw):
                            ix = ox * sw - pw + kx
                            if 0 <= iy < h and 0 <= ix < w and (
                                    best is None or x[ni, ci, iy, ix] > x[ni, ci][best]):
                                best = (iy, ix)
                    gx[ni, ci][best] += float(grad[ni, ci, oy, ox])
    return gx


def naive_rotate_bilinear(img, degrees):
    """The original per-tap rotation: a float64 meshgrid, and for each of the
    four taps a clipped gather times a weight masked to 0 outside the image."""
    c, h, w = img.shape
    theta = np.deg2rad(degrees)
    cos, sin = np.cos(theta), np.sin(theta)
    cy, cx = (h - 1) / 2.0, (w - 1) / 2.0
    yy, xx = np.meshgrid(np.arange(h, dtype=np.float64),
                         np.arange(w, dtype=np.float64), indexing="ij")
    # inverse map: output pixel pulls from rotated source location
    sx = cos * (xx - cx) + sin * (yy - cy) + cx
    sy = -sin * (xx - cx) + cos * (yy - cy) + cy
    x0 = np.floor(sx).astype(np.int64)
    y0 = np.floor(sy).astype(np.int64)
    fx = sx - x0
    fy = sy - y0
    out = np.zeros_like(img)
    for dy in (0, 1):
        for dx in (0, 1):
            xi = x0 + dx
            yi = y0 + dy
            wgt = (fx if dx else 1 - fx) * (fy if dy else 1 - fy)
            valid = (xi >= 0) & (xi < w) & (yi >= 0) & (yi < h)
            xi_c = np.clip(xi, 0, w - 1)
            yi_c = np.clip(yi, 0, h - 1)
            out += img[:, yi_c, xi_c] * (wgt * valid)[None].astype(img.dtype)
    return out


def naive_augment(img, rng, max_rotation_deg=10.0, hflip=True, vflip=True):
    """The original augmentation: flip copies, then ``naive_rotate_bilinear``
    of the contiguous result; draws in the order hflip, vflip, angle."""
    if hflip and rng.random() < 0.5:
        img = img[:, :, ::-1]
    if vflip and rng.random() < 0.5:
        img = img[:, ::-1, :]
    angle = rng.uniform(-max_rotation_deg, max_rotation_deg)
    return naive_rotate_bilinear(np.ascontiguousarray(img), angle)
