"""Neural-network layers over the autodiff core.

Convolution supports stride, zero padding, dilation and groups (cross
correlation, the usual deep-learning convention). The forward copies the
kernel taps once into a group-major im2col buffer, batch-innermost unless the
conv is an unpadded 1x1, and contracts it with the kernel, one matmul per
group; the weight and input gradients reuse that buffer, and the input
gradient is folded back by one strided slice-add per kernel tap (col2im).
Max pooling is a running maximum over the kernel taps. Batch normalization
and cross entropy are fused ops with hand-written backward rules.
"""

from __future__ import annotations

from contextlib import contextmanager

import numpy as np

from . import tensor as T
from .tensor import Tensor


# ---- module base ------------------------------------------------------------

_hook = None


@contextmanager
def watch(hook):
    """Inside the block, ``Module.__call__`` calls ``hook(module, args, output)``
    after each forward; the previous hook is restored on exit."""
    global _hook
    prev, _hook = _hook, hook
    try:
        yield
    finally:
        _hook = prev


class Module:
    """Minimal layer container: child discovery via attributes, named
    parameters/buffers, train/eval mode propagation."""

    def __init__(self):
        self.training = True

    def forward(self, *args, **kwargs):
        raise NotImplementedError

    def __call__(self, *args, **kwargs):
        out = self.forward(*args, **kwargs)
        if _hook is not None:
            _hook(self, args, out)
        return out

    def children(self):
        for name, value in vars(self).items():
            if isinstance(value, Module):
                yield name, value
            elif isinstance(value, (list, tuple)):
                for i, item in enumerate(value):
                    if isinstance(item, Module):
                        yield f"{name}.{i}", item

    def named_parameters(self, prefix=""):
        for name, value in vars(self).items():
            if isinstance(value, Tensor) and value.requires_grad:
                yield prefix + name, value
        for name, child in self.children():
            yield from child.named_parameters(prefix + name + ".")

    def parameters(self):
        return [p for _, p in self.named_parameters()]

    def param_count(self):
        """Learnable scalars in this module and its children."""
        return sum(p.size for p in self.parameters())

    def named_buffers(self, prefix=""):
        for name, value in vars(self).items():
            if isinstance(value, Tensor) and not value.requires_grad:
                yield prefix + name, value
        for name, child in self.children():
            yield from child.named_buffers(prefix + name + ".")

    def train(self):
        self.training = True
        for _, child in self.children():
            child.train()
        return self

    def eval(self):
        self.training = False
        for _, child in self.children():
            child.eval()
        return self

    def modules(self, name=""):
        yield name, self
        for child_name, child in self.children():
            full = f"{name}.{child_name}" if name else child_name
            yield from child.modules(full)

    def zero_grad(self):
        for p in self.parameters():
            p.zero_grad()


def kaiming_normal(shape, fan_in, rng, dtype=np.float32):
    """Fan-in scaled normal init, std = sqrt(2 / fan_in); zeros, with no
    draw, when ``rng`` is None (parameters that are loaded next)."""
    if rng is None:
        return T.zeros(shape, dtype=dtype, requires_grad=True)
    return T.normal(shape, np.sqrt(2.0 / fan_in), rng, dtype=dtype, requires_grad=True)


# ---- conv geometry ----------------------------------------------------------


def _pair(v):
    if isinstance(v, (tuple, list)):
        a, b = v
        return int(a), int(b)
    return int(v), int(v)


def conv_output_extent(size, kernel, stride, padding, dilation):
    span = dilation * (kernel - 1) + 1
    return (size + 2 * padding - span) // stride + 1


class Conv2dSpec:
    """Geometry and grouping of a 2-D convolution."""

    def __init__(self, in_channels, out_channels, kernel, stride=1, padding=0,
                 dilation=1, groups=1, bias=True):
        self.in_channels = int(in_channels)
        self.out_channels = int(out_channels)
        self.kernel = _pair(kernel)
        self.stride = _pair(stride)
        self.padding = _pair(padding)
        self.dilation = _pair(dilation)
        self.groups = int(groups)
        self.bias = bool(bias)
        if self.in_channels < 1 or self.out_channels < 1:
            raise ValueError("channel counts must be positive")
        if self.in_channels % self.groups or self.out_channels % self.groups:
            raise ValueError(
                f"groups={self.groups} must divide in={self.in_channels} and out={self.out_channels}")
        if any(k < 1 for k in self.kernel) or any(s < 1 for s in self.stride):
            raise ValueError("kernel and stride extents must be >= 1")
        if any(d < 1 for d in self.dilation) or any(p < 0 for p in self.padding):
            raise ValueError("dilation must be >= 1 and padding >= 0")

    def weight_shape(self):
        kh, kw = self.kernel
        return (self.out_channels, self.in_channels // self.groups, kh, kw)

    def output_size(self, h, w):
        ho = conv_output_extent(h, self.kernel[0], self.stride[0], self.padding[0], self.dilation[0])
        wo = conv_output_extent(w, self.kernel[1], self.stride[1], self.padding[1], self.dilation[1])
        if ho < 1 or wo < 1:
            raise ValueError(f"non-positive conv output extent for input {h}x{w} with {self!r}")
        return ho, wo

    def __repr__(self):
        return (f"Conv2dSpec(in={self.in_channels}, out={self.out_channels}, k={self.kernel}, "
                f"s={self.stride}, p={self.padding}, d={self.dilation}, g={self.groups}, "
                f"bias={self.bias})")


def _taps(kernel, stride, dilation, out_hw, lead):
    # Row-major ((i, j), index) per kernel tap; the index selects the padded
    # input positions that tap reads, in an array whose two spatial axes
    # follow ``lead`` leading axes.
    def axis(k, s, d, o):
        return slice(k * d, k * d + (o - 1) * s + 1, s)

    return [((i, j), (slice(None),) * lead + (axis(i, stride[0], dilation[0], out_hw[0]),
                                               axis(j, stride[1], dilation[1], out_hw[1])))
            for i in range(kernel[0]) for j in range(kernel[1])]


def conv2d(x, weight, bias, spec):
    """Grouped/strided/dilated 2-D cross correlation, differentiable in all
    of x, weight and bias. One group-major im2col buffer (G, cg*kh*kw, cols)
    serves the forward, the weight gradient and the input gradient, each
    one matmul per group. An unpadded 1x1 conv takes channel-major columns
    (N*Ho*Wo) by one strided copy, and its input gradient is one strided
    assignment. Every other conv gathers its kh*kw taps from a zero-padded
    (C, Hp, Wp, N) copy of x, so each tap copy and col2im slice-add runs its
    inner loop over the batch, not over a 2-8 wide row; for 1x1 convs the
    transposes of a batch-innermost layout cost more than the loops saved."""
    n, c, h, w = x.shape
    if c != spec.in_channels:
        raise ValueError(f"input has {c} channels, spec expects {spec.in_channels}")
    if weight.shape != spec.weight_shape():
        raise ValueError(f"weight shape {weight.shape} != {spec.weight_shape()}")
    ho, wo = spec.output_size(h, w)
    g = spec.groups
    cg = c // g
    og = spec.out_channels // g
    kh, kw = spec.kernel
    ph, pw = spec.padding
    sh, sw = spec.stride
    pointwise = spec.kernel == (1, 1) and spec.padding == (0, 0)

    if pointwise:
        cols = np.empty((c, n, ho, wo), dtype=x.dtype)
        cols[...] = x.data[:, :, ::sh, ::sw].transpose(1, 0, 2, 3)
    else:
        xp = np.zeros((c, h + 2 * ph, w + 2 * pw, n), dtype=x.dtype)
        xp[:, ph : ph + h, pw : pw + w] = x.data.transpose(1, 2, 3, 0)
        taps = _taps(spec.kernel, spec.stride, spec.dilation, (ho, wo), 1)
        cols = np.empty((c, kh, kw, ho, wo, n), dtype=x.dtype)
        for (i, j), tap in taps:
            cols[:, i, j] = xp[tap]
    # NCHW axes in column order: (C, N, Ho, Wo) or (C, Ho, Wo, N); argsort inverts it
    col_axes = (1, 0, 2, 3) if pointwise else (1, 2, 3, 0)
    out_cols = (spec.out_channels,) + cols.shape[-3:]
    cols = cols.reshape(g, cg * kh * kw, -1)
    kmat = weight.data.reshape(g, og, cg * kh * kw)
    out = np.matmul(kmat, cols).reshape(out_cols).transpose(np.argsort(col_axes))
    out = np.ascontiguousarray(out)
    if bias is not None:
        out += bias.data.reshape(1, -1, 1, 1)

    def vjp(grad):
        gx = gw = None
        gg = np.ascontiguousarray(grad.transpose(col_axes)).reshape(g, og, -1)
        if weight.requires_grad:
            gw = np.matmul(gg, cols.transpose(0, 2, 1)).reshape(weight.shape)
        if x.requires_grad:
            dcols = np.matmul(kmat.transpose(0, 2, 1), gg)
            if pointwise:
                gx = (np.empty if spec.stride == (1, 1) else np.zeros)(x.shape, dtype=x.dtype)
                gx[:, :, ::sh, ::sw] = dcols.reshape(c, n, ho, wo).transpose(1, 0, 2, 3)
            else:
                dcols = dcols.reshape(c, kh, kw, ho, wo, n)
                gxp = np.zeros((c, h + 2 * ph, w + 2 * pw, n), dtype=x.dtype)
                for (i, j), tap in taps:
                    gxp[tap] += dcols[:, i, j]
                gx = gxp[:, ph : ph + h, pw : pw + w].transpose(3, 0, 1, 2)
        if bias is None:
            return gx, gw
        gb = gg.sum(axis=2).reshape(-1) if bias.requires_grad else None
        return gx, gw, gb

    parents = (x, weight, bias) if bias is not None else (x, weight)
    return T.custom_op(out, parents, vjp)


class Conv2d(Module):
    def __init__(self, spec, rng, dtype=np.float32):
        super().__init__()
        self.spec = spec
        cg = spec.in_channels // spec.groups
        fan_in = cg * spec.kernel[0] * spec.kernel[1]
        self.weight = kaiming_normal(spec.weight_shape(), fan_in, rng, dtype)
        self.bias = (T.zeros((spec.out_channels,), dtype=dtype, requires_grad=True)
                     if spec.bias else None)

    def forward(self, x):
        return conv2d(x, self.weight, self.bias, self.spec)


class DepthwiseSeparableConv2d(Module):
    """Per-channel spatial conv followed by a 1x1 pointwise mixing conv."""

    def __init__(self, in_channels, out_channels, kernel, rng, stride=1, padding=0,
                 dilation=1, bias=True, dtype=np.float32):
        super().__init__()
        dw_spec = Conv2dSpec(in_channels, in_channels, kernel, stride=stride,
                             padding=padding, dilation=dilation, groups=in_channels,
                             bias=False)
        pw_spec = Conv2dSpec(in_channels, out_channels, 1, bias=bias)
        self.depthwise = Conv2d(dw_spec, rng, dtype)
        self.pointwise = Conv2d(pw_spec, rng, dtype)

    def forward(self, x):
        return self.pointwise(self.depthwise(x))


# ---- batch normalization ----------------------------------------------------


def _channel_sum(column_sums, channels):
    # Per-channel totals of an (N, C*H*W) array, given its sums over N.
    return column_sums.reshape(channels, -1).sum(axis=1)


class BatchNorm2d(Module):
    """Per-channel batch normalization over (N, H, W).

    Train mode normalizes with batch statistics (biased variance, clamped by
    eps) and updates running statistics by exponential moving average. Eval
    mode depends only on the running statistics.

    Both work on an (N, C*H*W) view: a per-channel vector is repeated H*W
    times along whole rows, and a per-channel sum is a column sum over N
    followed by a (C, H*W) row sum, so no full-size pass runs its inner
    loop over a 1-64 element H*W plane.
    """

    def __init__(self, channels, momentum=0.1, eps=1e-5, dtype=np.float32):
        super().__init__()
        self.channels = int(channels)
        self.momentum = float(momentum)
        self.eps = float(eps)
        self.gamma = T.Tensor(np.ones(channels, dtype=dtype), requires_grad=True)
        self.beta = T.zeros((channels,), dtype=dtype, requires_grad=True)
        self.running_mean = T.zeros((channels,), dtype=dtype)
        self.running_var = T.Tensor(np.ones(channels, dtype=dtype))

    def forward(self, x):
        if x.ndim != 4 or x.shape[1] != self.channels:
            raise ValueError(f"batchnorm expects [N,{self.channels},H,W], got {x.shape}")
        if self.training:
            return self._forward_train(x)
        return self._forward_eval(x)

    def _forward_eval(self, x):
        n, c, h, w = x.shape
        s = h * w
        xv = x.data.reshape(n, c * s)
        inv_std = 1.0 / np.sqrt(self.running_var.data + self.eps)
        scale = self.gamma.data * inv_std
        out = xv * np.repeat(scale, s)
        out += np.repeat(self.beta.data - self.running_mean.data * scale, s)

        def vjp(grad):
            gv = grad.reshape(n, c * s)
            gx = (gv * np.repeat(scale, s)).reshape(x.shape) if x.requires_grad else None
            gg = gb = None
            if self.gamma.requires_grad:
                centred = xv - np.repeat(self.running_mean.data, s)
                gg = _channel_sum(np.einsum("nk,nk->k", gv, centred), c) * inv_std
            if self.beta.requires_grad:
                gb = _channel_sum(gv.sum(axis=0), c)
            return gx, gg, gb

        return T.custom_op(out.reshape(x.shape), (x, self.gamma, self.beta), vjp)

    def _forward_train(self, x):
        n, c, h, w = x.shape
        s = h * w
        m = n * s
        xv = x.data.reshape(n, c * s)
        mu = _channel_sum(xv.sum(axis=0), c) / m
        xhat = xv - np.repeat(mu, s)
        var = _channel_sum(np.einsum("nk,nk->k", xhat, xhat), c) / m
        inv_std = 1.0 / np.sqrt(var + self.eps)
        xhat *= np.repeat(inv_std, s)
        out = xhat * np.repeat(self.gamma.data, s)
        out += np.repeat(self.beta.data, s)

        mom = self.momentum
        for buf, stat in ((self.running_mean, mu), (self.running_var, var)):
            buf.data = ((1 - mom) * buf.data + mom * stat).astype(buf.dtype, copy=False)

        def vjp(grad):
            gv = grad.reshape(n, c * s)
            sum_g = _channel_sum(gv.sum(axis=0), c)
            sum_gx = _channel_sum(np.einsum("nk,nk->k", gv, xhat), c)
            gx = None
            if x.requires_grad:
                # gx = gamma * inv_std * (g - sum(g)/m - xhat * sum(g * xhat)/m)
                gx = xhat * np.repeat(sum_gx / m, s)
                gx += np.repeat(sum_g / m, s)
                np.subtract(gv, gx, out=gx)
                gx *= np.repeat(self.gamma.data * inv_std, s)
                gx = gx.reshape(x.shape)
            gg = sum_gx if self.gamma.requires_grad else None
            gb = sum_g if self.beta.requires_grad else None
            return gx, gg, gb

        return T.custom_op(out.reshape(x.shape), (x, self.gamma, self.beta), vjp)


# ---- pooling ----------------------------------------------------------------


def maxpool2d(x, kernel, stride=None, padding=0):
    """Window max with -inf padding, a running maximum over the kernel taps;
    the gradient routes to the first maximal tap of each window in
    row-major order. NaN propagates to the window's output."""
    kernel = _pair(kernel)
    stride = _pair(stride) if stride is not None else kernel
    padding = _pair(padding)
    if padding[0] >= kernel[0] or padding[1] >= kernel[1]:
        raise ValueError("maxpool padding must be smaller than the kernel")
    n, c, h, w = x.shape
    ho = conv_output_extent(h, kernel[0], stride[0], padding[0], 1)
    wo = conv_output_extent(w, kernel[1], stride[1], padding[1], 1)
    if ho < 1 or wo < 1:
        raise ValueError(f"non-positive maxpool output extent for input {h}x{w}")

    ph, pw = padding
    if ph or pw:
        xp = np.pad(x.data, ((0, 0), (0, 0), (ph, ph), (pw, pw)), constant_values=-np.inf)
    else:
        xp = x.data
    taps = [tap for _, tap in _taps(kernel, stride, (1, 1), (ho, wo), 2)]
    out = xp[taps[0]].copy()
    for tap in taps[1:]:
        np.maximum(out, xp[tap], out=out)

    def vjp(grad):
        if not x.requires_grad:
            return (None,)
        gxp = np.zeros(xp.shape, dtype=x.dtype)
        unrouted = np.ones(out.shape, dtype=bool)
        for tap in taps:
            hit = xp[tap] == out
            hit &= unrouted
            unrouted ^= hit
            gxp[tap] += grad * hit
        return (gxp[:, :, ph : ph + h, pw : pw + w],)

    return T.custom_op(out, (x,), vjp)


class MaxPool2d(Module):
    def __init__(self, kernel, stride=None, padding=0):
        super().__init__()
        self.kernel, self.stride, self.padding = kernel, stride, padding

    def forward(self, x):
        return maxpool2d(x, self.kernel, self.stride, self.padding)


def global_pool(x, kind="avg"):
    """Per-channel spatial reduction to [N, C, 1, 1]."""
    if kind == "avg":
        return x.mean(axes=(2, 3), keepdims=True)
    if kind == "max":
        return x.max(axes=(2, 3), keepdims=True)
    raise ValueError(f"unknown global pool kind {kind!r}")


# ---- linear head ------------------------------------------------------------


class Linear(Module):
    def __init__(self, in_features, out_features, rng, bias=True, dtype=np.float32):
        super().__init__()
        self.in_features = int(in_features)
        self.out_features = int(out_features)
        self.weight = kaiming_normal((in_features, out_features), in_features, rng, dtype)
        self.bias = T.zeros((out_features,), dtype=dtype, requires_grad=True) if bias else None

    def forward(self, x):
        out = T.matmul(x, self.weight)
        if self.bias is not None:
            out = out + self.bias
        return out


# ---- loss -------------------------------------------------------------------


def cross_entropy(logits, targets):
    """Mean of -log softmax(logits)[target], log-sum-exp stabilized."""
    if logits.ndim != 2:
        raise ValueError(f"logits must be [N, K], got {logits.shape}")
    n, k = logits.shape
    targets = np.asarray(targets, dtype=np.int64).reshape(-1)
    if targets.shape[0] != n:
        raise ValueError(f"{targets.shape[0]} targets for {n} rows")
    if targets.min() < 0 or targets.max() >= k:
        raise ValueError(f"target out of range [0, {k})")

    z = logits.data
    zmax = z.max(axis=1, keepdims=True)
    shifted = z - zmax
    lse = np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    log_probs = shifted - lse
    loss = -log_probs[np.arange(n), targets].mean()

    def vjp(grad):
        if not logits.requires_grad:
            return (None,)
        probs = np.exp(log_probs)
        probs[np.arange(n), targets] -= 1.0
        scale = float(grad.reshape(-1)[0]) / n
        return ((scale * probs).astype(logits.dtype),)

    return T.custom_op(np.asarray(loss, dtype=logits.dtype), (logits,), vjp)
