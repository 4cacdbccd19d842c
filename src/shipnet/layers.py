"""Neural-network layers over the autodiff core.

Convolution supports stride, zero padding, dilation and groups (cross
correlation, the usual deep-learning convention). The forward gathers strided
windows and contracts them with the kernel; the input gradient is scattered
back through a cached index map. Batch normalization and cross entropy are
fused ops with hand-written backward rules.
"""

from __future__ import annotations

import numpy as np

from . import tensor as T
from .tensor import Tensor


# ---- module base ------------------------------------------------------------


class Module:
    """Minimal layer container: child discovery via attributes, named
    parameters/buffers, train/eval mode propagation."""

    def __init__(self):
        self.training = True

    def forward(self, *args, **kwargs):
        raise NotImplementedError

    def __call__(self, *args, **kwargs):
        return self.forward(*args, **kwargs)

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
    """Fan-in scaled normal init, std = sqrt(2 / fan_in)."""
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

    def weight_count(self):
        return int(np.prod(self.weight_shape())) + (self.out_channels if self.bias else 0)

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


def _windows(xp, kernel, stride, dilation, out_hw):
    # Strided view (N, C, Ho, Wo, kh, kw) over the padded input.
    n, c, _, _ = xp.shape
    kh, kw = kernel
    ho, wo = out_hw
    sn, sc, sh, sw = xp.strides
    return np.lib.stride_tricks.as_strided(
        xp,
        shape=(n, c, ho, wo, kh, kw),
        strides=(sn, sc, sh * stride[0], sw * stride[1], sh * dilation[0], sw * dilation[1]),
        writeable=False,
    )


_scatter_cache = {}


def _scatter_index(key, n, c, hp, wp, kernel, stride, dilation, out_hw):
    # Flat indices into the padded input for every (n, c, ho, wo, kh, kw) tap.
    cached = _scatter_cache.get(key)
    if cached is not None:
        return cached
    kh, kw = kernel
    ho, wo = out_hw
    rows = (np.arange(ho)[:, None] * stride[0] + np.arange(kh)[None, :] * dilation[0])
    cols = (np.arange(wo)[:, None] * stride[1] + np.arange(kw)[None, :] * dilation[1])
    # index shape (C, Ho, Wo, kh, kw), per-sample; batch offset applied by caller
    idx = (np.arange(c)[:, None, None, None, None] * (hp * wp)
           + rows[None, :, None, :, None] * wp
           + cols[None, None, :, None, :])
    idx = idx.astype(np.int64)
    if len(_scatter_cache) > 48:
        _scatter_cache.clear()
    _scatter_cache[key] = idx
    return idx


def _scatter_add(values, idx, n, c, hp, wp):
    # values: (N, C, Ho, Wo, kh, kw) contributions; returns (N, C, Hp, Wp).
    per = c * hp * wp
    out = np.empty((n, per), dtype=np.float64)
    flat_idx = idx.reshape(-1)
    for i in range(n):
        out[i] = np.bincount(flat_idx, weights=values[i].reshape(-1), minlength=per)
    return out.reshape(n, c, hp, wp)


def conv2d(x, weight, bias, spec):
    """Grouped/strided/dilated 2-D cross correlation, differentiable in all
    of x, weight and bias. Forward and weight gradient run as stacked
    matmuls over an im2col buffer; the input gradient scatters tap
    contributions back through a cached index map."""
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

    if ph or pw:
        xp = np.pad(x.data, ((0, 0), (0, 0), (ph, ph), (pw, pw)))
    else:
        xp = x.data
    win = _windows(xp, spec.kernel, spec.stride, spec.dilation, (ho, wo))
    cols = np.ascontiguousarray(
        win.reshape(n, g, cg, ho, wo, kh, kw).transpose(1, 0, 3, 4, 2, 5, 6)
    ).reshape(g, n * ho * wo, cg * kh * kw)
    kmat = weight.data.reshape(g, og, cg * kh * kw)
    prod = np.matmul(cols, kmat.transpose(0, 2, 1))  # (g, N*Ho*Wo, og)
    out = np.ascontiguousarray(
        prod.reshape(g, n, ho, wo, og).transpose(1, 0, 4, 2, 3)
    ).reshape(n, spec.out_channels, ho, wo)
    if bias is not None:
        out += bias.data.reshape(1, -1, 1, 1)

    hp, wp = h + 2 * ph, w + 2 * pw

    def vjp(grad):
        gx = gw = gb = None
        gg = np.ascontiguousarray(
            grad.reshape(n, g, og, ho, wo).transpose(1, 0, 3, 4, 2)
        ).reshape(g, n * ho * wo, og)
        if weight.requires_grad:
            gw = np.matmul(gg.transpose(0, 2, 1), cols).reshape(weight.shape)
            gw = gw.astype(weight.dtype)
        if x.requires_grad:
            dcols = np.matmul(gg, kmat)  # (g, N*Ho*Wo, cg*kh*kw)
            contrib = np.ascontiguousarray(
                dcols.reshape(g, n, ho, wo, cg, kh, kw).transpose(1, 0, 4, 2, 3, 5, 6)
            ).reshape(n, c, ho, wo, kh, kw)
            if kh == 1 and kw == 1 and ph == 0 and pw == 0:
                # every input position is sampled at most once
                gxp = np.zeros((n, c, h, w), dtype=np.float64)
                gxp[:, :, : ho * sh : sh, : wo * sw : sw] = contrib[..., 0, 0]
                gx = gxp.astype(x.dtype)
            else:
                key = (c, hp, wp, spec.kernel, spec.stride, spec.dilation, (ho, wo))
                idx = _scatter_index(key, n, c, hp, wp, spec.kernel, spec.stride,
                                     spec.dilation, (ho, wo))
                gxp = _scatter_add(contrib, idx, n, c, hp, wp)
                gx = gxp[:, :, ph : ph + h, pw : pw + w].astype(x.dtype)
        if bias is not None and bias.requires_grad:
            gb = grad.sum(axis=(0, 2, 3)).astype(bias.dtype)
        return (gx, gw, gb) if bias is not None else (gx, gw)

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
        out = conv2d(x, self.weight, self.bias, self.spec)
        self.last_io = (tuple(x.shape), tuple(out.shape))
        return out


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


class BatchNorm2d(Module):
    """Per-channel batch normalization over (N, H, W).

    Train mode normalizes with batch statistics (biased variance, clamped by
    eps) and updates running statistics by exponential moving average. Eval
    mode depends only on the running statistics.
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
        self.last_io = (tuple(x.shape), tuple(x.shape))
        if self.training:
            return self._forward_train(x)
        return self._forward_eval(x)

    def _forward_eval(self, x):
        inv_std = 1.0 / np.sqrt(self.running_var.data + self.eps)
        scale = (self.gamma.data * inv_std).reshape(1, -1, 1, 1)
        shift = (self.beta.data - self.running_mean.data * self.gamma.data * inv_std)
        out = x.data * scale + shift.reshape(1, -1, 1, 1)

        def vjp(grad):
            gx = (grad * scale).astype(x.dtype) if x.requires_grad else None
            gg = gb = None
            if self.gamma.requires_grad:
                xhat = (x.data - self.running_mean.data.reshape(1, -1, 1, 1)) * inv_std.reshape(1, -1, 1, 1)
                gg = (grad * xhat).sum(axis=(0, 2, 3)).astype(self.gamma.dtype)
            if self.beta.requires_grad:
                gb = grad.sum(axis=(0, 2, 3)).astype(self.beta.dtype)
            return gx, gg, gb

        return T.custom_op(out.astype(x.dtype), (x, self.gamma, self.beta), vjp)

    def _forward_train(self, x):
        m = x.shape[0] * x.shape[2] * x.shape[3]
        mu = x.data.mean(axis=(0, 2, 3))
        diff = x.data - mu.reshape(1, -1, 1, 1)
        var = (diff * diff).mean(axis=(0, 2, 3))
        inv_std = 1.0 / np.sqrt(var + self.eps)
        xhat = diff * inv_std.reshape(1, -1, 1, 1)
        out = self.gamma.data.reshape(1, -1, 1, 1) * xhat + self.beta.data.reshape(1, -1, 1, 1)

        mom = self.momentum
        self.running_mean.data = ((1 - mom) * self.running_mean.data + mom * mu).astype(
            self.running_mean.dtype)
        self.running_var.data = ((1 - mom) * self.running_var.data + mom * var).astype(
            self.running_var.dtype)

        def vjp(grad):
            gg = gb = gx = None
            if self.gamma.requires_grad:
                gg = (grad * xhat).sum(axis=(0, 2, 3)).astype(self.gamma.dtype)
            if self.beta.requires_grad:
                gb = grad.sum(axis=(0, 2, 3)).astype(self.beta.dtype)
            if x.requires_grad:
                # backprop through the batch statistics
                dxhat = grad * self.gamma.data.reshape(1, -1, 1, 1)
                sum_dxhat = dxhat.sum(axis=(0, 2, 3)).reshape(1, -1, 1, 1)
                sum_dxhat_xhat = (dxhat * xhat).sum(axis=(0, 2, 3)).reshape(1, -1, 1, 1)
                gx = (inv_std.reshape(1, -1, 1, 1) / m) * (
                    m * dxhat - sum_dxhat - xhat * sum_dxhat_xhat)
                gx = gx.astype(x.dtype)
            return gx, gg, gb

        return T.custom_op(out.astype(x.dtype), (x, self.gamma, self.beta), vjp)


# ---- pooling ----------------------------------------------------------------


def maxpool2d(x, kernel, stride=None, padding=0):
    """Window max with -inf padding; gradient routes to the first argmax
    of each window."""
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
    xp = np.pad(x.data, ((0, 0), (0, 0), (ph, ph), (pw, pw)),
                constant_values=-np.inf)
    win = _windows(xp, kernel, stride, (1, 1), (ho, wo))
    flat = np.ascontiguousarray(win).reshape(n, c, ho, wo, -1)
    idx = flat.argmax(axis=-1)
    out = np.take_along_axis(flat, idx[..., None], axis=-1)[..., 0]

    hp, wp = h + 2 * ph, w + 2 * pw

    def vjp(grad):
        if not x.requires_grad:
            return (None,)
        kh, kw = kernel
        ki, kj = np.unravel_index(idx.reshape(-1), (kh, kw))
        ni, ci, hi, wi = np.unravel_index(np.arange(idx.size), idx.shape)
        rows = hi * stride[0] + ki
        cols = wi * stride[1] + kj
        flat_idx = ((ni * c + ci) * hp + rows) * wp + cols
        gxp = np.bincount(flat_idx, weights=grad.reshape(-1), minlength=n * c * hp * wp)
        gxp = gxp.reshape(n, c, hp, wp)[:, :, ph : ph + h, pw : pw + w]
        return (gxp.astype(x.dtype),)

    return T.custom_op(out.astype(x.dtype), (x,), vjp)


class MaxPool2d(Module):
    def __init__(self, kernel, stride=None, padding=0):
        super().__init__()
        self.kernel, self.stride, self.padding = kernel, stride, padding

    def forward(self, x):
        out = maxpool2d(x, self.kernel, self.stride, self.padding)
        self.last_io = (tuple(x.shape), tuple(out.shape))
        return out


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
        self.last_io = (tuple(x.shape), tuple(out.shape))
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
