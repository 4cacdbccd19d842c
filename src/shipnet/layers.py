"""Neural-network layers over the autodiff core.

Activations keep their NCHW shapes, but conv, batch norm and max pool store
them batch-innermost: each output is an ``out.transpose(3, 0, 1, 2)`` view of
a (C, H, W, N) buffer, and each of these layers reads its input and incoming
gradient through ``.transpose(1, 2, 3, 0)``, a free view of such a buffer, so
no layout copy runs between them. They accept either memory order.

Convolution supports stride, zero padding, dilation and groups (cross
correlation, the usual deep-learning convention). The forward copies a
batch-innermost, group-major im2col buffer out of a strided window view of
its input and contracts it with the kernel, one matmul per group, one block
of output rows at a time; the weight gradient copies them again in blocks of
kernel rows, and the input gradient is folded back block by block, by one
slice-add per kernel tap through a window view of its buffer (col2im). Max
pooling is a running maximum over the kernel taps. Batch normalization and
cross entropy are fused ops with hand-written backward rules. The vjps read
their parents' ``.data``, which conv and max pool pad again, so nothing may
write into a recorded tensor's data before the walk, except a ReLU fused into
batch norm or the residual add (``residual_relu``), whose buffers no vjp
reads: the tape keeps no pre-activation or padded copy.
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
    after each forward; the previous hook is restored on exit. The hook sees
    each output as its module returned it (post-ReLU for a ``relu=True`` batch
    norm); ``residual_relu`` later writes into a bottleneck's ``bn3`` or
    attention output, so a hook keeping one past its call copies its data."""
    global _hook
    prev, _hook = _hook, hook
    try:
        yield
    finally:
        _hook = prev


class Module:
    """Minimal layer container: child discovery via attributes, and one
    preorder walk, ``modules()``, behind named parameters/buffers, ``astype``
    and train/eval mode propagation."""

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
            elif isinstance(value, list):
                for i, item in enumerate(value):
                    if isinstance(item, Module):
                        yield f"{name}.{i}", item

    def modules(self, name=""):
        yield name, self
        for child_name, child in self.children():
            yield from child.modules(f"{name}.{child_name}" if name else child_name)

    def _named_tensors(self):
        for name, mod in self.modules():
            for attr, value in vars(mod).items():
                if isinstance(value, Tensor):
                    yield f"{name}.{attr}" if name else attr, value

    def named_parameters(self):
        return ((n, t) for n, t in self._named_tensors() if t.requires_grad)

    def parameters(self):
        return [p for _, p in self.named_parameters()]

    def param_count(self):
        """Learnable scalars in this module and its children."""
        return sum(p.size for p in self.parameters())

    def named_buffers(self):
        return ((n, t) for n, t in self._named_tensors() if not t.requires_grad)

    def train(self):
        for _, mod in self.modules():
            mod.training = True
        return self

    def eval(self):
        for _, mod in self.modules():
            mod.training = False
        return self

    def zero_grad(self):
        for p in self.parameters():
            p.zero_grad()

    def astype(self, dtype):
        """Casts every parameter and buffer in place, each tensor staying the
        same object, and returns self; modules are built float32."""
        for _, t in self._named_tensors():
            t.data = t.data.astype(dtype)
        return self


def kaiming_normal(shape, fan_in, rng):
    """Fan-in scaled normal init, std = sqrt(2 / fan_in); with ``rng`` None,
    a read-only zero view with no draw or buffer, for a load to replace."""
    if rng is None:
        t = T.zeros((), requires_grad=True)
        t.data = np.broadcast_to(t.data, shape)
        return t
    return T.normal(shape, np.sqrt(2.0 / fan_in), rng, requires_grad=True)


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


def _windows(a, kernel, stride, dilation, out_hw, writeable=False):
    # View of a contiguous padded (C, Hp, Wp, N) array with two leading tap
    # axes: [i, j, c, y, x, n] is the element that kernel tap (i, j) reads
    # for output position (y, x).
    st = a.strides
    shape = kernel + a.shape[:1] + out_hw + a.shape[3:]
    strides = ((st[1] * dilation[0], st[2] * dilation[1]) + st[:1]
               + (st[1] * stride[0], st[2] * stride[1]) + st[3:])
    return np.ndarray(shape, a.dtype, a if writeable else memoryview(a).toreadonly(), 0, strides)


def _rows(a):
    # (C, H*W*N) rows of an NCHW-shaped array: a view when it is batch-innermost
    return a.transpose(1, 2, 3, 0).reshape(a.shape[1], -1)


def _from_rows(rows, shape):
    # NCHW-shaped, batch-innermost view of (C, H*W*N) rows
    n, c, h, w = shape
    return rows.reshape(c, h, w, n).transpose(3, 0, 1, 2)


# im2col bytes a block may hold (or one output or kernel row): about an L2 cache
_BLOCK_BYTES = 2 * 2**20


def conv2d(x, weight, bias, spec):
    """Grouped/strided/dilated 2-D cross correlation, differentiable in all
    of x, weight and bias; the tape keeps only x. An unpadded 1x1 conv's
    columns are a (C, Ho, Wo, N) view of x, copied only if strided or x is
    not batch-innermost. Every other conv copies them from a (C, kh, kw, Ho,
    Wo, N) window view of a zero-padded (C, Hp, Wp, N) copy of x, which the
    forward drops and the vjp builds again, in even blocks of output rows of
    at most ``_BLOCK_BYTES`` of columns for the forward and input gradient;
    the latter slice-adds its blocks per tap from the last to the first, so
    each padded element sums its taps in row-major order, as with one block.
    The weight gradient, cols @ gg^T, copies blocks of input channels or of
    kernel rows, which are blocks of its output rows, so none splits a sum."""
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
    pointwise = spec.kernel == (1, 1) and spec.padding == (0, 0)
    geometry = (spec.kernel, spec.stride, spec.dilation, (ho, wo))
    # even blocks (one for a 1x1, whose columns are no larger than x): BLAS
    # may round a sliver's small matmul unlike the same columns in one call
    blocks = 1 if pointwise else -(-ho // max(1, _BLOCK_BYTES // (c * kh * kw * wo * n * x.data.itemsize)))
    rows = -(-ho // blocks)

    def windows():
        # (C, kh, kw, Ho, Wo, N): contiguous for a batch-innermost 1x1 at stride 1
        if pointwise:
            return x.data.transpose(1, 2, 3, 0)[:, None, None, :: spec.stride[0], :: spec.stride[1]]
        xp = np.zeros((c, h + 2 * ph, w + 2 * pw, n), dtype=x.dtype)
        xp[:, ph : ph + h, pw : pw + w] = x.data.transpose(1, 2, 3, 0)
        return _windows(xp, *geometry).transpose(2, 0, 1, 3, 4, 5)

    kmat = weight.data.reshape(g, og, cg * kh * kw)
    win = windows()
    out = np.empty((spec.out_channels, ho, wo, n), dtype=np.result_type(kmat, x.data))
    for y in range(0, ho, rows):  # each block's columns are freed before the next is copied
        np.matmul(kmat, np.ascontiguousarray(win[:, :, :, y : y + rows]).reshape(g, cg * kh * kw, -1),
                  out=out[:, y : y + rows].reshape(g, og, -1))
    if bias is not None:
        out += bias.data.reshape(-1, 1, 1, 1)

    def vjp(grad):
        gx = gw = None
        gg = np.ascontiguousarray(grad.transpose(1, 2, 3, 0)).reshape(g, og, -1)
        m = gg.shape[2]
        if weight.requires_grad and pointwise and cg <= og:
            gw = np.matmul(gg, np.ascontiguousarray(windows()).reshape(g, cg, m)
                           .transpose(0, 2, 1)).reshape(weight.shape)
        elif weight.requires_grad:
            # gw^T = cols @ gg^T by blocks of its rows, the columns' kernel rows
            # (c, i): whole groups, or for g = 1 channels or kernel rows of one.
            # One block for a 1x1 or gemv (g = og = 1); for g = 1 over 1e6 FMAs
            # (BLAS sums fewer otherwise), and up to og rows (each re-reads gg).
            least = c * kh if pointwise or g == og == 1 else 10**6 // (kw * og * m) + 1 if g == 1 else 1
            most = max(least, og // kw, _BLOCK_BYTES // (kw * m * x.data.itemsize))  # kernel rows
            unit, span = (1, kh) if g == 1 and most < kh else ((cg if g > 1 else 1) * kh, c * kh)
            parts = min(-(-span // unit // max(1, most // unit)), max(1, span // unit // -(-least // unit)))
            win, gwt = windows(), np.empty((c * kh * kw, og), dtype=np.result_type(gg, x.data))
            for s, i in np.ndindex(c * kh // span, parts):  # kernel rows [a, b) of span s
                a, b = (s * span + span // unit * j // parts * unit for j in (i, i + 1))
                ca, cb, ga, gb = a // kh, -(-b // kh), a // (cg * kh), -(-b // (cg * kh))
                np.matmul(np.ascontiguousarray(win[ca:cb, a - ca * kh : b - (cb - 1) * kh])
                          .reshape(gb - ga, -1, m), gg[ga:gb].transpose(0, 2, 1),
                          out=gwt[a * kw : b * kw].reshape(gb - ga, -1, og))
            gw = gwt.reshape(g, -1, og).transpose(0, 2, 1).reshape(weight.shape)
        if x.requires_grad:
            kt = kmat.transpose(0, 2, 1)
            # one output channel per group (depthwise): dcols is an outer product
            dcols = np.multiply if og == 1 else np.matmul
            if pointwise and spec.stride == (1, 1):
                gxb = dcols(kt, gg).reshape(c, h, w, n)
            else:
                gxp = np.zeros((c, h + 2 * ph, w + 2 * pw, n), dtype=x.dtype)
                gwin = _windows(gxp, *geometry, writeable=True)
                for y in reversed(range(0, ho, rows)):
                    d = dcols(kt, gg[:, :, y * wo * n : (y + rows) * wo * n]).reshape(c, kh, kw, -1, wo, n)
                    gblock = gwin[:, :, :, y : y + rows]
                    for i, j in np.ndindex(kh, kw):  # row-major taps
                        gblock[i, j] += d[:, i, j]
                    del d  # so no two blocks' columns are alive at once
                gxb = gxp[:, ph : ph + h, pw : pw + w]
            gx = gxb.transpose(3, 0, 1, 2)
        if bias is None:
            return gx, gw
        gb = gg.sum(axis=2).reshape(-1) if bias.requires_grad else None
        return gx, gw, gb

    parents = (x, weight, bias) if bias is not None else (x, weight)
    return T.custom_op(out.transpose(3, 0, 1, 2), parents, vjp)


class Conv2d(Module):
    def __init__(self, spec, rng):
        super().__init__()
        self.spec = spec
        cg = spec.in_channels // spec.groups
        fan_in = cg * spec.kernel[0] * spec.kernel[1]
        self.weight = kaiming_normal(spec.weight_shape(), fan_in, rng)
        self.bias = T.zeros((spec.out_channels,), requires_grad=True) if spec.bias else None

    def forward(self, x):
        return conv2d(x, self.weight, self.bias, self.spec)


class DepthwiseSeparableConv2d(Module):
    """Per-channel spatial conv followed by a 1x1 pointwise mixing conv."""

    def __init__(self, in_channels, out_channels, kernel, rng, stride=1, padding=0,
                 dilation=1, bias=True):
        super().__init__()
        dw_spec = Conv2dSpec(in_channels, in_channels, kernel, stride=stride,
                             padding=padding, dilation=dilation, groups=in_channels,
                             bias=False)
        pw_spec = Conv2dSpec(in_channels, out_channels, 1, bias=bias)
        self.depthwise = Conv2d(dw_spec, rng)
        self.pointwise = Conv2d(pw_spec, rng)

    def forward(self, x):
        return self.pointwise(self.depthwise(x))


# ---- batch normalization ----------------------------------------------------


class BatchNorm2d(Module):
    """Per-channel batch normalization over (N, H, W).

    Train mode normalizes with batch statistics (biased variance, clamped by
    eps) and updates running statistics by exponential moving average. Eval
    mode depends only on the running statistics.

    Both work on (C, H*W*N) rows, a view of a batch-innermost input (a copy
    of any other, which the tape does not keep): per-channel vectors broadcast
    down a column and per-channel sums are row sums, so every full-size pass
    runs its inner loop along a whole row. The output is batch-innermost;
    ``relu=True`` clamps it in place, and the vjp masks by output > 0.
    """

    def __init__(self, channels, momentum=0.1, eps=1e-5, relu=False):
        super().__init__()
        self.channels = int(channels)
        self.relu = bool(relu)
        self.momentum = float(momentum)
        self.eps = float(eps)
        self.gamma = T.Tensor(np.ones(channels, dtype=np.float32), requires_grad=True)
        self.beta = T.zeros((channels,), requires_grad=True)
        self.running_mean = T.zeros((channels,))
        self.running_var = T.Tensor(np.ones(channels, dtype=np.float32))

    def forward(self, x):
        if x.ndim != 4 or x.shape[1] != self.channels:
            raise ValueError(f"batchnorm expects [N,{self.channels},H,W], got {x.shape}")
        xv = _rows(x.data)
        m = xv.shape[1]
        training = self.training
        if training:
            mean = np.einsum("ck->c", xv) / m
            out = xv - mean[:, None]  # the centred rows, whose buffer then takes the output
            var = np.einsum("ck,ck->c", out, out) / m
            mom = self.momentum
            for buf, stat in ((self.running_mean, mean), (self.running_var, var)):
                buf.data = ((1 - mom) * buf.data + mom * stat).astype(buf.dtype, copy=False)
        else:
            mean, var = self.running_mean.data, self.running_var.data
            out = np.empty_like(xv)
        inv_std = 1.0 / np.sqrt(var + self.eps)
        scale = self.gamma.data * inv_std
        np.multiply(xv, scale[:, None], out=out)
        out += (self.beta.data - mean * scale)[:, None]
        if self.relu:
            np.maximum(out, 0, out=out)

        def vjp(grad):
            gv = T.relu_grad(_rows(grad), out) if self.relu else _rows(grad)
            xhat = _rows(x.data) - mean[:, None]
            xhat *= inv_std[:, None]
            sum_g = np.einsum("ck->c", gv)
            sum_gx = np.einsum("ck,ck->c", gv, xhat)
            gx = None
            if x.requires_grad and not training:
                gx = _from_rows(gv * scale[:, None], x.shape)
            elif x.requires_grad:
                # gx = gamma * inv_std * (g - sum(g)/m - xhat * sum(g * xhat)/m)
                gx = np.multiply(xhat, (sum_gx / m)[:, None], out=xhat)
                gx += (sum_g / m)[:, None]
                np.subtract(gv, gx, out=gx)
                gx *= scale[:, None]
                gx = _from_rows(gx, x.shape)
            gg = sum_gx if self.gamma.requires_grad else None
            gb = sum_g if self.beta.requires_grad else None
            return gx, gg, gb

        return T.custom_op(_from_rows(out, x.shape), (x, self.gamma, self.beta), vjp)


def residual_relu(main, shortcut):
    """relu(main + shortcut) into ``main``'s buffer, which no vjp or later
    forward may read; both operands get one gradient array, so no vjp writes
    into its incoming gradient."""
    out = np.add(main.data, shortcut.data, out=main.data)
    np.maximum(out, 0, out=out)
    return T.custom_op(out, (main, shortcut), lambda g: (T.relu_grad(g, out),) * 2)


# ---- pooling ----------------------------------------------------------------


def maxpool2d(x, kernel, stride, padding=0):
    """Window max with -inf padding, a running maximum over the kernel taps
    of a window view of a padded (C, Hp, Wp, N) copy of x, which the forward
    drops and the vjp builds again from ``x.data``; the gradient routes to
    the first maximal tap of each window in row-major order. NaN propagates
    to the window's output, which is batch-innermost."""
    kernel, stride, padding = _pair(kernel), _pair(stride), _pair(padding)
    if padding[0] >= kernel[0] or padding[1] >= kernel[1]:
        raise ValueError("maxpool padding must be smaller than the kernel")
    n, c, h, w = x.shape
    ho = conv_output_extent(h, kernel[0], stride[0], padding[0], 1)
    wo = conv_output_extent(w, kernel[1], stride[1], padding[1], 1)
    if ho < 1 or wo < 1:
        raise ValueError(f"non-positive maxpool output extent for input {h}x{w}")

    ph, pw = padding
    geometry = (kernel, stride, (1, 1), (ho, wo))

    def windows():
        xp = np.full((c, h + 2 * ph, w + 2 * pw, n), -np.inf, dtype=x.dtype)
        xp[:, ph : ph + h, pw : pw + w] = x.data.transpose(1, 2, 3, 0)
        return _windows(xp, *geometry)

    win = windows()
    taps = list(np.ndindex(kernel))  # row-major
    out = win[taps[0]].copy()
    for tap in taps[1:]:
        np.maximum(out, win[tap], out=out)

    def vjp(grad):
        g = grad.transpose(1, 2, 3, 0)
        win = windows()
        gxp = np.zeros((c, h + 2 * ph, w + 2 * pw, n), dtype=x.dtype)
        gwin = _windows(gxp, *geometry, writeable=True)
        unrouted = np.ones(out.shape, dtype=bool)
        for tap in taps:
            hit = win[tap] == out
            hit &= unrouted
            unrouted ^= hit
            gwin[tap] += g * hit
        return (gxp[:, ph : ph + h, pw : pw + w].transpose(3, 0, 1, 2),)

    return T.custom_op(out.transpose(3, 0, 1, 2), (x,), vjp)


class MaxPool2d(Module):
    def __init__(self, kernel, stride, padding=0):
        super().__init__()
        self.kernel, self.stride, self.padding = kernel, stride, padding

    def forward(self, x):
        return maxpool2d(x, self.kernel, self.stride, self.padding)


# ---- linear head ------------------------------------------------------------


class Linear(Module):
    def __init__(self, in_features, out_features, rng, bias=True):
        super().__init__()
        self.weight = kaiming_normal((in_features, out_features), in_features, rng)
        self.bias = T.zeros((out_features,), requires_grad=True) if bias else None

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
        probs = np.exp(log_probs)
        probs[np.arange(n), targets] -= 1.0
        scale = float(grad.reshape(-1)[0]) / n
        return ((scale * probs).astype(logits.dtype),)

    return T.custom_op(np.asarray(loss, dtype=logits.dtype), (logits,), vjp)
