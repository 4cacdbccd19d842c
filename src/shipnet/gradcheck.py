"""Finite-difference verification sweep over every layer and attention
block at 64-bit on small random shapes. Linear ops are held to 1e-6,
everything else to 1e-4."""

from __future__ import annotations

import numpy as np

from . import tensor as T
from .attention import CBAM, ChannelAttention, SpatialAttention
from .layers import (BatchNorm2d, Conv2dSpec, DepthwiseSeparableConv2d,
                     conv2d, cross_entropy, global_pool, maxpool2d)
from .models import Bottleneck

LINEAR_TOL = 1e-6
GENERAL_TOL = 1e-4

F64 = np.float64


def _proj(shape, rng):
    # fixed random projection turns a map into a well-conditioned scalar loss
    return T.Tensor(rng.standard_normal(shape), dtype=F64)


def _leaf(shape, rng, scale=1.0):
    return T.Tensor(rng.standard_normal(shape) * scale, dtype=F64, requires_grad=True)


def _module_check(module, make_loss, extra_inputs=()):
    params = [p for _, p in module.named_parameters()]
    inputs = list(extra_inputs) + params
    return T.grad_check(make_loss, inputs)


def check_matmul(rng):
    a = _leaf((4, 5), rng)
    b = _leaf((5, 3), rng)
    r = _proj((4, 3), rng)
    return T.grad_check(lambda x, y: (T.matmul(x, y) * r).sum(), [a, b])


def check_broadcast_ops(rng):
    a = _leaf((2, 3), rng)
    b = _leaf((1, 3), rng)
    worst = 0.0
    for op in (lambda x, y: x + y, lambda x, y: x - y, lambda x, y: x * y,
               lambda x, y: x / (y * y + 2.0)):
        r = _proj((2, 3), rng)
        worst = max(worst, T.grad_check(lambda x, y: (op(x, y) * r).sum(), [a, b]))
    return worst


def check_reduce(rng):
    x = _leaf((3, 4), rng)
    r_mean = _proj((3,), rng)
    r_max = _proj((4,), rng)
    worst = T.grad_check(lambda t: t.sum(), [x])
    worst = max(worst, T.grad_check(lambda t: (t.mean(axes=(1,)) * r_mean).sum(), [x]))
    worst = max(worst, T.grad_check(lambda t: (t.max(axes=(0,)) * r_max).sum(), [x]))
    return worst


def check_activations(rng):
    # keep relu inputs away from the kink at 0
    vals = rng.standard_normal((3, 4))
    vals = np.where(np.abs(vals) < 0.2, vals + 0.4 * np.sign(vals), vals)
    x = T.Tensor(vals, dtype=F64, requires_grad=True)
    r = _proj((3, 4), rng)
    worst = T.grad_check(lambda t: (t.relu() * r).sum(), [x])
    y = _leaf((3, 4), rng)
    return max(worst, T.grad_check(lambda t: (t.sigmoid() * r).sum(), [y]))


def check_shape_ops(rng):
    x = _leaf((2, 3, 4, 4), rng)
    r = _proj((2, 3, 8, 8), rng)
    worst = T.grad_check(lambda t: (T.upsample2x(t) * r).sum(), [x])
    r2 = _proj((2, 3, 6, 6), rng)
    worst = max(worst, T.grad_check(
        lambda t: (T.pad(t, [(0, 0), (0, 0), (1, 1), (1, 1)]) * r2).sum(), [x]))
    r3 = _proj((2, 2, 3, 2), rng)
    worst = max(worst, T.grad_check(
        lambda t: (t[:, 1:, :3, 1:3] * r3).sum(), [x]))
    y = _leaf((2, 3, 4, 4), rng)
    r4 = _proj((2, 6, 4, 4), rng)
    worst = max(worst, T.grad_check(
        lambda a, b: (T.concat([a, b], axis=1) * r4).sum(), [x, y]))
    return worst


_CONV_CASES = (
    dict(cin=3, cout=4, k=3, s=1, p=1, d=1, g=1, hw=6),
    dict(cin=4, cout=6, k=3, s=2, p=1, d=1, g=2, hw=7),
    dict(cin=4, cout=4, k=3, s=1, p=2, d=2, g=1, hw=6),
    dict(cin=4, cout=4, k=3, s=1, p=2, d=2, g=4, hw=6),
    dict(cin=6, cout=4, k=1, s=2, p=0, d=1, g=1, hw=6),
)


def check_conv2d(rng):
    worst = 0.0
    for case in _CONV_CASES:
        spec = Conv2dSpec(case["cin"], case["cout"], case["k"], stride=case["s"],
                          padding=case["p"], dilation=case["d"], groups=case["g"],
                          bias=True)
        x = _leaf((2, case["cin"], case["hw"], case["hw"]), rng)
        w = _leaf(spec.weight_shape(), rng, scale=0.5)
        b = _leaf((case["cout"],), rng, scale=0.2)
        ho, wo = spec.output_size(case["hw"], case["hw"])
        r = _proj((2, case["cout"], ho, wo), rng)
        worst = max(worst, T.grad_check(
            lambda a, ww, bb: (conv2d(a, ww, bb, spec) * r).sum(), [x, w, b]))
    return worst


def check_dwsep(rng):
    mod = DepthwiseSeparableConv2d(4, 6, 3, T.make_rng(0), padding=1, dtype=F64)
    x = _leaf((2, 4, 5, 5), rng)
    r = _proj((2, 6, 5, 5), rng)
    return _module_check(mod, lambda *args: (mod(args[0]) * r).sum(), [x])


def check_batchnorm(rng):
    bn = BatchNorm2d(2, dtype=F64)
    bn.train()
    x = _leaf((4, 2, 3, 3), rng)
    r = _proj((4, 2, 3, 3), rng)
    worst = _module_check(bn, lambda *args: (bn(args[0]) * r).sum(), [x])
    bn.eval()
    worst = max(worst, _module_check(bn, lambda *args: (bn(args[0]) * r).sum(), [x]))
    return worst


def check_maxpool(rng):
    x = _leaf((2, 3, 6, 6), rng)
    r = _proj((2, 3, 3, 3), rng)
    worst = T.grad_check(lambda t: (maxpool2d(t, 3, 2, 1) * r).sum(), [x])
    r2 = _proj((2, 3, 3, 3), rng)
    worst = max(worst, T.grad_check(lambda t: (maxpool2d(t, 2, 2, 0) * r2).sum(), [x]))
    return worst


def check_global_pool(rng):
    x = _leaf((2, 3, 4, 4), rng)
    r = _proj((2, 3, 1, 1), rng)
    worst = T.grad_check(lambda t: (global_pool(t, "avg") * r).sum(), [x])
    worst = max(worst, T.grad_check(lambda t: (global_pool(t, "max") * r).sum(), [x]))
    return worst


def check_linear(rng):
    from .layers import Linear
    mod = Linear(5, 3, T.make_rng(1), dtype=F64)
    x = _leaf((4, 5), rng)
    r = _proj((4, 3), rng)
    return _module_check(mod, lambda *args: (mod(args[0]) * r).sum(), [x])


def check_cross_entropy(rng):
    logits = _leaf((4, 4), rng)
    targets = np.array([0, 1, 2, 3])
    return T.grad_check(lambda t: cross_entropy(t, targets), [logits])


def check_channel_attention(rng):
    mod = ChannelAttention(8, 4, T.make_rng(2), dtype=F64)
    x = _leaf((2, 8, 4, 4), rng)
    r = _proj((2, 8, 1, 1), rng)
    return _module_check(mod, lambda *args: (mod(args[0]) * r).sum(), [x])


def check_spatial_attention(rng):
    worst = 0.0
    for variant in ("standard", "improved"):
        mod = SpatialAttention(T.make_rng(3), kernel=3,
                               dilation=2 if variant == "improved" else 1,
                               variant=variant, dtype=F64)
        x = _leaf((2, 4, 5, 5), rng)
        r = _proj((2, 1, 5, 5), rng)
        worst = max(worst, _module_check(
            mod, lambda *args: (mod(args[0]) * r).sum(), [x]))
    return worst


def check_cbam_block(rng):
    mod = CBAM(8, T.make_rng(4), reduction_ratio=4, spatial_kernel=3, dtype=F64)
    x = _leaf((2, 8, 4, 4), rng)
    r = _proj((2, 8, 4, 4), rng)
    return _module_check(mod, lambda *args: (mod(args[0]) * r).sum(), [x])


def check_bottleneck(rng):
    mod = Bottleneck(8, 4, 2, T.make_rng(5),
                     cbam=CBAM(16, T.make_rng(6), reduction_ratio=4,
                               spatial_kernel=3, dtype=F64),
                     dtype=F64)
    mod.train()
    x = _leaf((2, 8, 6, 6), rng)
    r = _proj((2, 16, 3, 3), rng)
    return _module_check(mod, lambda *args: (mod(args[0]) * r).sum(), [x])


SWEEP = (
    ("matmul", check_matmul, LINEAR_TOL),
    ("broadcast", check_broadcast_ops, GENERAL_TOL),
    ("reduce", check_reduce, GENERAL_TOL),
    ("activation", check_activations, GENERAL_TOL),
    ("shape-ops", check_shape_ops, LINEAR_TOL),
    ("conv2d", check_conv2d, GENERAL_TOL),
    ("dwsep-conv", check_dwsep, GENERAL_TOL),
    ("batchnorm", check_batchnorm, GENERAL_TOL),
    ("maxpool", check_maxpool, GENERAL_TOL),
    ("global-pool", check_global_pool, GENERAL_TOL),
    ("linear", check_linear, LINEAR_TOL),
    ("cross-entropy", check_cross_entropy, GENERAL_TOL),
    ("channel-attention", check_channel_attention, GENERAL_TOL),
    ("spatial-attention", check_spatial_attention, GENERAL_TOL),
    ("cbam-block", check_cbam_block, GENERAL_TOL),
    ("bottleneck", check_bottleneck, GENERAL_TOL),
)


def run_sweep(seed=1234, emit=None):
    """Returns [(kind, max_rel_err, tolerance, passed)]; emits one line per
    kind when given a sink."""
    results = []
    for kind, fn, tol in SWEEP:
        rng = np.random.default_rng(seed)
        err = fn(rng)
        ok = err < tol
        results.append((kind, err, tol, ok))
        if emit is not None:
            emit(f"{kind:<20} max_rel_err={err:.3e}  tol={tol:.0e}  {'PASS' if ok else 'FAIL'}")
    return results
