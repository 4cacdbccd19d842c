"""``grad_check`` and the finite-difference sweep over every layer and
attention block at 64-bit on small random shapes. Each check draws (loss,
inputs) cases from a generator; linear ops are held to 1e-6, others to 1e-4."""

from __future__ import annotations

import numpy as np

from . import tensor as T
from .attention import CBAM, ChannelAttention, SpatialAttention
from .layers import (BatchNorm2d, Conv2dSpec, DepthwiseSeparableConv2d, Linear,
                     conv2d, cross_entropy, maxpool2d)
from .models import Bottleneck

LINEAR_TOL = 1e-6
GENERAL_TOL = 1e-4

F64 = np.float64


def _proj(shape, rng):
    # fixed random projection turns a map into a well-conditioned scalar loss
    return T.Tensor(rng.standard_normal(shape), dtype=F64)


def _leaf(shape, rng, scale=1.0):
    return T.Tensor(rng.standard_normal(shape) * scale, dtype=F64, requires_grad=True)


def _module_case(module, x, r):
    # the module's output at x, projected by r, as a function of x and its parameters
    return (lambda x, *params: (module(x) * r).sum()), [x] + module.parameters()


def check_matmul(rng):
    a = _leaf((4, 5), rng)
    b = _leaf((5, 3), rng)
    r = _proj((4, 3), rng)
    yield lambda x, y: (T.matmul(x, y) * r).sum(), [a, b]


def check_broadcast_ops(rng):
    a = _leaf((2, 3), rng)
    b = _leaf((1, 3), rng)
    for op in (lambda x, y: x + y, lambda x, y: x * y):
        r = _proj((2, 3), rng)
        yield lambda x, y: (op(x, y) * r).sum(), [a, b]


def check_reduce(rng):
    x = _leaf((3, 4), rng)
    r_mean = _proj((3,), rng)
    r_max = _proj((4,), rng)
    yield lambda t: t.sum(), [x]
    yield lambda t: (t.mean(axes=(1,)) * r_mean).sum(), [x]
    yield lambda t: (t.max(axes=(0,)) * r_max).sum(), [x]


def check_activations(rng):
    # keep relu inputs away from the kink at 0
    vals = rng.standard_normal((3, 4))
    vals = np.where(np.abs(vals) < 0.2, vals + 0.4 * np.sign(vals), vals)
    x = T.Tensor(vals, dtype=F64, requires_grad=True)
    r = _proj((3, 4), rng)
    yield lambda t: (t.relu() * r).sum(), [x]
    y = _leaf((3, 4), rng)
    yield lambda t: (t.sigmoid() * r).sum(), [y]


def check_shape_ops(rng):
    x = _leaf((2, 3, 4, 4), rng)
    r = _proj((2, 3, 8, 8), rng)
    yield lambda t: (T.upsample2x(t) * r).sum(), [x]
    r3 = _proj((2, 2, 3, 2), rng)
    yield lambda t: (t[:, 1:, :3, 1:3] * r3).sum(), [x]
    y = _leaf((2, 3, 4, 4), rng)
    r4 = _proj((2, 6, 4, 4), rng)
    yield lambda a, b: (T.concat([a, b], axis=1) * r4).sum(), [x, y]


_CONV_CASES = (
    dict(cin=3, cout=4, k=3, s=1, p=1, d=1, g=1, hw=6),
    dict(cin=4, cout=6, k=3, s=2, p=1, d=1, g=2, hw=7),
    dict(cin=4, cout=4, k=3, s=1, p=2, d=2, g=1, hw=6),
    dict(cin=4, cout=4, k=3, s=1, p=2, d=2, g=4, hw=6),
    dict(cin=6, cout=4, k=1, s=2, p=0, d=1, g=1, hw=6),
)


def check_conv2d(rng):
    for case in _CONV_CASES:
        spec = Conv2dSpec(case["cin"], case["cout"], case["k"], stride=case["s"],
                          padding=case["p"], dilation=case["d"], groups=case["g"],
                          bias=True)
        x = _leaf((2, case["cin"], case["hw"], case["hw"]), rng)
        w = _leaf(spec.weight_shape(), rng, scale=0.5)
        b = _leaf((case["cout"],), rng, scale=0.2)
        ho, wo = spec.output_size(case["hw"], case["hw"])
        r = _proj((2, case["cout"], ho, wo), rng)
        yield lambda a, ww, bb: (conv2d(a, ww, bb, spec) * r).sum(), [x, w, b]


def check_dwsep(rng):
    mod = DepthwiseSeparableConv2d(4, 6, 3, T.make_rng(0), padding=1).astype(F64)
    yield _module_case(mod, _leaf((2, 4, 5, 5), rng), _proj((2, 6, 5, 5), rng))


def check_batchnorm(rng):
    bn = BatchNorm2d(2).astype(F64)
    bn.train()
    x = _leaf((4, 2, 3, 3), rng)
    r = _proj((4, 2, 3, 3), rng)
    yield _module_case(bn, x, r)
    bn.eval()
    yield _module_case(bn, x, r)


def check_maxpool(rng):
    x = _leaf((2, 3, 6, 6), rng)
    r = _proj((2, 3, 3, 3), rng)
    yield lambda t: (maxpool2d(t, 3, 2, 1) * r).sum(), [x]
    r2 = _proj((2, 3, 3, 3), rng)
    yield lambda t: (maxpool2d(t, 2, 2, 0) * r2).sum(), [x]


def check_global_pool(rng):
    x = _leaf((2, 3, 4, 4), rng)
    r = _proj((2, 3, 1, 1), rng)
    yield lambda t: (t.mean(axes=(2, 3), keepdims=True) * r).sum(), [x]
    yield lambda t: (t.max(axes=(2, 3), keepdims=True) * r).sum(), [x]


def check_linear(rng):
    mod = Linear(5, 3, T.make_rng(1)).astype(F64)
    yield _module_case(mod, _leaf((4, 5), rng), _proj((4, 3), rng))


def check_cross_entropy(rng):
    logits = _leaf((4, 4), rng)
    targets = np.array([0, 1, 2, 3])
    yield lambda t: cross_entropy(t, targets), [logits]


def check_channel_attention(rng):
    mod = ChannelAttention(8, 4, T.make_rng(2)).astype(F64)
    yield _module_case(mod, _leaf((2, 8, 4, 4), rng), _proj((2, 8, 1, 1), rng))


def check_spatial_attention(rng):
    for variant in ("standard", "improved"):
        mod = SpatialAttention(T.make_rng(3), kernel=3,
                               dilation=2 if variant == "improved" else 1,
                               variant=variant).astype(F64)
        yield _module_case(mod, _leaf((2, 4, 5, 5), rng), _proj((2, 1, 5, 5), rng))


def check_cbam_block(rng):
    mod = CBAM(8, T.make_rng(4), reduction_ratio=4, spatial_kernel=3).astype(F64)
    yield _module_case(mod, _leaf((2, 8, 4, 4), rng), _proj((2, 8, 4, 4), rng))


def check_bottleneck(rng):
    mod = Bottleneck(8, 4, 2, T.make_rng(5),
                     cbam=CBAM(16, T.make_rng(6), reduction_ratio=4,
                               spatial_kernel=3)).astype(F64)
    mod.train()
    yield _module_case(mod, _leaf((2, 8, 6, 6), rng), _proj((2, 16, 3, 3), rng))


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


EPS = 1e-5
REDRAWS = 8


def numeric_grad(f, inputs, eps):
    """Central differences of the scalar ``f`` for each tensor in ``inputs``;
    each coordinate is moved by +/- eps in place and then restored."""
    numeric = [np.empty(t.shape) for t in inputs]
    with T.no_grad():
        for t, num in zip(inputs, numeric):
            flat = t.data.reshape(-1)
            for i in range(flat.size):
                orig = flat[i]
                flat[i] = orig + eps
                fp = f(*inputs).item()
                flat[i] = orig - eps
                fm = f(*inputs).item()
                flat[i] = orig
                num.flat[i] = (fp - fm) / (2.0 * eps)
    return numeric


def rel_err(x, y):
    """Elementwise |x - y| / (|x| + |y|), the denominator floored at 1e-12."""
    return np.abs(x - y) / np.maximum(1e-12, np.abs(x) + np.abs(y))


def _check(f, inputs, eps):
    # grad_check's error, then the loss and the two gradients it compared
    if not all(t.requires_grad for t in inputs):
        raise ValueError("grad_check inputs must require grad")
    loss = f(*inputs)
    if loss.size != 1:
        raise ValueError("grad_check needs a scalar-valued function")
    analytic, numeric = T.grad(loss, inputs), numeric_grad(f, inputs, eps)
    err = np.max([np.max(rel_err(a, n)) for a, n in zip(analytic, numeric)], initial=0.0)
    return float(err), loss.item(), analytic, numeric


def grad_check(f, inputs, eps=EPS):
    """Max relative error between analytic and central-difference gradients.

    ``f`` maps the given tensors to a scalar tensor. Inputs should be float64
    leaves; each coordinate is perturbed by +/- eps in place.
    """
    return _check(f, list(inputs), eps)[0]


def _unsettled(f, inputs, tol, loss, analytic, full):
    # A failing coordinate says nothing about the vjp when its central
    # difference moves by tol as the step halves (a ReLU, max or tie kink
    # within the step), or misses the analytic gradient by no more than that
    # move plus 64 units in the last place of the loss over the step (the
    # roundoff that swamps a near-zero gradient).
    half = numeric_grad(f, inputs, EPS / 2)
    roundoff = 64 * np.spacing(abs(loss)) / (2 * EPS)
    return any(np.any((rel_err(a, n) >= tol) & ((rel_err(n, h) >= tol)
                      | (np.abs(a - n) <= np.abs(n - h) + roundoff)))
               for a, n, h in zip(analytic, full, half))


def check_error(check, rng, tol):
    """Worst ``grad_check`` error over the cases ``check`` draws from
    ``rng``. A draw whose failure is unsettled is drawn again, up to REDRAWS
    times; the last draw's error stands."""
    for _ in range(REDRAWS):
        errs, redraw = [], False
        for f, inputs in check(rng):
            err, *compared = _check(f, inputs, EPS)
            errs.append(err)
            redraw = redraw or (not err < tol and _unsettled(f, inputs, tol, *compared))
        if not redraw:
            break
    return float(np.max(errs))


def run_sweep(seed=1234, emit=None):
    """Returns [(kind, max_rel_err, tolerance, passed)]; emits one line per
    kind when given a sink."""
    results = []
    for kind, fn, tol in SWEEP:
        err = check_error(fn, T.make_rng(seed), tol)
        ok = err < tol
        results.append((kind, err, tol, ok))
        if emit is not None:
            emit(f"{kind:<20} max_rel_err={err:.3e}  tol={tol:.0e}  {'PASS' if ok else 'FAIL'}")
    return results
