"""Dense tensors with reverse-mode automatic differentiation.

Values are numpy float32/float64 arrays, dense buffers in any axis order;
elementwise ops, reductions and their gradients follow the memory order of
their full-size operand. Every differentiable operation records its parents
and a vector-Jacobian closure. One reverse walk from a scalar runs the
closures in reverse topological order and frees each once it has run, so a
graph is walked once: ``Tensor.backward`` fills ``grad`` on leaves only, and
``grad(output, wrt)`` returns interior gradients. A parent is made before its
child, so ``grad`` skips tensors made before all its targets.
"""

from __future__ import annotations

import itertools
import math
from contextlib import contextmanager

import numpy as np

FLOAT_DTYPES = (np.float32, np.float64)

_grad_enabled = True
_created = itertools.count()  # creation numbers: a tensor's parents have smaller ones


@contextmanager
def no_grad():
    """Disable graph recording inside the block (inference, optimizer math)."""
    global _grad_enabled
    prev = _grad_enabled
    _grad_enabled = False
    try:
        yield
    finally:
        _grad_enabled = prev


def _as_dtype(dtype):
    dt = np.dtype(dtype)
    if dt.type not in FLOAT_DTYPES:
        raise ValueError(f"unsupported dtype {dt}; only float32/float64")
    return dt


class Tensor:
    """N-dimensional float array with an optional gradient slot."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_vjp", "_done", "_seq")

    def __init__(self, data, requires_grad=False, dtype=None):
        arr = np.asarray(data, dtype=_as_dtype(dtype) if dtype is not None else None)
        if arr.dtype.type not in FLOAT_DTYPES:
            arr = arr.astype(np.float32)
        self.data = np.ascontiguousarray(arr) if arr.ndim else arr
        self.grad = None
        self.requires_grad = bool(requires_grad)
        self._parents = ()
        self._vjp = None
        self._done = False
        self._seq = next(_created)

    # ---- basic metadata ------------------------------------------------

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    @property
    def size(self):
        return self.data.size

    @property
    def dtype(self):
        return self.data.dtype

    def __repr__(self):
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}, dtype={self.dtype.name}{flag})"

    def item(self):
        return float(self.data.reshape(-1)[0]) if self.size == 1 else _fail_scalar(self)

    def zero_grad(self):
        self.grad = None

    # ---- graph plumbing ------------------------------------------------

    def _record(self, out_data, parents, vjp):
        out = Tensor.__new__(Tensor)
        out.data = out_data
        out.grad = None
        out._parents = ()
        out._vjp = None
        out._done = False
        out._seq = next(_created)
        out.requires_grad = _grad_enabled and any(p.requires_grad for p in parents)
        if out.requires_grad:
            out._parents = tuple(parents)
            out._vjp = vjp
        return out

    def backward(self):
        """Accumulate into ``grad`` of each requires_grad leaf this scalar
        depends on; interior tensors get no ``grad`` (see ``grad``). At most
        once per graph."""
        for leaf, g in _walk(self, None):
            leaf.grad = g if leaf.grad is None else leaf.grad + g


def grad(output, wrt):
    """d(output)/d(t) for each tensor ``t`` in ``wrt``, None where the scalar
    ``output`` does not depend on it; runs only the vjps between the two and
    writes no ``grad``."""
    wrt = list(wrt)
    found = {id(t): g for t, g in _walk(output, wrt)}
    return [found.get(id(t)) for t in wrt]


def _walk(output, wrt):
    """The reverse walk behind ``backward`` (``wrt`` None: every leaf) and
    ``grad``. Runs the vjps on paths from ``output`` to ``wrt`` in reverse
    topological order, each once its gradient is complete, then drops that
    node's vjp and parents. A tensor made before the earliest ``wrt`` tensor
    cannot depend on any of them, so the walk does not descend into it.
    Returns (tensor, gradient) for the leaves or ``wrt`` tensors reached."""
    if output.size != 1:
        raise RuntimeError(f"backward requires a scalar loss, got shape {output.shape}")
    if not output.requires_grad:
        raise RuntimeError("loss does not require grad; nothing to differentiate")
    targets = {id(t) for t in wrt or ()}
    floor = min((t._seq for t in wrt or ()), default=0)
    order, visited, live = [], set(), set()
    stack = [(output, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)  # after all of its parents
            if wrt is None or id(node) in targets or any(id(p) in live for p in node._parents):
                live.add(id(node))
            continue
        if id(node) in visited:
            continue
        if node._done:
            raise RuntimeError("the loss depends on a tensor whose backward already ran; "
                               "recompute that tensor")
        visited.add(id(node))
        stack.append((node, True))
        stack.extend((p, False) for p in node._parents
                     if p.requires_grad and p._seq >= floor and id(p) not in visited)
    output._done = True

    found = []
    pending = {id(output): np.ones_like(output.data)} if id(output) in live else {}
    while order:
        node = order.pop()
        g = pending.pop(id(node), None)
        if g is None:
            continue
        parents = node._parents
        walk_on = any(id(p) in live for p in parents)
        if id(node) in targets or not walk_on:
            found.append((node, g))
        if walk_on:
            parent_grads = node._vjp(g)
            node._vjp, node._parents, node._done = None, (), True
            for p, pg in zip(parents, parent_grads):
                if pg is not None and id(p) in live:
                    key = id(p)
                    pending[key] = pg if key not in pending else np.add(pending[key], pg, out=_like(p.data, pg))
    return found


def _fail_scalar(t):
    raise ValueError(f"expected a scalar tensor, got shape {t.shape}")


# ---- creation --------------------------------------------------------------


def _check_extents(shape):
    shape = tuple(int(s) for s in shape)
    for s in shape:
        if s < 1:
            raise ValueError(f"extents must be >= 1, got {shape}")
    return shape


def zeros(shape, dtype=np.float32, requires_grad=False):
    return Tensor(np.zeros(_check_extents(shape), dtype=_as_dtype(dtype)), requires_grad)


def make_rng(seed, *key):
    """The generator of stream ``key`` under an integer seed, the only place
    a seed becomes a generator; a Generator passes through. ``make_rng(s)``
    draws what ``np.random.default_rng(s)`` draws."""
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed, spawn_key=key)))


def normal(shape, std, rng, dtype=np.float32, requires_grad=False):
    """Samples from normal(0, std), deterministic per seed."""
    rng = make_rng(rng)
    arr = (rng.standard_normal(size=_check_extents(shape)) * std).astype(_as_dtype(dtype))
    return Tensor(arr, requires_grad)


# ---- broadcasting helpers ---------------------------------------------------


def _check_same_dtype(a, b):
    if a.dtype != b.dtype:
        raise ValueError(f"dtype mismatch: {a.dtype} vs {b.dtype}")


def _sum(a, axes, keepdims=False):
    # a.sum(axis=axes, keepdims=keepdims) in a's memory order, by einsum, which
    # stays fast when the summed axes are not innermost in memory
    out = np.einsum(a, list(range(a.ndim)), [i for i in range(a.ndim) if i not in axes])
    return out.reshape([1 if i in axes else s for i, s in enumerate(a.shape)]) if keepdims else out


def _unbroadcast(grad, shape):
    # Sum gradient contributions over axes that were broadcast in the forward.
    extra = grad.ndim - len(shape)
    axes = tuple(range(extra)) + tuple(extra + i for i, s in enumerate(shape)
                                       if s == 1 and grad.shape[extra + i] != 1)
    return _sum(grad, axes).reshape(shape) if axes else grad


def _like(a, b):
    # an empty array of a's and b's broadcast shape, laid out like the first with that shape
    shape = np.broadcast_shapes(a.shape, b.shape)
    return np.empty_like(a if a.shape == shape else b, shape=shape)


def _laid_out(small, like):
    # ``small``, broadcasting against the same-rank ``like``, copied into its
    # memory order: numpy runs a mismatched broadcast with a short inner loop
    if small.ndim != like.ndim or small.shape == like.shape:
        return small
    out = np.empty_like(like, shape=small.shape)
    out[...] = small
    return out


def _binary(a, b, fwd, vjp_a, vjp_b, name):
    # vjp_a(g, a_data, b_data) and vjp_b see the operands laid out like the output
    _check_same_dtype(a, b)
    try:
        out = _like(a.data, b.data)
    except ValueError as exc:
        raise ValueError(f"{name}: shapes {a.shape} and {b.shape} not broadcast-compatible") from exc
    ad, bd = _laid_out(a.data, out), _laid_out(b.data, out)
    out_data = fwd(ad, bd, out=out)

    def vjp(g):
        ga = _unbroadcast(vjp_a(g, ad, bd), a.shape) if a.requires_grad else None
        gb = _unbroadcast(vjp_b(g, ad, bd), b.shape) if b.requires_grad else None
        return ga, gb

    return a._record(out_data, (a, b), vjp)


def add(a, b):
    return _binary(a, b, np.add, lambda g, ad, bd: g, lambda g, ad, bd: g, "add")


def mul(a, b):
    return _binary(a, b, np.multiply, lambda g, ad, bd: np.multiply(g, bd, out=_like(ad, g)),
                   lambda g, ad, bd: np.multiply(g, ad, out=_like(bd, g)), "mul")


def matmul(a, b):
    _check_same_dtype(a, b)
    if a.ndim != 2 or b.ndim != 2:
        raise ValueError(f"matmul expects 2-D operands, got {a.shape} @ {b.shape}")
    if a.shape[1] != b.shape[0]:
        raise ValueError(f"matmul inner extents differ: {a.shape} @ {b.shape}")
    out_data = a.data @ b.data

    def vjp(g):
        ga = g @ b.data.T if a.requires_grad else None
        gb = a.data.T @ g if b.requires_grad else None
        return ga, gb

    return a._record(out_data, (a, b), vjp)


# ---- reductions -------------------------------------------------------------


def _normalize_axes(axes, ndim):
    if axes is None:
        return tuple(range(ndim))
    if isinstance(axes, int):
        axes = (axes,)
    norm = tuple(sorted(a % ndim if -ndim <= a < ndim else _bad_axis(a, ndim) for a in axes))
    if len(set(norm)) != len(norm):
        raise ValueError(f"repeated axis in {axes}")
    return norm


def _bad_axis(a, ndim):
    raise ValueError(f"axis {a} out of range for ndim {ndim}")


def _sum_op(a, axes, keepdims, mean):
    axes = _normalize_axes(axes, a.ndim)
    count = math.prod(a.shape[ax] for ax in axes) if mean and axes else 1
    out_data = _sum(a.data, axes, keepdims) / count

    def vjp(g):
        gx = np.empty_like(a.data)
        gx[...] = _laid_out(g / count if keepdims else np.expand_dims(g / count, axes), gx)
        return (gx,)

    return a._record(np.asarray(out_data, dtype=a.dtype), (a,), vjp)


def tsum(a, axes=None, keepdims=False):
    return _sum_op(a, axes, keepdims, mean=False)


def tmean(a, axes=None, keepdims=False):
    return _sum_op(a, axes, keepdims, mean=True)


def tmax(a, axes=None, keepdims=False):
    """Max over axes (``ndarray.max``); ties route the gradient to the first
    maximal element of each reduced group in row-major order, which the vjp
    finds from ``a.data``."""
    axes = _normalize_axes(axes, a.ndim)
    out_data = np.asarray(a.data.max(axis=axes, keepdims=keepdims), dtype=a.dtype)

    def vjp(g):
        # the argmax copy moves the reduced axes last: taking the kept axes in
        # memory order keeps that copy's reads close to sequential
        perm = sorted(set(range(a.ndim)) - set(axes), key=lambda i: -a.data.strides[i]) + list(axes)
        moved = a.data.transpose(perm)
        kept = a.ndim - len(axes)
        idx = moved.reshape(moved.shape[:kept] + (-1,)).argmax(axis=-1)
        index = np.indices(idx.shape, sparse=True) + np.unravel_index(idx, moved.shape[kept:])
        g = g.reshape([1 if i in axes else s for i, s in enumerate(a.shape)]).transpose(perm)
        gx = np.zeros_like(a.data)
        gx.transpose(perm)[index] = g.reshape(idx.shape)
        return (gx,)

    return a._record(out_data, (a,), vjp)


# ---- elementwise activations ------------------------------------------------


def relu_grad(g, x):
    """ReLU's vjp, ``g`` where x > 0 else 0, laid out like its input or output x."""
    return np.multiply(g, x > 0, out=_like(x, g))


def relu(a):
    out_data = np.maximum(a.data, 0)
    return a._record(out_data, (a,), lambda g: (relu_grad(g, out_data),))


def sigmoid(a):
    # 1/(1+exp(-x)) for x >= 0 and exp(x)/(1+exp(x)) below: exp never overflows
    x = a.data
    ex = np.exp(-np.abs(x))
    out_data = np.where(x >= 0, 1.0 / (1.0 + ex), ex / (1.0 + ex))

    def vjp(g):
        return (np.multiply(g, out_data, out=_like(out_data, g)) * (1.0 - out_data),)

    return a._record(out_data, (a,), vjp)


# ---- shape ops --------------------------------------------------------------


def reshape(a, shape):
    shape = tuple(int(s) for s in shape)
    if math.prod(shape) != a.size:
        raise ValueError(f"cannot reshape {a.shape} to {shape}")
    out_data = a.data.reshape(shape)

    def vjp(g):
        return (g.reshape(a.shape),)

    return a._record(out_data, (a,), vjp)


def tslice(a, index):
    """Basic (slice/int) indexing, differentiable."""
    out_data = np.asarray(a.data[index])

    def vjp(g):
        full_g = np.zeros_like(a.data)
        full_g[index] = g
        return (full_g,)

    return a._record(out_data, (a,), vjp)


def concat(tensors, axis):
    tensors = list(tensors)
    if not tensors:
        raise ValueError("concat of nothing")
    for t in tensors[1:]:
        _check_same_dtype(tensors[0], t)
    axis = axis % tensors[0].ndim
    out_data = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.shape[axis] for t in tensors]
    offsets = np.cumsum(sizes)[:-1]

    def vjp(g):
        return tuple(np.split(g, offsets, axis=axis))

    return tensors[0]._record(out_data, tensors, vjp)


def upsample2x(a):
    """Nearest-neighbor 2x upsample of the last two axes."""
    if a.ndim < 2:
        raise ValueError("upsample2x needs at least 2 axes")
    out_data = np.empty_like(a.data, shape=a.shape[:-2] + (2 * a.shape[-2], 2 * a.shape[-1]))
    for i, j in np.ndindex(2, 2):  # four strided copies keep a's memory order
        out_data[..., i::2, j::2] = a.data

    def vjp(g):
        # four strided slice-adds: a length-2 reduction runs a loop per pair
        gx = g[..., 0::2, 0::2] + g[..., 0::2, 1::2]
        gx += g[..., 1::2, 0::2]
        gx += g[..., 1::2, 1::2]
        return (gx,)

    return a._record(out_data, (a,), vjp)


def custom_op(out_data, parents, vjp):
    """Record an externally computed op (fused layers) into the graph; its
    output may be a dense buffer in any axis order."""
    return parents[0]._record(np.asarray(out_data), parents, vjp)


# ---- operator sugar ---------------------------------------------------------


Tensor.__add__ = add
Tensor.__mul__ = mul
Tensor.__matmul__ = matmul
Tensor.__getitem__ = tslice
Tensor.sum = tsum
Tensor.mean = tmean
Tensor.max = tmax
Tensor.relu = relu
Tensor.sigmoid = sigmoid
Tensor.reshape = reshape

