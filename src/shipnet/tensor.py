"""Dense tensors with reverse-mode automatic differentiation.

Values are contiguous numpy float32/float64 buffers. Every differentiable
operation records its parents and a vector-Jacobian closure; ``backward`` on a
scalar walks the recorded graph once in reverse topological order and
accumulates gradients additively into every tensor that requires them.
"""

from __future__ import annotations

import math
import struct
from contextlib import contextmanager

import numpy as np

FLOAT_DTYPES = (np.float32, np.float64)

_grad_enabled = True
_debug_checks = False


def set_debug_checks(on):
    """Enable per-op finite checks (NaN/Inf in any output raises)."""
    global _debug_checks
    _debug_checks = bool(on)


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


def _check_finite(arr, what):
    if _debug_checks and not np.all(np.isfinite(arr)):
        raise FloatingPointError(f"non-finite values produced by {what}")


class Tensor:
    """N-dimensional float array with an optional gradient slot."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_vjp", "_done")

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
        _check_finite(out_data, "op")
        out = Tensor.__new__(Tensor)
        out.data = out_data
        out.grad = None
        out._parents = ()
        out._vjp = None
        out._done = False
        out.requires_grad = _grad_enabled and any(p.requires_grad for p in parents)
        if out.requires_grad:
            out._parents = tuple(parents)
            out._vjp = vjp
        return out

    def backward(self):
        """Populate ``grad`` on every requires_grad tensor reachable from here.

        Must be called on a scalar (size-1) tensor, at most once per graph.
        """
        if self.size != 1:
            raise RuntimeError(f"backward requires a scalar loss, got shape {self.shape}")
        if self._done:
            raise RuntimeError("backward already ran on this graph; rebuild the loss first")
        if not self.requires_grad:
            raise RuntimeError("loss does not require grad; nothing to differentiate")
        self._done = True

        order = []
        visited = set()
        stack = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                order.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if p.requires_grad and id(p) not in visited:
                    stack.append((p, False))

        pending = {id(self): np.ones_like(self.data)}
        for node in reversed(order):
            g = pending.pop(id(node), None)
            if g is None:
                continue
            node.grad = g if node.grad is None else node.grad + g
            if node._vjp is None:
                continue
            parent_grads = node._vjp(g)
            for p, pg in zip(node._parents, parent_grads):
                if pg is None or not p.requires_grad:
                    continue
                key = id(p)
                pending[key] = pg if key not in pending else pending[key] + pg


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


def full(shape, value, dtype=np.float32, requires_grad=False):
    return Tensor(np.full(_check_extents(shape), value, dtype=_as_dtype(dtype)), requires_grad)


def from_buffer(shape, values, dtype=np.float32, requires_grad=False):
    shape = _check_extents(shape)
    arr = np.asarray(values, dtype=_as_dtype(dtype)).reshape(-1)
    n = int(np.prod(shape))
    if arr.size != n:
        raise ValueError(f"buffer length {arr.size} does not match product(shape) {n}")
    return Tensor(arr.reshape(shape), requires_grad)


def make_rng(seed):
    """Deterministic generator for an integer seed; passes Generators through."""
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.Generator(np.random.PCG64(seed))


def uniform(shape, bound, rng, dtype=np.float32, requires_grad=False):
    """Samples from uniform[-bound, bound), deterministic per seed."""
    rng = make_rng(rng)
    arr = rng.uniform(-bound, bound, size=_check_extents(shape)).astype(_as_dtype(dtype))
    return Tensor(arr, requires_grad)


def normal(shape, std, rng, dtype=np.float32, requires_grad=False):
    """Samples from normal(0, std), deterministic per seed."""
    rng = make_rng(rng)
    arr = (rng.standard_normal(size=_check_extents(shape)) * std).astype(_as_dtype(dtype))
    return Tensor(arr, requires_grad)


# ---- broadcasting helpers ---------------------------------------------------


def _coerce(other, like):
    if isinstance(other, Tensor):
        return other
    return Tensor(np.asarray(other, dtype=like.dtype))


def _check_same_dtype(a, b):
    if a.dtype != b.dtype:
        raise ValueError(f"dtype mismatch: {a.dtype} vs {b.dtype}")


def _unbroadcast(grad, shape):
    # Sum gradient contributions over axes that were broadcast in the forward.
    extra = grad.ndim - len(shape)
    if extra:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


def _binary(a, b, fwd, vjp_a, vjp_b, name):
    _check_same_dtype(a, b)
    try:
        out_data = fwd(a.data, b.data)
    except ValueError as exc:
        raise ValueError(f"{name}: shapes {a.shape} and {b.shape} not broadcast-compatible") from exc

    def vjp(g):
        ga = _unbroadcast(vjp_a(g), a.shape) if a.requires_grad else None
        gb = _unbroadcast(vjp_b(g), b.shape) if b.requires_grad else None
        return ga, gb

    return a._record(out_data, (a, b), vjp)


def add(a, b):
    return _binary(a, b, np.add, lambda g: g, lambda g: g, "add")


def sub(a, b):
    return _binary(a, b, np.subtract, lambda g: g, lambda g: -g, "sub")


def mul(a, b):
    return _binary(a, b, np.multiply, lambda g: g * b.data, lambda g: g * a.data, "mul")


def div(a, b):
    if _debug_checks and np.any(b.data == 0):
        raise ZeroDivisionError("division by exact zero")
    return _binary(
        a, b, np.divide,
        lambda g: g / b.data,
        lambda g: -g * a.data / (b.data * b.data),
        "div",
    )


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


def _expand_reduced(g, in_shape, axes, keepdims):
    if not keepdims:
        for ax in axes:
            g = np.expand_dims(g, ax)
    return np.broadcast_to(g, in_shape)


def tsum(a, axes=None, keepdims=False):
    axes = _normalize_axes(axes, a.ndim)
    out_data = a.data.sum(axis=axes, keepdims=keepdims)

    def vjp(g):
        return (_expand_reduced(g, a.shape, axes, keepdims).copy(),)

    return a._record(np.asarray(out_data, dtype=a.dtype), (a,), vjp)


def tmean(a, axes=None, keepdims=False):
    axes = _normalize_axes(axes, a.ndim)
    count = int(np.prod([a.shape[ax] for ax in axes])) if axes else 1
    out_data = a.data.sum(axis=axes, keepdims=keepdims) / count

    def vjp(g):
        return (_expand_reduced(g / count, a.shape, axes, keepdims).copy(),)

    return a._record(np.asarray(out_data, dtype=a.dtype), (a,), vjp)


def tmax(a, axes=None, keepdims=False):
    """Max over axes; ties route the gradient to the first maximal element
    of each reduced group in row-major order."""
    axes = _normalize_axes(axes, a.ndim)
    kept = tuple(i for i in range(a.ndim) if i not in axes)
    perm = kept + axes
    moved = a.data.transpose(perm)
    kept_shape = moved.shape[: len(kept)]
    flat = moved.reshape(kept_shape + (-1,))
    idx = flat.argmax(axis=-1)
    out_flat = np.take_along_axis(flat, idx[..., None], axis=-1)[..., 0]

    if keepdims:
        out_shape = tuple(1 if i in axes else s for i, s in enumerate(a.shape))
    else:
        out_shape = kept_shape
    out_data = out_flat.reshape(out_shape)

    def vjp(g):
        gflat = np.zeros_like(flat)
        np.put_along_axis(gflat, idx[..., None], g.reshape(kept_shape + (1,)), axis=-1)
        inv = np.argsort(perm)
        return (gflat.reshape(moved.shape).transpose(inv),)

    return a._record(out_data, (a,), vjp)


# ---- elementwise activations ------------------------------------------------


def relu(a):
    out_data = np.maximum(a.data, 0)

    def vjp(g):
        # subgradient 0 at exactly 0
        return (g * (a.data > 0),)

    return a._record(out_data, (a,), vjp)


def sigmoid(a):
    x = a.data
    out_data = np.empty_like(x)
    pos = x >= 0
    out_data[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out_data[~pos] = ex / (1.0 + ex)

    def vjp(g):
        return (g * out_data * (1.0 - out_data),)

    return a._record(out_data, (a,), vjp)


# ---- shape ops --------------------------------------------------------------


def reshape(a, shape):
    shape = tuple(int(s) for s in shape)
    if int(np.prod(shape)) != a.size:
        raise ValueError(f"cannot reshape {a.shape} to {shape}")
    out_data = a.data.reshape(shape)

    def vjp(g):
        return (g.reshape(a.shape),)

    return a._record(out_data, (a,), vjp)


def pad(a, pads):
    """Zero-pad with per-axis (before, after) counts."""
    pads = tuple((int(b), int(e)) for b, e in pads)
    if len(pads) != a.ndim:
        raise ValueError(f"pad spec rank {len(pads)} != tensor rank {a.ndim}")
    if any(b < 0 or e < 0 for b, e in pads):
        raise ValueError("pad counts must be >= 0")
    out_data = np.pad(a.data, pads)

    def vjp(g):
        sl = tuple(slice(b, b + s) for (b, _), s in zip(pads, a.shape))
        return (g[sl],)

    return a._record(out_data, (a,), vjp)


def tslice(a, index):
    """Basic (slice/int) indexing, differentiable."""
    out_data = np.asarray(a.data[index])
    if out_data.ndim and not out_data.flags.c_contiguous:
        out_data = np.ascontiguousarray(out_data)

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
        return tuple(np.ascontiguousarray(part) for part in np.split(g, offsets, axis=axis))

    return tensors[0]._record(out_data, tensors, vjp)


def upsample2x(a):
    """Nearest-neighbor 2x upsample of the last two axes."""
    if a.ndim < 2:
        raise ValueError("upsample2x needs at least 2 axes")
    out_data = np.repeat(np.repeat(a.data, 2, axis=-2), 2, axis=-1)

    def vjp(g):
        # four strided slice-adds: a length-2 reduction runs a loop per pair
        gx = g[..., 0::2, 0::2] + g[..., 0::2, 1::2]
        gx += g[..., 1::2, 0::2]
        gx += g[..., 1::2, 1::2]
        return (gx,)

    return a._record(out_data, (a,), vjp)


def custom_op(out_data, parents, vjp):
    """Record an externally computed op (fused layers) into the graph."""
    out_data = np.asarray(out_data)
    if out_data.ndim and not out_data.flags.c_contiguous:
        out_data = np.ascontiguousarray(out_data)
    return parents[0]._record(out_data, parents, vjp)


# ---- operator sugar ---------------------------------------------------------


def _lift(op):
    def method(self, other):
        return op(self, _coerce(other, self))

    return method


def _rlift(op):
    def method(self, other):
        return op(_coerce(other, self), self)

    return method


Tensor.__add__ = _lift(add)
Tensor.__radd__ = _rlift(add)
Tensor.__sub__ = _lift(sub)
Tensor.__rsub__ = _rlift(sub)
Tensor.__mul__ = _lift(mul)
Tensor.__rmul__ = _rlift(mul)
Tensor.__truediv__ = _lift(div)
Tensor.__rtruediv__ = _rlift(div)
Tensor.__matmul__ = matmul
Tensor.__neg__ = lambda self: mul(self, Tensor(np.asarray(-1.0, dtype=self.dtype)))
Tensor.__getitem__ = tslice
Tensor.sum = tsum
Tensor.mean = tmean
Tensor.max = tmax
Tensor.relu = relu
Tensor.sigmoid = sigmoid
Tensor.reshape = reshape


# ---- gradient checking ------------------------------------------------------


def grad_check(f, inputs, eps=1e-5):
    """Max relative error between analytic and central-difference gradients.

    ``f`` maps the given tensors to a scalar tensor. Inputs should be float64
    leaves; each coordinate is perturbed by +/- eps in place.
    """
    inputs = list(inputs)
    for t in inputs:
        if not t.requires_grad:
            raise ValueError("grad_check inputs must require grad")
        t.zero_grad()
    loss = f(*inputs)
    if loss.size != 1:
        raise ValueError("grad_check needs a scalar-valued function")
    loss.backward()
    analytic = [t.grad.reshape(-1).copy() for t in inputs]

    max_err = 0.0
    with no_grad():
        for t, an in zip(inputs, analytic):
            flat = t.data.reshape(-1)
            for i in range(flat.size):
                orig = flat[i]
                flat[i] = orig + eps
                fp = f(*inputs).item()
                flat[i] = orig - eps
                fm = f(*inputs).item()
                flat[i] = orig
                numeric = (fp - fm) / (2.0 * eps)
                err = abs(an[i] - numeric) / max(1e-12, abs(an[i]) + abs(numeric))
                max_err = max(max_err, err)
    return max_err


# ---- tensor records and the fixture format ----------------------------------
#
# A tensor record is ``dtype u8, rank u8, extents u64*, little-endian payload``.
# The CBNT fixture format is magic + version + one record; each entry of the
# CBCK checkpoint tensor table is a name + one record.

_MAGIC = b"CBNT"
_VERSION = 1
_DTYPE_CODE = {"float32": 0, "float64": 1}
_CODE_DTYPE = {0: np.dtype("<f4"), 1: np.dtype("<f8")}


def unpack(fmt, raw, offset):
    """``struct.unpack_from`` returning (values, next offset); raises
    ValueError instead of reading past the end of ``raw``."""
    size = struct.calcsize(fmt)
    if offset + size > len(raw):
        raise ValueError(f"truncated: {size} bytes needed at offset {offset}, "
                         f"{len(raw) - offset} left")
    return struct.unpack_from(fmt, raw, offset), offset + size


def write_record(fh, arr):
    fh.write(struct.pack(f"<BB{arr.ndim}Q", _DTYPE_CODE[arr.dtype.name], arr.ndim, *arr.shape))
    fh.write(np.ascontiguousarray(arr, dtype=arr.dtype.newbyteorder("<")).tobytes())


def read_record(raw, offset):
    """Decode one record at ``offset`` into a fresh native-order array;
    returns (array, offset past the payload)."""
    (code, rank), offset = unpack("<BB", raw, offset)
    if code not in _CODE_DTYPE:
        raise ValueError(f"unknown dtype code {code}")
    dtype = _CODE_DTYPE[code]
    extents, offset = unpack(f"<{rank}Q", raw, offset)
    count = math.prod(extents)
    end = offset + count * dtype.itemsize
    if end > len(raw):
        raise ValueError(f"truncated payload: {count} x {dtype.name} needed at offset "
                         f"{offset}, {len(raw) - offset} bytes left")
    arr = np.frombuffer(raw, dtype=dtype, count=count, offset=offset).reshape(extents)
    return arr.astype(dtype.newbyteorder("=")), end


def save_tensor(path, t):
    """Write ``magic CBNT, version u16`` and one tensor record."""
    with open(path, "wb") as fh:
        fh.write(_MAGIC + struct.pack("<H", _VERSION))
        write_record(fh, t.data)


def load_tensor(path):
    with open(path, "rb") as fh:
        raw = fh.read()
    try:
        if raw[:4] != _MAGIC:
            raise ValueError(f"bad magic {raw[:4]!r}")
        (version,), offset = unpack("<H", raw, 4)
        if version != _VERSION:
            raise ValueError(f"unsupported version {version}")
        arr, offset = read_record(raw, offset)
        if offset != len(raw):
            raise ValueError(f"{len(raw) - offset} trailing bytes")
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
    return Tensor(arr)
