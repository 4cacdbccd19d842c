"""Span recording for the traced benchmark run.

``Tracer`` wraps shipnet's public functions and methods for the duration of a
``with`` block, records one span per call and restores every original on
exit, also when the block raises. Outside that block nothing is patched, so
untraced runs measure the program exactly as shipped.

A span has a name, start and end, ``parent`` (the index of the enclosing
span, -1 at the root), ``op`` (the index of the CLI-equivalent operation),
``unit`` (the step, batch or image being processed) and ``n`` (a payload such
as images handled or bytes written); op and unit are -1 outside one. Self time
is a span's duration minus the durations of its children; the program is
single threaded, so children never overlap.
"""

from __future__ import annotations

import os
import sys
from array import array
from collections import Counter, defaultdict
from contextlib import contextmanager, nullcontext
from time import perf_counter

_NULL = nullcontext()

# An attention block's own layers fold into the block's span, so the
# layers.* rows hold backbone work only. Values are (forward, backward) names.
_SCOPES = {
    "channel": ("attention.channel.fwd", "attention.channel.bwd"),
    "spatial": ("attention.spatial.fwd", "attention.spatial.bwd"),
}


class NullTracer:
    """Stands in for ``Tracer`` in untraced runs: every span is a no-op."""

    op = None
    unit = None

    def span(self, name):
        return _NULL


class Spans:
    """Spans stored by column: a few flat arrays instead of one object per
    span, so a long trace adds no work for the garbage collector."""

    def __init__(self):
        self.name = []
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.op = array("q")
        self.unit = array("q")
        self.n = array("q")

    def __len__(self):
        return len(self.name)

    def rows(self):
        return zip(self.name, self.start, self.end, self.parent, self.op, self.unit, self.n)


class Tracer:
    """Records spans and per-unit counts while installed as a context manager."""

    def __init__(self):
        self.spans = Spans()
        self.op = None
        self.unit = None
        # (op, key) -> summed count, taken inside units only
        self.counts = defaultdict(Counter)
        self._stack = []
        self._scope = None
        self._bwd_name = None
        self._patches = []

    # ---- span recording -----------------------------------------------------

    def open(self, name):
        spans = self.spans
        index = len(spans.name)
        spans.name.append(name)
        spans.parent.append(self._stack[-1] if self._stack else -1)
        spans.op.append(-1 if self.op is None else self.op)
        spans.unit.append(-1 if self.unit is None else self.unit)
        spans.n.append(0)
        spans.end.append(0.0)
        self._stack.append(index)
        spans.start.append(perf_counter())
        return index

    def close(self, index):
        self.spans.end[index] = perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name):
        index = self.open(name)
        try:
            yield
        finally:
            self.close(index)

    def count(self, key, value):
        if self.unit is not None:
            self.counts[self.op][key] += value

    # ---- installation -------------------------------------------------------

    def __enter__(self):
        try:
            self._install()
        except BaseException:
            self._restore()
            raise
        return self

    def __exit__(self, *exc):
        self._restore()
        return False

    def _restore(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def _patch_function(self, fn, wrapper):
        # Modules bind imported names at import time, so every shipnet
        # namespace holding this function object gets the wrapper.
        for name, module in list(sys.modules.items()):
            if module is None or not (name == "shipnet" or name.startswith("shipnet.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is fn:
                    self._patches.append((module, attr, value))
                    setattr(module, attr, wrapper)

    def _patch_method(self, cls, attr, make_wrapper):
        original = cls.__dict__[attr]
        self._patches.append((cls, attr, original))
        setattr(cls, attr, make_wrapper(original))

    def _timed(self, name, fn, payload=None):
        def wrapper(*args, **kwargs):
            index = self.open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self.close(index)
            if payload is not None:
                self.spans.n[index] = payload(args, out)
            return out
        return wrapper

    def _run_fused(self, fwd_name, bwd_name, fn, args, kwargs=None):
        """Times a fused op's forward and tags the vjp it hands to custom_op."""
        index = self.open(fwd_name)
        self._bwd_name = bwd_name
        try:
            return fn(*args, **(kwargs or {}))
        finally:
            self._bwd_name = None
            self.close(index)

    def _fused(self, fwd_name, bwd_name, fn):
        return lambda *args, **kwargs: self._run_fused(fwd_name, bwd_name, fn, args, kwargs)

    def _scoped(self, scope, fn):
        def wrapper(*args, **kwargs):
            outer = self._scope
            self._scope = scope
            index = self.open(_SCOPES[scope][0])
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(index)
                self._scope = outer
        return wrapper

    def _install(self):
        from shipnet import (attention, data, heatmap, layers, models, synthetic,
                             tensor, train)

        self._patch_function(data.scan_directory, self._timed(
            "data.scan", data.scan_directory, lambda a, out: len(out[0].samples)))
        for name, fn in (("data.read_ppm", data.read_ppm),
                         ("data.resize", data.resize_bilinear),
                         ("data.augment", data.augment),
                         ("data.normalize", data.normalize)):
            self._patch_function(fn, self._timed(name, fn, lambda a, out: 1))
        self._patch_function(synthetic.generate_synthetic, self._timed(
            "synthetic.gen", synthetic.generate_synthetic, lambda a, out: len(out)))
        self._patch_function(train.adam_step, self._timed("train.adam", train.adam_step))
        self._patch_function(train.checkpoint_save, self._timed(
            "train.ckpt_save", train.checkpoint_save, lambda a, out: os.path.getsize(a[1])))
        self._patch_function(train.checkpoint_load, self._timed(
            "train.ckpt_load", train.checkpoint_load, lambda a, out: os.path.getsize(a[0])))
        for name, fn in (("heatmap.gradcam", heatmap.gradcam_map),
                         ("heatmap.spatial_gate", heatmap.spatial_gate_map),
                         ("heatmap.overlay_emit", heatmap.overlay_emit)):
            self._patch_function(fn, self._timed(name, fn))

        self._patch_function(layers.conv2d, self._conv_wrapper(layers.conv2d))
        self._patch_function(layers.maxpool2d, self._fused(
            "layers.maxpool.fwd", "layers.maxpool.bwd", layers.maxpool2d))
        self._patch_function(layers.cross_entropy, self._fused(
            "layers.cross_entropy.fwd", "layers.cross_entropy.bwd", layers.cross_entropy))
        self._patch_function(tensor.custom_op, self._custom_op_wrapper(tensor.custom_op))

        self._patch_method(layers.BatchNorm2d, "forward", self._batchnorm_wrapper)
        self._patch_method(layers.Linear, "forward", self._linear_wrapper)
        self._patch_method(layers.Module, "zero_grad",
                           lambda fn: self._timed("train.zero_grad", fn))
        self._patch_method(attention.ChannelAttention, "forward",
                           lambda fn: self._scoped("channel", fn))
        self._patch_method(attention.SpatialAttention, "forward",
                           lambda fn: self._scoped("spatial", fn))
        self._patch_method(models.MultiscaleFusion, "forward",
                           lambda fn: self._timed("models.fusion.fwd", fn))
        self._patch_method(models.ShipClassifier, "forward",
                           lambda fn: self._timed("models.forward", fn))
        self._patch_method(tensor.Tensor, "backward", self._backward_wrapper)

    # ---- layer wrappers -----------------------------------------------------

    def _conv_wrapper(self, fn):
        def conv2d(x, weight, bias, spec):
            n, c, h, w = x.shape
            ho, wo = spec.output_size(h, w)
            kh, kw = spec.kernel
            self.count("layers.conv2d.calls", 1)
            # size of the im2col buffer the forward builds, from shapes alone
            self.count("layers.conv2d.im2col_bytes_computed",
                       n * ho * wo * c * kh * kw * x.data.itemsize)
            if self._scope is not None:
                fwd, bwd = _SCOPES[self._scope]
            else:
                if spec.groups > 1 and spec.groups == spec.in_channels:
                    kind = "conv2d_dw"
                elif spec.kernel == (1, 1):
                    kind = "conv2d_1x1"
                else:
                    kind = "conv2d_kxk"
                fwd, bwd = f"layers.{kind}.fwd", f"layers.{kind}.bwd"
            return self._run_fused(fwd, bwd, fn, (x, weight, bias, spec))
        return conv2d

    def _batchnorm_wrapper(self, fn):
        def forward(module, x):
            mode = "batchnorm_train" if module.training else "batchnorm_eval"
            return self._run_fused(f"layers.{mode}.fwd", f"layers.{mode}.bwd", fn, (module, x))
        return forward

    def _linear_wrapper(self, fn):
        def forward(module, x):
            name = _SCOPES[self._scope][0] if self._scope is not None else "layers.linear.fwd"
            index = self.open(name)
            try:
                return fn(module, x)
            finally:
                self.close(index)
        return forward

    def _custom_op_wrapper(self, fn):
        def custom_op(out_data, parents, vjp):
            name, self._bwd_name = self._bwd_name, None
            if name is not None:
                vjp = self._timed(name, vjp)
            return fn(out_data, parents, vjp)
        return custom_op

    def _backward_wrapper(self, fn):
        def backward(loss):
            self.count("tensor.tape_nodes", _tape_nodes(loss))
            return self._timed("tensor.backward", fn)(loss)
        return backward


def _tape_nodes(root):
    """Recorded ops (tensors carrying a vjp) reachable from ``root``."""
    seen = set()
    stack = [root]
    nodes = 0
    while stack:
        t = stack.pop()
        if id(t) in seen:
            continue
        seen.add(id(t))
        if t._vjp is not None:
            nodes += 1
        stack.extend(p for p in t._parents if p.requires_grad)
    return nodes


def self_times(spans):
    """Per-span self time: duration minus the durations of direct children."""
    durations = [e - s for s, e in zip(spans.start, spans.end)]
    child = [0.0] * len(durations)
    for parent, d in zip(spans.parent, durations):
        if parent >= 0:
            child[parent] += d
    return [d - c for d, c in zip(durations, child)]
