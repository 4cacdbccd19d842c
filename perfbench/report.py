"""Metric definitions and their computation from op timings and spans, plus
the environment record printed with every result."""

from __future__ import annotations

import ctypes
import os
import platform
import statistics
from collections import Counter, defaultdict

from tracer import self_times

# name -> unit; BENCHMARK.json lists the same names. A unit is a train step,
# an eval batch or a heatmap image; an op is one CLI-equivalent invocation.
# run.py reports these timings at the reference speed (see reference.py).
END_TO_END = {
    "setup_s": "s",         # median of the repeated set-ups
    "wall_s": "s",          # median op wall time, output checks excluded
    "peak_rss_mb": "MB",
    "img_per_s": "img/s",   # images through units per second of unit time
    "op_ms_p50": "ms",
    "op_ms_p90": "ms",      # from at least 100 units
}

# The same numbers under the names that are specific to each workload.
ALIASES = {
    "compare": {"img_per_s": "train_img_per_s", "op_ms_p50": "train_step_ms_p50",
                "op_ms_p90": "train_step_ms_p90"},
    "eval": {"img_per_s": "eval_img_per_s", "op_ms_p50": "eval_batch_ms_p50",
             "op_ms_p90": "eval_batch_ms_p90"},
    "heatmap": {"img_per_s": "heatmap_img_per_s", "op_ms_p50": "heatmap_ms_p50",
                "op_ms_p90": "heatmap_ms_p90"},
}

# How a per-layer metric is computed from the spans of the traced ops:
#   unit_self  self time in ms of spans inside units, per unit
#   unit_incl  duration in ms of spans inside units, per unit
#   per_img    self time in ms per image the spans report handling
#   per_span   duration in ms per span
#   per_call   self time in ms per span
#   call_n     payload per span (bytes)
#   op_self    self time in ms per op
#   op_incl    duration in s per op
#   count      count taken inside units, per unit
_FWD = ("conv2d_kxk", "conv2d_1x1", "conv2d_dw", "batchnorm_train", "batchnorm_eval",
        "maxpool", "linear", "cross_entropy")
_BWD = ("conv2d_kxk", "conv2d_1x1", "conv2d_dw", "batchnorm_train", "batchnorm_eval",
        "maxpool", "cross_entropy")

PER_LAYER = {
    "data.scan_ms_per_img": ("ms", "per_img", ("data.scan",)),
    "data.read_ppm_ms_per_img": ("ms", "per_img", ("data.read_ppm",)),
    "data.resize_ms_per_img": ("ms", "per_img", ("data.resize",)),
    "data.augment_ms_per_img": ("ms", "per_img", ("data.augment",)),
    "data.normalize_ms_per_img": ("ms", "per_img", ("data.normalize",)),
    "data.batch_wait_ms": ("ms", "unit_incl", ("data.batch",)),
    "synthetic.gen_ms_per_img": ("ms", "per_img", ("synthetic.gen",)),
    **{f"layers.{k}.fwd_ms": ("ms", "unit_self", (f"layers.{k}.fwd",)) for k in _FWD},
    **{f"layers.{k}.bwd_ms": ("ms", "unit_self", (f"layers.{k}.bwd",)) for k in _BWD},
    "layers.conv2d.calls": ("count", "count", ("layers.conv2d.calls",)),
    "layers.conv2d.im2col_bytes_computed": ("B", "count",
                                            ("layers.conv2d.im2col_bytes_computed",)),
    "attention.channel.fwd_ms": ("ms", "unit_self", ("attention.channel.fwd",)),
    "attention.spatial.fwd_ms": ("ms", "unit_self", ("attention.spatial.fwd",)),
    "attention.spatial.bwd_ms": ("ms", "unit_self", ("attention.spatial.bwd",)),
    "tensor.backward_ms": ("ms", "unit_incl", ("tensor.backward",)),
    "tensor.other_bwd_ms": ("ms", "unit_self", ("tensor.backward",)),
    "tensor.tape_nodes": ("count", "count", ("tensor.tape_nodes",)),
    **{f"models.{v}.step_ms": ("ms", "per_span", (f"models.{v}.step",))
       for v in ("baseline", "cbam", "enhanced")},
    "models.forward_ms": ("ms", "unit_incl", ("models.forward",)),
    "models.fusion.fwd_ms": ("ms", "unit_self", ("models.fusion.fwd",)),
    "train.adam_ms": ("ms", "unit_self", ("train.adam",)),
    "train.zero_grad_ms": ("ms", "unit_self", ("train.zero_grad",)),
    "train.val_eval_s": ("s", "op_incl", ("train.val_eval",)),
    "train.test_eval_s": ("s", "op_incl", ("train.test_eval",)),
    "train.ckpt_save_ms": ("ms", "per_call", ("train.ckpt_save",)),
    "train.ckpt_load_ms": ("ms", "per_call", ("train.ckpt_load",)),
    "train.ckpt_bytes": ("B", "call_n", ("train.ckpt_save", "train.ckpt_load")),
    "metrics.report_ms": ("ms", "op_self", ("metrics.report",)),
    "heatmap.gradcam_ms": ("ms", "unit_self", ("heatmap.gradcam",)),
    "heatmap.spatial_gate_ms": ("ms", "unit_self", ("heatmap.spatial_gate",)),
    "heatmap.overlay_emit_ms": ("ms", "unit_self", ("heatmap.overlay_emit",)),
    "cli.self_ms": ("ms", "op_self", ("cli.compare", "cli.eval", "cli.heatmap")),
    "trace.overhead_s": ("s", "overhead", ()),
    "trace.overhead_pct": ("%", "overhead", ()),
}


def p90(values):
    """The 90th percentile; callers guarantee at least 100 values."""
    return statistics.quantiles(values, n=10)[8]


def end_to_end(setup_times, ops, peak_rss_mb):
    units = [t for op in ops for t in op.unit_s]
    return {
        "setup_s": statistics.median(setup_times),
        "wall_s": statistics.median(op.wall_s for op in ops),
        "peak_rss_mb": peak_rss_mb,
        "img_per_s": sum(op.images for op in ops) / sum(units),
        "op_ms_p50": 1e3 * statistics.median(units),
        "op_ms_p90": 1e3 * p90(units),
    }


def per_layer(tracer, traced_ops, untraced_ops):
    spans = tracer.spans
    selfs = self_times(spans)
    n_units = sum(len(op.unit_s) for op in traced_ops)
    n_ops = len(traced_ops)
    self_by, dur_by, unit_self_by, unit_dur_by = (Counter() for _ in range(4))
    n_by, calls_by = Counter(), Counter()
    for (name, start, end, _, op, unit, n), st in zip(spans.rows(), selfs):
        if op < 0 and name != "synthetic.gen":
            continue    # the traced set-up counts toward synthetic.gen only
        dur = end - start
        self_by[name] += st
        dur_by[name] += dur
        n_by[name] += n
        calls_by[name] += 1
        if unit >= 0:
            unit_self_by[name] += st
            unit_dur_by[name] += dur
    counts = Counter()
    for per_op in tracer.counts.values():
        counts.update(per_op)

    untraced_wall = statistics.median(op.wall_s for op in untraced_ops)
    overhead = statistics.median(t.wall_s - u.wall_s for t, u in zip(traced_ops, untraced_ops))
    out = {}
    for metric, (_, kind, names) in PER_LAYER.items():
        def total(table):
            return sum(table[n] for n in names)
        if kind == "unit_self":
            value = 1e3 * total(unit_self_by) / n_units
        elif kind == "unit_incl":
            value = 1e3 * total(unit_dur_by) / n_units
        elif kind == "per_img":
            value = 1e3 * total(self_by) / max(total(n_by), 1)
        elif kind == "per_span":
            value = 1e3 * total(dur_by) / max(total(calls_by), 1)
        elif kind == "per_call":
            value = 1e3 * total(self_by) / max(total(calls_by), 1)
        elif kind == "call_n":
            value = total(n_by) / max(total(calls_by), 1)
        elif kind == "op_self":
            value = 1e3 * total(self_by) / n_ops
        elif kind == "op_incl":
            value = total(dur_by) / n_ops
        elif kind == "count":
            value = total(counts) / n_units
        elif metric == "trace.overhead_s":
            value = overhead
        else:
            value = 100.0 * overhead / untraced_wall
        out[metric] = value
    return out


def trace_faults(tracer, traced_ops):
    """Spans with negative self time, and ops whose exact counts differ from
    the first traced op's."""
    negative = sum(1 for st in self_times(tracer.spans) if st < 0)
    ckpt_bytes = defaultdict(int)
    for name, op, n in zip(tracer.spans.name, tracer.spans.op, tracer.spans.n):
        if name in ("train.ckpt_save", "train.ckpt_load") and op >= 0:
            ckpt_bytes[op] += n
    signatures = [(dict(tracer.counts[i]), ckpt_bytes[i]) for i in range(len(traced_ops))]
    mismatched = sum(1 for sig in signatures if sig != signatures[0])
    return negative, mismatched, signatures[0]


# ---- environment ------------------------------------------------------------


def environment(root):
    """Machine and build facts recorded with every result; never gated."""
    import numpy as np

    env = {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas_build(np),
        "blas_threads": _blas_threads(),
        "git_commit": _git_commit(root),
        "src_lines": _src_lines(os.path.join(root, "src")),
    }
    return env


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _blas_build(np):
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        return "unknown"


def _blas_threads():
    # The thread count OpenBLAS reports, or the count requested through the
    # environment when the library cannot be asked.
    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
        for path in libs:
            lib = ctypes.CDLL(path)
            for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                           "openblas_get_num_threads"):
                fn = getattr(lib, symbol, None)
                if fn is not None:
                    fn.restype = ctypes.c_int
                    return fn()
    except OSError:
        pass
    return f"env {os.environ.get('OPENBLAS_NUM_THREADS', 'unset')}"


def _git_commit(root):
    # Read without running git; a checkout without .git reports "unknown".
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _src_lines(src):
    total = 0
    for dirpath, _, files in os.walk(src):
        for f in files:
            if f.endswith(".py"):
                with open(os.path.join(dirpath, f), "rb") as fh:
                    total += fh.read().count(b"\n")
    return total
