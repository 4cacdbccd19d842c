"""A fixed reference kernel that tracks the speed of the host during a run.

The benchmark runs on a few cores of a shared host whose speed drifts by up
to a factor of two, in bursts of under a second and in spells of minutes, as
neighbouring load comes and goes; the drift moves every timing of a run
together. ``sample`` times three fixed kernels that mimic the program's mix
of work: per-op Python with small numpy arrays (as in batch-1 heatmaps), a
float32 matrix product (the im2col convs) and a pass over arrays larger than
the caches (batch-32 activations). It returns the geometric mean of their
times, each the median of ``REPEATS``.

Untraced runs pass a ``Pacer`` to the workload in place of ``NullTracer``. It
samples the reference at the end of a unit (outside the unit's timing)
whenever ``PACE_S`` have passed since its last sample, and ``run.py`` samples
it before and after every op. Each unit's time is then multiplied by
``REF_S`` over the mean of the two samples around it, and each op's wall time
(less the time spent sampling) by ``REF_S`` over the mean of the samples
around and inside it: times as if the host ran the reference in exactly
``REF_S``. A change to shipnet cannot move the reference (it imports nothing
from shipnet), so a change in a normalised time is a change in the program;
the raw times are printed alongside. ``REF_S`` is a fixed constant, so
normalised values of two commits compare directly.
"""

from __future__ import annotations

import math
import statistics
from time import perf_counter

import numpy as np

from tracer import NullTracer

REF_S = 0.7e-3      # a round value near the reference's time on a quiet 2-vCPU host
REPEATS = 7         # one sample takes about 25 * REF_S
PACE_S = 1.5        # longer than a short op: see Pacer

_rng = np.random.default_rng(0)
_SMALL = _rng.standard_normal((16, 8, 16, 16)).astype(np.float32)
_LHS = _rng.standard_normal((512, 576)).astype(np.float32)
_RHS = _rng.standard_normal((576, 256)).astype(np.float32)
_LARGE = _rng.standard_normal(1_500_000).astype(np.float32)
# Outputs are preallocated, so the allocator's state does not enter the timing.
_PRODUCT = np.empty((512, 256), np.float32)
_OUT = np.empty_like(_LARGE)


def _interpreter():
    acc = 0.0
    for i in range(64):
        act = np.maximum(_SMALL[i % 16] * 1.0001 + 0.5, 0.0)
        acc += float(act.sum(axis=(1, 2))[0])
        acc += len({"step": i, "shape": [i, i + 1]}["shape"])
    return acc


def _matmul():
    np.matmul(_LHS, _RHS, out=_PRODUCT)


def _stream():
    np.multiply(_LARGE, 1.5, out=_OUT)
    np.add(_OUT, 1.0, out=_OUT)


_KERNELS = (_interpreter, _matmul, _stream)


def _time(kernel):
    t0 = perf_counter()
    kernel()
    return perf_counter() - t0


def sample():
    """Seconds the reference takes now: the geometric mean over the kernels
    of each kernel's median time."""
    logs = [math.log(statistics.median(_time(k) for _ in range(REPEATS)))
            for k in _KERNELS]
    return math.exp(sum(logs) / len(logs))


def scale(samples):
    """The factor that turns a time measured among these samples into a time
    at the reference speed."""
    return REF_S / statistics.fmean(samples)


class Pacer(NullTracer):
    """A ``NullTracer`` that samples the reference between units.

    ``samples`` holds every sample in order, ``spent`` the seconds spent
    taking them, and ``marks`` one entry per finished unit: the number of
    samples taken before the unit ended, so that ``samples[mark - 1]`` and
    ``samples[mark]`` bracket the unit once a later sample is taken."""

    def __init__(self):
        self.samples = []
        self.marks = []
        self.spent = 0.0
        self._unit = None
        self._last = perf_counter()

    def take(self):
        t0 = perf_counter()
        self.samples.append(sample())
        self._last = perf_counter()
        self.spent += self._last - t0

    @property
    def unit(self):
        return self._unit

    @unit.setter
    def unit(self, value):
        if value is None and self._unit is not None:
            self.marks.append(len(self.samples))
            if perf_counter() - self._last >= PACE_S:
                self.take()
        self._unit = value
