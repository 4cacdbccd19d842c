#!/usr/bin/env python3
"""shipnet benchmark: one workload per process, run from the repository root.

    python3 perfbench/run.py --workload compare --seed 1 --seconds 30 --trace 0

``--trace 0`` sets up the inputs several times, then repeats the workload's
op for ``--seconds`` (and at least until 100 units are timed) and reports the
end-to-end metrics, every time at the reference speed (see reference.py).
``--trace 1`` alternates untraced ops with ops run under the tracer for
``--seconds`` (at least two of each) and reports per-layer self times, exact
counts and the tracing overhead. Both print a table, then
one JSON line: ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import resource
import shutil
import sys
import traceback
from time import perf_counter

# Neither module imports numpy at import time (see bootstrap).
import report
from tracer import NullTracer, Tracer

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SETUP_REPEATS = 15


def bootstrap():
    """Cap BLAS threads at the CPUs this process may use (before numpy loads)
    and import shipnet from this checkout's ``src/``. Returns False when the
    checkout has no shipnet sources."""
    threads = str(len(os.sched_getaffinity(0)))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = threads
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "shipnet", "__init__.py")):
        return False
    sys.path.insert(0, src)
    import shipnet
    return os.path.dirname(os.path.abspath(shipnet.__file__)) == os.path.join(src, "shipnet")


def run_op(workload, ctx, tracer, index):
    """One op, or None when it raises (the traceback goes to stderr)."""
    tracer.op = index
    try:
        return workload.op(ctx, tracer)
    except Exception:
        traceback.print_exc()
        return None
    finally:
        tracer.op = tracer.unit = None


def measure(workload, ctx, seconds, min_units):
    """Repeat the op until ``seconds`` have passed and ``min_units`` units are
    timed. Stops at the first op that raises; returns (results, normalised,
    raised): the raw results, and copies with times at the reference speed."""
    import reference
    pacer = reference.Pacer()
    results, bounds = [], []
    start = perf_counter()
    pacer.take()
    while True:
        first, spent = len(pacer.samples) - 1, pacer.spent
        result = run_op(workload, ctx, pacer, len(results))
        if result is None:
            break
        result.wall_s -= pacer.spent - spent
        pacer.take()
        results.append(result)
        bounds.append((first, len(pacer.samples)))
        if (perf_counter() - start >= seconds
                and sum(len(r.unit_s) for r in results) >= min_units):
            break
    normalised, marks = [], iter(pacer.marks)
    for result, (first, end) in zip(results, bounds):
        unit_s = [t * reference.scale(pacer.samples[m - 1:m + 1])
                  for t, m in zip(result.unit_s, marks)]
        wall_s = result.wall_s * reference.scale(pacer.samples[first:end])
        normalised.append(dataclasses.replace(result, wall_s=wall_s, unit_s=unit_s))
    return results, normalised, result is None


def setup(workload, seed, root):
    """Set up SETUP_REPEATS times; returns the last context, and each
    set-up's raw time and time at the reference speed."""
    import reference
    times, normalised = [], []
    os.sync()   # so that writes left by an earlier run are not flushed while timing
    reference.sample()  # first-call costs
    before = reference.sample()
    for _ in range(SETUP_REPEATS):
        shutil.rmtree(root, ignore_errors=True)
        os.makedirs(root)
        t0 = perf_counter()
        ctx = workload.setup(seed, root)
        times.append(perf_counter() - t0)
        after = reference.sample()
        normalised.append(times[-1] * reference.scale([before, after]))
        before = after
    return ctx, times, normalised


def run_untraced(workload, seed, seconds, work):
    ctx, raw_setups, setups = setup(workload, seed, os.path.join(work, "inputs"))
    raw_ops, ops, raised = measure(workload, ctx, seconds, workload.min_units)
    failed = sum(op.failed for op in ops) + raised
    if ops:
        failed += workload.final_check(ctx)
        failed += sum(1 for op in ops if op.digest != ops[0].digest)
    attempted = sum(len(op.unit_s) for op in ops) + raised
    if not ops:
        return None, attempted, failed, {}
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    values = report.end_to_end(setups, ops, peak_mb)
    raw = report.end_to_end(raw_setups, raw_ops, peak_mb)
    notes = {"units": sum(len(op.unit_s) for op in ops), "ops": len(ops),
             "setups": len(setups),
             "raw": {k: v for k, v in raw.items() if k != "peak_rss_mb"}}
    return values, attempted, failed, notes


def run_traced(workload, seed, seconds, work):
    roots = [os.path.join(work, "inputs"), os.path.join(work, "traced")]
    for root in roots:
        os.makedirs(root)
    ctx = workload.setup(seed, roots[0])
    tracer = Tracer()
    with tracer:
        # one traced set-up, for synthetic.gen
        traced_ctx = workload.setup(seed, roots[1])
    # A first untraced op takes the process's first-call costs out of the
    # pairs. Then untraced and traced ops alternate, so both see the same
    # machine state and the difference of a pair is the tracing overhead.
    warm = run_op(workload, ctx, NullTracer(), 0)
    plain, traced = [], []
    raised = warm is None
    start = perf_counter()
    while not raised and (len(traced) < 2 or perf_counter() - start < seconds):
        pair = [run_op(workload, ctx, NullTracer(), len(plain))]
        if pair[0] is not None:
            with tracer:
                pair.append(run_op(workload, traced_ctx, tracer, len(traced)))
        raised = pair[-1] is None
        if not raised:
            plain.append(pair[0])
            traced.append(pair[1])
    ops = plain + traced + ([warm] if warm is not None else [])
    attempted = sum(len(op.unit_s) for op in ops) + raised
    failed = sum(op.failed for op in ops) + raised
    if not traced:
        return None, attempted, failed, {}
    # tracing must not change what the program computes
    digests = {op.digest for op in ops}
    negative, mismatched, counts = report.trace_faults(tracer, traced)
    failed += (len(digests) != 1) + negative + mismatched
    values = report.per_layer(tracer, traced, plain)
    with open(os.path.join(HERE, "results", f"{workload.name}-seed{seed}.spans.jsonl"),
              "w") as fh:
        for row in tracer.spans.rows():
            fh.write(json.dumps(row) + "\n")
    notes = {"ops": len(traced), "units": sum(len(op.unit_s) for op in traced),
             "spans": len(tracer.spans), "negative_self_spans": negative,
             "ops_with_other_counts": mismatched, "outputs_equal": len(digests) == 1,
             "counts_per_op": counts}
    return values, attempted, failed, notes


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not bootstrap():
        print(f"error: no shipnet sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    os.makedirs(os.path.join(HERE, "results"), exist_ok=True)
    work = os.path.join(HERE, ".work", f"{workload.name}-{args.seed}-{os.getpid()}")
    try:
        run = run_traced if args.trace else run_untraced
        values, attempted, failed, notes = run(workload, args.seed, args.seconds, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if values is None:
        print(f"error: the {workload.name} workload raised before any op completed",
              file=sys.stderr)
        return 1

    table = report.PER_LAYER if args.trace else report.END_TO_END
    units = {name: spec[0] if args.trace else spec for name, spec in table.items()}
    env = report.environment(ROOT)
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": {name: {"value": values[name], "unit": units[name]}
                          for name in table}}
    aliases = report.ALIASES[workload.name]
    print(f"workload {workload.name}  seed {args.seed}  trace {args.trace}  "
          f"unit {workload.unit}")
    print("env " + json.dumps(env, sort_keys=True))
    print("notes " + json.dumps(notes, sort_keys=True))
    for name in table:
        label = f"{name} ({aliases[name]})" if name in aliases and not args.trace else name
        print(f"  {label:<44} {values[name]:>14.4f} {units[name]}")
    print(f"  {'failed_ratio':<44} {failed / max(attempted, 1):>14.4f} "
          f"({failed} of {attempted} units)")
    with open(os.path.join(HERE, "results",
                           f"{workload.name}-seed{args.seed}-trace{args.trace}.json"),
              "w") as fh:
        json.dump({**result, "env": env, "notes": notes}, fh, indent=1, sort_keys=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
