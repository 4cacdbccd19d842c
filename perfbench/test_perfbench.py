"""Tests of the benchmark itself: deterministic inputs, complete output,
fidelity of its loops to the CLI, and a tracer that leaves nothing patched.

Run from the repository root: ``python3 -m pytest perfbench -q``.
"""

import hashlib
import itertools
import json
import os
import subprocess
import sys

import pytest

import run

assert run.bootstrap(), "shipnet sources not found under src/"

import report  # noqa: E402
import workloads  # noqa: E402
from shipnet import (attention, cli, data, heatmap, layers, models, synthetic,  # noqa: E402
                     tensor, train)
from tracer import NullTracer, Tracer  # noqa: E402

with open(os.path.join(run.ROOT, "BENCHMARK.json")) as _fh:
    BENCHMARK = json.load(_fh)


def _tree_digest(root):
    digest = hashlib.sha256()
    for dirpath, dirs, files in os.walk(root):
        dirs.sort()
        for f in sorted(files):
            path = os.path.join(dirpath, f)
            digest.update(os.path.relpath(path, root).encode())
            with open(path, "rb") as fh:
                digest.update(fh.read())
    return digest.hexdigest()


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_inputs_are_a_function_of_the_seed(name, tmp_path):
    wl = workloads.WORKLOADS[name]
    digests = {}
    for label, seed in (("a", 3), ("b", 3), ("c", 4)):
        root = tmp_path / label
        root.mkdir()
        wl.setup(seed, str(root))
        digests[label] = _tree_digest(root)
    assert digests["a"] == digests["b"]
    assert digests["a"] != digests["c"]


def test_metric_tables_match_benchmark_json():
    assert [w["name"] for w in BENCHMARK["workloads"]] == ["compare", "eval", "heatmap"]
    assert sorted(workloads.WORKLOADS) == ["compare", "eval", "heatmap"]
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == report.END_TO_END
    assert ({m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
            == {name: spec[0] for name, spec in report.PER_LAYER.items()})


@pytest.mark.parametrize("trace,table", [(0, "end_to_end"), (1, "per_layer")])
@pytest.mark.parametrize("name", ["eval", "heatmap"])
def test_every_metric_is_printed_with_its_unit(name, trace, table):
    proc = subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), "--workload", name,
         "--seed", "5", "--seconds", "1", "--trace", str(trace)],
        cwd=run.ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in BENCHMARK[table]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    printed = {line.split()[0]: line.split()[-1] for line in lines[:-1] if line.startswith("  ")}
    assert all(printed.get(metric) == unit for metric, unit in expected.items())
    assert any(line.startswith("env ") for line in lines)


def test_run_refuses_a_checkout_without_sources(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for f in ("run.py", "tracer.py", "report.py", "workloads.py", "reference.py"):
        with open(os.path.join(run.HERE, f), "rb") as fh:
            (bench / f).write_bytes(fh.read())
    proc = subprocess.run([sys.executable, str(bench / "run.py"), "--workload", "eval",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_times_are_scaled_by_the_reference_samples_around_them(monkeypatch):
    import reference
    # the k-th sample reads k * REF_S, and one is taken after every unit
    counter = itertools.count(1)
    monkeypatch.setattr(reference, "sample", lambda: next(counter) * reference.REF_S)
    monkeypatch.setattr(reference, "PACE_S", 0.0)

    class TwoUnits:
        def op(self, ctx, tracer):
            res = workloads.OpResult(wall_s=1.0, images=2)
            for i in range(2):
                tracer.unit = i
                res.unit_s.append(1.0)
                tracer.unit = None
            return res

    raw, normalised, raised = run.measure(TwoUnits(), None, 0.0, 4)
    assert not raised and [op.unit_s for op in raw] == [[1.0, 1.0], [1.0, 1.0]]
    # samples: 1 before op 0, 2 and 3 after its units, 4 after it; 5, 6, 7 for op 1
    assert [t for op in normalised for t in op.unit_s] == pytest.approx(
        [1 / 1.5, 1 / 2.5, 1 / 4.5, 1 / 5.5])
    assert [op.wall_s for op in normalised] == pytest.approx([1 / 2.5, 1 / 5.5], rel=1e-3)


# ---- the benchmark's loops write what the CLI writes --------------------------


def _files(root):
    # metadata.txt holds the wall-clock creation time and only the CLI writes it
    return sorted(os.path.relpath(os.path.join(d, f), root)
                  for d, _, fs in os.walk(root) for f in fs if f != "metadata.txt")


def _same_files(a, b):
    assert _files(a) == _files(b)
    for name in _files(a):
        if name == "config.txt":    # echoes the data and output paths
            continue
        with open(os.path.join(a, name), "rb") as fa, open(os.path.join(b, name), "rb") as fb:
            assert fa.read() == fb.read(), name


def test_compare_loop_writes_what_the_cli_writes(tmp_path, capsys):
    wl = workloads.WORKLOADS["compare"]
    ctx = wl.setup(11, str(tmp_path / "bench"))
    wl.op(ctx, NullTracer())
    cli_out = str(tmp_path / "cli")
    assert cli.main(["compare", "--data", ctx["corpus"], "--out", cli_out,
                     "--preset", "tiny", "--epochs", str(wl.epochs), "--batch-size", "32",
                     "--lr", "1e-3", "--seed", "11"]) == 0
    _same_files(ctx["out"], cli_out)


def test_eval_loop_writes_what_the_cli_writes(tmp_path, capsys):
    wl = workloads.WORKLOADS["eval"]
    ctx = wl.setup(12, str(tmp_path / "bench"))
    wl.op(ctx, NullTracer())
    for variant, ckpt in ctx["ckpts"].items():
        cli_out = str(tmp_path / "cli" / variant)
        assert cli.main(["eval", "--checkpoint", ckpt, "--data", ctx["held_out"],
                         "--out", cli_out, "--preset", "tiny", "--batch-size", "32",
                         "--seed", "12"]) == 0
        for f in ("report.json", "report.txt", "confusion.csv"):
            with open(os.path.join(cli_out, f)) as a, \
                    open(os.path.join(ctx["out"], variant, f)) as b:
                assert a.read() == b.read()
    assert wl.final_check(ctx) == 0


def test_heatmap_loop_writes_what_the_cli_writes(tmp_path, capsys):
    wl = workloads.WORKLOADS["heatmap"]
    ctx = wl.setup(13, str(tmp_path / "bench"))
    wl.op(ctx, NullTracer())
    for variant, ckpt in ctx["ckpts"].items():
        for method in heatmap.METHODS:
            for image_dir in ctx["dirs"]:
                cli_out = str(tmp_path / "cli" / variant / method / os.path.basename(image_dir))
                assert cli.main(["heatmap", "--checkpoint", ckpt, "--image", image_dir,
                                 "--method", method, "--out", cli_out]) == 0
                bench_out = os.path.join(ctx["out"], f"{variant}.{method}",
                                         os.path.basename(image_dir))
                _same_files(bench_out, cli_out)


# ---- tracing ----------------------------------------------------------------


def _bindings():
    """Every function and method binding the tracer may replace."""
    owners = [attention, cli, data, heatmap, layers, models, synthetic, tensor, train,
              layers.Module, layers.BatchNorm2d, layers.Linear, attention.ChannelAttention,
              attention.SpatialAttention, models.MultiscaleFusion, models.ShipClassifier,
              tensor.Tensor]
    return {(id(o), k): v for o in owners for k, v in vars(o).items() if callable(v)}


def test_tracer_restores_every_binding_on_exit():
    before = _bindings()
    with Tracer():
        during = _bindings()
    assert sum(during[k] is not v for k, v in before.items()) >= 20
    after = _bindings()
    assert all(after[k] is v for k, v in before.items())


def test_tracer_restores_every_binding_when_an_error_is_raised():
    before = _bindings()
    with pytest.raises(ZeroDivisionError):
        with Tracer():
            1 / 0
    after = _bindings()
    assert all(after[k] is v for k, v in before.items())


@pytest.mark.parametrize("name", ["eval", "heatmap"])
def test_traced_ops_compute_the_same_outputs_and_counts(name, tmp_path):
    wl = workloads.WORKLOADS[name]
    plain = wl.op(wl.setup(21, str(tmp_path / "plain")), NullTracer())
    signatures = []
    for label in ("a", "b"):
        ctx = wl.setup(21, str(tmp_path / label))
        tracer = Tracer()
        with tracer:
            tracer.op = 0
            traced = wl.op(ctx, tracer)
        assert traced.digest == plain.digest
        negative, mismatched, signature = report.trace_faults(tracer, [traced])
        assert negative == 0 and mismatched == 0
        assert signature[0]["layers.conv2d.calls"] > 0
        signatures.append(signature)
    assert signatures[0] == signatures[1]


def test_spans_nest_with_non_negative_self_time():
    tracer = Tracer()
    with tracer:
        tracer.op, tracer.unit = 0, 0
        with tracer.span("outer"):
            with tracer.span("inner"):
                sum(range(1000))
    assert list(tracer.spans.name) == ["outer", "inner"]
    assert list(tracer.spans.parent) == [-1, 0]
    assert all(st >= 0 for st in report.self_times(tracer.spans))
