"""Acceptance criteria, one test per criterion, each printing a PASS line.

Criterion 5 trains the three variants on the full synthetic corpus and is
the slow path (several minutes); its artifacts are shared with criteria 6-8
where the stated protocol allows.
"""

import os
import time

import numpy as np
import pytest

from shipnet import layers as L
from shipnet import tensor as T
from shipnet import train as TR
from shipnet.attention import CBAM, ChannelAttention, SpatialAttention, set_attention_bypass
from shipnet.cli import main
from shipnet.data import decode_ppm, scan_directory
from shipnet.gradcheck import run_sweep
from shipnet.metrics import MetricsReport, round2
from shipnet.models import ModelConfig, build_model

from oracles import (naive_channel_attention, naive_conv2d,
                     naive_improved_spatial_attention, naive_maxpool2d,
                     naive_spatial_attention)

CLASSES4 = ["bulk_carrier", "cargo", "container", "oil_tanker"]
DESK_EPOCHS = 15
DESK_LR = "1e-3"  # desk-scale budget; the published full-scale base rate is config default


def _announce(num, name, detail=""):
    suffix = f" ({detail})" if detail else ""
    print(f"[ACCEPTANCE] criterion {num} {name}: PASS{suffix}")


@pytest.fixture(scope="module")
def desk_corpus(tmp_path_factory):
    root = str(tmp_path_factory.mktemp("desk") / "data")
    code = main(["gen-synth", "--per-class", "250", "--size", "64",
                 "--seed", "42", "--out", root])
    assert code == 0
    return root


@pytest.fixture(scope="module")
def desk_compare(tmp_path_factory, desk_corpus):
    out = str(tmp_path_factory.mktemp("desk_run") / "cmp")
    t0 = time.time()
    code = main(["compare", "--data", desk_corpus, "--out", out,
                 "--preset", "tiny", "--epochs", str(DESK_EPOCHS),
                 "--batch-size", "32", "--lr", DESK_LR, "--seed", "42"])
    elapsed = time.time() - t0
    assert code == 0
    return out, elapsed


class TestCriterion1GradientCorrectness:
    def test_gradcheck_sweep(self):
        t0 = time.time()
        results = run_sweep()
        elapsed = time.time() - t0
        failures = [(kind, err, tol) for kind, err, tol, ok in results if not ok]
        assert not failures, f"gradient sweep failures: {failures}"
        linear_kinds = {kind: err for kind, err, tol, ok in results if tol == 1e-6}
        assert all(err < 1e-6 for err in linear_kinds.values())
        general = {kind: err for kind, err, tol, ok in results if tol == 1e-4}
        assert all(err < 1e-4 for err in general.values())
        assert elapsed < 120.0
        worst = max(err for _, err, _, _ in results)
        _announce(1, "gradient correctness",
                  f"worst rel err {worst:.2e}, {elapsed:.1f}s")


class TestCriterion2KernelOracles:
    def test_conv2d_200_randomized_configs(self):
        rng = np.random.default_rng(20240816)
        checked = 0
        worst = 0.0
        while checked < 200:
            c = int(rng.choice([1, 2, 3, 4]))
            groups = int(rng.choice([1, c]))
            mult = int(rng.choice([1, 2]))
            cout = c * mult if groups == c else int(rng.choice([1, 2, 4]))
            if cout % groups:
                continue
            k = int(rng.choice([1, 2, 3]))
            stride = int(rng.choice([1, 2]))
            pad = int(rng.choice([0, 1, 3]))
            dil = int(rng.choice([1, 2]))
            hw = int(rng.integers(5, 10))
            spec = L.Conv2dSpec(c, cout, k, stride=stride, padding=pad,
                                dilation=dil, groups=groups, bias=bool(rng.integers(2)))
            try:
                spec.output_size(hw, hw)
            except ValueError:
                continue
            n = int(rng.integers(1, 3))
            x = rng.standard_normal((n, c, hw, hw)).astype(np.float32)
            w = (rng.standard_normal(spec.weight_shape()) * 0.5).astype(np.float32)
            b = (rng.standard_normal(cout) * 0.2).astype(np.float32) if spec.bias else None
            out = L.conv2d(T.Tensor(x), T.Tensor(w),
                           T.Tensor(b) if b is not None else None, spec)
            ref = naive_conv2d(x.astype(np.float64), w.astype(np.float64),
                               None if b is None else b.astype(np.float64),
                               spec.stride, spec.padding, spec.dilation, groups)
            worst = max(worst, float(np.max(np.abs(out.data - ref))))
            assert worst < 1e-5, f"config {spec} diverged: {worst}"
            checked += 1
        assert checked == 200
        _announce(2, "kernel oracle equivalence", f"conv worst abs err {worst:.2e}")

    def test_maxpool_matches_naive(self):
        rng = np.random.default_rng(7)
        worst = 0.0
        for _ in range(20):
            hw = int(rng.integers(4, 9))
            k = int(rng.choice([2, 3]))
            s = int(rng.choice([1, 2]))
            p = int(rng.choice([0, k - 1]))
            x = rng.standard_normal((2, 3, hw, hw)).astype(np.float32)
            out = L.maxpool2d(T.Tensor(x), k, s, p)
            ref = naive_maxpool2d(x.astype(np.float64), (k, k), (s, s), (p, p))
            worst = max(worst, float(np.max(np.abs(out.data - ref))))
        assert worst < 1e-6

    def test_attention_blocks_match_naive(self):
        rng = np.random.default_rng(9)
        worst = 0.0
        for seed in range(5):
            x = rng.standard_normal((2, 8, 6, 6)).astype(np.float32)
            ca = ChannelAttention(8, 4, T.make_rng(seed))
            gate = ca(T.Tensor(x))
            ref = naive_channel_attention(x.astype(np.float64),
                                          ca.squeeze.weight.data.astype(np.float64),
                                          ca.excite.weight.data.astype(np.float64))
            worst = max(worst, float(np.max(np.abs(gate.data - ref))))

            sa = SpatialAttention(T.make_rng(seed + 50), kernel=3)
            ref = naive_spatial_attention(x.astype(np.float64),
                                          sa.conv.weight.data.astype(np.float64))
            worst = max(worst, float(np.max(np.abs(sa(T.Tensor(x)).data - ref))))

            isa = SpatialAttention(T.make_rng(seed + 90), kernel=3, dilation=2,
                                   variant="improved")
            ref = naive_improved_spatial_attention(
                x.astype(np.float64),
                isa.depthwise.weight.data.astype(np.float64),
                isa.pointwise.weight.data.astype(np.float64))
            worst = max(worst, float(np.max(np.abs(isa(T.Tensor(x)).data - ref))))
        assert worst < 1e-6


class TestCriterion3MetricsArithmetic:
    def test_table_of_standard_attention_run(self):
        report = MetricsReport.from_rows(
            CLASSES4, precisions=(0.83, 0.93, 0.85, 0.88),
            recalls=(0.81, 0.90, 0.76, 0.94), supports=(411, 308, 258, 691))
        assert round2(report.accuracy) == 0.87
        assert tuple(round2(v) for v in report.macro) == (0.87, 0.85, 0.86)
        assert tuple(round2(v) for v in report.weighted) == (0.87, 0.87, 0.87)

    def test_table_of_enhanced_run(self):
        report = MetricsReport.from_rows(
            CLASSES4, precisions=(0.94, 0.94, 0.91, 0.98),
            recalls=(0.95, 0.93, 0.90, 0.98), supports=(405, 330, 254, 679))
        assert round2(report.accuracy) == 0.95
        assert tuple(round2(v) for v in report.macro) == (0.94, 0.94, 0.94)
        assert tuple(round2(v) for v in report.weighted) == (0.95, 0.95, 0.95)
        _announce(3, "metrics arithmetic vs published tables")


class TestCriterion4BypassEquivalence:
    @pytest.mark.parametrize("variant", ["cbam", "enhanced"])
    def test_bitwise_equality_with_shared_weights(self, variant):
        overrides = {}
        if variant == "enhanced":
            overrides["multiscale_fusion"] = False
        cfg = ModelConfig.make(variant, preset="tiny", **overrides)
        gated = build_model(cfg, seed=17)
        skeleton = build_model(cfg.attention_free(), seed=23)
        shared = dict(gated.named_parameters())
        for name, p in skeleton.named_parameters():
            p.data = shared[name].data.copy()
        shared_buf = dict(gated.named_buffers())
        for name, b in skeleton.named_buffers():
            b.data = shared_buf[name].data.copy()
        set_attention_bypass(gated, True)
        gated.eval()
        skeleton.eval()
        x = T.normal((2, 3, 64, 64), 1.0, T.make_rng(29))
        out_gated = gated.forward(x)
        out_skel = skeleton.forward(x)
        assert np.array_equal(out_gated.data, out_skel.data)
        if variant == "enhanced":
            _announce(4, "bypass equivalence", "bitwise on both variants")


def _read_tsv(path):
    rows = {}
    with open(path) as fh:
        next(fh)
        for line in fh:
            variant, acc, f1 = line.split("\t")
            rows[variant] = (float(acc), float(f1))
    return rows


class TestCriterion5DeskScale:
    def test_enhanced_reaches_90_and_ordering_holds(self, desk_compare):
        out, elapsed = desk_compare
        rows = _read_tsv(os.path.join(out, "compare.tsv"))
        acc = {v: rows[v][0] for v in ("baseline", "cbam", "enhanced")}
        assert acc["enhanced"] >= 0.90, f"enhanced test accuracy {acc['enhanced']:.4f}"
        assert acc["enhanced"] >= acc["cbam"] - 0.02, f"ordering violated: {acc}"
        assert acc["cbam"] >= acc["baseline"] - 0.02, f"ordering violated: {acc}"
        # a slow run on a shared box shows as few usable CPUs or a high load
        cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
        box = (f"{cpus} usable CPUs, OPENBLAS_NUM_THREADS="
               f"{os.environ.get('OPENBLAS_NUM_THREADS', 'unset')}, load average "
               + " ".join(f"{v:.2f}" for v in os.getloadavg()))
        assert elapsed <= 15 * 60, f"desk-scale run took {elapsed:.0f}s ({box})"
        _announce(5, "desk-scale end-to-end",
                  f"acc {acc['baseline']:.3f}/{acc['cbam']:.3f}/{acc['enhanced']:.3f}, "
                  f"{elapsed:.0f}s, {box}")


class TestCriterion6Determinism:
    def test_two_compare_runs_identical(self, tmp_path, desk_corpus):
        args = ["compare", "--data", desk_corpus, "--preset", "tiny",
                "--epochs", "2", "--batch-size", "32", "--lr", "1e-3",
                "--seed", "11", "--set", "workers=1"]
        outs = []
        for name in ("r1", "r2"):
            out = str(tmp_path / name)
            assert main(args + ["--out", out]) == 0
            outs.append(out)
        for variant in ("baseline", "cbam", "enhanced"):
            log1 = open(os.path.join(outs[0], variant, "epochs.log")).read()
            log2 = open(os.path.join(outs[1], variant, "epochs.log")).read()
            assert log1 == log2, f"{variant} per-epoch logs differ"
            rep1 = open(os.path.join(outs[0], variant, "report.json")).read()
            rep2 = open(os.path.join(outs[1], variant, "report.json")).read()
            assert rep1 == rep2, f"{variant} final metrics differ"
        tsv1 = open(os.path.join(outs[0], "compare.tsv")).read()
        tsv2 = open(os.path.join(outs[1], "compare.tsv")).read()
        assert tsv1 == tsv2
        _announce(6, "determinism", "identical logs and metrics across reruns")


class TestCriterion7CheckpointIntegrity:
    def test_resume_reproduces_remaining_log(self, tmp_path, desk_corpus):
        ds, _ = scan_directory(desk_corpus)
        config = ModelConfig.make("cbam", preset="tiny")
        spec = TR.RunSpec(epochs=4, batch_size=32, base_lr=1e-3, seed=13,
                          val_fraction=0.2, augment=True,
                          norm_mean=(0.3, 0.3, 0.4), norm_std=(0.2, 0.2, 0.2),
                          resize_to=(64, 64))
        small = type(ds)(ds.classes, ds.samples[::5])  # 200 samples, keeps runtime low

        _, _, full_lines = TR.fit(config, small, spec, out_dir=str(tmp_path / "full"))

        spec_half = TR.RunSpec(**{**spec.__dict__, "epochs": 2})
        TR.fit(config, small, spec_half, out_dir=str(tmp_path / "half"))
        resume = TR.checkpoint_load(
            str(tmp_path / "half" / "checkpoints" / "epoch_001.ckpt"),
            expected_config=config)
        assert resume.epoch == 2
        _, _, resumed_lines = TR.fit(config, small, spec,
                                     out_dir=str(tmp_path / "resumed"),
                                     resume_state=resume)
        assert resumed_lines == full_lines[2:]
        _announce(7, "checkpoint integrity", "resume log matches uninterrupted run")


class TestCriterion8HeatmapContract:
    def test_zero_weight_attention_uniform(self):
        from shipnet.heatmap import spatial_gate_map
        model = build_model(ModelConfig.make("cbam", preset="tiny"), seed=3)
        for _, mod in model.modules():
            if isinstance(mod, SpatialAttention):
                if mod.variant == "standard":
                    mod.conv.weight.data[:] = 0
                else:
                    mod.pointwise.weight.data[:] = 0
        img = np.random.default_rng(0).random((3, 64, 64)).astype(np.float32)
        heat = spatial_gate_map(model, img)
        assert np.allclose(heat, 0.5, atol=1e-6)

    def test_trained_checkpoint_emits_valid_nonuniform_maps(self, tmp_path,
                                                            desk_corpus,
                                                            desk_compare):
        out, _ = desk_compare
        ckpt_dir = os.path.join(out, "cbam", "checkpoints")
        marker = open(os.path.join(ckpt_dir, "best.txt")).read()
        best_epoch = int(marker.splitlines()[0].split("=")[1])
        ckpt = os.path.join(ckpt_dir, f"epoch_{best_epoch:03d}.ckpt")

        # 20-image sample drawn across classes
        sample_dir = tmp_path / "sample"
        sample_dir.mkdir()
        ds, _ = scan_directory(desk_corpus)
        import shutil
        for i, s in enumerate(ds.samples[:: len(ds.samples) // 20][:20]):
            shutil.copy(s.path, sample_dir / f"s{i:02d}.ppm")

        maps_dir = str(tmp_path / "maps")
        code = main(["heatmap", "--checkpoint", ckpt, "--image", str(sample_dir),
                     "--method", "spatial-gate", "--out", maps_dir])
        assert code == 0
        outs = sorted(os.listdir(maps_dir))
        assert len(outs) == 20
        for name in outs:
            img = decode_ppm(open(os.path.join(maps_dir, name), "rb").read())
            assert img.shape == (3, 64, 64)

        # non-uniformity measured on the raw gates, not the overlays
        from shipnet.data import normalize, read_ppm
        from shipnet.heatmap import spatial_gate_map
        state = TR.checkpoint_load(ckpt)
        nonuniform = 0
        for i in range(20):
            img = read_ppm(str(sample_dir / f"s{i:02d}.ppm"))
            heat = spatial_gate_map(
                state.model, normalize(img, state.norm_mean, state.norm_std))
            if heat.max() - heat.min() > 0.1:
                nonuniform += 1
        assert nonuniform >= 16, f"only {nonuniform}/20 maps are non-uniform"
        _announce(8, "heatmap contract", f"{nonuniform}/20 maps non-uniform")
