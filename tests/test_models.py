import numpy as np
import pytest

from shipnet import models as M
from shipnet import tensor as T
from shipnet import train as TR
from shipnet.attention import set_attention_bypass
from shipnet.layers import BatchNorm2d, Conv2d, MaxPool2d, cross_entropy, watch


def _input(batch, size, seed=0):
    return T.normal((batch, 3, size, size), 1.0, T.make_rng(seed))


def _outputs(model, x, modules):
    """Per name, the output the module under it gave in a forward of ``x``."""
    names = {mod: name for name, mod in modules.items()}
    outs = {}

    def keep(mod, args, out):
        if mod in names:
            outs[names[mod]] = out

    with watch(keep):
        model(x)
    return outs


def _stages(model):
    return {f"stage{s}": getattr(model, f"stage{s}") for s in M.STAGES}


def _share_weights(dst, src):
    src_params = dict(src.named_parameters())
    for name, p in dst.named_parameters():
        p.data = src_params[name].data.copy()
    src_bufs = dict(src.named_buffers())
    for name, b in dst.named_buffers():
        b.data = src_bufs[name].data.copy()


MICRO = dict(stage_blocks=(1, 1, 1, 1), base_width=8, input_size=(32, 32),
             reduction_ratio=4, spatial_kernel=3, fusion_width=16)


class TestModelConfig:
    def test_full_baseline_geometry(self):
        cfg = M.ModelConfig.make("baseline")
        sizes = cfg.stage_sizes()
        assert sizes == {"stem": (56, 56), "stage2": (56, 56), "stage3": (28, 28),
                         "stage4": (14, 14), "stage5": (7, 7)}
        assert [cfg.stage_channels(s) for s in (2, 3, 4, 5)] == [256, 512, 1024, 2048]

    def test_enhanced_dilated_stage5_keeps_resolution(self):
        cfg = M.ModelConfig.make("enhanced")
        assert cfg.stage_sizes()["stage5"] == (14, 14)

    def test_baseline_rejects_attention(self):
        with pytest.raises(ValueError):
            M.ModelConfig.make("baseline", cbam_stages=(2,))

    def test_enhanced_requires_a_flag(self):
        with pytest.raises(ValueError):
            M.ModelConfig.make("enhanced", multiscale_fusion=False,
                               dwsep_stages=(), dilated_stage5=False)

    def test_geometry_underflow(self):
        # 50x50 leaves stage3 at 7x7 but stage4 at 4x4: nearest 2x upsampling
        # cannot reach the fusion target
        with pytest.raises(ValueError):
            M.ModelConfig.make("enhanced", stage_blocks=(1, 1, 1, 1), base_width=8,
                               reduction_ratio=4, fusion_width=16,
                               dilated_stage5=False, input_size=(50, 50))

    def test_text_roundtrip(self):
        for variant in ("baseline", "cbam", "enhanced"):
            cfg = M.ModelConfig.make(variant, preset="tiny")
            assert M.ModelConfig.from_text(cfg.to_text()) == cfg

    def test_unknown_variant(self):
        with pytest.raises(ValueError):
            M.ModelConfig.make("resnext")

    @pytest.mark.parametrize("kernel", [4, 0, -1])
    def test_even_or_nonpositive_spatial_kernel_rejected_with_attention(self, kernel):
        with pytest.raises(ValueError, match="spatial_kernel"):
            M.ModelConfig.make("cbam", preset="tiny", spatial_kernel=kernel)
        assert M.ModelConfig.make("baseline", preset="tiny", spatial_kernel=kernel)

    def test_zero_reduction_ratio_rejected(self):
        text = M.ModelConfig.make("cbam", preset="tiny").to_text()
        with pytest.raises(ValueError):
            M.ModelConfig.from_text(text.replace("reduction_ratio=16", "reduction_ratio=0"))


class TestBuildDeterminism:
    def test_same_seed_same_checksum(self):
        cfg = M.ModelConfig.make("cbam", **MICRO)
        a = M.build_model(cfg, seed=7)
        b = M.build_model(cfg, seed=7)
        pa, pb = dict(a.named_parameters()), dict(b.named_parameters())
        assert pa.keys() == pb.keys()
        for name in pa:
            assert np.array_equal(pa[name].data, pb[name].data), name

    def test_different_seed_differs(self):
        cfg = M.ModelConfig.make("cbam", **MICRO)
        a, b = M.build_model(cfg, 1), M.build_model(cfg, 2)
        assert any(not np.array_equal(pa.data, pb.data)
                   for pa, pb in zip(a.parameters(), b.parameters()))


class TestBuildDtype:
    """Models are built float32; ``astype`` casts a built tree in place."""

    @pytest.mark.parametrize("variant", M.VARIANTS)
    def test_built_float32_and_cast_to_float64_end_to_end(self, variant):
        model = M.build_model(M.ModelConfig.make(variant, **MICRO), seed=0)
        tensors = dict(model.named_parameters()) | dict(model.named_buffers())
        assert {t.dtype for t in tensors.values()} == {np.dtype(np.float32)}
        assert model.astype(np.float64) is model
        after = dict(model.named_parameters()) | dict(model.named_buffers())
        assert all(after[name] is t for name, t in tensors.items())  # same tensors
        assert {t.dtype for t in after.values()} == {np.dtype(np.float64)}
        x = T.normal((2, 3, 32, 32), 1.0, T.make_rng(1), dtype=np.float64)
        logits = model.train()(x)
        assert logits.dtype == np.float64
        cross_entropy(logits, [0, 3]).backward()
        for name, p in model.named_parameters():
            assert p.grad is not None and p.grad.dtype == np.float64, name
        assert {b.dtype for _, b in model.named_buffers()} == {np.dtype(np.float64)}


class TestForward:
    @pytest.mark.parametrize("variant", ["baseline", "cbam", "enhanced"])
    def test_logits_shape_and_finite(self, variant):
        cfg = M.ModelConfig.make(variant, **MICRO)
        model = M.build_model(cfg, seed=0).eval()
        outputs = []
        with watch(lambda mod, args, out: outputs.append(out.data)):
            logits = model.forward(_input(2, 32))
        assert logits.shape == (2, 4)
        assert np.all(np.isfinite(logits.data))
        # every module's output, the attention gates included, is finite
        assert outputs and all(np.all(np.isfinite(data)) for data in outputs)

    def test_wrong_input_size_rejected(self):
        cfg = M.ModelConfig.make("baseline", **MICRO)
        model = M.build_model(cfg, seed=0)
        with pytest.raises(ValueError):
            model.forward(_input(1, 64))

    def test_eval_batch_independence(self):
        cfg = M.ModelConfig.make("cbam", **MICRO)
        model = M.build_model(cfg, seed=0).eval()
        x = _input(1, 32, seed=3)
        pair = T.Tensor(np.concatenate([x.data, x.data], axis=0))
        logits = model.forward(pair)
        assert np.array_equal(logits.data[0], logits.data[1])

    def test_capture_exposes_stages_and_gates(self):
        cfg = M.ModelConfig.make("cbam", **MICRO)
        model = M.build_model(cfg, seed=0).eval()
        modules = dict(_stages(model), stem=model.stem_pool)
        modules["stage5.0.spatial_gate"] = model.stage5.items[0].cbam.spatial
        cap = _outputs(model, _input(1, 32), modules)
        for key in ("stem", "stage2", "stage3", "stage4", "stage5"):
            assert key in cap
        assert "stage5.0.spatial_gate" in cap
        assert cap["stage5.0.spatial_gate"].shape[1] == 1


class TestActivationLayout:
    @pytest.mark.parametrize("variant", M.VARIANTS)
    def test_conv_batchnorm_and_maxpool_outputs_are_batch_innermost(self, variant):
        """Every conv, batch-norm and max-pool output of a train-mode forward
        is an NCHW-shaped view of a contiguous (C, H, W, N) buffer, so the next
        layer reads it without a layout copy."""
        model = M.build_model(M.ModelConfig.make(variant, preset="tiny"), seed=0)
        layouts = []

        def record(mod, args, out):
            if isinstance(mod, (Conv2d, BatchNorm2d, MaxPool2d)):
                layouts.append((type(mod), out.data.transpose(1, 2, 3, 0).flags.c_contiguous))

        with watch(record):
            model(_input(4, 64))
        assert {kind for kind, _ in layouts} == {Conv2d, BatchNorm2d, MaxPool2d}
        assert all(ok for _, ok in layouts)


class TestBypassEquivalence:
    @pytest.mark.parametrize("variant", ["cbam", "enhanced"])
    def test_gates_forced_to_one_match_skeleton_bitwise(self, variant):
        overrides = dict(MICRO)
        if variant == "enhanced":
            overrides["multiscale_fusion"] = False  # fusion-disabled comparison
        cfg = M.ModelConfig.make(variant, **overrides)
        attn = M.build_model(cfg, seed=5)
        skeleton = M.build_model(cfg.attention_free(), seed=6)
        _share_weights(skeleton, attn)
        set_attention_bypass(attn, True)
        attn.eval()
        skeleton.eval()
        x = _input(2, 32, seed=9)
        assert np.array_equal(attn.forward(x).data, skeleton.forward(x).data)


class TestResidualStructure:
    def test_zeroed_main_path_gives_shortcut_cascade(self):
        cfg = M.ModelConfig.make("baseline", **MICRO)
        model = M.build_model(cfg, seed=1).eval()
        # zero every block's final batchnorm: main path contributes nothing
        for stage in model.stages:
            for block in stage.items:
                block.bn3.gamma.data[:] = 0
                block.bn3.beta.data[:] = 0
        x = _input(1, 32, seed=2)
        cap = _outputs(model, x, dict(_stages(model), stem=model.stem_pool))
        stem = cap["stem"]
        out = stem
        for stage in model.stages:
            blk = stage.items[0]
            with T.no_grad():
                shortcut = blk.proj_bn(blk.proj(out)) if blk.proj is not None else out
                out = shortcut.relu()
        assert np.allclose(cap["stage5"].data, out.data, atol=1e-6)

    @pytest.mark.parametrize("training", [True, False])
    def test_hook_copy_of_bn3_output_is_what_bn3_gives_alone(self, training):
        block = M.Bottleneck(16, 4, 1, T.make_rng(0))
        if not training:
            block.eval()
        kept = {}

        def keep(mod, args, out):
            if mod is block.bn1:
                kept["bn1"] = out.data.copy()
            if mod is block.bn3:
                kept["in"], kept["out"], kept["live"] = args[0].data.copy(), out.data.copy(), out

        x = T.Tensor(np.random.default_rng(1).standard_normal((2, 16, 5, 5)).astype(np.float32),
                     requires_grad=True)
        with watch(keep):
            y = block(x)
        assert kept["bn1"].min() == 0  # a relu=True batch norm's hook sees post-activation
        assert np.array_equal(kept["out"], block.bn3(T.Tensor(kept["in"])).data)
        # the residual tail wrote the block output into the buffer bn3 returned
        assert np.array_equal(kept["live"].data, y.data)
        assert not np.array_equal(kept["out"], y.data)

    def test_gradient_reaches_every_parameter(self):
        for variant in ("baseline", "cbam", "enhanced"):
            cfg = M.ModelConfig.make(variant, **MICRO)
            model = M.build_model(cfg, seed=3).train()
            from shipnet.layers import cross_entropy
            logits = model.forward(_input(4, 32, seed=4))
            loss = cross_entropy(logits, [0, 1, 2, 3])
            model.zero_grad()
            loss.backward()
            missing = [n for n, p in model.named_parameters() if p.grad is None]
            assert not missing, f"{variant}: no gradient for {missing}"


class TestMultiscaleFusion:
    def _model(self):
        cfg = M.ModelConfig.make("enhanced", **MICRO)
        return M.build_model(cfg, seed=4).eval(), cfg

    def test_zero_laterals_give_zero_fused_map(self):
        model, _ = self._model()
        for lat in model.fusion.laterals:
            lat.weight.data[:] = 0
        cap = _outputs(model, _input(1, 32, seed=5), {"fused": model.fusion})
        assert np.allclose(cap["fused"].data, 0.0)

    def test_single_branch_identity_of_sum(self):
        model, _ = self._model()
        cap1 = _outputs(model, _input(1, 32, seed=6), _stages(model))
        f3, f4, f5 = cap1["stage3"], cap1["stage4"], cap1["stage5"]
        fusion = model.fusion
        with T.no_grad():
            full = fusion(f3, f4, f5)
            for lat in (fusion.laterals[1], fusion.laterals[2]):
                lat.weight.data[:] = 0
            only3 = fusion(f3, f4, f5)
            target = (f3.shape[-2], f3.shape[-1])
            lone = fusion.fuse(fusion._up_to(fusion.laterals[0](f3), target))
        assert np.allclose(only3.data, lone.data, atol=1e-6)
        assert full.shape == only3.shape

    def test_fused_shape_at_stage3_resolution(self):
        model, cfg = self._model()
        cap = _outputs(model, _input(2, 32, seed=7), {"fused": model.fusion})
        h3, w3 = cfg.stage_sizes()["stage3"]
        assert cap["fused"].shape == (2, cfg.fusion_width, h3, w3)


class TestParamCount:
    def test_single_conv_arithmetic(self):
        from shipnet.layers import Conv2d, Conv2dSpec
        assert Conv2d(Conv2dSpec(2, 4, 3, bias=True), None).param_count() == 76

    def test_dwsep_strictly_reduces_block_count(self):
        base = M.ModelConfig.make("baseline", **MICRO)
        over = dict(MICRO)
        over.update(multiscale_fusion=False, dilated_stage5=False,
                    dwsep_stages=(4, 5), cbam_stages=())
        dw = M.ModelConfig.make("enhanced", **over)
        n_base = M.build_model(base, 0).param_count()
        n_dw = M.build_model(dw, 0).param_count()
        assert n_dw < n_base

    @pytest.mark.parametrize("variant", ["baseline", "cbam", "enhanced"])
    def test_count_equals_layer_dump_recount(self, variant):
        cfg = M.ModelConfig.make(variant, **MICRO)
        model = M.build_model(cfg, seed=0).eval()
        model.forward(_input(1, 32))
        dump = M.layer_spec_dump(model)
        recount = sum(int(line.split()[-1]) for line in dump.strip().splitlines())
        assert recount == model.param_count()


class TestLayerSpecDump:
    @pytest.mark.parametrize("variant", ["baseline", "cbam", "enhanced"])
    def test_loaded_model_lists_batch_one_shapes(self, tmp_path, variant):
        cfg = M.ModelConfig.make(variant, **MICRO)
        path = str(tmp_path / "m.ckpt")
        TR.checkpoint_save(TR.TrainState(model=M.build_model(cfg, seed=0), config=cfg,
                                         adam=TR.AdamState()), path)
        lines = M.layer_spec_dump(TR.checkpoint_load(path).model).splitlines()
        assert lines[0] == "stem_conv conv 1x3x32x32 1x8x16x16 1176"
        head_in = cfg.fusion_width if cfg.multiscale_fusion else cfg.stage_channels(5)
        assert lines[-1] == f"head linear 1x{head_in} 1x4 {(head_in + 1) * 4}"
        for line in lines:
            _, _, shape_in, shape_out, _ = line.split()
            assert shape_in.startswith("1x") and shape_out.startswith("1x")

    def test_dump_leaves_modes_parameters_and_buffers_unchanged(self):
        model = M.build_model(M.ModelConfig.make("enhanced", **MICRO), seed=2).train()
        model.forward(_input(4, 32))  # running statistics away from their init
        model.stage3.eval()
        modes = [mod.training for _, mod in model.modules()]
        state = {name: t.data.copy() for name, t in
                 list(model.named_parameters()) + list(model.named_buffers())}
        M.layer_spec_dump(model)
        assert [mod.training for _, mod in model.modules()] == modes
        for name, t in list(model.named_parameters()) + list(model.named_buffers()):
            assert np.array_equal(t.data, state[name]), name
        assert all(p.grad is None for p in model.parameters())


class TestShapeSoundnessSweep:
    @pytest.mark.parametrize("seed", range(6))
    def test_random_configs_forward(self, seed):
        rng = np.random.default_rng(seed)
        variant = rng.choice(["baseline", "cbam", "enhanced"])
        overrides = dict(
            stage_blocks=tuple(int(b) for b in rng.integers(1, 3, size=4)),
            base_width=int(rng.choice([8, 16])),
            input_size=(int(rng.choice([32, 64])),) * 2,
            reduction_ratio=4,
            spatial_kernel=int(rng.choice([3, 7])),
            num_classes=int(rng.integers(2, 6)),
        )
        if variant == "enhanced":
            overrides["fusion_width"] = 16
        cfg = M.ModelConfig.make(str(variant), **overrides)
        model = M.build_model(cfg, seed=seed).eval()
        n = int(rng.integers(1, 3))
        logits = model.forward(_input(n, overrides["input_size"][0], seed=seed))
        assert logits.shape == (n, overrides["num_classes"])
