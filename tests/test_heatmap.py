from pathlib import Path

import numpy as np
import pytest

from shipnet import heatmap as H
from shipnet import tensor as T
from shipnet.data import decode_ppm
from shipnet.layers import watch
from shipnet.models import ModelConfig, build_model

from oracles import naive_gradcam

MICRO = dict(stage_blocks=(1, 1, 1, 1), base_width=8, input_size=(32, 32),
             reduction_ratio=4, spatial_kernel=3, fusion_width=16)


def _img(seed, size=32):
    return np.random.default_rng(seed).random((3, size, size)).astype(np.float32)


def _output_of(model, x, module):
    """Logits of ``x`` and the output of ``module`` in that forward."""
    kept = []

    def keep(mod, args, out):
        if mod is module:
            kept.append(out)

    with watch(keep):
        logits = model(x)
    return logits, kept[0]


def _cbam_model(seed=0):
    return build_model(ModelConfig.make("cbam", **MICRO), seed=seed)


class TestSpatialGateMap:
    def test_zero_weight_attention_uniform_half(self):
        model = _cbam_model()
        for _, mod in model.modules():
            if type(mod).__name__ == "SpatialAttention":
                mod.conv.weight.data[:] = 0
        heat = H.spatial_gate_map(model, _img(0), stage=5)
        assert heat.shape == (32, 32)
        assert np.allclose(heat, 0.5, atol=1e-6)

    def test_extents_match_input_after_upsample(self):
        model = _cbam_model()
        heat = H.spatial_gate_map(model, _img(1))
        assert heat.shape == (32, 32)
        assert heat.min() > 0 and heat.max() < 1

    def test_default_stage_is_deepest(self):
        model = _cbam_model()
        assert np.allclose(H.spatial_gate_map(model, _img(2)),
                           H.spatial_gate_map(model, _img(2), stage=5))

    def test_gate_max_location_invariant_to_channel_permutation(self):
        model = _cbam_model(seed=3)
        x = _img(4)
        model.eval()
        with T.no_grad():
            feat = _output_of(model, T.Tensor(x[None]), model.stage4)[1].data
        gate_block = model.stage5.items[0]

        def spatial_only(f):
            with T.no_grad():
                return gate_block.cbam.spatial(T.Tensor(f)).data

        g1 = spatial_only(feat)
        perm = np.random.default_rng(5).permutation(feat.shape[1])
        g2 = spatial_only(np.ascontiguousarray(feat[:, perm]))
        assert np.unravel_index(g1.argmax(), g1.shape) == np.unravel_index(
            g2.argmax(), g2.shape)

    def test_bypass_gated_model_exactly_uniform(self):
        from shipnet.attention import set_attention_bypass
        model = _cbam_model(seed=7)
        set_attention_bypass(model, True)
        heat = H.spatial_gate_map(model, _img(12))
        assert np.all(heat == 1.0)

    @pytest.mark.parametrize("stage", [1, 7])
    def test_stage_outside_the_backbone_rejected(self, stage):
        with pytest.raises(ValueError, match=r"not one of \(2, 3, 4, 5\)"):
            H.spatial_gate_map(_cbam_model(), _img(0), stage=stage)

    def test_baseline_has_no_gates(self):
        model = build_model(ModelConfig.make("baseline", **MICRO), seed=0)
        with pytest.raises(ValueError):
            H.spatial_gate_map(model, _img(0))


class TestGradcamMap:
    def test_zeroed_head_gives_zero_map(self):
        model = _cbam_model(seed=1)
        model.head.weight.data[:] = 0
        model.head.bias.data[:] = 0
        heat = H.gradcam_map(model, _img(3), stage=5, target_class=0)
        assert np.allclose(heat, 0.0)

    def test_minmax_normalization_attains_bounds(self):
        model = _cbam_model(seed=2)
        heat = H.gradcam_map(model, _img(4), stage=4, target_class=1)
        if heat.max() > 0:
            assert heat.min() == pytest.approx(0.0, abs=1e-7)
            assert heat.max() == pytest.approx(1.0, abs=1e-7)

    def test_matches_naive_weighted_sum_oracle(self):
        model = _cbam_model(seed=3)
        img = _img(5)
        model.eval()
        with T.no_grad():
            act = _output_of(model, T.Tensor(img[None]), model.stage5)[1]
        # reference gradient: the head (a cbam model has no fusion) run again
        # on a leaf copy of the stage-5 activation
        assert model.fusion is None
        leaf = T.Tensor(act.data, requires_grad=True)
        pooled = leaf.mean(axes=(2, 3), keepdims=True)
        model.head(pooled.reshape(pooled.shape[:2]))[0, 2].backward()
        ref_small = naive_gradcam(act.data[0].astype(np.float64),
                                  leaf.grad[0].astype(np.float64))
        heat = H.gradcam_map(model, img, stage=5, target_class=2)
        h, w = ref_small.shape
        # compare at the native stage resolution (before upsampling)
        from shipnet.data import resize_bilinear
        up = resize_bilinear(ref_small[None].astype(np.float32), (32, 32))[0]
        assert np.max(np.abs(heat - up)) < 1e-5

    @pytest.mark.parametrize("stage", [1, 7, None])
    def test_stage_outside_the_backbone_rejected(self, stage):
        with pytest.raises(ValueError, match=r"not one of \(2, 3, 4, 5\)"):
            H.gradcam_map(_cbam_model(), _img(0), stage=stage)

    def test_invariant_to_non_target_bias_shift(self):
        model = _cbam_model(seed=4)
        img = _img(6)
        h1 = H.gradcam_map(model, img, stage=5, target_class=0)
        model.head.bias.data[1] += 5.0
        model.head.bias.data[3] -= 2.0
        h2 = H.gradcam_map(model, img, stage=5, target_class=0)
        assert np.array_equal(h1, h2)

    @pytest.mark.parametrize("variant", ["baseline", "cbam", "enhanced"])
    def test_leaves_parameter_grads_as_found(self, variant):
        model = build_model(ModelConfig.make(variant, **MICRO), seed=6)
        params = list(model.parameters())
        for i, p in enumerate(params):
            p.grad = np.full_like(p.data, 7.0) if i % 2 else None
        before = [p.grad for p in params]
        H.gradcam_map(model, _img(13), stage=2, target_class=1)
        assert all(p.grad is g for p, g in zip(params, before))

    def test_walk_bounded_at_the_activation_gives_the_full_walk_bits(self):
        # the enhanced model's fusion laterals lead back into stages 3 and 4,
        # below the stage-5 activation; x as a second target walks them all
        model = build_model(ModelConfig.make("enhanced", **MICRO), seed=8).eval()
        grads = []
        for wrt_x in (False, True):
            x = T.Tensor(_img(9)[None], requires_grad=True)
            logits, act = _output_of(model, x, model.stage5)
            grads.append(T.grad(logits[0, 1], [act, x] if wrt_x else [act]))
        assert grads[1][1] is not None
        assert grads[0][0].tobytes() == grads[1][0].tobytes()

    def test_predicted_class_default(self):
        model = _cbam_model(seed=5)
        img = _img(7)
        model.eval()
        with T.no_grad():
            logits = model.forward(T.Tensor(img[None]))
        pred = int(logits.data[0].argmax())
        assert np.array_equal(H.gradcam_map(model, img, stage=5),
                              H.gradcam_map(model, img, stage=5, target_class=pred))


class TestOverlay:
    def test_zero_map_blue_tint(self):
        img = _img(8)
        out = H.overlay(img, np.zeros((32, 32), dtype=np.float32))
        gray = 0.299 * img[0] + 0.587 * img[1] + 0.114 * img[2]
        assert np.allclose(out[2], 0.5 * gray + 0.5, atol=1e-6)  # blue channel saturated
        assert np.allclose(out[0], 0.5 * gray, atol=1e-6)

    def test_ones_map_red_tint(self):
        img = _img(9)
        out = H.overlay(img, np.ones((32, 32), dtype=np.float32))
        gray = 0.299 * img[0] + 0.587 * img[1] + 0.114 * img[2]
        assert np.allclose(out[0], 0.5 * gray + 0.5, atol=1e-6)
        assert np.allclose(out[1], 0.5 * gray, atol=1e-6)
        assert np.allclose(out[2], 0.5 * gray, atol=1e-6)

    def test_values_within_unit_range_pre_quantization(self):
        img = _img(10)
        heat = np.random.default_rng(0).random((32, 32)).astype(np.float32)
        out = H.overlay(img, heat)
        assert out.min() >= 0.0 and out.max() <= 1.0 + 1e-6

    def test_emitted_file_roundtrips(self, tmp_path):
        img = _img(11)
        heat = np.random.default_rng(1).random((32, 32)).astype(np.float32)
        path = str(tmp_path / "overlay.ppm")
        H.overlay_emit(img, heat, path)
        back = decode_ppm(Path(path).read_bytes())
        assert back.shape == (3, 32, 32)
        assert np.max(np.abs(back - np.clip(H.overlay(img, heat), 0, 1))) <= 0.5 / 255 + 1e-6

    def test_extent_mismatch_rejected(self):
        with pytest.raises(ValueError):
            H.overlay(_img(0), np.zeros((16, 16), dtype=np.float32))

    def test_colormap_stops(self):
        cm = H.colormap(np.array([0.0, 0.5, 1.0]))
        assert np.allclose(cm[:, 0], [0, 0, 1])   # blue
        assert np.allclose(cm[:, 1], [1, 1, 0])   # yellow
        assert np.allclose(cm[:, 2], [1, 0, 0])   # red
