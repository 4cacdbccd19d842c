import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shipnet import layers as L
from shipnet import models as M
from shipnet import tensor as T
from shipnet.gradcheck import grad_check

from oracles import (naive_batchnorm2d_eval, naive_batchnorm2d_train, naive_conv2d,
                     naive_conv2d_vjp, naive_maxpool2d, naive_maxpool2d_vjp)


def _rand(shape, seed, scale=1.0, dtype=np.float64):
    rng = np.random.default_rng(seed)
    return rng.standard_normal(shape).astype(dtype) * scale


class TestWatch:
    def _call(self, mod):
        return mod(T.Tensor(np.ones((1, 3), dtype=np.float32)))

    def test_hook_sees_each_call_inside_the_block_only(self):
        mod = L.Linear(3, 2, T.make_rng(0))
        seen = []
        self._call(mod)
        with L.watch(lambda m, args, out: seen.append((m, args, out))):
            out = self._call(mod)
        self._call(mod)
        assert len(seen) == 1
        m, args, hooked = seen[0]
        assert m is mod and args[0].shape == (1, 3) and hooked is out

    def test_children_are_seen_before_their_parent(self):
        mod = L.DepthwiseSeparableConv2d(2, 3, 3, T.make_rng(0), padding=1)
        seen = []
        with L.watch(lambda m, args, out: seen.append(m)):
            mod(T.Tensor(np.ones((1, 2, 4, 4), dtype=np.float32)))
        assert seen == [mod.depthwise, mod.pointwise, mod]

    def test_nested_block_restores_the_outer_hook(self):
        mod = L.Linear(3, 2, T.make_rng(0))
        outer, inner = [], []
        with L.watch(lambda m, args, out: outer.append(m)):
            with L.watch(lambda m, args, out: inner.append(m)):
                self._call(mod)
            self._call(mod)
        self._call(mod)
        assert inner == [mod] and outer == [mod]

    def test_hook_restored_when_the_block_raises(self):
        mod = L.Linear(3, 2, T.make_rng(0))
        outer = []

        def failing(m, args, out):
            raise RuntimeError("hook failed")

        with L.watch(lambda m, args, out: outer.append(m)):
            with pytest.raises(RuntimeError, match="hook failed"):
                with L.watch(failing):
                    self._call(mod)
            self._call(mod)
        self._call(mod)
        assert outer == [mod]


class TestModuleMode:
    def test_train_and_eval_reach_every_module_including_list_items(self):
        model = M.build_model(M.ModelConfig.make(
            "enhanced", stage_blocks=(2, 1, 1, 1), base_width=8, input_size=(32, 32),
            reduction_ratio=4, spatial_kernel=3, fusion_width=16), seed=0)
        named = list(model.modules())
        mods = [m for _, m in named]
        # list children: the stage blocks and the fusion laterals
        assert {"stage2.items.0", "stage2.items.1", "fusion.laterals.2"} <= {n for n, _ in named}
        assert model.stage2.items[1].cbam.spatial in mods
        for mode, expected in ((model.eval, False), (model.train, True), (model.eval, False)):
            assert mode() is model
            assert [m.training for m in mods] == [expected] * len(mods)
        # setting the mode leaves the preorder walk and its names as they were
        assert list(model.modules()) == named

    def test_mode_of_a_submodule_leaves_its_parent(self):
        block = M.Bottleneck(8, 2, 1, T.make_rng(0))
        block.bn1.eval()
        assert block.training and not block.bn1.training and block.bn2.training


class TestConv2d:
    def test_1x1_identity_kernel(self):
        x = T.Tensor(np.arange(1, 10).reshape(1, 1, 3, 3))
        w = T.Tensor(np.ones((1, 1, 1, 1), dtype=np.float32))
        out = L.conv2d(x, w, None, L.Conv2dSpec(1, 1, 1, bias=False))
        assert np.array_equal(out.data, x.data)

    def test_window_sum(self):
        x = T.Tensor(np.arange(1, 10).reshape(1, 1, 3, 3))
        w = T.Tensor(np.ones((1, 1, 3, 3), dtype=np.float32))
        out = L.conv2d(x, w, None, L.Conv2dSpec(1, 1, 3, bias=False))
        assert out.shape == (1, 1, 1, 1)
        assert out.data.ravel()[0] == 45

    def test_dilated_taps(self):
        x = T.Tensor(np.ones((1, 1, 5, 5), dtype=np.float32))
        w = T.Tensor(np.ones((1, 1, 3, 3), dtype=np.float32))
        spec = L.Conv2dSpec(1, 1, 3, dilation=2, bias=False)
        out = L.conv2d(x, w, None, spec)
        assert out.shape == (1, 1, 1, 1)
        assert out.data.ravel()[0] == 9

    def test_channel_mismatch(self):
        x = T.zeros((1, 2, 4, 4))
        w = T.zeros((1, 1, 3, 3))
        with pytest.raises(ValueError):
            L.conv2d(x, w, None, L.Conv2dSpec(1, 1, 3, bias=False))

    def test_non_positive_output_extent(self):
        with pytest.raises(ValueError):
            L.Conv2dSpec(1, 1, 5, bias=False).output_size(3, 3)

    def test_groups_divisibility(self):
        with pytest.raises(ValueError):
            L.Conv2dSpec(3, 4, 3, groups=2)

    @pytest.mark.parametrize("seed", range(12))
    def test_randomized_configs_match_naive_oracle(self, seed):
        rng = np.random.default_rng(seed + 100)
        stride = int(rng.choice([1, 2]))
        pad = int(rng.choice([0, 1, 3]))
        dilation = int(rng.choice([1, 2]))
        c = int(rng.choice([2, 4]))
        groups = int(rng.choice([1, c]))
        cout = c * int(rng.choice([1, 2]))
        k = int(rng.choice([1, 3]))
        hw = int(rng.integers(6, 10))
        spec = L.Conv2dSpec(c, cout, k, stride=stride, padding=pad,
                            dilation=dilation, groups=groups, bias=True)
        if spec.output_size(hw, hw)[0] < 1:
            pytest.skip("degenerate geometry")
        x = _rand((2, c, hw, hw), seed, dtype=np.float32)
        w = _rand(spec.weight_shape(), seed + 1, 0.5, dtype=np.float32)
        b = _rand((cout,), seed + 2, 0.2, dtype=np.float32)
        out = L.conv2d(T.Tensor(x), T.Tensor(w), T.Tensor(b), spec)
        ref = naive_conv2d(x.astype(np.float64), w.astype(np.float64),
                           b.astype(np.float64), (stride, stride), (pad, pad),
                           (dilation, dilation), groups)
        assert np.max(np.abs(out.data - ref)) < 1e-5

    def test_backward_matches_finite_differences(self):
        spec = L.Conv2dSpec(3, 4, 3, stride=2, padding=1, bias=True)
        rng = T.make_rng(0)
        x = T.normal((2, 3, 6, 6), 1.0, rng, dtype=np.float64, requires_grad=True)
        w = T.normal(spec.weight_shape(), 0.5, rng, dtype=np.float64, requires_grad=True)
        b = T.normal((4,), 0.2, rng, dtype=np.float64, requires_grad=True)
        r = T.normal((2, 4, 3, 3), 1.0, rng, dtype=np.float64)
        err = grad_check(lambda a, ww, bb: (L.conv2d(a, ww, bb, spec) * r).sum(),
                         [x, w, b])
        assert err < 1e-4

    def test_vjp_matches_naive_oracle_on_randomized_configs(self):
        # the config stream of acceptance criterion 2 (same seed and draws)
        rng = np.random.default_rng(20240816)
        grad_rng = np.random.default_rng(1)
        seen = set()
        checked = 0
        while checked < 60:
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
                ho, wo = spec.output_size(hw, hw)
            except ValueError:
                continue
            n = int(rng.integers(1, 3))
            x = rng.standard_normal((n, c, hw, hw)).astype(np.float32)
            w = (rng.standard_normal(spec.weight_shape()) * 0.5).astype(np.float32)
            b = (rng.standard_normal(cout) * 0.2).astype(np.float32) if spec.bias else None
            grad = grad_rng.standard_normal((n, cout, ho, wo)).astype(np.float32)
            xt = T.Tensor(x, requires_grad=True)
            wt = T.Tensor(w, requires_grad=True)
            bt = T.Tensor(b, requires_grad=True) if b is not None else None
            grads = L.conv2d(xt, wt, bt, spec)._vjp(grad)
            refs = naive_conv2d_vjp(x, w, grad, spec.stride, spec.padding, spec.dilation,
                                    groups)
            for got, ref, like in zip(grads, refs, (x, w, b)):
                assert got.shape == like.shape and got.dtype == np.float32, spec
                assert np.max(np.abs(got - ref)) < 1e-4, spec
            seen.update({("groups=c>1", groups == c > 1), ("k1 gaps", k == 1 and stride == 2),
                         ("dilation 2", dil == 2), ("pad > kernel", pad == 3 > k),
                         ("n", n), ("channel-major columns", k == 1 and pad == 0)})
            checked += 1
        assert {("groups=c>1", True), ("k1 gaps", True), ("dilation 2", True),
                ("pad > kernel", True), ("n", 1), ("n", 2),
                ("channel-major columns", True), ("channel-major columns", False)} <= seen

    @pytest.mark.parametrize("spec, hw, x_grad", [
        # unpadded 1x1, strided and grouped: channel-major columns
        (L.Conv2dSpec(4, 6, 1, stride=2, groups=2), (7, 6), True),
        # k x k at stride 2: batch-innermost columns
        (L.Conv2dSpec(3, 4, 3, stride=2, padding=1), (7, 8), True),
        # dilated depthwise with a channel multiplier
        (L.Conv2dSpec(4, 8, 3, padding=2, dilation=2, groups=4, bias=False), (6, 5), True),
        # the stem geometry, whose input takes no gradient
        (L.Conv2dSpec(3, 8, 7, stride=2, padding=3, bias=False), (12, 11), False),
    ])
    def test_batch_of_five_matches_naive_oracle(self, spec, hw, x_grad):
        rng = np.random.default_rng(5)
        x = rng.standard_normal((5, spec.in_channels) + hw).astype(np.float32)
        w = (rng.standard_normal(spec.weight_shape()) * 0.5).astype(np.float32)
        b = (rng.standard_normal(spec.out_channels) * 0.2).astype(np.float32)
        bias = T.Tensor(b, requires_grad=True) if spec.bias else None
        out = L.conv2d(T.Tensor(x, requires_grad=x_grad), T.Tensor(w, requires_grad=True),
                       bias, spec)
        ref = naive_conv2d(x, w, b if spec.bias else None, spec.stride, spec.padding,
                           spec.dilation, spec.groups)
        assert out.shape == ref.shape and np.max(np.abs(out.data - ref)) < 1e-4
        grad = rng.standard_normal(ref.shape).astype(np.float32)
        grads = out._vjp(grad)
        refs = naive_conv2d_vjp(x, w, grad, spec.stride, spec.padding, spec.dilation,
                                spec.groups)
        if not x_grad:
            assert grads[0] is None
        for got, want in zip(grads[int(not x_grad):], refs[int(not x_grad):]):
            assert got.dtype == np.float32 and got.shape == want.shape
            assert np.max(np.abs(got - want)) < 1e-4

    @pytest.mark.parametrize("spec, hw", [
        # CBAM's spatial gate: [avg, max] -> 1, 7x7
        (L.Conv2dSpec(2, 1, 7, padding=3, bias=False), (8, 8)),
        # the enhanced model's dilated spatial gate: per-pool 7x7 at dilation 2
        (L.Conv2dSpec(2, 2, 7, padding=6, dilation=2, groups=2, bias=False), (8, 8)),
        # unpadded stride-1 1x1: at batch 1 its columns are a view of x
        (L.Conv2dSpec(4, 6, 1), (5, 7)),
    ])
    def test_batch_of_one_matches_float64_oracle_and_leaves_x(self, spec, hw):
        rng = np.random.default_rng(11)
        x = rng.standard_normal((1, spec.in_channels) + hw).astype(np.float32)
        w = (rng.standard_normal(spec.weight_shape()) * 0.5).astype(np.float32)
        b = (rng.standard_normal(spec.out_channels) * 0.2).astype(np.float32)
        xt = T.Tensor(x, requires_grad=True)
        bias = T.Tensor(b, requires_grad=True) if spec.bias else None
        out = L.conv2d(xt, T.Tensor(w, requires_grad=True), bias, spec)
        assert np.array_equal(xt.data, x)
        x64, w64 = x.astype(np.float64), w.astype(np.float64)
        ref = naive_conv2d(x64, w64, b.astype(np.float64) if spec.bias else None,
                           spec.stride, spec.padding, spec.dilation, spec.groups)
        assert out.shape == ref.shape and np.max(np.abs(out.data - ref)) < 1e-4
        grad = rng.standard_normal(ref.shape).astype(np.float32)
        gx, gw = out._vjp(grad)[:2]
        ref_gx, ref_gw, _ = naive_conv2d_vjp(x64, w64, grad.astype(np.float64), spec.stride,
                                             spec.padding, spec.dilation, spec.groups)
        assert np.array_equal(xt.data, x)
        for got, want in ((gx, ref_gx), (gw, ref_gw)):
            assert got.dtype == np.float32 and got.shape == want.shape
            assert np.max(np.abs(got - want)) < 1e-4

    def test_im2col_equals_matmul_form_base_case(self):
        # stride 1, pad 0, dilation 1, groups 1: conv equals explicit im2col matmul
        x = _rand((2, 3, 6, 6), 7, dtype=np.float32)
        w = _rand((4, 3, 3, 3), 8, dtype=np.float32)
        spec = L.Conv2dSpec(3, 4, 3, bias=False)
        out = L.conv2d(T.Tensor(x), T.Tensor(w), None, spec)
        cols = np.stack([
            x[n, :, i : i + 3, j : j + 3].ravel()
            for n in range(2) for i in range(4) for j in range(4)
        ])
        ref = (cols @ w.reshape(4, -1).T).reshape(2, 4, 4, 4).transpose(0, 3, 1, 2)
        assert np.max(np.abs(out.data - ref)) < 1e-6


class TestDepthwiseSeparable:
    def test_parameter_count_arithmetic(self):
        mod = L.DepthwiseSeparableConv2d(64, 64, 3, T.make_rng(0), padding=1, bias=False)
        assert mod.param_count() == 576 + 4096
        dense = L.Conv2d(L.Conv2dSpec(64, 64, 3, padding=1, bias=False), None)
        assert dense.param_count() == 36864
        assert mod.param_count() < dense.param_count()

    def test_delta_kernel_identity(self):
        c = 3
        mod = L.DepthwiseSeparableConv2d(c, c, 3, T.make_rng(0), padding=1, bias=False)
        dw = np.zeros((c, 1, 3, 3), dtype=np.float32)
        dw[:, 0, 1, 1] = 1.0
        mod.depthwise.weight.data = dw
        mod.pointwise.weight.data = np.eye(c, dtype=np.float32).reshape(c, c, 1, 1)
        x = T.Tensor(_rand((2, c, 5, 5), 3, dtype=np.float32))
        out = mod(x)
        assert np.allclose(out.data, x.data, atol=1e-6)

    def test_matches_two_step_naive(self):
        mod = L.DepthwiseSeparableConv2d(4, 6, 3, T.make_rng(1), padding=1, bias=False)
        x = _rand((2, 4, 6, 6), 11, dtype=np.float32)
        out = mod(T.Tensor(x))
        mid = naive_conv2d(x.astype(np.float64),
                           mod.depthwise.weight.data.astype(np.float64),
                           padding=(1, 1), groups=4)
        ref = naive_conv2d(mid, mod.pointwise.weight.data.astype(np.float64))
        assert np.max(np.abs(out.data - ref)) < 1e-6

    def test_spec_violation(self):
        with pytest.raises(ValueError):
            L.Conv2dSpec(4, 6, 3, groups=4)  # groups must divide out_channels


class TestBatchNorm:
    def test_constant_input_zeros(self):
        bn = L.BatchNorm2d(3)
        out = bn(T.Tensor(np.full((2, 3, 4, 4), 5.0, dtype=np.float32)))
        assert np.allclose(out.data, 0.0, atol=1e-3)

    def test_gamma_zero_gives_beta(self):
        bn = L.BatchNorm2d(2)
        bn.gamma.data = np.zeros(2, dtype=np.float32)
        bn.beta.data = np.array([1.5, -0.5], dtype=np.float32)
        out = bn(T.Tensor(_rand((2, 2, 3, 3), 0, dtype=np.float32)))
        assert np.allclose(out.data[:, 0], 1.5, atol=1e-6)
        assert np.allclose(out.data[:, 1], -0.5, atol=1e-6)

    def test_train_gradients_vs_finite_differences(self):
        bn = L.BatchNorm2d(2).astype(np.float64)
        rng = T.make_rng(4)
        x = T.normal((4, 2, 3, 3), 1.0, rng, dtype=np.float64, requires_grad=True)
        r = T.normal((4, 2, 3, 3), 1.0, rng, dtype=np.float64)
        err = grad_check(lambda a, g, b: (_bn_with(bn, a, g, b) * r).sum(),
                         [x, bn.gamma, bn.beta])
        assert err < 1e-4

    def test_single_sample_1x1_spatial_train(self):
        bn = L.BatchNorm2d(2)
        out = bn(T.Tensor(np.full((1, 2, 1, 1), 3.0, dtype=np.float32)))
        assert np.all(np.isfinite(out.data))
        assert np.allclose(out.data, 0.0, atol=1e-2)  # zero variance clamped by eps

    def test_eval_mode_batch_independence(self):
        bn = L.BatchNorm2d(3)
        # accumulate running stats in train mode
        for seed in range(3):
            bn(T.Tensor(_rand((4, 3, 5, 5), seed, dtype=np.float32)))
        bn.eval()
        batch = _rand((4, 3, 5, 5), 9, dtype=np.float32)
        together = bn(T.Tensor(batch)).data
        alone = bn(T.Tensor(batch[:1])).data
        assert np.array_equal(together[:1], alone)

    def test_running_var_nonnegative(self):
        bn = L.BatchNorm2d(2)
        for seed in range(5):
            bn(T.Tensor(_rand((3, 2, 4, 4), seed, dtype=np.float32)))
        assert np.all(bn.running_var.data >= 0)


def _bn_case(c, n, hw, seed):
    rng = np.random.default_rng(seed)
    bn = L.BatchNorm2d(c, momentum=0.3).astype(np.float64)
    bn.gamma.data = rng.uniform(0.5, 2.0, c)
    bn.beta.data = rng.standard_normal(c)
    bn.running_mean.data = rng.standard_normal(c)
    bn.running_var.data = rng.uniform(0.5, 2.0, c)
    # per-channel offsets and scales, so a statistic taken from the wrong
    # channel shows
    x = rng.standard_normal((n, c) + hw) * rng.uniform(0.5, 3.0, (1, c, 1, 1))
    x += rng.uniform(-2.0, 2.0, (1, c, 1, 1))
    grad = rng.standard_normal(x.shape) + rng.uniform(-1.0, 1.0, (1, c, 1, 1))
    return bn, x, grad


class TestBatchNormOracle:
    CASES = [(n, hw) for n in (1, 2, 5) for hw in ((1, 1), (2, 2), (3, 5))]

    @pytest.mark.parametrize("n, hw", CASES)
    def test_train_matches_naive_oracle(self, n, hw):
        bn, x, grad = _bn_case(3, n, hw, seed=n * 10 + hw[1])
        ref = naive_batchnorm2d_train(x, bn.gamma.data, bn.beta.data, grad,
                                      bn.running_mean.data, bn.running_var.data,
                                      momentum=bn.momentum, eps=bn.eps)
        out = bn(T.Tensor(x, requires_grad=True))
        got = (out.data, bn.running_mean.data, bn.running_var.data) + out._vjp(grad)
        for g, r in zip(got, ref):
            assert g.shape == r.shape and np.allclose(g, r, rtol=1e-9, atol=1e-9)

    @pytest.mark.parametrize("n, hw", CASES)
    def test_eval_matches_naive_oracle(self, n, hw):
        bn, x, grad = _bn_case(4, n, hw, seed=n * 10 + hw[1] + 100)
        bn.eval()
        ref = naive_batchnorm2d_eval(x, bn.gamma.data, bn.beta.data, grad,
                                     bn.running_mean.data, bn.running_var.data, eps=bn.eps)
        out = bn(T.Tensor(x, requires_grad=True))
        for g, r in zip((out.data,) + out._vjp(grad), ref):
            assert g.shape == r.shape and np.allclose(g, r, rtol=1e-9, atol=1e-9)


def _bn_with(bn, x, gamma, beta):
    bn.gamma, bn.beta = gamma, beta
    return bn(x)


class TestMaxPool:
    def test_2x2(self):
        out = L.maxpool2d(T.Tensor(np.asarray([1, 2, 3, 4]).reshape(1, 1, 2, 2)), 2, 2)
        assert out.data.ravel()[0] == 4

    def test_constant_input(self):
        out = L.maxpool2d(T.Tensor(np.full((1, 2, 4, 4), 3.0, dtype=np.float32)), 2, 2)
        assert np.all(out.data == 3.0)

    def test_matches_naive_oracle(self):
        x = _rand((1, 1, 6, 6), 21, dtype=np.float32)
        out = L.maxpool2d(T.Tensor(x), 3, 2)
        ref = naive_maxpool2d(x.astype(np.float64), (3, 3), (2, 2))
        assert np.array_equal(out.data, ref.astype(np.float32))

    def test_padded_matches_naive_oracle(self):
        x = _rand((2, 3, 7, 7), 22, dtype=np.float32)
        out = L.maxpool2d(T.Tensor(x), 3, 2, 1)
        ref = naive_maxpool2d(x.astype(np.float64), (3, 3), (2, 2), (1, 1))
        assert np.array_equal(out.data, ref.astype(np.float32))

    def test_backward_routes_to_first_argmax(self):
        x = T.Tensor(np.asarray([5, 5, 1, 1]).reshape(1, 1, 2, 2), dtype=np.float64,
                     requires_grad=True)
        L.maxpool2d(x, 2, 2).sum().backward()
        assert np.array_equal(x.grad.ravel(), [1, 0, 0, 0])

    def test_backward_matches_naive_oracle_with_overlaps_and_ties(self):
        # k3 s2 p1 as in the stem: windows overlap, and a 3-level input
        # makes exact ties in most windows
        rng = np.random.default_rng(23)
        x = rng.integers(0, 3, (2, 3, 9, 8)).astype(np.float32)
        xt = T.Tensor(x, requires_grad=True)
        out = L.maxpool2d(xt, 3, 2, 1)
        grad = rng.standard_normal(out.shape).astype(np.float32)
        (gx,) = out._vjp(grad)
        ref = naive_maxpool2d_vjp(x, grad, (3, 3), (2, 2), (1, 1))
        assert gx.shape == x.shape and gx.dtype == np.float32
        assert np.max(np.abs(gx - ref)) < 1e-6

    def test_nan_in_window_propagates(self):
        x = _rand((1, 2, 6, 6), 24, dtype=np.float32)
        x[0, 1, 2, 3] = np.nan
        out = L.maxpool2d(T.Tensor(x), 3, 2, 1).data
        # windows (rows 2i-1..2i+1, cols 2j-1..2j+1) holding (2, 3): i in {1}, j in {1, 2}
        nan_at = np.zeros(out.shape, dtype=bool)
        nan_at[0, 1, 1, 1:3] = True
        assert np.array_equal(np.isnan(out), nan_at)
        ref = naive_maxpool2d(x.astype(np.float64), (3, 3), (2, 2), (1, 1))
        assert np.array_equal(out[~nan_at], ref[~nan_at].astype(np.float32))

    def test_pad_not_smaller_than_kernel(self):
        with pytest.raises(ValueError):
            L.maxpool2d(T.zeros((1, 1, 4, 4)), 2, 2, 2)


class TestGlobalPool:
    def test_avg(self):
        x = T.Tensor(np.asarray([1, 3, 5, 7]).reshape(1, 1, 2, 2))
        assert x.mean(axes=(2, 3), keepdims=True).data.ravel()[0] == 4

    def test_mean_max_constant(self):
        x = T.Tensor(np.full((2, 3, 4, 4), 2.5, dtype=np.float32))
        assert np.all(T.mean_max(x, (2, 3), 0).data == 2.5)

    def test_avg_equals_mean_reduce(self):
        x = T.Tensor(_rand((2, 3, 4, 4), 5, dtype=np.float32))
        assert np.allclose(x.mean(axes=(2, 3), keepdims=True).data,
                           x.data.mean(axis=(2, 3), keepdims=True), rtol=1e-6, atol=0)


def _held_bytes(op, peak=False):
    """(result, bytes still allocated once ``op()`` has returned, or with
    ``peak`` the most allocated while it ran, above what was allocated
    before); a first unmeasured call warms numpy's and the interpreter's
    caches."""
    op()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        out = op()
        return out, tracemalloc.get_traced_memory()[1 if peak else 0] - before
    finally:
        tracemalloc.stop()


# what a recorded op holds besides arrays: closures, tap slices, tensor objects
_SLACK = 8 * 1024


class TestTapeHoldsOnlyWhatBackwardReads:
    """A recorded train-mode forward holds its output and only those buffers
    its vjp cannot rebuild from the parents' data."""

    def _leaf(self, shape):
        return T.Tensor(_rand(shape, 0, dtype=np.float32), requires_grad=True)

    @pytest.mark.parametrize("groups,bias", [(1, True), (16, False)])
    def test_padded_3x3_conv_holds_output_and_padded_input(self, groups, bias):
        x = self._leaf((8, 16, 8, 8))
        conv = L.Conv2d(L.Conv2dSpec(16, 16, 3, padding=1, groups=groups, bias=bias),
                        np.random.default_rng(1))
        out, held = _held_bytes(lambda: conv(x))
        assert out.requires_grad
        padded = 16 * 10 * 10 * 8 * 4  # (C, Hp, Wp, N) float32
        assert held <= out.data.nbytes + padded + _SLACK

    def test_unpadded_strided_1x1_conv_holds_only_output(self):
        x = self._leaf((8, 32, 16, 16))
        conv = L.Conv2d(L.Conv2dSpec(32, 32, 1, stride=2), np.random.default_rng(1))
        out, held = _held_bytes(lambda: conv(x))
        assert out.shape == (8, 32, 8, 8)
        assert held <= out.data.nbytes + _SLACK

    def test_train_batchnorm_holds_only_output(self):
        x = self._leaf((8, 16, 8, 8))
        bn = L.BatchNorm2d(16)
        out, held = _held_bytes(lambda: bn(x))
        assert held <= out.data.nbytes + _SLACK

    @pytest.mark.parametrize("batch_inner", [False, True])
    @pytest.mark.parametrize("axes,axis", [((2, 3), 0), ((1,), 1)])
    def test_mean_max_holds_only_output(self, axes, axis, batch_inner):
        # the vjp finds each group's max again from x, so no mask, argmax or
        # batch-innermost copy of x waits for the walk
        x = self._leaf((8, 16, 8, 8))
        if batch_inner:
            x = _tensor_as_is(_batch_inner(x.data), True)
        out, held = _held_bytes(lambda: T.mean_max(x, axes, axis))
        assert out.requires_grad and held <= out.data.nbytes + _SLACK

    def test_full_preset_baseline_forward_keeps_no_pre_activation_copy(self):
        # 311.6 MiB while every batch-norm output, residual sum and ReLU
        # output stayed on the tape; 196.1 MiB with the fused ReLUs
        model = M.build_model(M.ModelConfig.make("baseline", preset="full"), seed=0)
        x = T.Tensor(_rand((2, 3, 224, 224), 0, dtype=np.float32))
        out, held = _held_bytes(lambda: model(x))
        assert out.requires_grad and held <= 240 * 2**20

    @pytest.mark.parametrize("make,shape", [
        (lambda: L.Conv2d(L.Conv2dSpec(16, 16, 3, padding=1), np.random.default_rng(1)),
         (8, 16, 8, 8)),
        (lambda: L.Conv2d(L.Conv2dSpec(16, 16, 3, padding=1, groups=16, bias=False),
                          np.random.default_rng(1)), (8, 16, 8, 8)),
        (lambda: L.Conv2d(L.Conv2dSpec(16, 16, 3, padding=2, dilation=2),
                          np.random.default_rng(1)), (8, 16, 8, 8)),
        (lambda: L.Conv2d(L.Conv2dSpec(3, 16, 7, stride=2, padding=3, bias=False),
                          np.random.default_rng(1)), (8, 3, 32, 32)),
        (lambda: L.MaxPool2d(3, 2, 1), (8, 16, 16, 16)),
    ], ids=["3x3", "3x3-depthwise", "3x3-dilated", "stem-7x7-s2-p3", "maxpool-k3-s2-p1"])
    def test_padded_op_holds_only_output(self, make, shape):
        # the vjp pads x again, so no (C, Hp, Wp, N) copy waits for the walk
        op, x = make(), self._leaf(shape)
        out, held = _held_bytes(lambda: op(x))
        assert out.requires_grad and held <= out.data.nbytes + _SLACK

    def test_full_preset_baseline_forward_keeps_no_padded_copy(self):
        # 196.1 MiB while each padded conv and the max pool kept a padded
        # copy of its input; 171.8 MiB once their vjps pad again
        model = M.build_model(M.ModelConfig.make("baseline", preset="full"), seed=0)
        x = T.Tensor(_rand((2, 3, 224, 224), 0, dtype=np.float32))
        out, held = _held_bytes(lambda: model(x))
        assert out.requires_grad and held <= 180 * 2**20


def _batch_inner(a):
    """The values of the NCHW array ``a``, stored (C, H, W, N) behind the same shape."""
    return np.ascontiguousarray(a.transpose(1, 2, 3, 0)).transpose(3, 0, 1, 2)


def _tensor_as_is(data, requires_grad):
    t = T.Tensor(data, requires_grad=requires_grad)
    t.data = data  # the constructor copies a batch-innermost view to NCHW order
    return t


def _bn(training, relu=False):
    rng = np.random.default_rng(5)
    bn = L.BatchNorm2d(6, relu=relu)
    bn.gamma.data = rng.uniform(0.5, 2.0, 6).astype(np.float32)
    bn.beta.data = rng.standard_normal(6).astype(np.float32)
    bn.running_mean.data = rng.standard_normal(6).astype(np.float32)
    bn.running_var.data = rng.uniform(0.5, 2.0, 6).astype(np.float32)
    return bn if training else bn.eval()


def _conv(*spec, **kwargs):
    return lambda: L.Conv2d(L.Conv2dSpec(*spec, **kwargs), np.random.default_rng(1))


class _MeanMax(L.Module):
    """CBAM's pooled descriptors: over (2, 3) along N, over (1,) along C."""

    def __init__(self, axes, axis):
        super().__init__()
        self.axes, self.axis = axes, axis

    def forward(self, x):
        return T.mean_max(x, self.axes, self.axis)


# name: (module factory, input channels, whether x requires grad)
_LAYOUT_CASES = {
    "stem-7x7-s2-p3": (_conv(3, 8, 7, stride=2, padding=3, bias=False), 3, False),
    "3x3-s1": (_conv(6, 5, 3, padding=1), 6, True),
    "3x3-s2": (_conv(6, 5, 3, stride=2, padding=1, bias=False), 6, True),
    "3x3-dilated": (_conv(6, 6, 3, padding=2, dilation=2), 6, True),
    "1x1-s1": (_conv(6, 8, 1), 6, True),
    "1x1-s2": (_conv(6, 8, 1, stride=2, bias=False), 6, True),
    "1x1-padded": (_conv(6, 4, 1, padding=1), 6, True),
    "depthwise-x2": (_conv(6, 12, 3, padding=1, groups=6, bias=False), 6, True),
    "grouped": (_conv(6, 4, 3, padding=1, groups=2), 6, True),
    "batchnorm-train": (lambda: _bn(True), 6, True),
    "batchnorm-eval": (lambda: _bn(False), 6, True),
    "batchnorm-relu-train": (lambda: _bn(True, relu=True), 6, True),
    "batchnorm-relu-eval": (lambda: _bn(False, relu=True), 6, True),
    "maxpool-k3-s2-p1": (lambda: L.MaxPool2d(3, 2, 1), 6, True),
    "mean-max-over-hw": (lambda: _MeanMax((2, 3), 0), 6, True),
    "mean-max-over-channels": (lambda: _MeanMax((1,), 1), 6, True),
}


class TestLayoutInvariance:
    """Conv, batch norm, max pool and the pooled mean/max descriptors give
    bitwise the same output and vjp gradients whether their input, and the
    incoming gradient, is NCHW-contiguous or a batch-innermost view of the
    same values."""

    @pytest.mark.parametrize("n", [1, 3])
    @pytest.mark.parametrize("case", list(_LAYOUT_CASES))
    def test_either_memory_order_gives_the_same_bits(self, case, n):
        make, channels, x_grad = _LAYOUT_CASES[case]
        rng = np.random.default_rng(n)
        x = rng.standard_normal((n, channels, 9, 9)).astype(np.float32)
        g = None
        results = []
        for x_layout in (np.copy, _batch_inner):
            out = make()(_tensor_as_is(x_layout(x), x_grad))
            if g is None:
                g = rng.standard_normal(out.shape).astype(np.float32)
            for g_layout in (np.copy, _batch_inner):
                results.append((out.data,) + tuple(out._vjp(g_layout(g))))
        if x_grad:
            assert results[0][1].shape == x.shape
        else:
            assert results[0][1] is None
        for other in results[1:]:
            _assert_same_bits(results[0], other)


class TestGateProduct:
    """A broadcast operand of ``*`` (a CBAM gate) gets the product with the
    other operand summed over its broadcast axes, from one einsum."""

    @pytest.mark.parametrize("batch_inner", [False, True])
    @pytest.mark.parametrize("gate_first", [False, True])
    @pytest.mark.parametrize("gate_shape", [(3, 4, 1, 1), (3, 1, 5, 6)],
                             ids=["channel-gate", "spatial-gate"])
    def test_gate_gradient_is_the_reduced_product(self, gate_shape, gate_first, batch_inner):
        rng = np.random.default_rng(21)
        x = rng.standard_normal((3, 4, 5, 6))
        gate = rng.standard_normal(gate_shape)
        g = rng.standard_normal(x.shape)
        layout = _batch_inner if batch_inner else np.copy
        xt = _tensor_as_is(layout(x), True)
        gt = T.Tensor(gate, dtype=np.float64, requires_grad=True)
        out = gt * xt if gate_first else xt * gt
        grads = out._vjp(layout(g))
        g_gate, g_x = grads if gate_first else grads[::-1]
        axes = tuple(i for i, s in enumerate(gate_shape) if s == 1)
        assert g_gate.shape == gate_shape
        assert np.allclose(g_gate, (g * x).sum(axis=axes, keepdims=True), rtol=1e-12, atol=1e-12)
        assert np.array_equal(g_x, g * gate)


def _assert_same_bits(wants, gots):
    for want, got in zip(wants, gots, strict=True):
        assert (want is None) == (got is None)
        if want is not None:
            assert want.shape == got.shape and want.dtype == got.dtype
            assert np.ascontiguousarray(want).tobytes() == np.ascontiguousarray(got).tobytes()


_LAYOUTS = (np.copy, _batch_inner)


class TestFusedReluMatchesTheComposition:
    """``BatchNorm2d(relu=True)`` and ``residual_relu`` give bitwise the
    output and vjp gradients of the unfused op followed by ``.relu()``, in
    either memory order of the inputs and the incoming gradient, and leave
    that gradient unwritten."""

    @pytest.mark.parametrize("n", [1, 3])
    @pytest.mark.parametrize("training", [True, False])
    def test_batchnorm_relu(self, training, n):
        rng = np.random.default_rng(n)
        x = rng.standard_normal((n, 6, 9, 9)).astype(np.float32)
        g = rng.standard_normal(x.shape).astype(np.float32)
        for x_layout in _LAYOUTS:
            fused_bn, bn = _bn(training, relu=True), _bn(training)
            fused = fused_bn(_tensor_as_is(x_layout(x), True))
            pre = bn(_tensor_as_is(x_layout(x), True))
            composed = pre.relu()
            for g_layout in _LAYOUTS:
                g_in = g_layout(g)
                want = (composed.data,) + pre._vjp(*composed._vjp(g_in))
                _assert_same_bits(want, (fused.data,) + fused._vjp(g_in))
                assert np.array_equal(g_in, g)
            _assert_same_bits((bn.running_mean.data, bn.running_var.data),
                              (fused_bn.running_mean.data, fused_bn.running_var.data))

    @pytest.mark.parametrize("n", [1, 3])
    def test_residual_relu(self, n):
        rng = np.random.default_rng(n + 10)
        a, b, g = (rng.standard_normal((n, 6, 9, 9)).astype(np.float32) for _ in range(3))
        for a_layout, b_layout, g_layout in itertools.product(_LAYOUTS, repeat=3):
            total = _tensor_as_is(a_layout(a), True) + _tensor_as_is(b_layout(b), True)
            composed = total.relu()
            fused = L.residual_relu(_tensor_as_is(a_layout(a), True),
                                    _tensor_as_is(b_layout(b), True))
            g_in = g_layout(g)
            want = (composed.data,) + total._vjp(*composed._vjp(g_in))
            _assert_same_bits(want, (fused.data,) + fused._vjp(g_in))
            assert np.array_equal(g_in, g)
            assert np.shares_memory(fused.data, fused._parents[0].data)


def _conv_run(make, x, x_grad, rng):
    """(output, x gradient, weight gradient[, bias gradient]) of one conv call
    on the batch-innermost ``x``, for a batch-innermost incoming gradient."""
    out = make()(_tensor_as_is(_batch_inner(x), x_grad))
    g = _batch_inner(rng.standard_normal(out.shape).astype(np.float32))
    return (out.data,) + tuple(out._vjp(g))


_CONV_CASES = [name for name in _LAYOUT_CASES if not name.startswith(("batchnorm", "max"))]

# tiny-preset shapes at batch 32 that the default block size splits into
# 2-11 blocks of output rows: stem, stage-1 3x3, a stride-2 3x3, both
# spatial gates (one output channel per group) and a depthwise 3x3; the
# stem with an input that needs no gradient (the model's first conv), whose
# weight gradient runs in blocks of kernel rows; and the cbam spatial gate
# at batch 64 and 128, whose weight gradient is a gemv that must stay one
# block (at 128 the 1e6 floor alone would split it by channels)
_MODEL_SHAPE_CASES = {
    "stem": (_conv(3, 16, 7, stride=2, padding=3, bias=False), (32, 3, 64, 64), True),
    "stem-weight-grad": (_conv(3, 16, 7, stride=2, padding=3, bias=False), (32, 3, 64, 64), False),
    "3x3-s1": (_conv(16, 16, 3, padding=1, bias=False), (32, 16, 16, 16), True),
    "3x3-s2": (_conv(32, 32, 3, stride=2, padding=1, bias=False), (32, 32, 16, 16), True),
    "spatial-gate": (_conv(2, 1, 7, padding=3), (32, 2, 16, 16), True),
    "spatial-gate-b64": (_conv(2, 1, 7, padding=3), (64, 2, 16, 16), True),
    "spatial-gate-b128": (_conv(2, 1, 7, padding=3), (128, 2, 16, 16), True),
    "dilated-gate": (_conv(2, 2, 7, padding=6, dilation=2, groups=2), (32, 2, 16, 16), True),
    "depthwise": (_conv(64, 64, 3, padding=1, groups=64, bias=False), (32, 64, 8, 8), True),
}


class TestConvRowBlocks:
    """A k x k conv builds its forward columns, and its input gradient's
    columns, one block of output rows at a time, at most ``_BLOCK_BYTES``
    each, and the block size changes no gradient bit."""

    @pytest.mark.parametrize("n", [1, 3])
    @pytest.mark.parametrize("case", _CONV_CASES)
    def test_one_row_per_block_keeps_every_gradient_bit(self, case, n, monkeypatch):
        make, channels, x_grad = _LAYOUT_CASES[case]
        x = np.random.default_rng(n).standard_normal((n, channels, 9, 9)).astype(np.float32)
        want = _conv_run(make, x, x_grad, np.random.default_rng(7))
        monkeypatch.setattr(L, "_BLOCK_BYTES", 1)
        got = _conv_run(make, x, x_grad, np.random.default_rng(7))
        _assert_same_bits(want[1:], got[1:])
        # OpenBLAS rounds a product of M*N*K <= 1e6 by kernels that depend
        # on the call's width, so at these sizes a one-row block can move
        # the forward's last bit (7.2e-7 at most here); model shapes below
        # keep every bit
        assert np.allclose(got[0], want[0], rtol=1e-6, atol=1e-6)

    @pytest.mark.parametrize("case", list(_MODEL_SHAPE_CASES))
    def test_model_shapes_keep_every_bit(self, case, monkeypatch):
        make, shape, x_grad = _MODEL_SHAPE_CASES[case]
        x = _rand(shape, 3, dtype=np.float32)
        got = _conv_run(make, x, x_grad, np.random.default_rng(7))
        monkeypatch.setattr(L, "_BLOCK_BYTES", 2**40)  # one block
        want = _conv_run(make, x, x_grad, np.random.default_rng(7))
        _assert_same_bits(want, got)

    def test_stem_forward_holds_one_block_of_columns(self):
        # the whole (147, 32*32*32) column matrix is 19.3 MB
        conv = _conv(3, 16, 7, stride=2, padding=3, bias=False)()
        x = T.Tensor(_rand((32, 3, 64, 64), 0, dtype=np.float32))
        out, peak = _held_bytes(lambda: conv(x), peak=True)
        padded = 3 * 70 * 70 * 32 * 4
        assert peak <= out.data.nbytes + padded + L._BLOCK_BYTES + _SLACK

    @pytest.mark.parametrize("weight_grad", [False, True])
    def test_vjp_holds_one_block_of_input_gradient_columns(self, weight_grad):
        # the whole (144, 16*16*32) column matrix, and its gradient, is 4.7 MB;
        # the weight gradient frees each block of it before the next, and
        # before gx's blocks
        conv = _conv(16, 16, 3, padding=1, bias=False)()
        conv.weight.requires_grad = weight_grad
        x = T.Tensor(_batch_inner(_rand((32, 16, 16, 16), 0, dtype=np.float32)),
                     requires_grad=True)
        out = conv(x)
        g = _batch_inner(_rand(out.shape, 1, dtype=np.float32))
        (gx, gw), peak = _held_bytes(lambda: out._vjp(g), peak=True)
        assert (gw is not None) == weight_grad
        padded = 16 * 18 * 18 * 32 * 4
        assert peak <= gx.nbytes + padded + L._BLOCK_BYTES + _SLACK

    def test_stem_weight_gradient_holds_one_block_of_columns(self):
        # the whole (147, 32*32*32) column matrix is 19.3 MB; one kernel row
        # of one channel, (7, 32*32*32), is 0.9 MB
        conv = _conv(3, 16, 7, stride=2, padding=3, bias=False)()
        out = conv(T.Tensor(_batch_inner(_rand((32, 3, 64, 64), 0, dtype=np.float32))))
        g = _batch_inner(_rand(out.shape, 1, dtype=np.float32))
        (gx, gw), peak = _held_bytes(lambda: out._vjp(g), peak=True)
        assert gx is None
        padded = 3 * 70 * 70 * 32 * 4
        kernel_row = 7 * 32 * 32 * 32 * 4
        assert peak <= gw.nbytes + padded + max(L._BLOCK_BYTES, kernel_row) + _SLACK


class TestLinear:
    def test_identity_weight(self):
        mod = L.Linear(3, 3, T.make_rng(0))
        mod.weight.data = np.eye(3, dtype=np.float32)
        mod.bias.data = np.zeros(3, dtype=np.float32)
        x = T.Tensor(_rand((2, 3), 1, dtype=np.float32))
        assert np.allclose(mod(x).data, x.data, atol=1e-7)

    def test_known_case(self):
        mod = L.Linear(2, 1, T.make_rng(0))
        mod.weight.data = np.array([[1.0], [1.0]], dtype=np.float32)
        mod.bias.data = np.array([1.0], dtype=np.float32)
        out = mod(T.Tensor([[1, 2]]))
        assert out.data.ravel()[0] == 4

    def test_grads_vs_finite_differences(self):
        mod = L.Linear(5, 3, T.make_rng(2)).astype(np.float64)
        rng = T.make_rng(3)
        x = T.normal((4, 5), 1.0, rng, dtype=np.float64, requires_grad=True)
        r = T.normal((4, 3), 1.0, rng, dtype=np.float64)
        err = grad_check(lambda a, w, b: (_linear_with(mod, a, w, b) * r).sum(),
                         [x, mod.weight, mod.bias])
        assert err < 1e-6


def _linear_with(mod, x, w, b):
    mod.weight, mod.bias = w, b
    return mod(x)


class TestCrossEntropy:
    def test_uniform_logits(self):
        loss = L.cross_entropy(T.zeros((1, 4)), [0])
        assert loss.item() == pytest.approx(np.log(4), abs=1e-6)

    def test_known_scalar_case(self):
        # independent recomputation: -ln(e^2 / (e^2 + 3)) = ln(e^2 + 3) - 2
        expected = np.log(np.exp(2.0) + 3.0) - 2.0
        loss = L.cross_entropy(T.Tensor([[2, 0, 0, 0]], dtype=np.float64), [0])
        assert loss.item() == pytest.approx(expected, abs=1e-9)
        assert round(loss.item(), 4) == 0.3408

    def test_gradient_softmax_minus_onehot(self):
        logits = T.zeros((1, 4), dtype=np.float64, requires_grad=True)
        L.cross_entropy(logits, [0]).backward()
        assert np.allclose(logits.grad, [[-0.75, 0.25, 0.25, 0.25]], atol=1e-12)

    def test_batch_mean_and_grad_scaling(self):
        logits = T.zeros((2, 4), dtype=np.float64, requires_grad=True)
        L.cross_entropy(logits, [0, 1]).backward()
        assert np.allclose(logits.grad[0], [-0.75 / 2, 0.25 / 2, 0.25 / 2, 0.25 / 2])

    def test_out_of_range_target(self):
        with pytest.raises(ValueError):
            L.cross_entropy(T.zeros((1, 4)), [4])

    @given(shift=st.floats(-50, 50))
    @settings(max_examples=20, deadline=None)
    def test_shift_invariance(self, shift):
        logits = _rand((3, 4), 6)
        a = L.cross_entropy(T.Tensor(logits), [0, 1, 2]).item()
        b = L.cross_entropy(T.Tensor(logits + shift), [0, 1, 2]).item()
        assert a == pytest.approx(b, abs=1e-6)

    def test_grad_vs_finite_differences(self):
        logits = T.Tensor(_rand((3, 4), 9), requires_grad=True, dtype=np.float64)
        err = grad_check(lambda t: L.cross_entropy(t, [2, 0, 3]), [logits])
        assert err < 1e-6


class TestParamCountLaw:
    def test_conv_spec_counts(self):
        def count(spec):
            return L.Conv2d(spec, None).param_count()

        assert count(L.Conv2dSpec(2, 4, 3, bias=True)) == 76
        assert count(L.Conv2dSpec(2, 4, 3, bias=False)) == 72
        assert count(L.Conv2dSpec(4, 8, (3, 5), groups=2, bias=False)) == 8 * 2 * 15

    @given(cin=st.sampled_from([2, 4, 8]), mult=st.integers(1, 3),
           k=st.sampled_from([1, 3]), bias=st.booleans(), depthwise=st.booleans())
    @settings(max_examples=30, deadline=None)
    def test_count_matches_explicit_enumeration(self, cin, mult, k, bias, depthwise):
        groups = cin if depthwise else 1
        cout = cin * mult
        spec = L.Conv2dSpec(cin, cout, k, groups=groups, bias=bias)
        explicit = cout * (cin // groups) * k * k + (cout if bias else 0)
        assert L.Conv2d(spec, None).param_count() == explicit
