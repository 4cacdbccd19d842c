import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shipnet import layers as L
from shipnet import tensor as T

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


class TestConv2d:
    def test_1x1_identity_kernel(self):
        x = T.from_buffer((1, 1, 3, 3), np.arange(1, 10))
        w = T.Tensor(np.ones((1, 1, 1, 1), dtype=np.float32))
        out = L.conv2d(x, w, None, L.Conv2dSpec(1, 1, 1, bias=False))
        assert np.array_equal(out.data, x.data)

    def test_window_sum(self):
        x = T.from_buffer((1, 1, 3, 3), np.arange(1, 10))
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
        err = T.grad_check(lambda a, ww, bb: (L.conv2d(a, ww, bb, spec) * r).sum(),
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
        out = bn(T.full((2, 3, 4, 4), 5.0))
        assert np.allclose(out.data, 0.0, atol=1e-3)

    def test_gamma_zero_gives_beta(self):
        bn = L.BatchNorm2d(2)
        bn.gamma.data = np.zeros(2, dtype=np.float32)
        bn.beta.data = np.array([1.5, -0.5], dtype=np.float32)
        out = bn(T.Tensor(_rand((2, 2, 3, 3), 0, dtype=np.float32)))
        assert np.allclose(out.data[:, 0], 1.5, atol=1e-6)
        assert np.allclose(out.data[:, 1], -0.5, atol=1e-6)

    def test_train_gradients_vs_finite_differences(self):
        bn = L.BatchNorm2d(2, dtype=np.float64)
        rng = T.make_rng(4)
        x = T.normal((4, 2, 3, 3), 1.0, rng, dtype=np.float64, requires_grad=True)
        r = T.normal((4, 2, 3, 3), 1.0, rng, dtype=np.float64)
        err = T.grad_check(lambda a, g, b: (_bn_with(bn, a, g, b) * r).sum(),
                           [x, bn.gamma, bn.beta])
        assert err < 1e-4

    def test_single_sample_1x1_spatial_train(self):
        bn = L.BatchNorm2d(2)
        out = bn(T.full((1, 2, 1, 1), 3.0))
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
    bn = L.BatchNorm2d(c, momentum=0.3, dtype=np.float64)
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
        out = L.maxpool2d(T.from_buffer((1, 1, 2, 2), [1, 2, 3, 4]), 2, 2)
        assert out.data.ravel()[0] == 4

    def test_constant_input(self):
        out = L.maxpool2d(T.full((1, 2, 4, 4), 3.0), 2, 2)
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
        x = T.from_buffer((1, 1, 2, 2), [5, 5, 1, 1], dtype=np.float64,
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
        x = T.from_buffer((1, 1, 2, 2), [1, 3, 5, 7])
        assert L.global_pool(x, "avg").data.ravel()[0] == 4

    def test_max_constant(self):
        x = T.full((2, 3, 4, 4), 2.5)
        assert np.all(L.global_pool(x, "max").data == 2.5)

    def test_avg_equals_mean_reduce(self):
        x = T.Tensor(_rand((2, 3, 4, 4), 5, dtype=np.float32))
        assert np.array_equal(L.global_pool(x, "avg").data,
                              x.mean(axes=(2, 3), keepdims=True).data)


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
        out = mod(T.from_buffer((1, 2), [1, 2]))
        assert out.data.ravel()[0] == 4

    def test_grads_vs_finite_differences(self):
        mod = L.Linear(5, 3, T.make_rng(2), dtype=np.float64)
        rng = T.make_rng(3)
        x = T.normal((4, 5), 1.0, rng, dtype=np.float64, requires_grad=True)
        r = T.normal((4, 3), 1.0, rng, dtype=np.float64)
        err = T.grad_check(lambda a, w, b: (_linear_with(mod, a, w, b) * r).sum(),
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
        loss = L.cross_entropy(T.from_buffer((1, 4), [2, 0, 0, 0], dtype=np.float64), [0])
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
        err = T.grad_check(lambda t: L.cross_entropy(t, [2, 0, 3]), [logits])
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
