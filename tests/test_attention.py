import numpy as np
import pytest

from shipnet import tensor as T
from shipnet.attention import CBAM, ChannelAttention, SpatialAttention, set_attention_bypass
from shipnet.layers import watch

from oracles import (naive_channel_attention, naive_improved_spatial_attention,
                     naive_spatial_attention)


def _rand(shape, seed, scale=1.0):
    return np.random.default_rng(seed).standard_normal(shape).astype(np.float32) * scale


class TestChannelAttention:
    def test_zero_weights_give_half_gate(self):
        mod = ChannelAttention(8, 4, T.make_rng(0))
        mod.squeeze.weight.data[:] = 0
        mod.excite.weight.data[:] = 0
        gate = mod(T.Tensor(_rand((2, 8, 5, 5), 1)))
        assert gate.shape == (2, 8, 1, 1)
        assert np.allclose(gate.data, 0.5)

    def test_spatially_constant_input_doubles_descriptor(self):
        # constant per channel: avg == max, so the gate is sigmoid(2 * MLP(s))
        mod = ChannelAttention(4, 2, T.make_rng(1))
        per_channel = np.array([0.5, -1.0, 2.0, 0.0], dtype=np.float32)
        x = np.broadcast_to(per_channel.reshape(1, 4, 1, 1), (1, 4, 3, 3)).copy()
        gate = mod(T.Tensor(x))

        desc = T.Tensor(per_channel.reshape(1, 4))
        mlp = mod.excite(mod.squeeze(desc).relu())
        expected = 1.0 / (1.0 + np.exp(-2.0 * mlp.data))
        assert np.allclose(gate.data.reshape(1, 4), expected, atol=1e-6)

    def test_matches_naive_oracle(self):
        mod = ChannelAttention(8, 4, T.make_rng(2))
        x = _rand((2, 8, 4, 6), 3)
        gate = mod(T.Tensor(x))
        ref = naive_channel_attention(x.astype(np.float64),
                                      mod.squeeze.weight.data.astype(np.float64),
                                      mod.excite.weight.data.astype(np.float64))
        assert np.max(np.abs(gate.data - ref)) < 1e-6

    def test_ratio_must_divide(self):
        with pytest.raises(ValueError):
            ChannelAttention(6, 4, T.make_rng(0))

    def test_gate_open_interval(self):
        # strict (0,1) holds while the pre-sigmoid stays within float32
        # resolution; feature-scale inputs keep it there
        mod = ChannelAttention(8, 4, T.make_rng(4))
        gate = mod(T.Tensor(_rand((3, 8, 5, 5), 5)))
        assert np.all(gate.data > 0) and np.all(gate.data < 1)

    def test_invariant_to_spatial_permutation(self):
        mod = ChannelAttention(8, 4, T.make_rng(6))
        x = _rand((1, 8, 4, 4), 7)
        perm = np.random.default_rng(8).permutation(16)
        x_perm = x.reshape(1, 8, 16)[:, :, perm].reshape(1, 8, 4, 4)
        g1 = mod(T.Tensor(x)).data
        g2 = mod(T.Tensor(np.ascontiguousarray(x_perm))).data
        assert np.allclose(g1, g2, atol=1e-6)


class TestSpatialAttention:
    def test_zero_weights_give_half_gate(self):
        mod = SpatialAttention(T.make_rng(0), kernel=7)
        mod.conv.weight.data[:] = 0
        gate = mod(T.Tensor(_rand((2, 4, 6, 6), 1)))
        assert gate.shape == (2, 1, 6, 6)
        assert np.allclose(gate.data, 0.5)

    @pytest.mark.parametrize("kernel,dilation", [(3, 1), (7, 1), (3, 2), (7, 2)])
    def test_output_size_preserved(self, kernel, dilation):
        mod = SpatialAttention(T.make_rng(2), kernel=kernel, dilation=dilation)
        for hw in ((8, 8), (9, 11)):
            gate = mod(T.Tensor(_rand((1, 3) + hw, 3)))
            assert gate.shape == (1, 1) + hw

    def test_even_kernel_rejected(self):
        with pytest.raises(ValueError):
            SpatialAttention(T.make_rng(0), kernel=4)

    def test_matches_naive_oracle(self):
        mod = SpatialAttention(T.make_rng(4), kernel=3)
        x = _rand((2, 5, 6, 6), 5)
        gate = mod(T.Tensor(x))
        ref = naive_spatial_attention(x.astype(np.float64),
                                      mod.conv.weight.data.astype(np.float64))
        assert np.max(np.abs(gate.data - ref)) < 1e-6

    def test_improved_matches_naive_two_step_oracle(self):
        mod = SpatialAttention(T.make_rng(5), kernel=7, dilation=2, variant="improved")
        x = _rand((2, 4, 8, 8), 6)
        gate = mod(T.Tensor(x))
        ref = naive_improved_spatial_attention(
            x.astype(np.float64),
            mod.depthwise.weight.data.astype(np.float64),
            mod.pointwise.weight.data.astype(np.float64))
        assert gate.shape == (2, 1, 8, 8)
        assert np.max(np.abs(gate.data - ref)) < 1e-6

    def test_invariant_to_channel_permutation(self):
        mod = SpatialAttention(T.make_rng(7), kernel=3)
        x = _rand((1, 6, 5, 5), 8)
        perm = np.random.default_rng(9).permutation(6)
        g1 = mod(T.Tensor(x)).data
        g2 = mod(T.Tensor(np.ascontiguousarray(x[:, perm]))).data
        assert np.allclose(g1, g2, atol=1e-6)

    def test_parameter_counts_and_receptive_span(self):
        standard = SpatialAttention(T.make_rng(0), kernel=7)
        improved = SpatialAttention(T.make_rng(0), kernel=7, dilation=2, variant="improved")
        assert standard.param_count() == 2 * 49
        assert improved.param_count() == 2 * 49 + 2 * 1
        # effective receptive span d*(k-1)+1
        assert 2 * (7 - 1) + 1 == 13
        assert 1 * (7 - 1) + 1 == 7


class TestCBAMBlock:
    def test_bypass_is_exact_identity(self):
        mod = CBAM(8, T.make_rng(0), reduction_ratio=4)
        mod.bypass = True
        x = T.Tensor(_rand((2, 8, 5, 5), 1))
        out = mod(x)
        assert np.array_equal(out.data, x.data)

    def test_half_gates_quarter_feature(self):
        mod = CBAM(8, T.make_rng(1), reduction_ratio=4)
        mod.channel.squeeze.weight.data[:] = 0
        mod.channel.excite.weight.data[:] = 0
        mod.spatial.conv.weight.data[:] = 0
        x = T.Tensor(_rand((2, 8, 5, 5), 2))
        out = mod(x)
        assert np.allclose(out.data, 0.25 * x.data, atol=1e-6)

    def test_gradient_through_block_vs_finite_differences(self):
        mod = CBAM(8, T.make_rng(2), reduction_ratio=4, spatial_kernel=3,
                   dtype=np.float64)
        rng = T.make_rng(3)
        x = T.normal((2, 8, 4, 4), 1.0, rng, dtype=np.float64, requires_grad=True)
        r = T.normal((2, 8, 4, 4), 1.0, rng, dtype=np.float64)
        inputs = [x] + [p for _, p in mod.named_parameters()]
        err = T.grad_check(lambda *args: (mod(args[0]) * r).sum(), inputs)
        assert err < 1e-4

    def test_output_magnitude_never_exceeds_input(self):
        mod = CBAM(8, T.make_rng(4), reduction_ratio=4)
        x = _rand((2, 8, 6, 6), 5, scale=3.0)
        out = mod(T.Tensor(x))
        assert np.all(np.abs(out.data) <= np.abs(x) + 1e-7)

    def test_improved_variant_runs_and_gates_in_range(self):
        mod = CBAM(8, T.make_rng(5), reduction_ratio=4, improved=True)
        gates = []

        def keep(m, args, out):
            if m is mod.spatial:
                gates.append(out.data)

        with watch(keep):
            out = mod(T.Tensor(_rand((2, 8, 6, 6), 6)))
        assert out.shape == (2, 8, 6, 6)
        gate, = gates
        assert np.all(gate > 0) and np.all(gate < 1)

    def test_set_attention_bypass_walks_tree(self):
        from shipnet.layers import Module

        class Holder(Module):
            def __init__(self):
                super().__init__()
                self.blocks = [CBAM(4, T.make_rng(0), reduction_ratio=2),
                               CBAM(4, T.make_rng(1), reduction_ratio=2)]

        holder = Holder()
        set_attention_bypass(holder, True)
        assert all(b.bypass for b in holder.blocks)
        set_attention_bypass(holder, False)
        assert not any(b.bypass for b in holder.blocks)
