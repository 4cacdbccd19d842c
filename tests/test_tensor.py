import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shipnet import tensor as T
from shipnet.gradcheck import grad_check


class TestCreate:
    def test_zero_fill(self):
        t = T.zeros((2, 2))
        assert t.shape == (2, 2)
        assert np.array_equal(t.data, np.zeros((2, 2)))

    def test_buffer_identity(self):
        t = T.Tensor([1, 2, 3])
        assert t.dtype == np.float32
        assert np.array_equal(t.data, [1, 2, 3])

    def test_zero_extent(self):
        with pytest.raises(ValueError):
            T.zeros((2, 0))

    def test_rng_deterministic_per_seed(self):
        a = T.normal((1000,), 1.0, 7)
        b = T.normal((1000,), 1.0, 7)
        assert np.array_equal(a.data, b.data)
        assert not np.array_equal(a.data, T.normal((1000,), 1.0, 8).data)

    @pytest.mark.parametrize("seed", [0, 1, 42, 1234, 2**40])
    def test_unkeyed_stream_is_default_rng(self, seed):
        assert np.array_equal(T.make_rng(seed).random(64),
                              np.random.default_rng(seed).random(64))

    def test_keyed_streams_are_deterministic_and_distinct(self):
        draws = {key: T.make_rng(9, *key).random(64)
                 for key in [(), (0,), (1,), (0, 0), (0, 1), (1, 0), (3, 1, 7)]}
        for key, values in draws.items():
            assert np.array_equal(values, T.make_rng(9, *key).random(64)), key
        assert len({v.tobytes() for v in draws.values()}) == len(draws)


class TestBroadcastBinary:
    def test_add(self):
        out = T.Tensor([1, 2, 3]) + T.Tensor([1, 1, 1])
        assert np.array_equal(out.data, [2, 3, 4])

    def test_mul_identity(self):
        a = T.Tensor(np.arange(6, dtype=np.float32).reshape(2, 3))
        out = a * T.Tensor(np.ones((1, 3), dtype=np.float32))
        assert np.array_equal(out.data, a.data)

    def test_incompatible_shapes(self):
        with pytest.raises(ValueError):
            _ = T.zeros((2, 3)) + T.zeros((4,))

    def test_broadcast_grad_matches_finite_differences(self):
        rng = T.make_rng(0)
        a = T.normal((2, 3), 1.0, rng, dtype=np.float64, requires_grad=True)
        b = T.normal((1, 3), 1.0, rng, dtype=np.float64, requires_grad=True)
        err = grad_check(lambda x, y: ((x + y) * (x + y)).sum(), [a, b])
        assert err < 1e-6

    @given(rows=st.integers(1, 4), cols=st.integers(1, 4),
           a_row_bcast=st.booleans(), a_col_bcast=st.booleans())
    @settings(max_examples=25, deadline=None)
    def test_broadcast_backward_shape_law(self, rows, cols, a_row_bcast, a_col_bcast):
        a_shape = (1 if a_row_bcast else rows, 1 if a_col_bcast else cols)
        a = T.Tensor(np.ones(a_shape), requires_grad=True, dtype=np.float64)
        b = T.Tensor(np.ones((rows, cols)), requires_grad=True, dtype=np.float64)
        (a * b).sum().backward()
        assert a.grad.shape == a.shape
        assert b.grad.shape == b.shape


class TestMatmul:
    def test_identity(self):
        eye = T.Tensor(np.eye(2, dtype=np.float32))
        m = T.Tensor([[1, 2], [3, 4]])
        assert np.array_equal((eye @ m).data, m.data)

    def test_row_times_column(self):
        out = T.Tensor([[1, 2]]) @ T.Tensor([[3], [4]])
        assert out.data.ravel()[0] == 11

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            _ = T.zeros((2, 3)) @ T.zeros((2, 3))

    def test_grads_vs_finite_differences(self):
        rng = T.make_rng(1)
        a = T.normal((4, 5), 1.0, rng, dtype=np.float64, requires_grad=True)
        b = T.normal((5, 3), 1.0, rng, dtype=np.float64, requires_grad=True)
        r = T.normal((4, 3), 1.0, rng, dtype=np.float64)
        err = grad_check(lambda x, y: ((x @ y) * r).sum(), [a, b])
        assert err < 1e-6


class TestReduce:
    def test_sum_all(self):
        assert T.Tensor([1, 2, 3, 4]).sum().item() == 10

    def test_mean_constant(self):
        t = T.Tensor(np.full((3, 5), 2.5, dtype=np.float32))
        assert t.mean().item() == pytest.approx(2.5)

    def test_max_tie_routes_to_first(self):
        x = T.Tensor([3, 1, 3], dtype=np.float64, requires_grad=True)
        m = x.max()
        assert m.item() == 3
        m.backward()
        assert np.array_equal(x.grad, [1, 0, 0])

    @pytest.mark.parametrize("axes,keepdims", [((1,), True), ((0, 2), False), (None, False)])
    def test_unrecorded_max_equals_recorded(self, axes, keepdims):
        data = T.make_rng(4).standard_normal((3, 4, 5)).astype(np.float32)
        data[0, 1, :] = data[0, 2, :]
        data[2, 3, 4] = np.nan
        recorded = T.Tensor(data, requires_grad=True).max(axes=axes, keepdims=keepdims)
        assert recorded.requires_grad
        plain = T.Tensor(data).max(axes=axes, keepdims=keepdims)
        with T.no_grad():
            off = T.Tensor(data, requires_grad=True).max(axes=axes, keepdims=keepdims)
        for t in (plain, off):
            assert not t.requires_grad
            assert t.shape == recorded.shape and t.dtype == recorded.dtype
            assert t.data.tobytes() == recorded.data.tobytes()

    def test_mean_equals_sum_over_count_power_of_two(self):
        rng = T.make_rng(2)
        x = T.normal((4, 8), 1.0, rng, dtype=np.float64)
        assert np.array_equal(x.mean().data, x.sum().data / 32)

    def test_invalid_axis(self):
        with pytest.raises(ValueError):
            T.zeros((2, 2)).sum(axes=(5,))

    def test_keepdims(self):
        x = T.zeros((2, 3, 4))
        assert x.sum(axes=(1,), keepdims=True).shape == (2, 1, 4)
        assert x.sum(axes=(1,)).shape == (2, 4)


class TestActivations:
    def test_sigmoid_zero(self):
        assert T.zeros((1,)).sigmoid().item() == 0.5

    def test_relu(self):
        out = T.Tensor([-1, 0, 2]).relu()
        assert np.array_equal(out.data, [0, 0, 2])

    def test_sigmoid_derivative_at_zero(self):
        x = T.zeros((1,), dtype=np.float64, requires_grad=True)
        x.sigmoid().sum().backward()
        assert x.grad[0] == pytest.approx(0.25, abs=1e-12)

    def test_relu_subgradient_zero_at_zero(self):
        x = T.zeros((1,), dtype=np.float64, requires_grad=True)
        x.relu().sum().backward()
        assert x.grad[0] == 0.0

    def test_sigmoid_extreme_inputs_finite(self):
        out = T.Tensor([-1000.0, 1000.0], dtype=np.float32).sigmoid()
        assert np.all(np.isfinite(out.data))
        assert out.data[0] == pytest.approx(0.0)
        assert out.data[1] == pytest.approx(1.0)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_sigmoid_equals_the_masked_formula(self, dtype):
        x = np.concatenate([np.random.default_rng(8).standard_normal(10**5) * 30,
                            [0.0, -0.0, np.inf, -np.inf, np.nan, 88.8, -88.8, 104.0,
                             -104.0, 200.0, -200.0, np.nan]]).astype(dtype)
        ref = np.empty_like(x)  # reference: the two-branch formula by boolean masks
        pos = x >= 0
        ref[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
        ex = np.exp(x[~pos])
        ref[~pos] = ex / (1.0 + ex)
        out = T.Tensor(x).sigmoid().data
        nan = np.isnan(x)
        assert out.dtype == dtype
        assert np.array_equal(np.isnan(out), nan)
        assert out[~nan].tobytes() == ref[~nan].tobytes()


class TestShapeOps:
    def test_concat(self):
        out = T.concat([T.Tensor([1]), T.Tensor([2])], axis=0)
        assert np.array_equal(out.data, [1, 2])

    def test_upsample2x_nearest(self):
        out = T.upsample2x(T.Tensor([[1, 2], [3, 4]]))
        expected = [[1, 1, 2, 2], [1, 1, 2, 2], [3, 3, 4, 4], [3, 3, 4, 4]]
        assert np.array_equal(out.data, expected)

    def test_upsample2x_vjp_equals_the_reshape_sum(self):
        rng = np.random.default_rng(3)
        a = T.Tensor(rng.standard_normal((2, 3, 4, 5)), dtype=np.float64, requires_grad=True)
        g = rng.standard_normal((2, 3, 8, 10))
        (T.upsample2x(a) * T.Tensor(g)).sum().backward()
        assert a.grad.dtype == np.float64
        assert np.allclose(a.grad, g.reshape(2, 3, 4, 2, 5, 2).sum(axis=(-3, -1)),
                           rtol=0, atol=1e-12)

    def test_reshape_roundtrip_grad(self):
        x = T.Tensor(np.arange(1, 7).reshape(2, 3), dtype=np.float64, requires_grad=True)
        (x.reshape((6,)) * x.reshape((6,))).sum().backward()
        assert np.array_equal(x.grad, 2 * x.data)

    def test_slice_grad(self):
        x = T.Tensor([1, 2, 3, 4], dtype=np.float64, requires_grad=True)
        x[1:3].sum().backward()
        assert np.array_equal(x.grad, [0, 1, 1, 0])


class TestBackward:
    def test_square_loss(self):
        x = T.Tensor([1, 2], dtype=np.float64, requires_grad=True)
        (x * x).sum().backward()
        assert np.array_equal(x.grad, [2, 4])

    def test_two_branches_accumulate(self):
        x = T.Tensor([1, 2], dtype=np.float64, requires_grad=True)
        (x.sum() + (x * x).sum()).backward()
        assert np.array_equal(x.grad, [1 + 2, 1 + 4])

    def test_non_scalar_rejected(self):
        x = T.zeros((2,), requires_grad=True)
        with pytest.raises(RuntimeError):
            (x + x).backward()

    def test_backward_twice_rejected(self):
        x = T.zeros((2,), requires_grad=True)
        loss = (x * x).sum()
        loss.backward()
        with pytest.raises(RuntimeError):
            loss.backward()

    def test_all_leaves_populated(self):
        rng = T.make_rng(3)
        a = T.normal((3,), 1.0, rng, requires_grad=True)
        b = T.normal((3,), 1.0, rng, requires_grad=True)
        ((a * b).sum()).backward()
        assert a.grad is not None and b.grad is not None

    def test_interior_gets_no_grad_and_the_tape_is_freed(self):
        x = T.Tensor([1, 2], dtype=np.float64, requires_grad=True)
        mid = x * x
        loss = mid.sum()
        loss.backward()
        assert mid.grad is None and loss.grad is None
        assert loss._parents == () and loss._vjp is None
        assert mid._parents == () and mid._vjp is None


def _two_branch_graph():
    rng = T.make_rng(4)
    a = T.normal((3,), 1.0, rng, dtype=np.float64, requires_grad=True)
    b = T.normal((3,), 1.0, rng, dtype=np.float64, requires_grad=True)
    mid = a * b
    return a, b, mid, (mid.sigmoid() + mid * a).sum()


class TestGrad:
    def test_equals_backward_leaf_grads_and_writes_none(self):
        a, b, _, loss = _two_branch_graph()
        ga, gb = T.grad(loss, [a, b])
        assert a.grad is None and b.grad is None
        a2, b2, _, loss2 = _two_branch_graph()
        loss2.backward()
        assert np.array_equal(ga, a2.grad) and np.array_equal(gb, b2.grad)

    def test_none_for_an_unrelated_tensor(self):
        a, _, _, loss = _two_branch_graph()
        other = T.Tensor([1.0, 2.0], dtype=np.float64, requires_grad=True)
        ga, g_other = T.grad(loss, [a, other])
        assert ga is not None and g_other is None

    def test_interior_grad_runs_no_vjp_below_it(self):
        calls = []

        def graph():
            x = T.Tensor([1, 2], dtype=np.float64, requires_grad=True)

            def vjp(g):
                calls.append(g)
                return (3 * g,)

            mid = T.custom_op(3 * x.data, (x,), vjp) * x
            return mid, (mid * mid).sum()

        mid, loss = graph()
        (g_mid,) = T.grad(loss, [mid])
        assert calls == []
        assert np.array_equal(g_mid, 2 * mid.data)
        graph()[1].backward()
        assert len(calls) == 1

    def test_nested_targets_equal_backward(self):
        # a is an ancestor of mid: the walk must still run every vjp down to a
        a, _, mid, loss = _two_branch_graph()
        ga, g_mid = T.grad(loss, [a, mid])
        _, _, mid2, loss2 = _two_branch_graph()
        (g_mid2,) = T.grad(loss2, [mid2])
        a3, _, _, loss3 = _two_branch_graph()
        loss3.backward()
        assert np.array_equal(ga, a3.grad) and np.array_equal(g_mid, g_mid2)

    def test_tensor_made_before_the_target_is_not_walked(self):
        calls = []

        def vjp(g):
            calls.append(g)
            return (g,)

        x = T.Tensor([1.0, 2.0], dtype=np.float64, requires_grad=True)
        early = T.custom_op(2 * x.data, (x,), vjp)
        early.sum().backward()  # walks early's tape, so a second walk through it raises
        assert len(calls) == 1
        target = x * x
        loss = (target * early).sum()  # consumed downstream of the target too
        (g,) = T.grad(loss, [target])
        assert len(calls) == 1
        assert np.array_equal(g, early.data)

    def test_second_walk_rejected(self):
        a, b, mid, loss = _two_branch_graph()
        T.grad(loss, [mid])
        with pytest.raises(RuntimeError, match="already ran"):
            T.grad(loss, [a])
        with pytest.raises(RuntimeError, match="already ran"):
            loss.backward()

    def test_new_loss_through_a_walked_tensor_says_to_recompute_it(self):
        x = T.Tensor([1.0, 2.0], dtype=np.float64, requires_grad=True)
        early = x * x
        early.sum().backward()
        with pytest.raises(RuntimeError, match="depends on a tensor whose backward already "
                                               "ran; recompute that tensor"):
            (x * x * early).sum().backward()


class TestGradCheck:
    def test_linear_function_exact(self):
        x = T.Tensor([1, 2, 3, 4], dtype=np.float64, requires_grad=True)
        assert grad_check(lambda t: t.sum(), [x]) < 1e-9

    def test_sigmoid_sum_at_zero(self):
        x = T.zeros((3,), dtype=np.float64, requires_grad=True)
        err = grad_check(lambda t: t.sigmoid().sum(), [x])
        assert err < 1e-9

    def test_rejects_non_scalar(self):
        x = T.zeros((3,), dtype=np.float64, requires_grad=True)
        with pytest.raises(ValueError):
            grad_check(lambda t: t * t, [x])


class TestDeterminismAndDebug:
    def test_forward_determinism(self):
        rng1 = T.make_rng(11)
        rng2 = T.make_rng(11)
        a1 = T.normal((32, 32), 1.0, rng1)
        a2 = T.normal((32, 32), 1.0, rng2)
        out1 = (a1 @ a1).sigmoid().sum()
        out2 = (a2 @ a2).sigmoid().sum()
        assert np.array_equal(out1.data, out2.data)

