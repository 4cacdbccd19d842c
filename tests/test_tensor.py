import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shipnet import tensor as T


class TestCreate:
    def test_zero_fill(self):
        t = T.zeros((2, 2))
        assert t.shape == (2, 2)
        assert np.array_equal(t.data, np.zeros((2, 2)))

    def test_buffer_identity(self):
        t = T.from_buffer((3,), [1, 2, 3])
        assert np.array_equal(t.data, [1, 2, 3])

    def test_buffer_length_mismatch(self):
        with pytest.raises(ValueError):
            T.from_buffer((3,), [1, 2])

    def test_zero_extent(self):
        with pytest.raises(ValueError):
            T.zeros((2, 0))

    def test_rng_deterministic_per_seed(self):
        a = T.uniform((1000,), 1.0, 7)
        b = T.uniform((1000,), 1.0, 7)
        assert np.array_equal(a.data, b.data)
        c = T.normal((1000,), 1.0, 7)
        d = T.normal((1000,), 1.0, 7)
        assert np.array_equal(c.data, d.data)
        assert not np.array_equal(a.data, T.uniform((1000,), 1.0, 8).data)

    def test_uniform_bound(self):
        a = T.uniform((1000,), 0.5, 3)
        assert a.data.min() >= -0.5 and a.data.max() < 0.5


class TestBroadcastBinary:
    def test_add(self):
        out = T.from_buffer((3,), [1, 2, 3]) + T.from_buffer((3,), [1, 1, 1])
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
        err = T.grad_check(lambda x, y: ((x + y) * (x + y)).sum(), [a, b])
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

    def test_div_by_zero_debug(self):
        T.set_debug_checks(True)
        try:
            with pytest.raises(ZeroDivisionError):
                _ = T.Tensor([1.0]) / T.Tensor([0.0])
        finally:
            T.set_debug_checks(False)


class TestMatmul:
    def test_identity(self):
        eye = T.Tensor(np.eye(2, dtype=np.float32))
        m = T.from_buffer((2, 2), [1, 2, 3, 4])
        assert np.array_equal((eye @ m).data, m.data)

    def test_row_times_column(self):
        out = T.from_buffer((1, 2), [1, 2]) @ T.from_buffer((2, 1), [3, 4])
        assert out.data.ravel()[0] == 11

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            _ = T.zeros((2, 3)) @ T.zeros((2, 3))

    def test_grads_vs_finite_differences(self):
        rng = T.make_rng(1)
        a = T.normal((4, 5), 1.0, rng, dtype=np.float64, requires_grad=True)
        b = T.normal((5, 3), 1.0, rng, dtype=np.float64, requires_grad=True)
        r = T.normal((4, 3), 1.0, rng, dtype=np.float64)
        err = T.grad_check(lambda x, y: ((x @ y) * r).sum(), [a, b])
        assert err < 1e-6


class TestReduce:
    def test_sum_all(self):
        assert T.from_buffer((4,), [1, 2, 3, 4]).sum().item() == 10

    def test_mean_constant(self):
        t = T.full((3, 5), 2.5)
        assert t.mean().item() == pytest.approx(2.5)

    def test_max_tie_routes_to_first(self):
        x = T.from_buffer((3,), [3, 1, 3], dtype=np.float64, requires_grad=True)
        m = x.max()
        assert m.item() == 3
        m.backward()
        assert np.array_equal(x.grad, [1, 0, 0])

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
        out = T.from_buffer((3,), [-1, 0, 2]).relu()
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
        out = T.from_buffer((2,), [-1000.0, 1000.0]).sigmoid()
        assert np.all(np.isfinite(out.data))
        assert out.data[0] == pytest.approx(0.0)
        assert out.data[1] == pytest.approx(1.0)


class TestShapeOps:
    def test_pad(self):
        out = T.pad(T.from_buffer((1,), [1]), [(1, 1)])
        assert np.array_equal(out.data, [0, 1, 0])

    def test_concat(self):
        out = T.concat([T.from_buffer((1,), [1]), T.from_buffer((1,), [2])], axis=0)
        assert np.array_equal(out.data, [1, 2])

    def test_upsample2x_nearest(self):
        out = T.upsample2x(T.from_buffer((2, 2), [1, 2, 3, 4]))
        expected = [[1, 1, 2, 2], [1, 1, 2, 2], [3, 3, 4, 4], [3, 3, 4, 4]]
        assert np.array_equal(out.data, expected)

    def test_reshape_roundtrip_grad(self):
        x = T.from_buffer((2, 3), [1, 2, 3, 4, 5, 6], dtype=np.float64,
                          requires_grad=True)
        (x.reshape((6,)) * x.reshape((6,))).sum().backward()
        assert np.array_equal(x.grad, 2 * x.data)

    def test_slice_grad(self):
        x = T.from_buffer((4,), [1, 2, 3, 4], dtype=np.float64, requires_grad=True)
        x[1:3].sum().backward()
        assert np.array_equal(x.grad, [0, 1, 1, 0])


class TestBackward:
    def test_square_loss(self):
        x = T.from_buffer((2,), [1, 2], dtype=np.float64, requires_grad=True)
        (x * x).sum().backward()
        assert np.array_equal(x.grad, [2, 4])

    def test_two_branches_accumulate(self):
        x = T.from_buffer((2,), [1, 2], dtype=np.float64, requires_grad=True)
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


class TestGradCheck:
    def test_linear_function_exact(self):
        x = T.from_buffer((4,), [1, 2, 3, 4], dtype=np.float64, requires_grad=True)
        assert T.grad_check(lambda t: t.sum(), [x]) < 1e-9

    def test_sigmoid_sum_at_zero(self):
        x = T.zeros((3,), dtype=np.float64, requires_grad=True)
        err = T.grad_check(lambda t: t.sigmoid().sum(), [x])
        assert err < 1e-9

    def test_rejects_non_scalar(self):
        x = T.zeros((3,), dtype=np.float64, requires_grad=True)
        with pytest.raises(ValueError):
            T.grad_check(lambda t: t * t, [x])


class TestDeterminismAndDebug:
    def test_forward_determinism(self):
        rng1 = T.make_rng(11)
        rng2 = T.make_rng(11)
        a1 = T.normal((32, 32), 1.0, rng1)
        a2 = T.normal((32, 32), 1.0, rng2)
        out1 = (a1 @ a1).sigmoid().sum()
        out2 = (a2 @ a2).sigmoid().sum()
        assert np.array_equal(out1.data, out2.data)

    def test_debug_check_catches_nan(self):
        T.set_debug_checks(True)
        try:
            bad = T.Tensor.__new__(T.Tensor)
            bad.data = np.array([np.inf], dtype=np.float32)
            bad.grad = None
            bad.requires_grad = False
            bad._parents = ()
            bad._vjp = None
            bad._done = False
            with pytest.raises(FloatingPointError):
                _ = bad + bad
        finally:
            T.set_debug_checks(False)


class TestFixtureFormat:
    def test_roundtrip(self, tmp_path):
        rng = T.make_rng(5)
        t = T.normal((3, 4, 5), 1.0, rng, dtype=np.float64)
        path = tmp_path / "t.cbnt"
        T.save_tensor(path, t)
        back = T.load_tensor(path)
        assert back.dtype == t.dtype
        assert np.array_equal(back.data, t.data)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.cbnt"
        path.write_bytes(b"NOPE" + b"\x00" * 16)
        with pytest.raises(ValueError):
            T.load_tensor(path)

    def test_header_layout(self, tmp_path):
        t = T.from_buffer((2,), [1.0, 2.0])
        path = tmp_path / "t.cbnt"
        T.save_tensor(path, t)
        raw = path.read_bytes()
        assert raw[:4] == b"CBNT"
        assert raw[4:6] == b"\x01\x00"      # version u16 LE
        assert raw[6] == 0                   # float32 code
        assert raw[7] == 1                   # rank
        assert int.from_bytes(raw[8:16], "little") == 2

    def test_trailing_bytes_rejected(self, tmp_path):
        path = tmp_path / "t.cbnt"
        T.save_tensor(path, T.from_buffer((2,), [1.0, 2.0]))
        path.write_bytes(path.read_bytes() + b"\x00")
        with pytest.raises(ValueError, match="trailing"):
            T.load_tensor(path)

    def test_record_codec_shared_layout(self, tmp_path):
        # a CBNT file is its 6-byte header followed by exactly one record
        t = T.normal((2, 3), 1.0, T.make_rng(1), dtype=np.float64)
        path = tmp_path / "t.cbnt"
        T.save_tensor(path, t)
        raw = path.read_bytes()
        arr, end = T.read_record(raw, 6)
        assert end == len(raw)
        assert arr.dtype == np.float64 and np.array_equal(arr, t.data)
        assert arr.flags.writeable and arr.flags.c_contiguous


def _fixture_bytes():
    buf = io.BytesIO()
    buf.write(b"CBNT\x01\x00")
    T.write_record(buf, T.normal((2, 3, 4), 1.0, T.make_rng(3)).data)
    return buf.getvalue()


FIXTURE = _fixture_bytes()


def _load_or_value_error(tmp_path_factory, raw):
    path = tmp_path_factory.getbasetemp() / "fuzz.cbnt"
    path.write_bytes(raw)
    try:
        return T.load_tensor(path)
    except ValueError:
        return None


class TestFixtureDecoderFuzz:
    """Mutated CBNT files either load or raise ValueError, nothing else."""

    @given(st.integers(0, len(FIXTURE) - 1))
    @settings(max_examples=40, deadline=None)
    def test_truncated_at_any_byte(self, tmp_path_factory, cut):
        assert _load_or_value_error(tmp_path_factory, FIXTURE[:cut]) is None

    @given(st.lists(st.tuples(st.integers(0, 31), st.integers(1, 255)), min_size=1,
                    max_size=4))
    @settings(max_examples=40, deadline=None)
    def test_header_bytes_flipped(self, tmp_path_factory, flips):
        raw = bytearray(FIXTURE)
        for pos, mask in flips:
            raw[pos] ^= mask
        _load_or_value_error(tmp_path_factory, bytes(raw))

    @given(st.binary(min_size=1, max_size=16))
    @settings(max_examples=10, deadline=None)
    def test_appended_bytes(self, tmp_path_factory, extra):
        assert _load_or_value_error(tmp_path_factory, FIXTURE + extra) is None
