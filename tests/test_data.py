import itertools
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import naive_augment, naive_resize_bilinear, naive_rotate_bilinear
from shipnet import data as D


def _img(seed, h=8, w=8):
    return np.random.default_rng(seed).random((3, h, w)).astype(np.float32)


class TestPpmCodec:
    def test_all_max_header(self):
        raw = b"P6 2 2 255\n" + bytes([255] * 12)
        img = D.decode_ppm(raw)
        assert img.shape == (3, 2, 2)
        assert np.all(img == 1.0)

    def test_all_zero_payload(self):
        raw = b"P6\n2 2\n255\n" + bytes(12)
        assert np.all(D.decode_ppm(raw) == 0.0)

    def test_header_comments(self):
        raw = b"P6\n# made by hand\n2 1 # trailing\n255\n" + bytes([128] * 6)
        img = D.decode_ppm(raw)
        assert img.shape == (3, 1, 2)
        assert np.allclose(img, 128 / 255)

    def test_roundtrip_random_images(self):
        for seed in range(5):
            img = np.round(_img(seed) * 255) / 255
            back = D.decode_ppm(D.encode_ppm(img))
            assert np.allclose(back, img, atol=0.5 / 255)

    def test_exact_roundtrip_of_quantized(self):
        img = D.decode_ppm(D.encode_ppm(_img(1)))
        again = D.decode_ppm(D.encode_ppm(img))
        assert np.array_equal(img, again)

    def test_wrong_magic(self):
        with pytest.raises(ValueError):
            D.decode_ppm(b"P5 2 2 255\n" + bytes(12))

    def test_truncated_payload(self):
        with pytest.raises(ValueError):
            D.decode_ppm(b"P6 2 2 255\n" + bytes(5))

    def test_wrong_maxval(self):
        with pytest.raises(ValueError):
            D.decode_ppm(b"P6 2 2 65535\n" + bytes(24))

    def test_every_byte_value_decodes_to_its_float32_quotient(self):
        u8 = np.arange(256 * 3, dtype=np.uint16).astype(np.uint8).reshape(1, 256, 3)
        img = D.decode_ppm(b"P6 256 1 255\n" + u8.tobytes())
        ref = u8.transpose(2, 0, 1).astype(np.float32) / 255.0
        assert _same_bits(img, ref)


class TestScanDirectory:
    def _tree(self, tmp_path, spec):
        for cname, count in spec.items():
            cdir = tmp_path / cname
            cdir.mkdir()
            for i in range(count):
                D.write_ppm(cdir / f"im_{i:03d}.ppm", _img(i))
        return tmp_path

    def test_two_classes_three_files(self, tmp_path):
        root = self._tree(tmp_path, {"beta": 3, "alpha": 3})
        ds, skipped = D.scan_directory(root)
        assert ds.classes == ["alpha", "beta"]  # lexicographic
        assert len(ds) == 6
        assert not skipped

    def test_rescan_identical(self, tmp_path):
        root = self._tree(tmp_path, {"a": 2, "b": 2})
        ds1, _ = D.scan_directory(root)
        ds2, _ = D.scan_directory(root)
        assert [s.path for s in ds1.samples] == [s.path for s in ds2.samples]
        assert [s.label for s in ds1.samples] == [s.label for s in ds2.samples]

    def test_corrupt_file_lenient_records_skip(self, tmp_path):
        root = self._tree(tmp_path, {"a": 2})
        (root / "a" / "im_xxx.ppm").write_bytes(b"P6 2 2 255\n\x00\x00")
        ds, skipped = D.scan_directory(root, lenient=True)
        assert len(ds) == 2
        assert len(skipped) == 1
        assert "im_xxx" in skipped[0][0]
        assert "truncated" in skipped[0][1]

    def test_corrupt_file_strict_raises(self, tmp_path):
        root = self._tree(tmp_path, {"a": 2})
        (root / "a" / "im_xxx.ppm").write_bytes(b"JUNK")
        with pytest.raises(ValueError):
            D.scan_directory(root)

    def test_empty_class_dir(self, tmp_path):
        root = self._tree(tmp_path, {"a": 2})
        (root / "empty").mkdir()
        with pytest.raises(ValueError):
            D.scan_directory(root)


class TestResize:
    def test_same_size_identity(self):
        img = _img(0)
        assert np.array_equal(D.resize_bilinear(img, (8, 8)), img)

    def test_2x2_to_1x1_is_mean(self):
        img = np.arange(12, dtype=np.float32).reshape(3, 2, 2)
        out = D.resize_bilinear(img, (1, 1))
        assert np.allclose(out[:, 0, 0], img.mean(axis=(1, 2)))

    def test_constant_stays_constant(self):
        img = np.full((3, 5, 7), 0.3, dtype=np.float32)
        out = D.resize_bilinear(img, (11, 3))
        assert np.allclose(out, 0.3, atol=1e-6)

    def test_output_shape(self):
        out = D.resize_bilinear(_img(1, 9, 13), (224, 224))
        assert out.shape == (3, 224, 224)

    def test_half_pixel_alignment_hand_case(self):
        # 1x2 -> 1x4: coords (i+0.5)*0.5-0.5 = -0.25, 0.25, 0.75, 1.25 clamped
        img = np.array([[[0.0, 1.0]]], dtype=np.float32)
        row = D.resize_bilinear(np.repeat(img, 3, axis=0), (1, 4))[0, 0]
        assert np.allclose(row, [0.0, 0.25, 0.75, 1.0], atol=1e-6)


class TestResizeOracle:
    """The shared-tap, in-place resize reproduces the per-axis oracle bit for
    bit: rows first, then columns, ``a * (1 - f) + b * f`` in the input dtype."""

    @given(c=st.integers(1, 3), h=st.integers(1, 40), w=st.integers(1, 40),
           th=st.integers(1, 80), tw=st.integers(1, 80), square=st.booleans(),
           hflip=st.booleans(), vflip=st.booleans(),
           dtype=st.sampled_from([np.float32, np.float64]), seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=200, deadline=None)
    def test_matches_oracle(self, c, h, w, th, tw, square, hflip, vflip, dtype, seed):
        if square:  # equal source and target extents on both axes
            w, tw = h, th
        img = np.random.default_rng(seed).standard_normal((c, h, w)).astype(dtype)
        view = img[:, ::-1 if vflip else 1, ::-1 if hflip else 1]
        out = D.resize_bilinear(view, (th, tw))
        assert _same_bits(out, naive_resize_bilinear(view, (th, tw)))
        assert out.flags.c_contiguous

    @pytest.mark.parametrize("shape,target", [((3, 96, 96), (64, 64)),
                                              ((3, 300, 200), (224, 224)),
                                              ((1, 7, 7), (80, 80)), ((3, 40, 1), (1, 80))])
    def test_matches_oracle_on_decoded_images(self, shape, target):
        img = D.decode_ppm(D.encode_ppm(_img(3, *shape[1:])))[: shape[0]]
        assert _same_bits(D.resize_bilinear(img, target), naive_resize_bilinear(img, target))

    def test_input_left_unchanged(self):
        img = _img(5, 9, 13)
        before = img.copy()
        D.resize_bilinear(img, (9, 20))
        D.resize_bilinear(img, (4, 13))
        assert np.array_equal(img, before)


class TestNormalize:
    def test_identity(self):
        img = _img(2)
        assert np.allclose(D.normalize(img, (0, 0, 0), (1, 1, 1)), img)

    def test_mean_image_goes_to_zero(self):
        mean = (0.2, 0.4, 0.6)
        img = np.stack([np.full((4, 4), m, dtype=np.float32) for m in mean])
        assert np.allclose(D.normalize(img, mean, (1, 1, 1)), 0.0)

    def test_zero_std_rejected(self):
        with pytest.raises(ValueError):
            D.normalize(_img(0), (0, 0, 0), (1, 0, 1))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_bitwise_equal_to_subtract_then_divide(self, dtype):
        img = np.random.default_rng(3).standard_normal((3, 17, 11)).astype(dtype)
        mean, std = (0.485, 0.456, 0.406), (0.229, 0.224, 0.225)
        ref = (img - np.float32(mean).reshape(3, 1, 1)) / np.float32(std).reshape(3, 1, 1)
        before = img.copy()
        assert _same_bits(D.normalize(img, mean, std), ref)
        assert np.array_equal(img, before)


class TestAugment:
    def test_noop_path_identity(self):
        img = _img(4)
        rng = np.random.default_rng(0)
        out = D.augment(img, rng, max_rotation_deg=0.0, hflip=False, vflip=False)
        assert np.array_equal(out, img)

    def test_zero_rotation_identity(self):
        img = _img(6)
        out = D.rotate_bilinear(img, 0.0)
        assert np.allclose(out, img, atol=1e-6)

    def test_rotation_zero_fill_keeps_range(self):
        img = _img(7)
        out = D.rotate_bilinear(img, 10.0)
        assert out.min() >= 0.0 and out.max() <= 1.0 + 1e-6

    def test_augment_range_preserved(self):
        for seed in range(5):
            out = D.augment(_img(seed), np.random.default_rng(seed))
            assert out.min() >= 0.0 and out.max() <= 1.0 + 1e-6

    def test_deterministic_per_rng_state(self):
        img = _img(8)
        a = D.augment(img, np.random.default_rng(5))
        b = D.augment(img, np.random.default_rng(5))
        assert np.array_equal(a, b)


def _same_bits(out, ref):
    return out.dtype == ref.dtype and out.shape == ref.shape and out.tobytes() == ref.tobytes()


_IMAGE = dict(c=st.integers(1, 3), h=st.integers(1, 40), w=st.integers(1, 40),
              dtype=st.sampled_from([np.float32, np.float64]),
              seed=st.integers(0, 2**32 - 1))


class TestAugmentOracle:
    """The zero-bordered warp reproduces the clipped, masked per-tap oracle
    bit for bit (signed zeros included) for any shape, dtype and angle."""

    @pytest.mark.parametrize("hflip,vflip,rotate",
                             list(itertools.product((False, True), repeat=3)))
    @given(max_deg=st.floats(0, 180), **_IMAGE)
    @settings(max_examples=12, deadline=None)
    def test_augment_matches_oracle(self, hflip, vflip, rotate, max_deg, c, h, w, dtype,
                                    seed):
        # rotate=False is the max_rotation_deg=0 path
        max_deg = max_deg if rotate else 0.0
        img = np.random.default_rng(seed).random((c, h, w)).astype(dtype)
        out = D.augment(img, np.random.default_rng(seed), max_deg, hflip, vflip)
        ref = naive_augment(img, np.random.default_rng(seed), max_deg, hflip, vflip)
        assert _same_bits(out, ref)

    @given(degrees=st.floats(-360, 360), **_IMAGE)
    @settings(max_examples=40, deadline=None)
    def test_rotate_matches_oracle_on_signed_values(self, degrees, c, h, w, dtype, seed):
        img = np.random.default_rng(seed).standard_normal((c, h, w)).astype(dtype)
        assert _same_bits(D.rotate_bilinear(img, degrees), naive_rotate_bilinear(img, degrees))

    @pytest.mark.parametrize("shape", [(3, 64, 64), (3, 40, 72), (1, 5, 9), (2, 1, 7)])
    @pytest.mark.parametrize("degrees", [0.0, 0.5, -10.0, 45.0, 90.0, -135.0, 180.0])
    def test_rotate_matches_oracle_on_fixed_angles(self, shape, degrees):
        img = np.random.default_rng(0).random(shape).astype(np.float32)
        assert _same_bits(D.rotate_bilinear(img, degrees), naive_rotate_bilinear(img, degrees))


PPM = D.encode_ppm(_img(9, h=3, w=5))


def _decode_or_value_error(raw):
    raw = bytes(raw)
    reason = None
    try:
        img = D.decode_ppm(raw)
    except ValueError as exc:
        reason = str(exc)
    else:
        assert img.dtype == np.float32 and img.ndim == 3 and img.shape[0] == 3
    # the scan accepts, skips and rejects exactly what the decoder does
    with tempfile.TemporaryDirectory() as root:
        (Path(root) / "a").mkdir()
        path = str(Path(root) / "a" / "x.ppm")
        Path(path).write_bytes(raw)
        ds, skipped = D.scan_directory(root, lenient=True)
        if reason is None:
            assert [s.path for s in ds.samples] == [path] and not skipped
            assert len(D.scan_directory(root)[0]) == 1
        else:
            assert not ds.samples and skipped == [(path, reason)]
            with pytest.raises(ValueError) as err:
                D.scan_directory(root)
            assert str(err.value) == f"{path}: {reason}"


class TestPpmDecoderFuzz:
    """Mutated PPM bytes either decode or raise ValueError, nothing else, and
    the directory scan accepts or refuses them exactly as the decoder does."""

    @pytest.mark.parametrize("extra", [b"", b"\n", bytes(7), b"P6 1 1 255\n\0\0\0"])
    def test_trailing_bytes(self, extra):
        _decode_or_value_error(PPM + extra)

    @given(st.integers(0, len(PPM) - 1))
    @settings(max_examples=40, deadline=None)
    def test_truncated_at_any_byte(self, cut):
        _decode_or_value_error(PPM[:cut])

    @given(st.lists(st.tuples(st.integers(0, 15), st.integers(1, 255)), min_size=1,
                    max_size=4))
    @settings(max_examples=60, deadline=None)
    def test_header_bytes_flipped(self, flips):
        raw = bytearray(PPM)
        for pos, mask in flips:
            raw[pos] ^= mask
        _decode_or_value_error(raw)

    @given(st.integers(0, len(PPM)), st.binary(min_size=1, max_size=8))
    @settings(max_examples=60, deadline=None)
    def test_bytes_inserted(self, pos, extra):
        _decode_or_value_error(PPM[:pos] + extra + PPM[pos:])


def _dataset(counts, seed=0):
    samples = []
    for label, count in enumerate(counts):
        for i in range(count):
            samples.append(D.Sample(path=f"c{label}/{i}.ppm", label=label,
                                    image=_img(seed + label * 1000 + i)))
    return D.Dataset(classes=[f"c{label}" for label in range(len(counts))],
                     samples=samples)


class TestSplits:
    def test_counts_80_20(self):
        ds = _dataset([500, 400])
        train, test = D.split_dataset(ds, 0.8, seed=1)
        assert train.class_counts() == [400, 320]
        assert test.class_counts() == [100, 80]

    def test_same_seed_same_assignment(self):
        ds = _dataset([50, 60])
        t1, s1 = D.split_dataset(ds, 0.8, seed=3)
        t2, s2 = D.split_dataset(ds, 0.8, seed=3)
        assert [s.path for s in t1.samples] == [s.path for s in t2.samples]
        assert [s.path for s in s1.samples] == [s.path for s in s2.samples]

    def test_partition_law(self):
        ds = _dataset([30, 40, 20])
        train, test = D.split_dataset(ds, 0.8, seed=4)
        train_paths = {s.path for s in train.samples}
        test_paths = {s.path for s in test.samples}
        assert train_paths | test_paths == {s.path for s in ds.samples}
        assert not train_paths & test_paths

    @given(counts=st.lists(st.integers(2, 40), min_size=1, max_size=4),
           seed=st.integers(0, 100))
    @settings(max_examples=30, deadline=None)
    def test_partition_property(self, counts, seed):
        ds = _dataset(counts)
        train, test = D.split_dataset(ds, 0.8, seed=seed)
        assert len(train) + len(test) == len(ds)
        for label, n in enumerate(counts):
            assert train.class_counts()[label] == int(np.floor(0.8 * n))

    def test_tiny_class_rejected(self):
        with pytest.raises(ValueError):
            D.split_dataset(_dataset([1, 10]), 0.8, seed=0)

    def test_membership_equals_per_class_permutations_of_the_seed_stream(self):
        ds = _dataset([7, 12, 5])
        seed = 21
        rng = np.random.Generator(np.random.PCG64(seed))  # one stream, classes in order
        first, second = set(), set()
        for label in range(3):
            members = [i for i, s in enumerate(ds.samples) if s.label == label]
            perm = rng.permutation(len(members))
            cut = int(np.floor(0.8 * len(members)))
            first.update(ds.samples[members[i]].path for i in perm[:cut])
            second.update(ds.samples[members[i]].path for i in perm[cut:])
        train, test = D.split_dataset(ds, 0.8, seed=seed)
        assert {s.path for s in train.samples} == first
        assert {s.path for s in test.samples} == second

    def test_validation_split(self):
        ds = _dataset([100, 50])
        fit, val = D.validation_split(ds, fraction=0.2, seed=9)
        assert fit.class_counts() == [80, 40]
        assert val.class_counts() == [20, 10]
        assert not {s.path for s in fit.samples} & {s.path for s in val.samples}


class TestExclusion:
    def test_480_image_class_excluded(self):
        # test share = 480 - floor(0.8*480) = 96 <= 100 -> dropped
        ds = _dataset([480, 600])
        kept, dropped = D.exclude_small_classes(ds, ratio=0.8, threshold=100)
        assert dropped == ["c0"]
        assert kept.classes == ["c1"]
        assert all(s.label == 0 for s in kept.samples)  # re-densified

    def test_table_scale_class_retained(self):
        # a class with 691 test samples comes from n = 3455 at the 80:20 split
        n = 3455
        assert n - int(np.floor(0.8 * n)) == 691
        ds = _dataset([n // 5, 600])  # keep runtime small: 691, 600
        ds = _dataset([691 + 2764, 600])
        kept, dropped = D.exclude_small_classes(ds, ratio=0.8, threshold=100)
        assert "c0" in kept.classes

    def test_survivor_order_preserved(self):
        ds = _dataset([600, 120, 700, 90, 800])
        kept, dropped = D.exclude_small_classes(ds, ratio=0.8, threshold=100)
        assert kept.classes == ["c0", "c2", "c4"]
        assert dropped == ["c1", "c3"]

    def test_never_increases_counts(self):
        ds = _dataset([600, 700])
        kept, _ = D.exclude_small_classes(ds)
        assert sum(kept.class_counts()) <= len(ds)

    def test_all_excluded_raises(self):
        with pytest.raises(ValueError):
            D.exclude_small_classes(_dataset([50, 50]))

    def test_boundary_exactly_100_excluded(self):
        # n=500: test share exactly 100 -> "100 or fewer" is excluded
        ds = _dataset([500, 600])
        kept, dropped = D.exclude_small_classes(ds)
        assert dropped == ["c0"]

    def test_boundary_101_retained(self):
        ds = _dataset([505, 600])  # 505 - 404 = 101 > 100
        kept, dropped = D.exclude_small_classes(ds)
        assert dropped == []


class TestDatasetStats:
    def test_mean_std_of_constant(self):
        samples = [D.Sample("x", 0, np.full((3, 4, 4), 0.25, dtype=np.float32))]
        mean, std = D.dataset_mean_std(samples)
        assert np.allclose(mean, 0.25, atol=1e-6)
        assert np.all(std < 1e-5)

    def test_matches_numpy_reference(self):
        imgs = [_img(s) for s in range(4)]
        samples = [D.Sample(f"{i}", 0, im) for i, im in enumerate(imgs)]
        mean, std = D.dataset_mean_std(samples)
        stacked = np.stack(imgs).astype(np.float64)
        assert np.allclose(mean, stacked.mean(axis=(0, 2, 3)), atol=1e-6)
        assert np.allclose(std, stacked.std(axis=(0, 2, 3)), atol=1e-5)
