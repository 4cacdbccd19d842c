import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
        ds, report = D.scan_directory(root)
        assert ds.classes == ["alpha", "beta"]  # lexicographic
        assert len(ds) == 6
        assert not report.skipped

    def test_rescan_identical(self, tmp_path):
        root = self._tree(tmp_path, {"a": 2, "b": 2})
        ds1, _ = D.scan_directory(root)
        ds2, _ = D.scan_directory(root)
        assert [s.path for s in ds1.samples] == [s.path for s in ds2.samples]
        assert [s.label for s in ds1.samples] == [s.label for s in ds2.samples]

    def test_corrupt_file_lenient_records_skip(self, tmp_path):
        root = self._tree(tmp_path, {"a": 2})
        (root / "a" / "im_xxx.ppm").write_bytes(b"P6 2 2 255\n\x00\x00")
        ds, report = D.scan_directory(root, lenient=True)
        assert len(ds) == 2
        assert len(report.skipped) == 1
        assert "im_xxx" in report.skipped[0][0]
        assert "truncated" in report.skipped[0][1]

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


class TestAugment:
    def test_noop_path_identity(self):
        img = _img(4)
        rng = np.random.default_rng(0)
        out = D.augment(img, rng, hflip=False, vflip=False, rotate=False)
        assert np.array_equal(out, img)

    def test_double_hflip_identity(self):
        img = _img(5)
        assert np.array_equal(img[:, :, ::-1][:, :, ::-1], img)

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
