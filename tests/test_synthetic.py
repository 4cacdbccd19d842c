import hashlib
import os

import numpy as np
import pytest

from shipnet import synthetic as S
from shipnet.data import decode_ppm, encode_ppm, read_ppm, scan_directory


def _corpus_hash(root):
    digest = hashlib.sha256()
    for dirpath, _, files in sorted(os.walk(root)):
        for fname in sorted(files):
            with open(os.path.join(dirpath, fname), "rb") as fh:
                digest.update(fname.encode())
                digest.update(fh.read())
    return digest.hexdigest()


class TestGenerator:
    def test_file_layout_and_count(self, tmp_path):
        paths = S.generate_synthetic(tmp_path, per_class=5, size=64, seed=42)
        assert len(paths) == 20
        ds, _ = scan_directory(tmp_path)
        assert ds.classes == sorted(S.FAMILIES)
        assert len(ds) == 20

    def test_seed_42_byte_identical_reruns(self, tmp_path):
        a = tmp_path / "a"
        b = tmp_path / "b"
        S.generate_synthetic(a, per_class=4, size=64, seed=42)
        S.generate_synthetic(b, per_class=4, size=64, seed=42)
        assert _corpus_hash(a) == _corpus_hash(b)

    def test_different_seeds_differ(self, tmp_path):
        a = tmp_path / "a"
        b = tmp_path / "b"
        S.generate_synthetic(a, per_class=2, size=64, seed=1)
        S.generate_synthetic(b, per_class=2, size=64, seed=2)
        assert _corpus_hash(a) != _corpus_hash(b)

    def test_class_generators_differ_on_same_seed(self, tmp_path):
        S.generate_synthetic(tmp_path, per_class=1, size=64, seed=7)
        hashes = set()
        for family in S.FAMILIES:
            with open(tmp_path / family / "img_00000.ppm", "rb") as fh:
                hashes.add(hashlib.sha256(fh.read()).hexdigest())
        assert len(hashes) == len(S.FAMILIES)

    def test_each_image_is_rendered_from_its_class_and_index_stream(self, tmp_path):
        seed = 5
        S.generate_synthetic(tmp_path, per_class=3, size=48, seed=seed)
        for c, family in enumerate(S.FAMILIES):
            for i in range(3):
                rng = np.random.Generator(np.random.PCG64(
                    np.random.SeedSequence(seed, spawn_key=(c, i))))
                ref = decode_ppm(encode_ppm(S.render_ship(family, 48, rng)))
                out = read_ppm(tmp_path / family / f"img_{i:05d}.ppm")
                assert out.dtype == ref.dtype and out.tobytes() == ref.tobytes(), (family, i)

    def test_values_in_unit_range(self):
        rng = np.random.default_rng(0)
        for family in S.FAMILIES:
            img = S.render_ship(family, 64, rng)
            assert img.shape == (3, 64, 64)
            assert img.min() >= 0.0 and img.max() <= 1.0

    def test_size_floor(self, tmp_path):
        with pytest.raises(ValueError):
            S.generate_synthetic(tmp_path, per_class=1, size=16, seed=0)

    def test_unknown_family(self):
        with pytest.raises(ValueError):
            S.render_ship("submarine", 64, np.random.default_rng(0))

    def test_ship_is_visible(self):
        # the hull must change a meaningful share of pixels vs water alone
        rng = np.random.default_rng(3)
        img = S.render_ship("oil_tanker", 64, rng)
        water_like = np.abs(img[2] - 0.34) < 0.12  # blue channel near water base
        assert water_like.mean() < 0.98
        assert water_like.mean() > 0.5
