"""Dataset ingestion and the image preprocessing chain.

Images are binary PPM (P6) decoded in one pass to [3,H,W] float32 arrays in
[0,1]. Splits, class exclusion and augmentation are pure functions of their
inputs and seeds; a directory tree ``root/<class_name>/*.ppm`` maps to class
indices by sorted directory name. Resizing (per axis: two gathers, one lerp
in place) and augmentation (flips read as a view, then one bilinear warp per
image) are bitwise equal to the references in ``tests/oracles.py``.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from .tensor import make_rng


# ---- PPM codec --------------------------------------------------------------


def _ppm_pixels(data):
    """[H,W,3] u8 view of binary P6 bytes (maxval 255, ``#`` header comments)."""
    if not data.startswith(b"P6"):
        raise ValueError(f"not a binary PPM: magic {data[:2]!r}")
    pos = 2
    fields = []
    while len(fields) < 3:
        if pos >= len(data):
            raise ValueError("truncated PPM header")
        ch = data[pos : pos + 1]
        if ch == b"#":
            while pos < len(data) and data[pos : pos + 1] not in (b"\n", b"\r"):
                pos += 1
        elif ch.isspace():
            pos += 1
        else:
            start = pos
            while pos < len(data) and not data[pos : pos + 1].isspace():
                pos += 1
            fields.append(data[start:pos])
    pos += 1  # single whitespace after maxval
    try:
        width, height, maxval = (int(f) for f in fields)
    except ValueError as exc:
        raise ValueError(f"bad PPM header fields {fields}") from exc
    if width < 1 or height < 1:
        raise ValueError(f"bad PPM dimensions {width}x{height}")
    if maxval != 255:
        raise ValueError(f"unsupported PPM maxval {maxval}")
    need = width * height * 3
    payload = memoryview(data)[pos : pos + need]
    if len(payload) != need:
        raise ValueError(f"truncated PPM payload: {len(payload)} of {need} bytes")
    return np.frombuffer(payload, dtype=np.uint8).reshape(height, width, 3)


def decode_ppm(data):
    """Binary P6 bytes to a [3,H,W] float32 image in [0,1]."""
    return np.divide(_ppm_pixels(data).transpose(2, 0, 1), np.float32(255), dtype=np.float32)


def encode_ppm(img):
    """[3,H,W] floats in [0,1] back to P6 bytes (values quantized to u8)."""
    if img.ndim != 3 or img.shape[0] != 3:
        raise ValueError(f"expected [3,H,W] image, got {img.shape}")
    arr = np.clip(np.rint(np.asarray(img) * 255.0), 0, 255).astype(np.uint8)
    h, w = arr.shape[1], arr.shape[2]
    return b"P6\n%d %d\n255\n" % (w, h) + arr.transpose(1, 2, 0).tobytes()


def read_ppm(path):
    with open(path, "rb") as fh:
        return decode_ppm(fh.read())


def write_ppm(path, img):
    with open(path, "wb") as fh:
        fh.write(encode_ppm(img))


# ---- dataset ----------------------------------------------------------------


@dataclass
class Sample:
    path: str
    label: int
    image: np.ndarray | None = None

    def load(self):
        return read_ppm(self.path) if self.image is None else self.image


@dataclass
class Dataset:
    classes: list
    samples: list

    def __len__(self):
        return len(self.samples)

    def class_counts(self):
        counts = [0] * len(self.classes)
        for s in self.samples:
            counts[s.label] += 1
        return counts

    def by_class(self):
        groups = [[] for _ in self.classes]
        for i, s in enumerate(self.samples):
            groups[s.label].append(i)
        return groups


def scan_directory(root, lenient=False):
    """Deterministic scan of ``root/<class_name>/*.ppm``.

    Class indices follow sorted directory names; samples follow sorted file
    names. Files ``decode_ppm`` refuses (by header and payload length) raise,
    unless ``lenient`` records and skips them.
    Returns (dataset, list of skipped (path, reason) pairs).
    """
    if not os.path.isdir(root):
        raise FileNotFoundError(f"dataset root {root} is not a directory")
    class_dirs = sorted(d for d in os.listdir(root)
                        if os.path.isdir(os.path.join(root, d)))
    if not class_dirs:
        raise ValueError(f"no class directories under {root}")
    skipped = []
    samples = []
    for label, cname in enumerate(class_dirs):
        cdir = os.path.join(root, cname)
        files = sorted(f for f in os.listdir(cdir) if f.endswith(".ppm"))
        if not files:
            raise ValueError(f"class directory {cdir} has no .ppm files")
        for fname in files:
            path = os.path.join(cdir, fname)
            try:
                with open(path, "rb") as fh:
                    _ppm_pixels(fh.read())
            except (OSError, ValueError) as exc:
                if not lenient:
                    raise ValueError(f"{path}: {exc}") from exc
                skipped.append((path, str(exc)))
                continue
            samples.append(Sample(path=path, label=label))
    return Dataset(classes=class_dirs, samples=samples), skipped


# ---- geometry ---------------------------------------------------------------


def _taps(src, target, dtype):
    """Half-pixel-center bilinear taps of one axis, edge clamped: the source
    indices (lo, hi) and their weights (1 - f, f)."""
    coords = (np.arange(target) + 0.5) * (src / target) - 0.5
    lo = np.floor(coords)
    f = (coords - lo).astype(dtype)
    lo = lo.astype(np.intp)  # in [-1, src - 1], so lo + 1 is in [0, src]
    return np.maximum(lo, 0), np.minimum(lo + 1, src - 1), 1 - f, f


def _lerp(a, b, g, f):
    """a * g + b * f, in place on the gathered ``a`` and ``b``."""
    return np.add(np.multiply(a, g, out=a), np.multiply(b, f, out=b), out=a)


def resize_bilinear(img, target):
    """Resize [C,H,W] (any view) to float32 [C,target_h,target_w]: rows, then
    columns, each ``a * (1 - f) + b * f`` in the input's dtype; an axis at its
    target is skipped. Rows gather by ``take``, columns by a last-axis index."""
    th, tw = (int(t) for t in target)
    if th < 1 or tw < 1:
        raise ValueError(f"bad resize target {target}")
    _, h, w = img.shape
    out = img
    if h != th:
        lo, hi, g, f = _taps(h, th, img.dtype)
        out = _lerp(img.take(lo, axis=1), img.take(hi, axis=1), g[:, None], f[:, None])
    if w != tw:
        if (w, tw) != (h, th):
            lo, hi, g, f = _taps(w, tw, img.dtype)
        out = _lerp(out[:, :, lo], out[:, :, hi], g, f)
    return np.ascontiguousarray(out, dtype=np.float32)


def normalize(img, mean, std):
    """(v - mean_c) / std_c per channel: one new array, divided in place."""
    mean = np.asarray(mean, dtype=np.float32).reshape(3, 1, 1)
    std = np.asarray(std, dtype=np.float32).reshape(3, 1, 1)
    if np.any(std <= 0):
        raise ValueError("std must be positive per channel")
    out = img - mean
    out /= std
    return out


def dataset_mean_std(samples):
    """Per-channel mean/std over a sample list (decodes each image once)."""
    total = np.zeros(3, dtype=np.float64)
    total_sq = np.zeros(3, dtype=np.float64)
    count = 0
    for s in samples:
        img = s.load()
        total += img.sum(axis=(1, 2))
        total_sq += (img.astype(np.float64) ** 2).sum(axis=(1, 2))
        count += img.shape[1] * img.shape[2]
    mean = total / count
    var = total_sq / count - mean**2
    std = np.sqrt(np.maximum(var, 1e-12))
    return mean.astype(np.float32), std.astype(np.float32)


def rotate_bilinear(img, degrees):
    """Rotate [C,H,W] (any view) about the image center, bilinear sampling,
    zero fill outside.

    The image is copied once into a zero-bordered buffer wide enough for
    every tap, so an out-of-image tap reads 0 and no index is clipped or
    masked; the four taps are ``take``s of one flat index at offsets 0, 1,
    wb and wb+1 (wb: the bordered row length), accumulated in the order
    (00, 01, 10, 11)."""
    c, h, w = img.shape
    theta = np.deg2rad(degrees)
    cos, sin = np.cos(theta), np.sin(theta)
    cy, cx = (h - 1) / 2.0, (w - 1) / 2.0
    dx = np.arange(w, dtype=np.float64) - cx
    dy = np.arange(h, dtype=np.float64)[:, None] - cy
    # inverse map: output pixel pulls from rotated source location
    sx = cos * dx + sin * dy + cx
    sy = -sin * dx + cos * dy + cy
    x0 = np.floor(sx)
    y0 = np.floor(sy)
    fx, fy = sx - x0, sy - y0
    gx, gy = 1 - fx, 1 - fy
    b = int(max(0, -x0.min(), -y0.min(), x0.max() + 2 - w, y0.max() + 2 - h))
    wb = w + 2 * b
    buf = np.zeros((c, h + 2 * b, wb), dtype=img.dtype)
    buf[:, b : b + h, b : b + w] = img
    flat = buf.reshape(c, -1)
    idx = (y0 * wb + x0).astype(np.intp) + (b * wb + b)
    out = np.zeros((c, h, w), dtype=img.dtype)
    for off, wgt in ((0, gx * gy), (1, fx * gy), (wb, gx * fy), (wb + 1, fx * fy)):
        out += flat.take(idx + off, axis=1) * wgt.astype(img.dtype)
    return out


def augment(img, rng, max_rotation_deg=10.0, hflip=True, vflip=True):
    """Independent random horizontal/vertical flips (p=0.5 each) and a
    rotation uniform in [-max_rotation_deg, +max_rotation_deg], drawn in
    that order; the flips are a view the warp reads through."""
    if hflip and rng.random() < 0.5:
        img = img[:, :, ::-1]
    if vflip and rng.random() < 0.5:
        img = img[:, ::-1, :]
    return rotate_bilinear(img, rng.uniform(-max_rotation_deg, max_rotation_deg))


# ---- splits -----------------------------------------------------------------


def split_dataset(ds, ratio=0.8, seed=0):
    """Stratified per class: shuffle members with the seed, first
    floor(ratio*n) to the first part. Pure function of (sample order, seed)."""
    if not 0 < ratio < 1:
        raise ValueError(f"ratio must be in (0,1), got {ratio}")
    rng = make_rng(seed)
    first_idx = []
    second_idx = []
    for label, members in enumerate(ds.by_class()):
        if len(members) < 2:
            raise ValueError(
                f"class {ds.classes[label]!r} has {len(members)} samples; need >= 2 to split")
        perm = rng.permutation(len(members))
        cut = int(np.floor(ratio * len(members)))
        first_idx.extend(members[i] for i in perm[:cut])
        second_idx.extend(members[i] for i in perm[cut:])
    first_idx.sort()
    second_idx.sort()
    first = Dataset(ds.classes, [ds.samples[i] for i in first_idx])
    second = Dataset(ds.classes, [ds.samples[i] for i in second_idx])
    return first, second


def validation_split(train, fraction=0.2, seed=0):
    """Stratified, seeded, disjoint (fit, val) partition of a training set."""
    fit, val = split_dataset(train, ratio=1.0 - fraction, seed=seed)
    return fit, val


def exclude_small_classes(ds, ratio=0.8, threshold=100):
    """Drop classes whose prospective test membership would be too small:
    a class of n samples is retained iff n - floor(ratio*n) > threshold.
    Survivors keep their relative order; indices are re-densified."""
    counts = ds.class_counts()
    keep = [i for i, n in enumerate(counts) if n - int(np.floor(ratio * n)) > threshold]
    if not keep:
        raise ValueError("every class fell below the exclusion threshold")
    dropped = [ds.classes[i] for i in range(len(ds.classes)) if i not in keep]
    remap = {old: new for new, old in enumerate(keep)}
    samples = [Sample(s.path, remap[s.label], s.image)
               for s in ds.samples if s.label in remap]
    return Dataset([ds.classes[i] for i in keep], samples), dropped
