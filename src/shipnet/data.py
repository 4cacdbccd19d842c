"""Dataset ingestion and the image preprocessing chain.

Images are binary PPM (P6) decoded to [3,H,W] float arrays in [0,1].
Splits, class exclusion and augmentation are pure functions of their inputs
and seeds; a directory tree ``root/<class_name>/*.ppm`` maps to class
indices by sorted directory name.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

import numpy as np


# ---- PPM codec --------------------------------------------------------------


def decode_ppm(data):
    """Binary P6 with maxval 255; ``#`` comments allowed in the header."""
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
    payload = data[pos : pos + need]
    if len(payload) != need:
        raise ValueError(f"truncated PPM payload: {len(payload)} of {need} bytes")
    img = np.frombuffer(payload, dtype=np.uint8).reshape(height, width, 3)
    return (img.transpose(2, 0, 1).astype(np.float32)) / 255.0


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
        if self.image is None:
            self.image = read_ppm(self.path)
        return self.image


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


@dataclass
class CleaningReport:
    skipped: list = field(default_factory=list)

    def add(self, path, reason):
        self.skipped.append((path, reason))

    def render(self):
        return "".join(f"{path}\t{reason}\n" for path, reason in self.skipped)


def scan_directory(root, lenient=False):
    """Deterministic scan of ``root/<class_name>/*.ppm``.

    Class indices follow sorted directory names; samples follow sorted file
    names. Unreadable files raise, unless ``lenient`` records and skips them.
    Returns (dataset, cleaning report).
    """
    if not os.path.isdir(root):
        raise FileNotFoundError(f"dataset root {root} is not a directory")
    class_dirs = sorted(d for d in os.listdir(root)
                        if os.path.isdir(os.path.join(root, d)))
    if not class_dirs:
        raise ValueError(f"no class directories under {root}")
    report = CleaningReport()
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
                    decode_ppm(fh.read())
            except (OSError, ValueError) as exc:
                if not lenient:
                    raise ValueError(f"{path}: {exc}") from exc
                report.add(path, str(exc))
                continue
            samples.append(Sample(path=path, label=label))
    return Dataset(classes=class_dirs, samples=samples), report


# ---- geometry ---------------------------------------------------------------


def _resample_axis(img, axis, target):
    """Half-pixel-center bilinear resample of one spatial axis, edge clamped."""
    src = img.shape[axis]
    if src == target:
        return img
    scale = src / target
    coords = (np.arange(target) + 0.5) * scale - 0.5
    lo = np.floor(coords).astype(np.int64)
    frac = (coords - lo).astype(img.dtype)
    lo_c = np.clip(lo, 0, src - 1)
    hi_c = np.clip(lo + 1, 0, src - 1)
    a = np.take(img, lo_c, axis=axis)
    b = np.take(img, hi_c, axis=axis)
    shape = [1] * img.ndim
    shape[axis] = target
    frac = frac.reshape(shape)
    return a * (1 - frac) + b * frac


def resize_bilinear(img, target):
    """Resize [C,H,W] to [C,target_h,target_w]."""
    th, tw = (int(t) for t in target)
    if th < 1 or tw < 1:
        raise ValueError(f"bad resize target {target}")
    out = _resample_axis(img, 1, th)
    out = _resample_axis(out, 2, tw)
    return np.ascontiguousarray(out, dtype=np.float32)


def normalize(img, mean, std):
    """(v - mean_c) / std_c per channel."""
    mean = np.asarray(mean, dtype=np.float32).reshape(3, 1, 1)
    std = np.asarray(std, dtype=np.float32).reshape(3, 1, 1)
    if np.any(std <= 0):
        raise ValueError("std must be positive per channel")
    return (img - mean) / std


def dataset_mean_std(samples):
    """Per-channel mean/std over a sample list (loads images)."""
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
    """Rotate about the image center, bilinear sampling, zero fill outside."""
    c, h, w = img.shape
    theta = np.deg2rad(degrees)
    cos, sin = np.cos(theta), np.sin(theta)
    cy, cx = (h - 1) / 2.0, (w - 1) / 2.0
    yy, xx = np.meshgrid(np.arange(h, dtype=np.float64),
                         np.arange(w, dtype=np.float64), indexing="ij")
    # inverse map: output pixel pulls from rotated source location
    sx = cos * (xx - cx) + sin * (yy - cy) + cx
    sy = -sin * (xx - cx) + cos * (yy - cy) + cy
    x0 = np.floor(sx).astype(np.int64)
    y0 = np.floor(sy).astype(np.int64)
    fx = sx - x0
    fy = sy - y0
    out = np.zeros_like(img)
    for dy in (0, 1):
        for dx in (0, 1):
            xi = x0 + dx
            yi = y0 + dy
            wgt = (fx if dx else 1 - fx) * (fy if dy else 1 - fy)
            valid = (xi >= 0) & (xi < w) & (yi >= 0) & (yi < h)
            xi_c = np.clip(xi, 0, w - 1)
            yi_c = np.clip(yi, 0, h - 1)
            out += img[:, yi_c, xi_c] * (wgt * valid)[None].astype(img.dtype)
    return out


def augment(img, rng, max_rotation_deg=10.0, hflip=True, vflip=True, rotate=True):
    """Independent random horizontal/vertical flips (p=0.5 each) and a
    rotation uniform in [-max_rotation_deg, +max_rotation_deg]."""
    if hflip and rng.random() < 0.5:
        img = img[:, :, ::-1]
    if vflip and rng.random() < 0.5:
        img = img[:, ::-1, :]
    if rotate:
        angle = rng.uniform(-max_rotation_deg, max_rotation_deg)
        img = rotate_bilinear(np.ascontiguousarray(img), angle)
    return np.ascontiguousarray(img)


# ---- splits -----------------------------------------------------------------


def split_dataset(ds, ratio=0.8, seed=0):
    """Stratified per class: shuffle members with the seed, first
    floor(ratio*n) to the first part. Pure function of (sample order, seed)."""
    if not 0 < ratio < 1:
        raise ValueError(f"ratio must be in (0,1), got {ratio}")
    rng = np.random.Generator(np.random.PCG64(seed))
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
