"""Synthetic ship-silhouette corpus generator.

Renders four separable vessel families on noisy water backgrounds: long
hull with hatch rows, hull with a centered superstructure, hull with a
container grid, and hull with deck piping and tank domes. Position, scale,
heading and brightness are randomized per image; everything derives from
one corpus seed, so regeneration is byte-identical.
"""

from __future__ import annotations

import os

import numpy as np

from .data import write_ppm
from .tensor import make_rng

FAMILIES = ("bulk_carrier", "cargo", "container", "oil_tanker")

# hull proportions as fractions of the image side: (length, width, bow length)
_HULL = {
    "bulk_carrier": (0.80, 0.14, 0.12),
    "cargo": (0.62, 0.20, 0.10),
    "container": (0.72, 0.18, 0.10),
    "oil_tanker": (0.85, 0.24, 0.14),
}


def _water(size, rng):
    base = np.array([0.16, 0.22, 0.34], dtype=np.float64).reshape(3, 1, 1)
    img = np.broadcast_to(base, (3, size, size)).copy()
    img += rng.normal(0.0, 0.025, size=(3, size, size))
    yy = np.arange(size).reshape(1, size, 1)
    freq = rng.uniform(0.05, 0.15)
    phase = rng.uniform(0, 2 * np.pi)
    img += 0.02 * np.sin(2 * np.pi * freq * yy + phase)
    return img


def _ship_frame(size, rng, family):
    lf, wf, bf = _HULL[family]
    scale = rng.uniform(0.8, 1.2)  # +/-20%
    length = lf * size * scale
    width = wf * size * scale
    bow = bf * size * scale
    cx = size / 2 + rng.uniform(-0.08, 0.08) * size
    cy = size / 2 + rng.uniform(-0.08, 0.08) * size
    theta = rng.uniform(0, 2 * np.pi)
    yy, xx = np.meshgrid(np.arange(size, dtype=np.float64),
                         np.arange(size, dtype=np.float64), indexing="ij")
    u = (xx - cx) * np.cos(theta) + (yy - cy) * np.sin(theta)
    v = -(xx - cx) * np.sin(theta) + (yy - cy) * np.cos(theta)
    return u, v, length, width, bow


def _hull_mask(u, v, length, width, bow):
    half_l, half_w = length / 2, width / 2
    # square stern, linearly tapered bow
    taper = np.clip((half_l - u) / max(bow, 1e-6), 0.0, 1.0)
    allowed = half_w * np.where(u > half_l - bow, taper, 1.0)
    return (np.abs(u) <= half_l) & (np.abs(v) <= allowed)


def _paint(img, mask, color):
    for ch in range(3):
        img[ch][mask] = color[ch]


def _decorate(img, family, hull, u, v, length, width, deck_gray):
    half_l, half_w = length / 2, width / 2
    if family == "bulk_carrier":
        # rows of dark hatch rectangles along the hull axis
        period = length / 6.0
        in_row = (np.mod(u + half_l, period) / period) < 0.55
        mask = in_row & (np.abs(u) < half_l * 0.8) & (np.abs(v) < half_w * 0.55)
        _paint(img, hull & mask, (0.13, 0.13, 0.16))
    elif family == "cargo":
        # bright centered superstructure block plus a dark funnel stripe
        block = (np.abs(u) < length * 0.14) & (np.abs(v) < half_w * 0.75)
        _paint(img, hull & block, (0.88, 0.87, 0.82))
        funnel = (np.abs(u) < length * 0.03) & (np.abs(v) < half_w * 0.35)
        _paint(img, hull & funnel, (0.20, 0.10, 0.10))
    elif family == "container":
        # checkered container grid over the deck
        pu = length / 9.0
        pv = max(width / 3.0, 1e-6)
        parity = (np.floor((u + half_l) / pu) + np.floor((v + half_w) / pv)) % 2
        deck = hull & (np.abs(u) < half_l * 0.82) & (np.abs(v) < half_w * 0.7)
        _paint(img, deck & (parity == 0), (0.55, 0.15, 0.12))
        _paint(img, deck & (parity == 1), (0.12, 0.30, 0.45))
    else:  # oil_tanker
        # longitudinal pipe line and round tank domes
        pipe = (np.abs(v) < width * 0.05) & (np.abs(u) < half_l * 0.85)
        _paint(img, hull & pipe, (0.85, 0.82, 0.35))
        for frac in (-0.55, -0.15, 0.25, 0.6):
            du = u - frac * half_l
            dome = (du * du + v * v < (half_w * 0.45) ** 2) & hull
            _paint(img, dome, (deck_gray + 0.18,) * 3)


def render_ship(family, size, rng):
    """One [3,size,size] float image in [0,1]."""
    if family not in FAMILIES:
        raise ValueError(f"unknown family {family!r}")
    img = _water(size, rng)
    u, v, length, width, bow = _ship_frame(size, rng, family)
    hull = _hull_mask(u, v, length, width, bow)
    deck_gray = rng.uniform(0.42, 0.60)
    _paint(img, hull, (deck_gray,) * 3)
    _decorate(img, family, hull, u, v, length, width, deck_gray)
    brightness = rng.uniform(0.9, 1.1)
    for ch in range(3):
        img[ch][hull] *= brightness
    return np.clip(img, 0.0, 1.0).astype(np.float32)


def generate_synthetic(out_dir, per_class, size=64, seed=42, classes=None):
    """Write ``out_dir/<family>/img_NNNNN.ppm``; deterministic per seed.

    Returns the list of written file paths (sorted by class then index).
    """
    if size < 32:
        raise ValueError(f"image size must be >= 32, got {size}")
    families = FAMILIES if classes is None else tuple(classes)
    for f in families:
        if f not in FAMILIES:
            raise ValueError(f"unknown family {f!r}")
    paths = []
    for ci, family in enumerate(families):
        cdir = os.path.join(out_dir, family)
        os.makedirs(cdir, exist_ok=True)
        for i in range(per_class):
            img = render_ship(family, size, make_rng(seed, ci, i))
            path = os.path.join(cdir, f"img_{i:05d}.ppm")
            write_ppm(path, img)
            paths.append(path)
    return paths
