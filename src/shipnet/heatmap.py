"""Attention visualizations: spatial-gate heatmaps from attention-equipped
variants and gradient-weighted class activation maps for any variant, both
upsampled to input resolution and overlaid on the source image."""

from __future__ import annotations

import numpy as np

from . import tensor as T
from .data import resize_bilinear, write_ppm
from .layers import watch
from .models import STAGES

METHODS = ("spatial-gate", "gradcam")


def _forward(model, img_norm, module):
    """Logits of one image and the output ``module`` gave in that forward."""
    kept = []

    def keep(mod, args, out):
        if mod is module:
            kept.append(out)

    with watch(keep):
        logits = model(T.Tensor(img_norm[None].astype(np.float32)))
    return logits, kept[0]


def spatial_gate_map(model, img_norm, stage=None):
    """The [H,W] spatial attention gate of a stage's last attention block
    (by default the deepest stage that has one), bilinear-upsampled to input
    resolution. Values are already in (0,1); a bypassed block gives 1."""
    if stage not in (None,) + STAGES:
        raise ValueError(f"stage {stage!r} is not one of {STAGES}")
    model.eval()
    cbams = [b.cbam for s in STAGES if stage in (None, s)
             for b in getattr(model, f"stage{s}").items if b.cbam is not None]
    if not cbams:
        raise ValueError("model has no spatial attention gate"
                         + (f" in stage {stage}" if stage is not None else ""))
    cbam = cbams[-1]
    # a bypassed block runs no spatial gate; its [C,h,w] output gives the extents
    with T.no_grad():
        out = _forward(model, img_norm, cbam if cbam.bypass else cbam.spatial)[1].data[0]
    gate = np.ones_like(out[:1]) if cbam.bypass else out
    return resize_bilinear(gate, img_norm.shape[1:])[0]


def gradcam_map(model, img_norm, stage=5, target_class=None):
    """relu of the gradient-channel-weighted stage activation, min-max
    scaled to [0,1] (an all-zero map stays zero), at input resolution."""
    if stage not in STAGES:
        raise ValueError(f"stage {stage!r} is not one of {STAGES}")
    model.eval()
    logits, act = _forward(model, img_norm, getattr(model, f"stage{stage}"))
    if target_class is None:
        target_class = int(logits.data[0].argmax())
    if not 0 <= target_class < logits.shape[1]:
        raise ValueError(f"class {target_class} out of range")
    score = logits[0, target_class]
    score.backward()
    grads = act.grad[0]          # [C,h,w]
    acts = act.data[0]
    weights = grads.mean(axis=(1, 2))
    cam = np.maximum((weights[:, None, None] * acts).sum(axis=0), 0.0)
    peak = cam.max()
    if peak > cam.min():
        cam = (cam - cam.min()) / (peak - cam.min())
    else:
        cam = np.zeros_like(cam)
    return np.clip(resize_bilinear(cam[None], img_norm.shape[1:])[0], 0.0, 1.0)


def colormap(values):
    """3-stop linear map blue -> yellow -> red over [0,1]; returns [3,...]."""
    v = np.clip(np.asarray(values, dtype=np.float32), 0.0, 1.0)
    lo = v <= 0.5
    u = np.where(lo, 2.0 * v, 2.0 * v - 1.0)
    r = np.where(lo, u, 1.0)
    g = np.where(lo, u, 1.0 - u)
    b = np.where(lo, 1.0 - u, 0.0)
    return np.stack([r, g, b])


def overlay(img, heat):
    """0.5 * grayscale(img) + 0.5 * colormap(heat); both at image size."""
    if heat.shape != img.shape[1:]:
        raise ValueError(f"map extents {heat.shape} != image extents {img.shape[1:]}")
    gray = 0.299 * img[0] + 0.587 * img[1] + 0.114 * img[2]
    return 0.5 * gray[None] + 0.5 * colormap(heat)


def overlay_emit(img, heat, path):
    """Write the blended overlay as a P6 file."""
    write_ppm(path, overlay(img, heat))
    return path
