"""Attention visualizations: spatial-gate heatmaps from attention-equipped
variants and gradient-weighted class activation maps for any variant, both
upsampled to input resolution and overlaid on the source image. A spatial-gate
map records nothing and ends the forward at its gate, so an early stage's map
costs a fraction of a forward; Grad-CAM records from its stage's input on."""

from __future__ import annotations

import numpy as np

from . import tensor as T
from .data import resize_bilinear, write_ppm
from .layers import watch
from .models import STAGES

METHODS = ("spatial-gate", "gradcam")


class _Stop(Exception):
    """Ends a forward once the module it reads has returned."""


def _forward(model, img_norm, module, record_after=None, stop=False):
    """Logits of one image (None if ``stop`` ends the forward at ``module``)
    and ``module``'s output; ops record from ``record_after``'s return to the end."""
    kept = []

    def hook(mod, args, out):
        if mod is record_after:
            T.set_grad_enabled(True)
        if mod is module:
            kept.append(out)
            if stop:
                raise _Stop

    try:
        with T.no_grad(), watch(hook):
            logits = model(T.Tensor(img_norm[None].astype(np.float32)))
    except _Stop:
        logits = None
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
    out = _forward(model, img_norm, cbam if cbam.bypass else cbam.spatial, stop=True)[1].data[0]
    gate = np.ones_like(out[:1]) if cbam.bypass else out
    return resize_bilinear(gate, img_norm.shape[1:])[0]


def gradcam_map(model, img_norm, stage=5, target_class=None):
    """relu of the gradient-channel-weighted stage activation, min-max
    scaled to [0,1] (an all-zero map stays zero), at input resolution."""
    if stage not in STAGES:
        raise ValueError(f"stage {stage!r} is not one of {STAGES}")
    model.eval()
    feeder = model.stem_pool if stage == STAGES[0] else getattr(model, f"stage{stage - 1}")
    logits, act = _forward(model, img_norm, getattr(model, f"stage{stage}"), record_after=feeder)
    if target_class is None:
        target_class = int(logits.data[0].argmax())
    if not 0 <= target_class < logits.shape[1]:
        raise ValueError(f"class {target_class} out of range")
    (act_grad,) = T.grad(logits[0, target_class], [act])
    grads = act_grad[0]          # [C,h,w]
    acts = act.data[0]
    weights = grads.mean(axis=(1, 2))
    cam = np.maximum((weights[:, None, None] * acts).sum(axis=0), 0.0)
    lo, peak = cam.min(), cam.max()
    cam = (cam - lo) / (peak - lo) if peak > lo else np.zeros_like(cam)
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
