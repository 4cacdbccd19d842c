"""Flat key=value run configuration with typed keys, file + command-line
override layering, and a canonical echo. Unknown keys are hard errors."""

from __future__ import annotations

import math
import re
from dataclasses import dataclass

from .models import (VARIANTS, ModelConfig, format_settings, parse_floats3,
                     parse_setting, settings_parsers)
from .train import RunSpec

# the model keys that override a variant's defaults only when set (None: unset)
STRUCTURAL_KEYS = ("cbam_stages", "multiscale_fusion", "dwsep_stages", "dilated_stage5")


@dataclass
class RunConfig:
    # model surface
    variant: str = "baseline"
    preset: str = "full"
    num_classes: int = 4
    cbam_stages: tuple = None
    reduction_ratio: int = 16
    spatial_kernel: int = 7
    multiscale_fusion: bool = None
    dwsep_stages: tuple = None
    dilated_stage5: bool = None
    # training surface
    seed: int = 42
    epochs: int = 30
    batch_size: int = 128
    lr: float = 1e-4
    lr_decay_factor: float = 0.1
    lr_decay_every: int = 10
    val_fraction: float = 0.2
    split_ratio: float = 0.8
    drop_last: bool = False
    workers: int = 1           # only 1; kept so config files listing workers=1 load
    # data surface
    data_dir: str = ""
    out_dir: str = ""
    lenient_scan: bool = False
    exclude_below: int = 0
    augment: bool = True
    rotation_deg: float = 10.0
    hflip: bool = True
    vflip: bool = True
    norm: str = "dataset"      # "dataset" or "custom"
    norm_mean: tuple = (0.5, 0.5, 0.5)
    norm_std: tuple = (0.25, 0.25, 0.25)
    # model detail overrides (0 keeps the preset value)
    base_width: int = 0
    input_size: int = 0

    def set_key(self, key, raw):
        setattr(self, key, parse_setting(key, raw, _PARSERS, "config"))

    @classmethod
    def load(cls, path=None, overrides=()):
        """Layer a key=value file under CLI overrides; a ``#`` at the start
        of a line or after whitespace starts a comment."""
        cfg = cls()
        if path is not None:
            with open(path) as fh:
                for lineno, line in enumerate(fh, 1):
                    stripped = re.split(r"(?:^|\s)#", line, maxsplit=1)[0].strip()
                    if not stripped:
                        continue
                    if "=" not in stripped:
                        raise ValueError(f"{path}:{lineno}: expected key=value, got {line!r}")
                    key, value = stripped.split("=", 1)
                    cfg.set_key(key.strip(), value.strip())
        for key, value in overrides:
            cfg.set_key(key, value)
        cfg.validate()
        return cfg

    def validate(self):
        if self.variant not in VARIANTS:
            raise ValueError(f"variant must be one of {VARIANTS}, got {self.variant!r}")
        if self.preset not in ("full", "tiny"):
            raise ValueError(f"preset must be full or tiny, got {self.preset!r}")
        if not 0 < self.split_ratio < 1:
            raise ValueError("split_ratio must be in (0,1)")
        if not 0 < self.val_fraction < 1:
            raise ValueError("val_fraction must be in (0,1)")
        if self.norm not in ("dataset", "custom"):
            raise ValueError("norm must be 'dataset' or 'custom'")
        for key, low in (("batch_size", 1), ("lr", 0), ("lr_decay_every", 1),
                         ("lr_decay_factor", 0), ("rotation_deg", 0), ("epochs", 0),
                         ("base_width", 0), ("seed", 0), ("exclude_below", 0)):
            value = getattr(self, key)
            if not low <= value < math.inf:
                raise ValueError(f"{key} must be a finite number >= {low}, got {value!r}")
        if self.rotation_deg > 180:
            raise ValueError(f"rotation_deg must be <= 180, got {self.rotation_deg!r}")
        for key, value in (("data_dir", self.data_dir), ("out_dir", self.out_dir)):
            if value != value.strip() or re.search(r"[\n\r]|\s#", value):
                raise ValueError(f"{key} {value!r} cannot be written to config.txt: it has a "
                                 "line break, whitespace at an end or whitespace before #")
        if self.workers != 1:
            raise ValueError(f"workers must be 1, got {self.workers!r}")
        if not all(math.isfinite(v) for v in self.norm_mean):
            raise ValueError(f"norm_mean must be finite, got {self.norm_mean!r}")
        if not all(0 < v < math.inf for v in self.norm_std):
            raise ValueError(f"norm_std must be finite and > 0, got {self.norm_std!r}")
        self.model_config()
        return self

    def echo(self):
        """Canonical resolved config text (sorted keys); a structural key is
        listed only when set, so the text loads back into the same run."""
        return format_settings({k: getattr(self, k) for k in _PARSERS
                                if getattr(self, k) is not None})

    def model_config(self, variant=None):
        overrides = {}
        if self.base_width:
            overrides["base_width"] = self.base_width
        if self.input_size:
            overrides["input_size"] = (self.input_size, self.input_size)
        overrides["num_classes"] = self.num_classes
        overrides["reduction_ratio"] = self.reduction_ratio
        overrides["spatial_kernel"] = self.spatial_kernel
        for key in STRUCTURAL_KEYS:
            if getattr(self, key) is not None:
                overrides[key] = getattr(self, key)
        return ModelConfig.make(variant or self.variant, preset=self.preset, **overrides)

    def run_spec(self, norm_mean, norm_std):
        return RunSpec(
            epochs=self.epochs, batch_size=self.batch_size, base_lr=self.lr,
            lr_decay_factor=self.lr_decay_factor, lr_decay_every=self.lr_decay_every,
            seed=self.seed, val_fraction=self.val_fraction, augment=self.augment,
            rotation_deg=self.rotation_deg, hflip=self.hflip, vflip=self.vflip,
            drop_last=self.drop_last, norm_mean=tuple(norm_mean), norm_std=tuple(norm_std),
            resize_to=self.model_config().input_size,
        )


_PARSERS = settings_parsers(RunConfig, norm_mean=parse_floats3, norm_std=parse_floats3)
