"""The three comparative architectures: a bottleneck residual backbone,
the same backbone with attention blocks, and the enhanced variant adding
improved attention, depthwise-separable stages, a dilated final stage and
multiscale feature fusion."""

from __future__ import annotations

from dataclasses import dataclass, fields, replace

from . import tensor as T
from .attention import CBAM
from .layers import (BatchNorm2d, Conv2d, Conv2dSpec, DepthwiseSeparableConv2d,
                     Linear, MaxPool2d, Module, conv_output_extent, residual_relu, watch)

VARIANTS = ("baseline", "cbam", "enhanced")
STAGES = (2, 3, 4, 5)

_PRESETS = {
    "full": dict(stage_blocks=(3, 4, 6, 3), base_width=64, input_size=(224, 224),
                 fusion_width=256),
    "tiny": dict(stage_blocks=(1, 1, 1, 1), base_width=16, input_size=(64, 64),
                 fusion_width=64),
}


# ---- settings text ----------------------------------------------------------
# config.txt, the checkpoint's config and metadata blocks and best.txt are all
# sorted key=value lines, printed by format_settings and read by parse_settings.


def parse_bool(raw):
    low = raw.strip().lower()
    if low in ("1", "true", "yes", "on"):
        return True
    if low in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"expected a boolean, got {raw!r}")


def parse_ints(raw):
    return tuple(int(x) for x in raw.split(",") if x.strip())


def parse_floats3(raw):
    vals = tuple(float(x) for x in raw.split(",") if x.strip())
    if len(vals) != 3:
        raise ValueError(f"expected 3 comma-separated floats, got {raw!r}")
    return vals


# field annotations are strings under ``from __future__ import annotations``
_PARSE_BY_TYPE = {"bool": parse_bool, "int": int, "float": float, "str": str,
                  "tuple": parse_ints}


def settings_parsers(cls, **special):
    """Key -> parser for each field of dataclass ``cls``, chosen by its
    annotation; ``special`` names the parser of a field its type does not fix."""
    parsers = {f.name: _PARSE_BY_TYPE[f.type] for f in fields(cls)}
    parsers.update(special)
    return parsers


def _format_value(value):
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, tuple):
        return ",".join(_format_value(v) for v in value)
    if isinstance(value, float):
        return repr(value)
    return str(value)


def format_settings(values):
    """Sorted ``key=value`` lines: booleans as 1/0, floats by repr, tuples
    comma-joined."""
    return "".join(f"{k}={_format_value(values[k])}\n" for k in sorted(values))


def parse_setting(key, raw, parsers, what):
    """One value through its key's parser; a ValueError names ``what`` and the key."""
    if key not in parsers:
        raise ValueError(f"{what}: unknown key {key!r} (known: {', '.join(sorted(parsers))})")
    try:
        return parsers[key](raw)
    except ValueError as exc:
        raise ValueError(f"{what} key {key}: {exc}") from None


def parse_settings(text, parsers, what):
    """Read ``format_settings`` text holding each key of ``parsers`` exactly
    once; a missing, repeated or unknown key or a bad value raises a
    ValueError naming it."""
    values = {}
    for line in text.splitlines():
        key, sep, raw = line.partition("=")
        if not sep:
            raise ValueError(f"{what}: expected key=value, got {line!r}")
        if key in values:
            raise ValueError(f"{what}: key {key} appears twice")
        values[key] = parse_setting(key, raw, parsers, what)
    missing = sorted(set(parsers) - set(values))
    if missing:
        raise ValueError(f"{what} has no {missing[0]} key")
    return values


def _parse_hxw(raw):
    h, w = (int(v) for v in raw.split("x"))
    return h, w


@dataclass(frozen=True)
class ModelConfig:
    """Declarative architecture description; geometry-validated on demand."""

    variant: str = "baseline"
    stage_blocks: tuple = (3, 4, 6, 3)
    base_width: int = 64
    num_classes: int = 4
    input_size: tuple = (224, 224)
    cbam_stages: tuple = ()
    reduction_ratio: int = 16
    spatial_kernel: int = 7
    multiscale_fusion: bool = False
    dwsep_stages: tuple = ()
    dilated_stage5: bool = False
    fusion_width: int = 256

    @staticmethod
    def make(variant, preset="full", **overrides):
        """Resolve a variant/preset pair into a full config."""
        if variant not in VARIANTS:
            raise ValueError(f"unknown variant {variant!r}; expected one of {VARIANTS}")
        if preset not in _PRESETS:
            raise ValueError(f"unknown preset {preset!r}; expected one of {tuple(_PRESETS)}")
        fields = dict(_PRESETS[preset])
        fields["variant"] = variant
        for key in ("stage_blocks", "input_size", "cbam_stages", "dwsep_stages"):
            if key in overrides:
                overrides[key] = tuple(overrides[key])
        if variant in ("cbam", "enhanced"):
            fields["cbam_stages"] = STAGES
        if variant == "enhanced":
            fields.update(multiscale_fusion=True, dwsep_stages=(4, 5), dilated_stage5=True)
        fields.update(overrides)
        cfg = ModelConfig(**fields)
        cfg.validate()
        return cfg

    def validate(self):
        if self.variant not in VARIANTS:
            raise ValueError(f"unknown variant {self.variant!r}")
        if len(self.stage_blocks) != 4 or any(b < 1 for b in self.stage_blocks):
            raise ValueError(f"stage_blocks must be 4 positive counts, got {self.stage_blocks}")
        if self.variant == "baseline" and (self.cbam_stages or self.multiscale_fusion
                                           or self.dwsep_stages or self.dilated_stage5):
            raise ValueError("baseline variant admits no attention or enhancement flags")
        if self.variant == "enhanced" and not (self.multiscale_fusion or self.dwsep_stages
                                               or self.dilated_stage5):
            raise ValueError("enhanced variant requires at least one enhancement flag")
        for s in self.cbam_stages + tuple(self.dwsep_stages):
            if s not in STAGES:
                raise ValueError(f"stage index {s} outside {STAGES}")
        if self.reduction_ratio < 1:
            raise ValueError(f"reduction ratio must be >= 1, got {self.reduction_ratio}")
        if self.cbam_stages and (self.spatial_kernel < 1 or self.spatial_kernel % 2 == 0):
            raise ValueError(f"spatial_kernel must be odd and positive, got {self.spatial_kernel}")
        for stage in STAGES:
            width = self.stage_width(stage)
            if stage in self.cbam_stages and (4 * width) % self.reduction_ratio:
                raise ValueError(
                    f"reduction ratio {self.reduction_ratio} must divide stage{stage} "
                    f"channels {4 * width}")
        sizes = self.stage_sizes()
        if min(min(hw) for hw in sizes.values()) < 1:
            raise ValueError(f"input {self.input_size} underflows the stage geometry")
        if self.multiscale_fusion:
            h3, w3 = sizes["stage3"]
            for stage in (4, 5):
                h, w = sizes[f"stage{stage}"]
                # nearest 2x upsampling must be able to reach stage3 resolution
                while (h, w) != (h3, w3) and h <= h3 and w <= w3:
                    h, w = 2 * h, 2 * w
                if (h, w) != (h3, w3):
                    raise ValueError(
                        f"input {self.input_size}: stage{stage} extent "
                        f"{sizes[f'stage{stage}']} cannot be upsampled to stage3 "
                        f"extent {(h3, w3)} for multiscale fusion")
        return self

    def stage_width(self, stage):
        return self.base_width * (2 ** (stage - 2))

    def stage_channels(self, stage):
        return 4 * self.stage_width(stage)

    def stage_sizes(self):
        """Spatial extent of the stem and each stage output."""
        h, w = self.input_size
        h = conv_output_extent(h, 7, 2, 3, 1)
        w = conv_output_extent(w, 7, 2, 3, 1)
        h = conv_output_extent(h, 3, 2, 1, 1)
        w = conv_output_extent(w, 3, 2, 1, 1)
        sizes = {"stem": (h, w)}
        for stage in STAGES:
            stride = self._stage_stride(stage)
            if stride == 2:
                h = (h + 1) // 2
                w = (w + 1) // 2
            sizes[f"stage{stage}"] = (h, w)
        return sizes

    def _stage_stride(self, stage):
        if stage == 2:
            return 1
        if stage == 5 and self.dilated_stage5:
            return 1
        return 2

    def to_text(self):
        """Canonical key=value block (sorted keys), used for echo and
        checkpoint identity; ``input_size`` reads HxW."""
        values = {f.name: getattr(self, f.name) for f in fields(self)}
        values["input_size"] = "x".join(str(v) for v in self.input_size)
        return format_settings(values)

    @staticmethod
    def from_text(text):
        return ModelConfig(**parse_settings(text, _CONFIG_PARSERS, "model config")).validate()

    def attention_free(self):
        """The same backbone with every attention block removed."""
        variant = "baseline" if self.variant == "cbam" else self.variant
        cfg = replace(self, variant=variant, cbam_stages=())
        return cfg.validate()


_CONFIG_PARSERS = settings_parsers(ModelConfig, input_size=_parse_hxw)


class Bottleneck(Module):
    """1x1 reduce, 3x3 spatial, 1x1 expand (x4) with shortcut addition.

    The 3x3 may be dilated or swapped for a depthwise-separable pair; an
    optional attention block gates the main path before the addition.
    """

    def __init__(self, in_channels, width, stride, rng, dilation=1, dwsep=False, cbam=None):
        super().__init__()
        out_channels = 4 * width
        self.conv1 = Conv2d(Conv2dSpec(in_channels, width, 1, bias=False), rng)
        self.bn1 = BatchNorm2d(width, relu=True)
        if dwsep:
            self.conv2 = DepthwiseSeparableConv2d(width, width, 3, rng, stride=stride,
                                                  padding=dilation, dilation=dilation, bias=False)
        else:
            self.conv2 = Conv2d(Conv2dSpec(width, width, 3, stride=stride,
                                           padding=dilation, dilation=dilation, bias=False), rng)
        self.bn2 = BatchNorm2d(width, relu=True)
        self.conv3 = Conv2d(Conv2dSpec(width, out_channels, 1, bias=False), rng)
        self.bn3 = BatchNorm2d(out_channels)
        if stride != 1 or in_channels != out_channels:
            self.proj = Conv2d(Conv2dSpec(in_channels, out_channels, 1, stride=stride,
                                          bias=False), rng)
            self.proj_bn = BatchNorm2d(out_channels)
        else:
            self.proj = None
            self.proj_bn = None
        self.cbam = cbam

    def forward(self, x):
        out = self.bn1(self.conv1(x))
        out = self.bn2(self.conv2(out))
        out = self.bn3(self.conv3(out))
        if self.cbam is not None:
            out = self.cbam(out)
        shortcut = self.proj_bn(self.proj(x)) if self.proj is not None else x
        return residual_relu(out, shortcut)


class MultiscaleFusion(Module):
    """Lateral 1x1 projections of three stage outputs, nearest-upsampled to
    the finest resolution, summed, then refined by a 3x3 depthwise-separable
    conv."""

    def __init__(self, in_channels_by_stage, width, rng):
        super().__init__()
        self.laterals = [
            Conv2d(Conv2dSpec(c, width, 1, bias=False), rng)
            for c in in_channels_by_stage
        ]
        self.fuse = DepthwiseSeparableConv2d(width, width, 3, rng, padding=1, bias=False)

    @staticmethod
    def _up_to(t, target_hw):
        while (t.shape[-2], t.shape[-1]) != tuple(target_hw):
            if t.shape[-2] > target_hw[0] or t.shape[-1] > target_hw[1]:
                raise ValueError(f"cannot upsample {t.shape} to {target_hw}")
            t = T.upsample2x(t)
        return t

    def forward(self, f3, f4, f5):
        target = (f3.shape[-2], f3.shape[-1])
        total = None
        for lateral, feat in zip(self.laterals, (f3, f4, f5)):
            mapped = self._up_to(lateral(feat), target)
            total = mapped if total is None else total + mapped
        return self.fuse(total)


class ShipClassifier(Module):
    """Backbone + head for one configured variant; stage outputs and
    attention gates are read through ``layers.watch``."""

    def __init__(self, config, seed):
        super().__init__()
        config.validate()
        self.config = config
        rng = T.make_rng(seed) if seed is not None else None

        w = config.base_width
        self.stem_conv = Conv2d(Conv2dSpec(3, w, 7, stride=2, padding=3, bias=False), rng)
        self.stem_bn = BatchNorm2d(w, relu=True)
        self.stem_pool = MaxPool2d(3, 2, 1)

        improved = config.variant == "enhanced"
        in_channels = w
        for stage in STAGES:
            width = config.stage_width(stage)
            stride = config._stage_stride(stage)
            dilation = 2 if (stage == 5 and config.dilated_stage5) else 1
            blocks = []
            for b in range(config.stage_blocks[stage - 2]):
                cbam = None
                if stage in config.cbam_stages:
                    cbam = CBAM(4 * width, rng, reduction_ratio=config.reduction_ratio,
                                spatial_kernel=config.spatial_kernel, improved=improved)
                blocks.append(Bottleneck(
                    in_channels, width, stride if b == 0 else 1, rng,
                    dilation=dilation, dwsep=stage in config.dwsep_stages, cbam=cbam))
                in_channels = 4 * width
            setattr(self, f"stage{stage}", _Sequential(blocks))

        if config.multiscale_fusion:
            chans = [config.stage_channels(s) for s in (3, 4, 5)]
            self.fusion = MultiscaleFusion(chans, config.fusion_width, rng)
            head_in = config.fusion_width
        else:
            self.fusion = None
            head_in = config.stage_channels(5)
        self.head = Linear(head_in, config.num_classes, rng)

    @property
    def stages(self):
        return [self.stage2, self.stage3, self.stage4, self.stage5]

    def forward(self, x):
        if x.ndim != 4 or x.shape[1] != 3:
            raise ValueError(f"expected [N,3,H,W] input, got {x.shape}")
        if (x.shape[2], x.shape[3]) != tuple(self.config.input_size):
            raise ValueError(
                f"input spatial size {x.shape[2:]} != configured {self.config.input_size}")
        out = self.stem_pool(self.stem_bn(self.stem_conv(x)))
        feats = {}
        for stage, blocks in zip(STAGES, self.stages):
            out = blocks(out)
            feats[stage] = out
        if self.fusion is not None:
            out = self.fusion(feats[3], feats[4], feats[5])
        pooled = out.mean(axes=(2, 3), keepdims=True)
        flat = pooled.reshape((pooled.shape[0], pooled.shape[1]))
        return self.head(flat)


class _Sequential(Module):
    def __init__(self, items):
        super().__init__()
        self.items = list(items)

    def forward(self, x):
        for item in self.items:
            x = item(x)
        return x


def build_model(config, seed):
    """Float32, deterministic per seed: identical seeds give identical
    parameters; seed None draws nothing, leaving zero views for a checkpoint."""
    return ShipClassifier(config, seed)


_DUMP_KINDS = {
    Conv2d: "conv",
    BatchNorm2d: "batchnorm",
    Linear: "linear",
    MaxPool2d: "maxpool",
}


def layer_spec_dump(model):
    """One line per leaf layer: ``name kind shape-in shape-out params``.

    Shapes come from an eval-mode, no-grad forward of one zero image, so the
    batch extent is 1; a layer that did not run (a bypassed attention block)
    shows ``-``. Every module's train/eval mode is restored afterwards, and
    eval mode leaves parameters and running statistics untouched.
    """
    shapes = {}

    def record(mod, args, out):
        if type(mod) in _DUMP_KINDS:
            shapes[mod] = " ".join("x".join(str(s) for s in t.shape) for t in (args[0], out))

    modes = [(mod, mod.training) for _, mod in model.modules()]
    model.eval()
    with T.no_grad(), watch(record):
        model(T.zeros((1, 3) + tuple(model.config.input_size), dtype=model.head.weight.dtype))
    for mod, training in modes:
        mod.training = training
    lines = [f"{name} {_DUMP_KINDS[type(mod)]} {shapes.get(mod, '- -')} {mod.param_count()}"
             for name, mod in model.modules() if type(mod) in _DUMP_KINDS]
    return "\n".join(lines) + "\n"
