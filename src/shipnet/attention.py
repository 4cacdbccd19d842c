"""Channel and spatial attention gates for feature-map refinement.

The channel gate squeezes each channel through shared avg/max pooled
descriptors and a bottleneck MLP; the spatial gate convolves the
cross-channel mean/max maps. Both multiply into the feature map in
channel-then-spatial order. The improved spatial variant swaps the wide
dense convolution for a dilated depthwise + pointwise pair, widening the
receptive field (span 13 vs 7) at nearly the same parameter count.
"""

from __future__ import annotations

from . import tensor as T
from .layers import Conv2d, Conv2dSpec, Linear, Module


class ChannelAttention(Module):
    """Per-channel sigmoid gate from pooled descriptors, [N,C,1,1]."""

    def __init__(self, channels, reduction_ratio, rng):
        super().__init__()
        if channels % reduction_ratio:
            raise ValueError(f"reduction ratio {reduction_ratio} must divide channels {channels}")
        self.channels = int(channels)
        hidden = channels // reduction_ratio
        # MLP shared between the avg and max descriptors, no bias
        self.squeeze = Linear(channels, hidden, rng, bias=False)
        self.excite = Linear(hidden, channels, rng, bias=False)

    def _mlp(self, desc):
        return self.excite(self.squeeze(desc).relu())

    def forward(self, x):
        n, c, _, _ = x.shape
        if c != self.channels:
            raise ValueError(f"expected {self.channels} channels, got {c}")
        avg = x.mean(axes=(2, 3), keepdims=True).reshape((n, c))
        mx = x.max(axes=(2, 3), keepdims=True).reshape((n, c))
        gate = (self._mlp(avg) + self._mlp(mx)).sigmoid()
        return gate.reshape((n, c, 1, 1))


class SpatialAttention(Module):
    """Per-location sigmoid gate from cross-channel mean/max maps, [N,1,H,W].

    variant "standard": single k x k conv over the 2-channel descriptor map.
    variant "improved": k x k depthwise conv with dilation, then 1x1
    pointwise to one channel.
    Padding keeps the output spatial size equal to the input.
    """

    def __init__(self, rng, kernel=7, dilation=1, variant="standard"):
        super().__init__()
        if kernel % 2 == 0:
            raise ValueError(f"spatial attention kernel must be odd, got {kernel}")
        if variant not in ("standard", "improved"):
            raise ValueError(f"unknown spatial attention variant {variant!r}")
        self.variant = variant
        pad = dilation * (kernel - 1) // 2
        if variant == "standard":
            self.conv = Conv2d(
                Conv2dSpec(2, 1, kernel, padding=pad, dilation=dilation, bias=False), rng)
        else:
            self.depthwise = Conv2d(
                Conv2dSpec(2, 2, kernel, padding=pad, dilation=dilation, groups=2, bias=False),
                rng)
            self.pointwise = Conv2d(Conv2dSpec(2, 1, 1, bias=False), rng)

    def forward(self, x):
        avg = x.mean(axes=(1,), keepdims=True)
        mx = x.max(axes=(1,), keepdims=True)
        desc = T.concat([avg, mx], axis=1)
        if self.variant == "standard":
            pre = self.conv(desc)
        else:
            pre = self.pointwise(self.depthwise(desc))
        return pre.sigmoid()


class CBAM(Module):
    """Sequential channel-then-spatial multiplicative gating.

    ``bypass`` forces both gates to 1, making the block an exact identity.
    """

    def __init__(self, channels, rng, reduction_ratio=16, spatial_kernel=7, improved=False):
        super().__init__()
        self.channel = ChannelAttention(channels, reduction_ratio, rng)
        if improved:
            self.spatial = SpatialAttention(rng, kernel=spatial_kernel, dilation=2,
                                            variant="improved")
        else:
            self.spatial = SpatialAttention(rng, kernel=spatial_kernel)
        self.bypass = False

    def forward(self, x):
        if self.bypass:
            return x
        x = x * self.channel(x)
        return x * self.spatial(x)


def set_attention_bypass(model, on):
    """Force every attention block in a module tree to identity."""
    for _, mod in model.modules():
        if isinstance(mod, CBAM):
            mod.bypass = bool(on)
