"""Single-shot detector: shared conv backbone, per-level prediction heads.

Three head sets consume the same backbone features: one trained on every
domain, plus one per domain selected by an integer domain id. Head output
channels pack as anchor-within-cell major, class minor, so the flattened
(N, H*W*A, K) layout lines up with the anchor grid's ordering.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..autodiff import Conv2d, Module, Tensor, concat
from .anchors import AnchorGrid, LevelSpec, generate_anchors

# strides of the two backbone feature maps the heads read, finest first
HEAD_STRIDES = (8, 16)

DEFAULT_LEVELS = (
    LevelSpec(stride=8, scales=(10.0, 16.0), aspects=(1.0, 2.0, 0.5)),
    LevelSpec(stride=16, scales=(24.0, 36.0), aspects=(1.0, 2.0, 0.5)),
)


@dataclass(frozen=True)
class ModelSpec:
    image_size: int = 64
    in_channels: int = 1
    num_classes: int = 1          # foreground classes; background is class id 0
    widths: tuple = (16, 32, 48, 64)
    levels: tuple = DEFAULT_LEVELS
    num_domains: int = 2

    def __post_init__(self):
        strides = tuple(lv.stride for lv in self.levels)
        if strides != HEAD_STRIDES:
            raise ValueError(f"levels must have the head strides {HEAD_STRIDES} in that order, "
                             f"got strides {strides}")
        if len(self.widths) != 4 or min(self.widths) <= 0:
            raise ValueError(f"widths must be 4 positive channel counts, got {self.widths}")
        if self.image_size <= 0 or self.image_size % HEAD_STRIDES[-1]:
            raise ValueError(f"image_size must be a positive multiple of {HEAD_STRIDES[-1]}, "
                             f"got {self.image_size}")
        for name in ("in_channels", "num_classes", "num_domains"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive, got {getattr(self, name)}")

    @property
    def num_logits(self) -> int:
        return self.num_classes + 1


def _flatten_head(out: Tensor, per_cell: int, width: int) -> Tensor:
    # (N, A*W, H, Wd) -> (N, H*Wd*A, W) matching anchor order within a level
    n, _, h, w = out.data.shape
    return (out.reshape(n, per_cell, width, h, w)
               .transpose(0, 3, 4, 1, 2)
               .reshape(n, h * w * per_cell, width))


class PredictionHead(Module):
    """Class-logit and box-offset convs for one feature level."""

    def __init__(self, in_ch: int, per_cell: int, num_logits: int, *, rng):
        self.cls = Conv2d(in_ch, per_cell * num_logits, 3, padding=1, rng=rng)
        self.loc = Conv2d(in_ch, per_cell * 4, 3, padding=1, rng=rng)
        self.per_cell = per_cell
        self.num_logits = num_logits

    def __call__(self, feat: Tensor):
        cls = _flatten_head(self.cls(feat), self.per_cell, self.num_logits)
        loc = _flatten_head(self.loc(feat), self.per_cell, 4)
        return cls, loc


class HeadSet(Module):
    """One prediction head per feature level, concatenated over anchors."""

    def __init__(self, feat_channels, levels, num_logits: int, *, rng):
        self.heads = [PredictionHead(c, lv.anchors_per_cell, num_logits, rng=rng)
                      for c, lv in zip(feat_channels, levels)]

    def __call__(self, feats):
        outs = [head(f) for head, f in zip(self.heads, feats)]
        cls = concat([c for c, _ in outs], axis=1)
        loc = concat([l for _, l in outs], axis=1)
        return cls, loc


class Detector(Module):
    def __init__(self, spec: ModelSpec, *, rng: np.random.Generator):
        w1, w2, w3, w4 = spec.widths
        self.conv1 = Conv2d(spec.in_channels, w1, 3, stride=2, padding=1, rng=rng)
        self.conv2 = Conv2d(w1, w2, 3, stride=2, padding=1, rng=rng)
        self.conv3 = Conv2d(w2, w3, 3, stride=2, padding=1, rng=rng)
        self.conv4 = Conv2d(w3, w4, 3, stride=2, padding=1, rng=rng)
        feat_channels = (w3, w4)
        self.invariant_head = HeadSet(feat_channels, spec.levels, spec.num_logits, rng=rng)
        self.domain_heads = [HeadSet(feat_channels, spec.levels, spec.num_logits, rng=rng)
                             for _ in range(spec.num_domains)]
        self.spec = spec
        self.anchors: AnchorGrid = generate_anchors(spec.image_size, spec.levels)

    def features(self, x: Tensor):
        """Backbone; returns the feature maps at HEAD_STRIDES (8 and 16)."""
        h = self.conv1(x).relu()
        h = self.conv2(h).relu()
        f3 = self.conv3(h).relu()
        f4 = self.conv4(f3).relu()
        return [f3, f4]

    def predict(self, feats, head="invariant"):
        """head is "invariant" or an integer domain id."""
        if head == "invariant":
            return self.invariant_head(feats)
        return self.domain_heads[int(head)](feats)
