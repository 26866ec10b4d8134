"""Single-shot detector: shared conv backbone, per-level prediction heads.

Three head sets consume the same backbone features: one trained on every
domain, plus one per ``DomainLabel`` (0 source, 1 target), indexed by its
value; the objective, the benchmark and the pipeline import this one
definition of the domains. Activations are channel-major, (C, N, H, W),
from the stacked images through the head convs. Each head input is
unrolled into im2col columns once (``HeadSet.columns``), and every head
conv that reads it, in every head set, is handed those columns. Head
output channels pack as anchor-within-cell major, class minor.
``anchor_order`` lays the per-level outputs of one kind out as one
(N, A, width) tensor in the anchor grid's order (level, row, column, anchor
within the cell), as one tape op.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import IntEnum

import numpy as np

from ..autodiff import Conv2d, Module, Tensor
from ..autodiff.tensor import _op
from .anchors import LevelSpec, generate_anchors

# strides of the two backbone feature maps the heads read, finest first
HEAD_STRIDES = (8, 16)

DEFAULT_LEVELS = (
    LevelSpec(stride=8, scales=(10.0, 16.0), aspects=(1.0, 2.0, 0.5)),
    LevelSpec(stride=16, scales=(24.0, 36.0), aspects=(1.0, 2.0, 0.5)),
)


class DomainLabel(IntEnum):
    SOURCE = 0
    TARGET = 1


@dataclass(frozen=True)
class ModelSpec:
    image_size: int = 64
    in_channels: int = 1
    num_classes: int = 1          # foreground classes; background is class id 0
    widths: tuple = (16, 32, 48, 64)
    levels: tuple = DEFAULT_LEVELS

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
        for name in ("in_channels", "num_classes"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive, got {getattr(self, name)}")

    @property
    def num_logits(self) -> int:
        return self.num_classes + 1


def anchor_order(outs, width: int) -> Tensor:
    """Per-level channel-major head outputs (per_cell*width, N, H, W) as one
    (N, A, width) tensor in anchor order: level, then row, then column, then
    anchor within the cell. Each level's gradient is a strided view of the
    upstream gradient, so the conv bias gradient's sum reads it in the
    gradient's own (sample, row, column) order."""
    n = outs[0].data.shape[1]
    dims = [(o.data.shape[0] // width, *o.data.shape[2:]) for o in outs]  # (per_cell, H, W)
    ends = np.cumsum([pc * h * w for pc, h, w in dims])

    def backward_fn(g):
        return tuple(g[:, end - pc * h * w:end].reshape(n, h, w, pc, width)
                     .transpose(3, 4, 0, 1, 2).reshape(pc * width, n, h, w)
                     for (pc, h, w), end in zip(dims, ends))

    data = np.concatenate([o.data.reshape(pc, width, n, h, w).transpose(2, 3, 4, 0, 1)
                           .reshape(n, h * w * pc, width) for o, (pc, h, w) in zip(outs, dims)], axis=1)
    return _op(data, tuple(outs), backward_fn)


class PredictionHead(Module):
    """Class-logit and box-offset convs for one feature level."""

    def __init__(self, in_ch: int, per_cell: int, num_logits: int, *, rng):
        self.cls = Conv2d(in_ch, per_cell * num_logits, 3, padding=1, rng=rng)
        self.loc = Conv2d(in_ch, per_cell * 4, 3, padding=1, rng=rng)


class HeadSet(Module):
    """One prediction head per feature level; outputs in anchor order."""

    def __init__(self, feat_channels, levels, num_logits: int, *, rng):
        self.heads = [PredictionHead(c, lv.anchors_per_cell, num_logits, rng=rng)
                      for c, lv in zip(feat_channels, levels)]
        self.num_logits = num_logits

    def columns(self, feats):
        """Each level's im2col columns: one array that level's cls and loc
        convs, and those of every head set, can read."""
        return [head.cls.columns(f) for head, f in zip(self.heads, feats)]

    def __call__(self, feats, cols=None):
        cols = self.columns(feats) if cols is None else cols
        outs = [(head.cls(f, c), head.loc(f, c)) for head, f, c in zip(self.heads, feats, cols, strict=True)]
        return (anchor_order([c for c, _ in outs], self.num_logits),
                anchor_order([l for _, l in outs], 4))


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
                             for _ in DomainLabel]
        self.spec = spec
        self.anchors = generate_anchors(spec.image_size, spec.levels)  # (A, 4)

    def features(self, x: Tensor):
        """Backbone over (C, N, H, W) images; returns the (C, N, H, W) feature
        maps at HEAD_STRIDES (8 and 16)."""
        h = self.conv1(x).relu()
        h = self.conv2(h).relu()
        f3 = self.conv3(h).relu()
        f4 = self.conv4(f3).relu()
        return [f3, f4]

    def predict(self, feats, head="invariant", cols=None):
        """head is "invariant" or a DomainLabel (0 source, 1 target);
        cols, if given, is HeadSet.columns(feats)."""
        if head == "invariant":
            return self.invariant_head(feats, cols)
        return self.domain_heads[int(head)](feats, cols)
