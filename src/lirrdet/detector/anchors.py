"""Prior box generation over feature-map grids.

Anchor order is the contract every consumer relies on: levels in config
order, then grid rows, then columns, then scales, then aspects. The head
convolutions pack their output channels in the same per-cell order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..jsonconfig import check_finite


@dataclass(frozen=True)
class LevelSpec:
    stride: int
    scales: tuple = (8.0,)
    aspects: tuple = (1.0,)

    def __post_init__(self):
        check_finite(self)
        if self.stride <= 0:
            raise ValueError(f"stride must be positive, got {self.stride!r}")
        for name in ("scales", "aspects"):
            values = getattr(self, name)
            if not isinstance(values, tuple) or not values or not all(v > 0 for v in values):
                raise ValueError(f"{name} must be a non-empty tuple of positive numbers, got {values!r}")

    @property
    def anchors_per_cell(self) -> int:
        return len(self.scales) * len(self.aspects)


def generate_anchors(image_size: int, levels) -> np.ndarray:
    """Lay one anchor per (cell, scale, aspect) on every level's grid, as
    an (A, 4) float64 array of corner-format boxes in anchor order.

    Cell centers sit at (col + 0.5) * stride, (row + 0.5) * stride; a box
    of scale s and aspect a has width s * sqrt(a) and height s / sqrt(a).
    Boxes are not clipped to the image.
    """
    levels = list(levels)
    if not levels:
        raise ValueError("generate_anchors: need at least one level")
    boxes = []
    for lv in levels:
        if image_size % lv.stride != 0:
            raise ValueError(
                f"generate_anchors: image size {image_size} not divisible by stride {lv.stride}")
        n = image_size // lv.stride
        for row in range(n):
            cy = (row + 0.5) * lv.stride
            for col in range(n):
                cx = (col + 0.5) * lv.stride
                for s in lv.scales:
                    for a in lv.aspects:
                        w = s * math.sqrt(a)
                        h = s / math.sqrt(a)
                        boxes.append((cx - w / 2, cy - h / 2, cx + w / 2, cy + h / 2))
    return np.asarray(boxes, dtype=np.float64)
