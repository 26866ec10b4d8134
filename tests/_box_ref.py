"""Test-side references for the detector's box code.

`iou` is the scalar IoU that `boxes.iou_matrix` must equal bit for bit;
`positive_mask` marks the anchors a `MatchResult` assigns to a GT.
"""

import numpy as np


def iou(a, b) -> float:
    """IoU of two corner-format boxes, one Python float at a time."""
    ix1 = max(a[0], b[0])
    iy1 = max(a[1], b[1])
    ix2 = min(a[2], b[2])
    iy2 = min(a[3], b[3])
    inter = max(0.0, ix2 - ix1) * max(0.0, iy2 - iy1)
    area_a = (a[2] - a[0]) * (a[3] - a[1])
    area_b = (b[2] - b[0]) * (b[3] - b[1])
    union = area_a + area_b - inter
    if union <= 0.0:
        return 0.0
    return inter / union


def positive_mask(match) -> np.ndarray:
    """True where a MatchResult assigns the anchor to a GT."""
    return match.gt_index >= 0
