"""Box geometry: IoU, anchor offset encoding, and greedy NMS.

Boxes are corner-format (x1, y1, x2, y2) in continuous pixel coordinates,
so width is x2 - x1 with no +1 convention. The package computes every IoU
with ``iou_matrix``.

``nms`` walks the candidates in score order in blocks of NMS_BLOCK columns,
scoring each block only against the keeps so far and itself. This is exact:
greedy NMS decides a candidate from the keeps before it alone, and every IoU
is the same ``iou_matrix`` entry, earlier box as the row, as in a full matrix.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

VARIANCES = (0.1, 0.1, 0.2, 0.2)
NMS_BLOCK = 32  # candidates per block of IoU columns in nms


class Detection(NamedTuple):
    bbox: tuple  # (x1, y1, x2, y2)
    class_id: int
    score: float


def iou_matrix(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Pairwise IoU between (N,4) and (M,4) corner boxes, result (N,M)."""
    a = np.asarray(a, dtype=np.float64).reshape(-1, 4)
    b = np.asarray(b, dtype=np.float64).reshape(-1, 4)
    ix1 = np.maximum(a[:, None, 0], b[None, :, 0])
    iy1 = np.maximum(a[:, None, 1], b[None, :, 1])
    ix2 = np.minimum(a[:, None, 2], b[None, :, 2])
    iy2 = np.minimum(a[:, None, 3], b[None, :, 3])
    inter = np.maximum(ix2 - ix1, 0.0) * np.maximum(iy2 - iy1, 0.0)
    area_a = (a[:, 2] - a[:, 0]) * (a[:, 3] - a[:, 1])
    area_b = (b[:, 2] - b[:, 0]) * (b[:, 3] - b[:, 1])
    union = area_a[:, None] + area_b[None, :] - inter
    out = np.zeros_like(inter)
    np.divide(inter, union, out=out, where=union > 0)
    return out


def _to_center(boxes: np.ndarray):
    w = boxes[..., 2] - boxes[..., 0]
    h = boxes[..., 3] - boxes[..., 1]
    cx = boxes[..., 0] + 0.5 * w
    cy = boxes[..., 1] + 0.5 * h
    return cx, cy, w, h


def encode_boxes(gt: np.ndarray, anchors: np.ndarray) -> np.ndarray:
    """Offsets (dx, dy, dw, dh) mapping anchors onto gt boxes.

    dx = (cx_g - cx_a) / (w_a * vx), dw = ln(w_g / w_a) / vw, and likewise
    for y/h. Raises ValueError on non-positive gt width or height.
    """
    gt = np.asarray(gt, dtype=np.float64)
    anchors = np.asarray(anchors, dtype=np.float64)
    gcx, gcy, gw, gh = _to_center(gt)
    acx, acy, aw, ah = _to_center(anchors)
    if np.any(gw <= 0) or np.any(gh <= 0):
        raise ValueError("encode_boxes: ground-truth box has non-positive width or height")
    vx, vy, vw, vh = VARIANCES
    return np.stack([
        (gcx - acx) / (aw * vx),
        (gcy - acy) / (ah * vy),
        np.log(gw / aw) / vw,
        np.log(gh / ah) / vh,
    ], axis=-1)


def decode_boxes(offsets: np.ndarray, anchors: np.ndarray, image_size=None) -> np.ndarray:
    """Inverse of encode_boxes; clamps to [0, image_size] when given."""
    offsets = np.asarray(offsets, dtype=np.float64)
    anchors = np.asarray(anchors, dtype=np.float64)
    acx, acy, aw, ah = _to_center(anchors)
    vx, vy, vw, vh = VARIANCES
    cx = offsets[..., 0] * vx * aw + acx
    cy = offsets[..., 1] * vy * ah + acy
    w = np.exp(offsets[..., 2] * vw) * aw
    h = np.exp(offsets[..., 3] * vh) * ah
    boxes = np.stack([cx - 0.5 * w, cy - 0.5 * h, cx + 0.5 * w, cy + 0.5 * h], axis=-1)
    if image_size is not None:
        np.clip(boxes, 0.0, float(image_size), out=boxes)
    return boxes


def nms(boxes, scores, classes, iou_thr: float, max_keep: int | None = None) -> np.ndarray:
    """Greedy non-maximum suppression; the kept input indices in keep order.

    Score-descending order (ties keep lower input index); a kept box
    suppresses later boxes of the same class with IoU > iou_thr, and the
    walk returns at the max_keep-th keep. Each block of NMS_BLOCK candidates
    is scored against the keeps so far and its own candidates: one earlier
    keep's hit kills a candidate, and each keep in the block hits the later
    ones it overlaps. A candidate's fate depends only on the keeps before
    it, so the keeps are those of the uncapped walk over a full matrix.
    """
    if not 0.0 <= iou_thr <= 1.0:
        raise ValueError(f"nms: iou_thr {iou_thr} outside [0, 1]")
    if max_keep is not None and max_keep < 1:
        raise ValueError(f"nms: max_keep {max_keep} must be at least 1")
    order = np.argsort(-np.asarray(scores), kind="stable")
    boxes = np.asarray(boxes, dtype=np.float64).reshape(-1, 4)[order]
    classes = np.asarray(classes)[order]
    keep = []  # positions in score order
    for start in range(0, len(order), NMS_BLOCK):
        stop = min(start + NMS_BLOCK, len(order))
        rows = keep + list(range(start, stop))
        # hits[r, j]: row box r, if kept, suppresses box start+j
        hits = ((iou_matrix(boxes[rows], boxes[start:stop]) > iou_thr)
                & (classes[rows, None] == classes[None, start:stop]))
        before = len(keep)
        dead = hits[:before].any(axis=0)
        for j in range(stop - start):
            if not dead[j]:
                keep.append(start + j)
                if len(keep) == max_keep:
                    return order[keep]
                dead |= hits[before + j]
    return order[keep]
