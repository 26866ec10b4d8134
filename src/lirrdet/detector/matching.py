"""Anchor-to-ground-truth assignment.

Rule, applied in order:
  1. each GT's highest-IoU anchor is positive for it (force match),
  2. remaining anchors with IoU >= pos_thr become positive for their
     argmax GT,
  3. anchors with max IoU < neg_thr are negative,
  4. everything else is ignored.
Ties break toward the lowest anchor index, then the lowest GT index.
A force-matched anchor stays positive even below neg_thr.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .boxes import encode_boxes, iou_matrix

NEGATIVE = -1
IGNORE = -2


@dataclass
class MatchResult:
    gt_index: np.ndarray       # (A,) int: assigned GT id, NEGATIVE, or IGNORE
    class_targets: np.ndarray  # (A,) int: GT class for positives, 0 negatives, -1 ignored
    box_targets: np.ndarray    # (A, 4): encoded offsets, zero rows off-positive
    num_positive: int


def match_anchors(gt_boxes, gt_classes, anchors: np.ndarray,
                  pos_thr: float = 0.5, neg_thr: float = 0.4) -> MatchResult:
    if pos_thr < neg_thr:
        raise ValueError(f"match_anchors: pos_thr {pos_thr} < neg_thr {neg_thr}")
    num_anchors = len(anchors)
    if num_anchors == 0:
        raise ValueError("match_anchors: empty anchor set")
    gt_boxes = np.asarray(gt_boxes, dtype=np.float64).reshape(-1, 4)
    gt_classes = np.asarray(gt_classes, dtype=np.int64).reshape(-1)

    class_targets = np.zeros(num_anchors, dtype=np.int64)
    box_targets = np.zeros((num_anchors, 4), dtype=np.float64)
    if gt_boxes.shape[0] == 0:
        return MatchResult(np.full(num_anchors, NEGATIVE, dtype=np.int64),
                           class_targets, box_targets, 0)

    ious = iou_matrix(anchors, gt_boxes)  # (A, G)
    best_gt = np.argmax(ious, axis=1)
    best_iou = ious[np.arange(num_anchors), best_gt]
    gt_index = np.where(best_iou >= pos_thr, best_gt, np.where(best_iou < neg_thr, NEGATIVE, IGNORE))

    forced = np.full(num_anchors, False)
    for g in range(gt_boxes.shape[0]):
        best = int(np.argmax(ious[:, g]))  # argmax takes the lowest index on ties
        if not forced[best]:  # earlier (lower-index) GT keeps a contested anchor
            gt_index[best] = g
            forced[best] = True

    pos = gt_index >= 0
    class_targets[pos] = gt_classes[gt_index[pos]]
    class_targets[gt_index == IGNORE] = -1
    box_targets[pos] = encode_boxes(gt_boxes[gt_index[pos]], anchors[pos])
    return MatchResult(gt_index, class_targets, box_targets, int(pos.sum()))
