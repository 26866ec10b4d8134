"""Detection evaluation: AP averaged over ten IoU thresholds, plus AP50/AP75.

Matching is greedy in score order against same-class ground truth; the
precision/recall curve is sampled at 101 recall points after taking the
running-max envelope. A class with no ground truth and no detections gets
the -1 sentinel and is excluded from averages; with spurious detections it
scores 0.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .detector.boxes import iou_matrix
from .detector.inference import MAX_DETS
from .jsonconfig import to_json

IOU_THRESHOLDS = tuple(round(0.5 + 0.05 * i, 2) for i in range(10))
RECALL_GRID = np.linspace(0.0, 1.0, 101)


@dataclass
class EvalInput:
    """Per-image ground truth and detections, keyed by image id.

    gt: image_id -> list of (bbox, class_id)
    detections: image_id -> list of (bbox, class_id, score)
    """
    gt: dict
    detections: dict


@dataclass
class APReport:
    ap: float
    ap50: float
    ap75: float
    per_threshold: list
    thresholds: tuple = IOU_THRESHOLDS

    to_dict = to_json


def _check_thresholds(thresholds):
    bad = [thr for thr in thresholds if not 0.0 < thr <= 1.0]
    if bad:
        raise ValueError(f"IoU threshold {bad[0]} outside (0, 1]")


def match_detections(dets, gts, iou_thrs) -> np.ndarray:
    """Greedy TP/FP assignment for one image, at each IoU threshold.

    dets: list of (bbox, class_id, score); gts: list of (bbox, class_id).
    Processes detections by descending score (ties keep input order); each
    claims the unmatched same-class GT of highest IoU >= the threshold.
    Returns (T, D) bool flags, a row per threshold, a column per detection
    in input order.
    """
    _check_thresholds(iou_thrs)
    ious = iou_matrix([d[0] for d in dets], [g[0] for g in gts])
    same_class = np.array([d[1] for d in dets])[:, None] == np.array([g[1] for g in gts])[None, :]
    ious[~same_class] = -1.0
    order = np.argsort([-d[2] for d in dets], kind="stable")
    return np.array([_greedy_flags(ious, order, thr) for thr in iou_thrs],
                    dtype=bool).reshape(len(iou_thrs), len(dets))


def _greedy_flags(ious: np.ndarray, order: np.ndarray, iou_thr: float) -> np.ndarray:
    """One threshold's flags over a detections x GTs IoU matrix (-1 where the classes differ)."""
    ious = np.where(ious >= iou_thr, ious, -1.0)
    flags = np.zeros(len(ious), dtype=bool)
    for i in order[(ious >= 0.0).any(axis=1)[order]]:
        g = int(np.argmax(ious[i]))  # the first of equal IoUs: the lowest GT index
        if ious[i, g] >= 0.0:
            flags[i] = True
            ious[:, g] = -1.0  # taken
    return flags


def average_precision(flags, num_gt: int) -> float:
    """101-point interpolated AP from score-ordered TP/FP flags."""
    if num_gt < 0:
        raise ValueError("average_precision: num_gt must be >= 0")
    flags = np.asarray(flags, dtype=bool)
    if num_gt == 0:
        return 0.0 if flags.size else -1.0
    return float(pr_curve(flags, num_gt).mean())


def pr_curve(flags, num_gt: int) -> np.ndarray:
    """The envelope precision at each of the 101 RECALL_GRID points."""
    flags = np.asarray(flags, dtype=bool)
    if num_gt <= 0 or not flags.size:
        return np.zeros_like(RECALL_GRID)
    tp = np.cumsum(flags)
    fp = np.cumsum(~flags)
    recall = tp / num_gt
    precision = tp / (tp + fp)
    env = np.maximum.accumulate(precision[::-1])[::-1]
    idx = np.searchsorted(recall, RECALL_GRID, side="left")
    return np.where(idx < env.size, env[np.minimum(idx, env.size - 1)], 0.0)


def _cap_detections(dets):
    """The MAX_DETS highest-scoring detections (ties keep input order), in input order."""
    keep = np.sort(np.argsort(np.negative([d[2] for d in dets]), kind="stable")[:MAX_DETS])
    return [dets[i] for i in keep]


def evaluate(eval_input: EvalInput, thresholds=IOU_THRESHOLDS) -> APReport:
    """AP over the images in ``gt``; detections on any other image raise ValueError."""
    unknown = [iid for iid in eval_input.detections if iid not in eval_input.gt]
    if unknown:
        raise ValueError(f"detections for image id {unknown[0]!r}, which the ground truth does not list")
    _check_thresholds(thresholds)
    # every image's capped detections, pooled in image order: class, score, a flag row per threshold
    det_class, scores, flags = [], [], [np.empty((len(thresholds), 0), dtype=bool)]
    for iid in sorted(eval_input.gt):
        dets = _cap_detections(eval_input.detections.get(iid, []))
        det_class += [d[1] for d in dets]
        scores += [d[2] for d in dets]
        flags.append(match_detections(dets, eval_input.gt[iid], thresholds))
    gt_class = [c for gts in eval_input.gt.values() for _, c in gts]
    classes = sorted(set(gt_class) | set(det_class))
    order = np.argsort(np.negative(scores), kind="stable")  # each class's columns keep this order
    det_class, flags = np.array(det_class)[order], np.concatenate(flags, axis=1)[:, order]

    # per_class[i][t]: AP of classes[i] at thresholds[t]
    per_class = [[average_precision(f, gt_class.count(c)) for f in flags[:, det_class == c]]
                 for c in classes]
    per_threshold = []
    for t in range(len(thresholds)):
        valid = [aps[t] for aps in per_class if aps[t] >= 0.0]
        per_threshold.append(float(np.mean(valid)) if valid else -1.0)

    ap = float(np.mean(per_threshold))
    by_thr = dict(zip([round(t, 2) for t in thresholds], per_threshold))
    return APReport(ap=ap, ap50=by_thr.get(0.5, -1.0), ap75=by_thr.get(0.75, -1.0),
                    per_threshold=per_threshold, thresholds=tuple(thresholds))

