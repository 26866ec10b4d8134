"""Detection evaluation: AP averaged over ten IoU thresholds, plus AP50/AP75.

Matching is greedy in score order against same-class ground truth; the
precision/recall curve is sampled at 101 recall points after taking the
running-max envelope. A class with no ground truth and no detections gets
the -1 sentinel and is excluded from averages; with spurious detections it
scores 0.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .detector.boxes import iou

IOU_THRESHOLDS = tuple(round(0.5 + 0.05 * i, 2) for i in range(10))
RECALL_GRID = np.linspace(0.0, 1.0, 101)
MAX_DETS = 100


@dataclass
class EvalInput:
    """Per-image ground truth and detections, keyed by image id.

    gt: image_id -> list of (bbox, class_id)
    detections: image_id -> list of (bbox, class_id, score)
    """
    gt: dict
    detections: dict


@dataclass
class PRCurve:
    iou_threshold: float
    recall: np.ndarray       # the 101-point grid
    precision: np.ndarray    # envelope-interpolated, same length


@dataclass
class APReport:
    ap: float
    ap50: float
    ap75: float
    per_threshold: list
    thresholds: tuple = IOU_THRESHOLDS

    def to_dict(self) -> dict:
        return {
            "ap": self.ap,
            "ap50": self.ap50,
            "ap75": self.ap75,
            "per_threshold": list(self.per_threshold),
            "thresholds": list(self.thresholds),
        }

    @classmethod
    def from_dict(cls, d) -> "APReport":
        return cls(ap=d["ap"], ap50=d["ap50"], ap75=d["ap75"],
                   per_threshold=list(d["per_threshold"]),
                   thresholds=tuple(d["thresholds"]))


def match_detections(dets, gts, iou_thr: float) -> np.ndarray:
    """Greedy TP/FP assignment for one image.

    dets: list of (bbox, class_id, score); gts: list of (bbox, class_id).
    Processes detections by descending score (ties keep input order); each
    claims the unmatched same-class GT of highest IoU >= iou_thr. Returns
    a bool array aligned with the detection input order.
    """
    if not 0.0 < iou_thr <= 1.0:
        raise ValueError(f"match_detections: iou_thr {iou_thr} outside (0, 1]")
    flags = np.zeros(len(dets), dtype=bool)
    taken = [False] * len(gts)
    order = sorted(range(len(dets)), key=lambda i: (-dets[i][2], i))
    for i in order:
        bbox, cls, _ = dets[i]
        best_g, best = -1, 0.0
        for g, (gbox, gcls) in enumerate(gts):
            if taken[g] or gcls != cls:
                continue
            v = iou(bbox, gbox)
            if v >= iou_thr and v > best:
                best, best_g = v, g
        if best_g >= 0:
            taken[best_g] = True
            flags[i] = True
    return flags


def average_precision(flags, num_gt: int) -> float:
    """101-point interpolated AP from score-ordered TP/FP flags."""
    if num_gt < 0:
        raise ValueError("average_precision: num_gt must be >= 0")
    flags = np.asarray(flags, dtype=bool)
    if num_gt == 0:
        return 0.0 if flags.size else -1.0
    # the curve's threshold is only a label; AP depends on the flags alone
    return float(pr_curve(flags, num_gt, float("nan")).precision.mean())


def pr_curve(flags, num_gt: int, iou_thr: float) -> PRCurve:
    """The interpolated curve behind average_precision, for inspection."""
    flags = np.asarray(flags, dtype=bool)
    sampled = np.zeros_like(RECALL_GRID)
    if num_gt > 0 and flags.size:
        tp = np.cumsum(flags)
        fp = np.cumsum(~flags)
        recall = tp / num_gt
        precision = tp / (tp + fp)
        env = np.maximum.accumulate(precision[::-1])[::-1]
        idx = np.searchsorted(recall, RECALL_GRID, side="left")
        sampled = np.where(idx < env.size, env[np.minimum(idx, env.size - 1)], 0.0)
    return PRCurve(iou_threshold=iou_thr, recall=RECALL_GRID.copy(), precision=sampled)


def _pooled_class_flags(eval_input: EvalInput, cls: int, thr: float):
    """Flags and scores for one class pooled over images, score-sorted."""
    scores, flags = [], []
    for pool_order, iid in enumerate(sorted(eval_input.gt)):
        dets = [d for d in eval_input.detections.get(iid, []) if d[1] == cls]
        gts = [g for g in eval_input.gt[iid] if g[1] == cls]
        f = match_detections(dets, gts, thr)
        for j, d in enumerate(dets):
            scores.append(d[2])
            flags.append(f[j])
    order = sorted(range(len(scores)), key=lambda i: (-scores[i], i))
    return np.array([flags[i] for i in order], dtype=bool)


def _cap_detections(dets):
    if len(dets) <= MAX_DETS:
        return list(dets)
    order = sorted(range(len(dets)), key=lambda i: (-dets[i][2], i))
    keep = sorted(order[:MAX_DETS])
    return [dets[i] for i in keep]


def evaluate(eval_input: EvalInput, thresholds=IOU_THRESHOLDS) -> APReport:
    """AP over the images in ``gt``; detections on any other image raise ValueError."""
    unknown = [iid for iid in eval_input.detections if iid not in eval_input.gt]
    if unknown:
        raise ValueError(f"detections for image id {unknown[0]!r}, which the ground truth does not list")
    capped = {iid: _cap_detections(d) for iid, d in eval_input.detections.items()}
    data = EvalInput(gt=eval_input.gt, detections=capped)

    gt_classes = {c for gts in data.gt.values() for _, c in gts}
    det_classes = {c for dets in data.detections.values() for _, c, _ in dets}
    classes = sorted(gt_classes | det_classes)

    num_gt = {c: sum(1 for gts in data.gt.values() for _, gc in gts if gc == c)
              for c in classes}

    per_threshold = []
    for thr in thresholds:
        per_class = []
        for c in classes:
            flags = _pooled_class_flags(data, c, thr)
            per_class.append(average_precision(flags, num_gt[c]))
        valid = [a for a in per_class if a >= 0.0]
        per_threshold.append(float(np.mean(valid)) if valid else -1.0)

    ap = float(np.mean(per_threshold))
    by_thr = dict(zip([round(t, 2) for t in thresholds], per_threshold))
    return APReport(ap=ap, ap50=by_thr.get(0.5, -1.0), ap75=by_thr.get(0.75, -1.0),
                    per_threshold=per_threshold, thresholds=tuple(thresholds))

