"""Detection training loss terms for one image.

Cross entropy over sampled anchors plus smooth L1 over positive anchors'
offsets; the training objective divides their sum by the positive count
(floored at 1). Negatives are
hard-mined: the 3:1 highest background cross entropy among negatives,
with the ratio applied to max(num_positive, 1).

detection_loss_terms returns the unnormalized triple (classification sum,
localization sum, num_positive). Both sums are always tensors: over zero
rows (no positives, or no sampled anchors at all) a sum is a tracked zero.
"""

from __future__ import annotations

import numpy as np

from ..autodiff import Tensor, gather_rows, smooth_l1, softmax_cross_entropy
from .matching import NEGATIVE, MatchResult

NEG_RATIO = 3  # hard negatives sampled per positive


def _background_ce(logits: np.ndarray) -> np.ndarray:
    zmax = logits.max(axis=1, keepdims=True)
    lse = zmax[:, 0] + np.log(np.exp(logits - zmax).sum(axis=1))
    return lse - logits[:, 0]


def detection_loss_terms(cls_logits: Tensor, box_offsets: Tensor, match: MatchResult):
    """Unnormalized (classification_sum, localization_sum, num_positive)."""
    pos_idx = np.flatnonzero(match.gt_index >= 0)
    neg_idx = np.flatnonzero(match.gt_index == NEGATIVE)
    npos = len(pos_idx)

    take = min(len(neg_idx), NEG_RATIO * max(npos, 1))
    scores = _background_ce(cls_logits.data[neg_idx])
    neg_sampled = neg_idx[np.argsort(-scores, kind="stable")[:take]]

    sampled = np.concatenate([pos_idx, neg_sampled])
    labels = np.concatenate([match.class_targets[pos_idx],
                             np.zeros(len(neg_sampled), dtype=np.int64)])
    cls_loss = softmax_cross_entropy(gather_rows(cls_logits, sampled), labels)
    loc_loss = smooth_l1(gather_rows(box_offsets, pos_idx), match.box_targets[pos_idx])
    return cls_loss, loc_loss, npos
