"""Detection training loss of one image, as one tape op.

Cross entropy over sampled anchors plus smooth L1 over positive anchors'
offsets, divided by the positive count floored at 1 (SSD, Liu et al. 2016,
arXiv:1512.02325, section 2.2). Negatives are hard-mined: the 3:1 highest
background cross entropy among negatives, with the ratio applied to
max(num_positive, 1). Over zero sampled rows (all anchors ignored) the loss
is a tracked zero with zero gradients.
"""

from __future__ import annotations

import numpy as np

from ..autodiff import Tensor
from ..autodiff.tensor import _op
from .matching import NEGATIVE, MatchResult

NEG_RATIO = 3  # hard negatives sampled per positive


def _background_ce(logits: np.ndarray) -> np.ndarray:
    zmax = logits.max(axis=1, keepdims=True)
    lse = zmax[:, 0] + np.log(np.exp(logits - zmax).sum(axis=1))
    return lse - logits[:, 0]


def detection_loss_terms(cls: Tensor, loc: Tensor, b: int, match: MatchResult):
    """Sample b's normalized loss over (B, A, K) logits and (B, A, 4) offsets.

    Returns (loss Tensor, classification float, localization float); the
    two floats are the loss's parts, each divided by the positive count.
    The class targets of positives must lie in [1, K).
    """
    logits, offsets = cls.data[b], loc.data[b]
    pos_idx = np.flatnonzero(match.gt_index >= 0)
    neg_idx = np.flatnonzero(match.gt_index == NEGATIVE)
    npos = len(pos_idx)
    norm = 1.0 / max(npos, 1)

    take = min(len(neg_idx), NEG_RATIO * max(npos, 1))
    scores = _background_ce(logits[neg_idx])
    sampled = np.concatenate([pos_idx, neg_idx[np.argsort(-scores, kind="stable")[:take]]])
    rows = np.arange(len(sampled))
    labels = np.concatenate([match.class_targets[pos_idx], np.zeros(take, dtype=np.int64)])

    picked = logits[sampled]
    z = picked - picked.max(axis=1, keepdims=True)
    ct = np.asarray((np.log(np.exp(z).sum(axis=1)) - z[rows, labels]).sum(), dtype=cls.data.dtype)
    e = offsets[pos_idx] - np.asarray(match.box_targets[pos_idx], dtype=loc.data.dtype)
    ae = np.abs(e)
    lt = np.asarray(np.where(ae < 1.0, 0.5 * e * e, ae - 0.5).sum(), dtype=loc.data.dtype)

    def backward_fn(g):
        g = g * norm
        soft = np.exp(z)
        soft /= soft.sum(axis=1, keepdims=True)
        soft[rows, labels] -= 1.0
        dcls = np.zeros_like(cls.data)
        dloc = np.zeros_like(loc.data)
        dcls[b, sampled] += soft * g  # += turns a -0.0 into +0.0, as a scatter-add does
        dloc[b, pos_idx] += np.clip(e, -1.0, 1.0) * g
        return dcls, dloc

    return _op((ct + lt) * norm, (cls, loc), backward_fn), float(ct) * norm, float(lt) * norm
