"""Detection training loss of one image, in numpy.

Cross entropy over sampled anchors plus smooth L1 over positive anchors'
offsets, divided by the positive count floored at 1 (SSD, Liu et al. 2016,
arXiv:1512.02325, section 2.2). Negatives are hard-mined: the 3:1 highest
background cross entropy among negatives, with the ratio applied to
max(num_positive, 1), highest first and ties in anchor order. An
np.partition finds the cut, and only the candidates at or above it are
stable-sorted; those are the rows one full stable sort would keep. Over
zero sampled rows (all anchors ignored) the loss is zero with zero
gradients. `lirr._risk_sum` makes one tape op of a batch of these.
"""

from __future__ import annotations

import numpy as np

from .matching import NEGATIVE, MatchResult

NEG_RATIO = 3  # hard negatives sampled per positive


def _background_ce(logits: np.ndarray) -> np.ndarray:
    zmax = logits.max(axis=1, keepdims=True)
    lse = zmax[:, 0] + np.log(np.exp(logits - zmax).sum(axis=1))
    return lse - logits[:, 0]


def detection_loss_terms(logits: np.ndarray, offsets: np.ndarray, match: MatchResult):
    """One sample's normalized loss over (A, K) logits and (A, 4) offsets.

    Returns (value, classification float, localization float, add_grad):
    the two floats are the loss's parts, each divided by the positive count,
    and add_grad(g, dlogits, dloc) adds g times the loss's gradient into the
    (A, K) and (A, 4) arrays it is given. The class targets of positives must
    lie in [1, K).
    """
    pos_idx = np.flatnonzero(match.gt_index >= 0)
    neg_idx = np.flatnonzero(match.gt_index == NEGATIVE)
    npos = len(pos_idx)
    norm = 1.0 / max(npos, 1)

    take = min(len(neg_idx), NEG_RATIO * max(npos, 1))
    neg = -_background_ce(logits[neg_idx])
    cand = np.arange(len(neg))
    if take < len(neg):  # the rows at or above the take-th; a NaN cut keeps all, NaN sorts last
        kth = np.partition(neg, take - 1)[take - 1]
        cand = cand if np.isnan(kth) else np.flatnonzero(neg <= kth)
    hard = cand[np.argsort(neg[cand], kind="stable")[:take]]
    sampled = np.concatenate([pos_idx, neg_idx[hard]])
    rows = np.arange(len(sampled))
    labels = np.concatenate([match.class_targets[pos_idx], np.zeros(take, dtype=np.int64)])

    picked = logits[sampled]
    z = picked - picked.max(axis=1, keepdims=True)
    ct = np.asarray((np.log(np.exp(z).sum(axis=1)) - z[rows, labels]).sum(), dtype=logits.dtype)
    e = offsets[pos_idx] - np.asarray(match.box_targets[pos_idx], dtype=offsets.dtype)
    ae = np.abs(e)
    lt = np.asarray(np.where(ae < 1.0, 0.5 * e * e, ae - 0.5).sum(), dtype=offsets.dtype)

    def add_grad(g, dlogits, dloc):
        g = g * norm
        soft = np.exp(z)
        soft /= soft.sum(axis=1, keepdims=True)
        soft[rows, labels] -= 1.0
        dlogits[sampled] += soft * g  # += turns a -0.0 into +0.0, as a scatter-add does
        dloc[pos_idx] += np.clip(e, -1.0, 1.0) * g

    return (ct + lt) * norm, float(ct) * norm, float(lt) * norm, add_grad
