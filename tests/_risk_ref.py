"""The detection risk as the package built it before each sample's loss,
and then each batch's risk under one head, became one tape op.

`gather_rows`, `softmax_cross_entropy` and `smooth_l1` are the autodiff
ops the loss was assembled from, `detection_loss_terms` is the per-image
loss over (A, K) logits and (A, 4) offsets, and `risk_sum` is the loop
that gathered each sample's anchor rows out of one head's flattened
outputs and added up `(cls + loc) * norm`; `sample_loss` is one pass of
that loop. The numpy `lirrdet.detector.loss.detection_loss_terms` and the
one-op `lirrdet.lirr._risk_sum` must match them bit for bit, sign bits
included. `full_sort_loss_terms` is the numpy loss as it mined hard
negatives before the partition: one full stable argsort of every
negative's score, NaN last. The partition miner must match it bit for bit.
"""

import numpy as np

from lirrdet.autodiff.tensor import ShapeError, Tensor, _op
from lirrdet.detector.loss import NEG_RATIO, _background_ce
from lirrdet.detector.matching import NEGATIVE

from _gradcheck import reshape


def softmax_cross_entropy(logits: Tensor, labels) -> Tensor:
    """Sum over the N rows of (N, K) logits of -log softmax[label], max-stabilized."""
    if logits.data.ndim != 2:
        raise ShapeError(f"softmax_cross_entropy expects (N,K) logits, got {logits.data.shape}")
    labels = np.asarray(labels, dtype=np.int64)
    n, k = logits.data.shape
    if labels.shape != (n,):
        raise ShapeError(f"labels shape {labels.shape} does not match {n} logit rows")
    if labels.size and (labels.min() < 0 or labels.max() >= k):
        raise ValueError(f"label out of range [0, {k}): {labels[(labels < 0) | (labels >= k)][0]}")

    z = logits.data - logits.data.max(axis=1, keepdims=True)
    lse = np.log(np.exp(z).sum(axis=1))
    per_row = lse - z[np.arange(n), labels]

    def backward_fn(g):
        soft = np.exp(z)
        soft /= soft.sum(axis=1, keepdims=True)
        soft[np.arange(n), labels] -= 1.0
        return (soft * g,)

    return _op(np.asarray(per_row.sum(), dtype=logits.data.dtype), (logits,), backward_fn)


def smooth_l1(pred: Tensor, target) -> Tensor:
    """Sum of the Huber-style loss 0.5*e^2 for |e| < 1, |e| - 0.5 otherwise,
    over e = pred - target; the target is a constant array."""
    target = np.asarray(target, dtype=pred.data.dtype)
    if target.shape != pred.data.shape:
        raise ShapeError(f"smooth_l1 shapes differ: {pred.data.shape} vs {target.shape}")
    e = pred.data - target
    ae = np.abs(e)
    per = np.where(ae < 1.0, 0.5 * e * e, ae - 0.5)
    return _op(np.asarray(per.sum(), dtype=pred.data.dtype), (pred,),
               lambda g: (np.clip(e, -1.0, 1.0) * g,))


def gather_rows(x: Tensor, indices) -> Tensor:
    """Select rows of a 2-D tensor by index array or slice; backward scatter-adds."""
    idx = indices if isinstance(indices, slice) else np.asarray(indices, dtype=np.int64)
    if x.data.ndim != 2:
        raise ShapeError(f"gather_rows expects a 2-D tensor, got {x.data.shape}")

    def backward_fn(g):
        dx = np.zeros_like(x.data)
        if isinstance(idx, slice):
            dx[idx] += g
        else:
            np.add.at(dx, idx, g)
        return (dx,)

    return _op(x.data[idx], (x,), backward_fn)


def detection_loss_terms(cls_logits: Tensor, box_offsets: Tensor, match):
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


def sample_loss(cls: Tensor, loc: Tensor, b: int, match):
    """Sample b's normalized loss on (B, A, K) and (B, A, 4) head outputs, as
    the loop below builds it: (loss Tensor, cls float, loc float)."""
    num_anchors = cls.data.shape[1]
    flat_cls = reshape(cls, cls.data.shape[0] * num_anchors, cls.data.shape[2])
    flat_loc = reshape(loc, loc.data.shape[0] * num_anchors, 4)
    rows = slice(b * num_anchors, (b + 1) * num_anchors)
    ct, lt, npos = detection_loss_terms(gather_rows(flat_cls, rows), gather_rows(flat_loc, rows), match)
    norm = 1.0 / max(npos, 1)
    return (ct + lt) * norm, float(ct.data) * norm, float(lt.data) * norm


def risk_sum(cls: Tensor, loc: Tensor, matches):
    """`lirrdet.lirr._risk_sum` as it was, on one head's (B, A, K) and (B, A, 4)
    outputs: (sum Tensor, cls float, loc float)."""
    num_anchors = cls.data.shape[1]
    flat_cls = reshape(cls, cls.data.shape[0] * num_anchors, cls.data.shape[2])
    flat_loc = reshape(loc, loc.data.shape[0] * num_anchors, 4)
    total = None
    cls_val = 0.0
    loc_val = 0.0
    for b, match in enumerate(matches):
        rows = slice(b * num_anchors, (b + 1) * num_anchors)
        ct, lt, npos = detection_loss_terms(gather_rows(flat_cls, rows), gather_rows(flat_loc, rows), match)
        norm = 1.0 / max(npos, 1)
        sample = (ct + lt) * norm
        cls_val += float(ct.data) * norm
        loc_val += float(lt.data) * norm
        total = sample if total is None else total + sample
    return total, cls_val, loc_val


def full_sort_loss_terms(logits: np.ndarray, offsets: np.ndarray, match):
    """`lirrdet.detector.loss.detection_loss_terms` with the full-sort miner:
    (value, classification float, localization float, add_grad)."""
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
    ct = np.asarray((np.log(np.exp(z).sum(axis=1)) - z[rows, labels]).sum(), dtype=logits.dtype)
    e = offsets[pos_idx] - np.asarray(match.box_targets[pos_idx], dtype=offsets.dtype)
    ae = np.abs(e)
    lt = np.asarray(np.where(ae < 1.0, 0.5 * e * e, ae - 0.5).sum(), dtype=offsets.dtype)

    def add_grad(g, dlogits, dloc):
        g = g * norm
        soft = np.exp(z)
        soft /= soft.sum(axis=1, keepdims=True)
        soft[rows, labels] -= 1.0
        dlogits[sampled] += soft * g
        dloc[pos_idx] += np.clip(e, -1.0, 1.0) * g

    return (ct + lt) * norm, float(ct) * norm, float(lt) * norm, add_grad
