"""Domain-adaptive detection objective: supervised risk on both domains
plus adversarial feature alignment, trained as a single-optimizer minimax.

Three terms are combined:

  * rep term  — how well a small domain classifier separates pooled
    backbone features drawn from the two domains,
  * shared risk — detection loss of the always-on head over the source
    and the target batch,
  * per-domain risk — detection loss of each batch scored by the head of
    the domain its role names: the source batch by the source head, the
    target batch by the target head.

The total objective is::

    total = shared + lambda_risk * (shared - per_domain) + lambda_rep * rep

with the backbone and shared head minimizing it while the domain
classifier and the per-domain heads are driven to their own optima, all in
one backward pass: the saddle point of gradient reversal (Ganin &
Lempitsky 2015), not alternating updates. The backward target is the
weighted sum of the losses the players descend::

    (1 + lambda_risk) * shared + lambda_risk * per_domain + lambda_rep * bce

and gradient reversal alone supplies every minus sign:

  * rep term. bce, rep_loss's value, is the domain classifier's cross
    entropy; the op hands the pooled features -grl_lambda times their
    gradient, as a reversal layer before the classifier would. The
    reported rep is -bce = E_src[log sigma(C(h))] + E_tgt[log(1 - sigma(C(h)))],
    which a perfect classifier drives to 0 from below.
  * per-domain risk. A unit reversal layer on the features entering the
    per-domain heads: the heads descend their own detection loss, and the
    backbone gets the -lambda_risk the total calls for.

LossBreakdown alone forms the reported total, from the terms' floats.

Setting a weight to exactly 0.0 skips building that term's graph, which
keeps the reduced objective bit-for-bit identical to a plain supervised
run and leaves the untouched parameter groups frozen (their gradients
stay None). A batch of None drops both adaptation terms: the objective is
then the shared risk of the other batch, as the supervised baselines train.
``DomainLabel`` is defined once, beside the domain heads in ``detector.model``.
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass
from functools import reduce
from operator import add

import numpy as np

from .autodiff import (
    Linear,
    Module,
    ShapeError,
    Tensor,
    backward,
    default_dtype,
    grad_reverse,
    no_grad,
)
from .autodiff.tensor import _op
from .detector.loss import detection_loss_terms
from .detector.matching import match_anchors
from .detector.model import DomainLabel
from .jsonconfig import check_finite, to_json


CLASSIFIER_HIDDEN = 32  # hidden units of the domain classifier


@dataclass(frozen=True)
class LirrConfig:
    lambda_rep: float = 0.1
    lambda_risk: float = 1.0
    grl_lambda: float = 1.0

    def __post_init__(self):
        check_finite(self)
        for name in ("lambda_rep", "lambda_risk", "grl_lambda"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0, got {getattr(self, name)}")


@dataclass
class LossBreakdown:  # a term the objective did not compute reads 0.0
    l_rep: float = 0.0
    l_i: float = 0.0
    l_d: float = 0.0
    l_risk: float = 0.0
    l_total: float = 0.0
    l_i_cls: float = 0.0
    l_i_loc: float = 0.0
    l_d_cls: float = 0.0
    l_d_loc: float = 0.0

    to_dict = to_json


class DomainClassifier(Module):
    """Two-layer MLP on pooled backbone features, one domain logit out; rep_loss runs it."""

    def __init__(self, in_features: int, *, rng: np.random.Generator):
        self.fc1 = Linear(in_features, CLASSIFIER_HIDDEN, rng=rng)
        self.fc2 = Linear(CLASSIFIER_HIDDEN, 1, rng=rng)


def _sigmoid(x: np.ndarray) -> np.ndarray:
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def rep_loss(feat_src: Tensor, feat_tgt: Tensor, classifier: DomainClassifier,
             grl_lambda: float = 1.0) -> Tensor:
    """The alignment term's cross entropy as one op: the classifier's mean BCE on
    each channel-major (C, N, H, W) map, pooled over H and W into an (N, C)
    matrix, summed, target 1 for source and 0 for target (its sigmoid reads
    "from the source batch"; DomainLabel plays no role here). The classifier's
    parameters get the derivative, each map -grl_lambda times it."""
    params = [p for fc in (classifier.fc1, classifier.fc2) for p in (fc.weight, fc.bias)]
    w1, b1, w2, b2 = (p.data for p in params)
    maps = (feat_src.data, feat_tgt.data)
    shapes = f"got maps {maps[0].shape} and {maps[1].shape}"
    if any(f.ndim != 4 for f in maps):
        raise ShapeError(f"rep_loss expects (C, N, H, W) feature maps, {shapes}")
    if any(f.shape[1] == 0 for f in maps):
        raise ValueError("rep_loss: empty domain batch")
    if grl_lambda < 0:
        raise ValueError(f"grl_lambda must be >= 0, got {grl_lambda}")
    if any(len(f) != len(w1) for f in maps):
        raise ShapeError(f"rep_loss: the classifier takes C = {len(w1)} channels of "
                         f"(C, N, H, W) maps, {shapes}")

    sides, bce = [], []  # per domain: map shape and dtype, pooled, pre-activation, hidden, logits, targets
    for f, fill in zip(maps, (np.ones, np.zeros)):
        h = np.ascontiguousarray(f.mean(axis=(2, 3)).T)  # (N, C): BLAS may round a transposed operand differently
        pre = h @ w1 + b1[None, :]
        a = np.maximum(pre, 0.0)
        z = a @ w2 + b2[None, :]
        t = fill(z.shape, dtype=z.dtype)
        per = np.maximum(z, 0.0) - z * t + np.log1p(np.exp(-np.abs(z)))
        sides.append((f.shape, f.dtype, h, pre, a, z, t))
        bce.append(np.asarray(per.mean(), z.dtype))

    def backward_fn(g):
        feat_grads, param_grads = [], []
        for shape, dtype, h, pre, a, z, t in sides:
            dz = (_sigmoid(z) - t) / z.size * g
            dpre = (dz @ w2.T) * (pre > 0)
            dh = (-grl_lambda * (dpre @ w1.T)).T[:, :, None, None] / (shape[2] * shape[3])
            feat_grads.append(np.broadcast_to(dh, shape).astype(dtype, copy=False))
            param_grads.append((h.T @ dpre, dpre.sum(axis=0), a.T @ dz, dz.sum(axis=0)))
        # the target's term, then + the source's: the order a sweep of the pool/MLP/BCE ops adds them
        return (*feat_grads, *(t + s for s, t in zip(*param_grads)))

    return _op(bce[0] + bce[1], (feat_src, feat_tgt, *params), backward_fn)


def _check_labeled(batch, model):
    """Every sample has a box, and every class id is a foreground class of the model."""
    k = model.spec.num_classes
    for s in batch:
        boxes = getattr(s, "gt_boxes", None)
        if boxes is None or len(boxes) == 0:
            raise ValueError("unlabeled sample: every sample needs at least one box")
        classes = np.asarray(s.gt_classes)
        bad = classes[(classes < 1) | (classes > k)]
        if bad.size:
            raise ValueError(f"image_id {s.image_id}: class {bad[0]} is not in 1..{k}")


def _stack_images(batch) -> Tensor:
    """The batch's (C, H, W) images as one channel-major (C, N, H, W) tensor."""
    return Tensor(np.stack([np.asarray(s.image, dtype=default_dtype()) for s in batch], axis=1))


def _matches(batch, model):
    return [match_anchors(np.asarray(s.gt_boxes, dtype=np.float64),
                          np.asarray(s.gt_classes, dtype=np.int64), model.anchors)
            for s in batch]


def _risk_sum(cls: Tensor, loc: Tensor, matches):
    """The batch's summed per-sample normalized losses on one head's (B, A, K)
    logits and (B, A, 4) offsets, as one op, the samples added left to right.

    Returns (sum Tensor, cls float, loc float).
    """
    values, cls_parts, loc_parts, add_grads = zip(*[
        detection_loss_terms(cls.data[b], loc.data[b], match) for b, match in enumerate(matches)])
    layouts = [(t.data.shape, t.data.dtype) for t in (cls, loc)]  # the rule keeps these, not the tensors

    def backward_fn(g):
        dcls, dloc = (np.zeros(shape, dtype) for shape, dtype in layouts)
        for b, add_grad in enumerate(add_grads):
            add_grad(g, dcls[b], dloc[b])
        return dcls, dloc

    return (_op(reduce(add, values), (cls, loc), backward_fn),
            reduce(add, cls_parts, 0.0), reduce(add, loc_parts, 0.0))


def invariant_risk(batch, model) -> Tensor:
    """Mean detection loss of the shared head over a (possibly mixed) batch."""
    return _objective(batch, None, model, None, None)[0]


def _graph_unless_zero(weight: float):
    """Build a term's graph only if its weight can move a parameter."""
    return no_grad() if weight == 0.0 else nullcontext()


def _objective(batch_src, batch_tgt, model, classifier, cfg: LirrConfig):
    """(total, LossBreakdown); with a None batch, classifier and cfg go unread."""
    named = {name: list(b) for name, b in (("source", batch_src), ("target", batch_tgt)) if b is not None}
    for name, batch in named.items():
        if not batch:
            raise ValueError(f"empty {name} batch")
    batches = list(named.values())
    _check_labeled([s for batch in batches for s in batch], model)

    feats = [model.features(_stack_images(batch)) for batch in batches]
    cols = [model.invariant_head.columns(fs) for fs in feats]  # every head set reads them
    matches = [_matches(batch, model) for batch in batches]
    n = sum(len(batch) for batch in batches)

    def mean_risk(heads, feat_list):  # the Tensor sum starts at sums[0]: no 0 + Tensor op
        sums, cls, loc = zip(*[_risk_sum(*model.predict(f, head, c), m)
                               for head, f, c, m in zip(heads, feat_list, cols, matches)])
        return sum(sums[1:], sums[0]) * (1.0 / n), sum(cls) / n, sum(loc) / n

    l_i, i_cls, i_loc = mean_risk(["invariant"] * len(batches), feats)
    if len(batches) == 1:
        v = float(l_i.data)
        return l_i, LossBreakdown(l_i=v, l_risk=v, l_total=v, l_i_cls=i_cls, l_i_loc=i_loc)

    with _graph_unless_zero(cfg.lambda_risk):
        rev = [[grad_reverse(f, 1.0) for f in fs] for fs in feats]
        l_d, d_cls, d_loc = mean_risk((DomainLabel.SOURCE, DomainLabel.TARGET), rev)

    with _graph_unless_zero(cfg.lambda_rep):
        bce = rep_loss(feats[0][-1], feats[1][-1], classifier, cfg.grl_lambda)

    total = l_i * (1.0 + cfg.lambda_risk) + l_d * cfg.lambda_risk + bce * cfg.lambda_rep

    l_i_f, l_d_f, l_rep_f = float(l_i.data), float(l_d.data), -float(bce.data)
    l_risk_f = l_i_f + cfg.lambda_risk * (l_i_f - l_d_f)
    return total, LossBreakdown(
        l_rep=l_rep_f, l_i=l_i_f, l_d=l_d_f, l_risk=l_risk_f,
        l_total=l_risk_f + cfg.lambda_rep * l_rep_f,
        l_i_cls=i_cls, l_i_loc=i_loc, l_d_cls=d_cls, l_d_loc=d_loc)


def train_step(batch_src, batch_tgt, model, classifier, optimizer,
               cfg: LirrConfig) -> LossBreakdown:
    """One SGD update on the objective; with one batch None, classifier may be None."""
    model.zero_grad()
    if classifier is not None:
        classifier.zero_grad()
    total, breakdown = _objective(batch_src, batch_tgt, model, classifier, cfg)
    backward(total)
    optimizer.step()
    return breakdown
