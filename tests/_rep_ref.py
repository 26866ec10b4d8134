"""The alignment term as the package built it before it became one tape op.

`matmul`, `bias_add`, `global_avg_pool` and `binary_cross_entropy_logit`
are the autodiff ops it was assembled from, `Linear` is the dense layer
that applied its parameters with them, `classify` is the old
`DomainClassifier.__call__`, and `rep_loss` is the alignment term as
those ops built it: pool, reverse, classify, then one cross entropy per
domain, summed. `lirrdet.lirr.rep_loss` must match it bit for bit, sign
bits included. The tests also use `matmul` as their scalar reduction.
"""

import numpy as np

from lirrdet.autodiff import grad_reverse, nn
from lirrdet.autodiff.tensor import ShapeError, Tensor, _op
from lirrdet.lirr import _sigmoid


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """2-D matrix product with the standard transpose backward rules."""
    if a.data.ndim != 2 or b.data.ndim != 2:
        raise ShapeError(f"matmul expects 2-D operands, got {a.data.shape} and {b.data.shape}")
    if a.data.shape[1] != b.data.shape[0]:
        raise ShapeError(f"matmul inner dimensions differ: {a.data.shape} vs {b.data.shape}")
    return _op(a.data @ b.data, (a, b), lambda g: (g @ b.data.T, a.data.T @ g))


def global_avg_pool(x: Tensor) -> Tensor:
    """Mean over the spatial dimensions of an NCHW tensor, returning (N, C)."""
    if x.data.ndim != 4:
        raise ShapeError(f"global_avg_pool expects NCHW input, got {x.data.shape}")
    n, c, h, w = x.data.shape

    def backward_fn(g):
        return (np.broadcast_to(g[:, :, None, None] / (h * w), x.data.shape).astype(x.data.dtype, copy=False),)

    return _op(x.data.mean(axis=(2, 3)), (x,), backward_fn)


def bias_add(x: Tensor, b: Tensor) -> Tensor:
    """Add a (K,) bias row-wise to an (N, K) matrix."""
    if x.data.ndim != 2 or b.data.ndim != 1 or x.data.shape[1] != b.data.shape[0]:
        raise ShapeError(f"bias_add expects (N,K) + (K,), got {x.data.shape} and {b.data.shape}")
    return _op(x.data + b.data[None, :], (x, b), lambda g: (g, g.sum(axis=0)))


def binary_cross_entropy_logit(logit: Tensor, target) -> Tensor:
    """Binary cross entropy from logits, in the usual stabilized form.

    Targets must be exactly 0 or 1. Value is the mean of
    max(z,0) - z*t + log(1 + exp(-|z|)).
    """
    target = np.asarray(target, dtype=logit.data.dtype)
    if target.shape != logit.data.shape:
        raise ShapeError(f"target shape {target.shape} does not match logits {logit.data.shape}")
    if not np.all((target == 0) | (target == 1)):
        raise ValueError("binary_cross_entropy_logit targets must be exactly 0 or 1")
    z = logit.data
    per = np.maximum(z, 0.0) - z * target + np.log1p(np.exp(-np.abs(z)))

    def backward_fn(g):
        return ((_sigmoid(z) - target) / z.size * g,)

    return _op(np.asarray(per.mean(), dtype=z.dtype), (logit,), backward_fn)


def linear(layer, x: Tensor) -> Tensor:
    """x @ weight + bias of an `nn.Linear`, as matmul then bias_add."""
    return bias_add(matmul(x, layer.weight), layer.bias)


class Linear(nn.Linear):
    """`nn.Linear` with its old `__call__`; same parameters and init draws."""

    __call__ = linear


def classify(classifier, pooled: Tensor) -> Tensor:
    """The old `DomainClassifier.__call__`: fc2(relu(fc1(pooled)))."""
    return linear(classifier.fc2, linear(classifier.fc1, pooled).relu())


def rep_loss(feat_src: Tensor, feat_tgt: Tensor, classifier, grl_lambda: float = 1.0) -> Tensor:
    """The alignment term as 17 tape entries where the one op makes 1."""
    hs, ht = global_avg_pool(feat_src), global_avg_pool(feat_tgt)
    if hs.data.shape[0] == 0 or ht.data.shape[0] == 0:
        raise ValueError("rep_loss: empty domain batch")
    zs = classify(classifier, grad_reverse(hs, grl_lambda))
    zt = classify(classifier, grad_reverse(ht, grl_lambda))
    return binary_cross_entropy_logit(zs, np.ones(zs.data.shape)) \
        + binary_cross_entropy_logit(zt, np.zeros(zt.data.shape))
