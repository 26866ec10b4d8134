"""Neural-network operations on tensors: convolution, pooling, losses.

Every op here builds its output through ``_op`` from ``tensor.py``, as the
elementwise ops do: forward values are plain numpy, and a backward rule is
recorded when any input is being tracked.
"""

from __future__ import annotations

import numpy as np

from .tensor import ShapeError, Tensor, _op, _sigmoid

__all__ = [
    "conv2d",
    "global_avg_pool",
    "bias_add",
    "softmax_cross_entropy",
    "binary_cross_entropy_logit",
    "smooth_l1",
    "grad_reverse",
    "gather_rows",
    "concat",
]


def _im2col(xpad: np.ndarray, kh: int, kw: int, stride: int, ho: int, wo: int) -> np.ndarray:
    n, c = xpad.shape[:2]
    cols = np.empty((n, c, kh, kw, ho, wo), dtype=xpad.dtype)
    for i in range(kh):
        for j in range(kw):
            cols[:, :, i, j] = xpad[:, :, i:i + stride * ho:stride, j:j + stride * wo:stride]
    return cols


def conv2d(x: Tensor, weight: Tensor, bias: Tensor | None = None,
           stride: int = 1, padding: int = 0) -> Tensor:
    """2-D cross-correlation of an NCHW input with an FCkk kernel stack.

    Output spatial size is floor((H + 2*padding - kh) / stride) + 1 (same for
    W). No kernel flip. Computed as one matrix product over im2col patches.

    Args:
        x: input of shape (N, C, H, W).
        weight: kernels of shape (F, C, kh, kw).
        bias: optional per-filter bias of shape (F,).
        stride: positive step between windows.
        padding: zero padding added on each spatial border.

    Returns:
        Tensor of shape (N, F, H', W').
    """
    if x.data.ndim != 4 or weight.data.ndim != 4:
        raise ShapeError(f"conv2d expects 4-D input and kernel, got {x.data.shape} and {weight.data.shape}")
    n, c, h, w = x.data.shape
    f, ck, kh, kw = weight.data.shape
    if ck != c:
        raise ShapeError(f"conv2d channel mismatch: input has {c}, kernel expects {ck}")
    if stride < 1:
        raise ShapeError(f"conv2d stride must be >= 1, got {stride}")
    if h + 2 * padding < kh or w + 2 * padding < kw:
        raise ShapeError(f"kernel {kh}x{kw} larger than padded input {h + 2 * padding}x{w + 2 * padding}")
    ho = (h + 2 * padding - kh) // stride + 1
    wo = (w + 2 * padding - kw) // stride + 1

    if padding > 0:
        xpad = np.zeros((n, c, h + 2 * padding, w + 2 * padding), dtype=x.data.dtype)
        xpad[:, :, padding:padding + h, padding:padding + w] = x.data
    else:
        xpad = x.data

    cols = _im2col(xpad, kh, kw, stride, ho, wo)
    cols2 = cols.reshape(n, c * kh * kw, ho * wo).transpose(1, 0, 2).reshape(c * kh * kw, n * ho * wo)
    w2 = weight.data.reshape(f, c * kh * kw)
    out2 = w2 @ cols2
    out_data = out2.reshape(f, n, ho, wo).transpose(1, 0, 2, 3)
    if bias is not None:
        out_data = out_data + bias.data.reshape(1, f, 1, 1)
    inputs = (x, weight) if bias is None else (x, weight, bias)

    def backward_fn(g):
        g2 = np.ascontiguousarray(g.transpose(1, 0, 2, 3).reshape(f, n * ho * wo))
        dw = (g2 @ cols2.T).reshape(f, c, kh, kw)
        dcols2 = weight.data.reshape(f, c * kh * kw).T @ g2
        dcols = dcols2.reshape(c, kh, kw, n, ho, wo).transpose(3, 0, 1, 2, 4, 5)
        dxpad = np.zeros_like(xpad)
        for i in range(kh):
            for j in range(kw):
                dxpad[:, :, i:i + stride * ho:stride, j:j + stride * wo:stride] += dcols[:, :, i, j]
        dx = dxpad[:, :, padding:padding + h, padding:padding + w] if padding > 0 else dxpad
        if bias is None:
            return dx, dw
        return dx, dw, g.sum(axis=(0, 2, 3))

    return _op(np.ascontiguousarray(out_data), inputs, backward_fn)


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


def softmax_cross_entropy(logits: Tensor, labels, reduction: str = "mean") -> Tensor:
    """Cross entropy of (N, K) logits against integer labels, max-stabilized.

    Returns the mean (default) or sum over the N rows of -log softmax[label].
    """
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
    value = per_row.mean() if reduction == "mean" else per_row.sum()

    def backward_fn(g):
        soft = np.exp(z)
        soft /= soft.sum(axis=1, keepdims=True)
        soft[np.arange(n), labels] -= 1.0
        if reduction == "mean":
            soft /= n
        return (soft * g,)

    return _op(np.asarray(value, dtype=logits.data.dtype), (logits,), backward_fn)


def binary_cross_entropy_logit(logit: Tensor, target, reduction: str = "mean") -> Tensor:
    """Binary cross entropy from logits, in the usual stabilized form.

    Targets must be exactly 0 or 1. Value is the mean (default) or sum of
    max(z,0) - z*t + log(1 + exp(-|z|)).
    """
    target = np.asarray(target, dtype=logit.data.dtype)
    if target.shape != logit.data.shape:
        raise ShapeError(f"target shape {target.shape} does not match logits {logit.data.shape}")
    if not np.all((target == 0) | (target == 1)):
        raise ValueError("binary_cross_entropy_logit targets must be exactly 0 or 1")
    z = logit.data
    per = np.maximum(z, 0.0) - z * target + np.log1p(np.exp(-np.abs(z)))
    value = per.mean() if reduction == "mean" else per.sum()

    def backward_fn(g):
        d = _sigmoid(z) - target
        if reduction == "mean":
            d = d / z.size
        return (d * g,)

    return _op(np.asarray(value, dtype=z.dtype), (logit,), backward_fn)


def smooth_l1(pred: Tensor, target: Tensor, reduction: str = "mean") -> Tensor:
    """Huber-style loss: 0.5*e^2 for |e| < 1, |e| - 0.5 otherwise."""
    tdata = target.data if isinstance(target, Tensor) else np.asarray(target, dtype=pred.data.dtype)
    if tdata.shape != pred.data.shape:
        raise ShapeError(f"smooth_l1 shapes differ: {pred.data.shape} vs {tdata.shape}")
    e = pred.data - tdata
    ae = np.abs(e)
    per = np.where(ae < 1.0, 0.5 * e * e, ae - 0.5)
    value = per.mean() if reduction == "mean" else per.sum()

    def backward_fn(g):
        d = np.clip(e, -1.0, 1.0)
        if reduction == "mean":
            d = d / e.size
        dp = d * g
        if isinstance(target, Tensor):
            return dp, -dp
        return (dp,)

    inputs = (pred, target) if isinstance(target, Tensor) else (pred,)
    return _op(np.asarray(value, dtype=pred.data.dtype), inputs, backward_fn)


def grad_reverse(x: Tensor, lam: float = 1.0) -> Tensor:
    """Identity forward; backward multiplies the upstream gradient by -lam."""
    if lam < 0:
        raise ValueError(f"grad_reverse lambda must be >= 0, got {lam}")
    return _op(x.data, (x,), lambda g: (-lam * g,))


def gather_rows(x: Tensor, indices) -> Tensor:
    """Select rows of a 2-D tensor; backward scatter-adds into the source."""
    idx = np.asarray(indices, dtype=np.int64)
    if x.data.ndim != 2:
        raise ShapeError(f"gather_rows expects a 2-D tensor, got {x.data.shape}")

    def backward_fn(g):
        dx = np.zeros_like(x.data)
        np.add.at(dx, idx, g)
        return (dx,)

    return _op(x.data[idx], (x,), backward_fn)


def concat(tensors: list[Tensor], axis: int = 0) -> Tensor:
    """Concatenate tensors along an axis; backward splits the gradient."""
    if not tensors:
        raise ShapeError("concat of an empty list")
    sizes = [t.data.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def backward_fn(g):
        slicer = [slice(None)] * g.ndim
        grads = []
        for i in range(len(sizes)):
            slicer[axis] = slice(offsets[i], offsets[i + 1])
            grads.append(g[tuple(slicer)])
        return tuple(grads)

    return _op(np.concatenate([t.data for t in tensors], axis=axis), tuple(tensors), backward_fn)
