"""Neural-network operations on tensors: convolution and gradient reversal.

Every op here builds its output through ``_op`` from ``tensor.py``, as the
elementwise ops do: forward values are plain numpy, and a backward rule is
recorded when any input is being tracked. Each batch's detection risk
under one head and the alignment term are one op each, in ``lirr.py``.
Convolution reads and writes channel-major (C, N, H, W) arrays, the layout
its GEMM wants.
"""

from __future__ import annotations

import numpy as np

from .tensor import ShapeError, Tensor, _op, _records

__all__ = ["conv2d", "grad_reverse", "im2col"]


def _pad(a: np.ndarray, ph: int, pw: int) -> np.ndarray:
    """Zero-pad the spatial axes of a 4-D array by ph, pw per side; a negative pad crops."""
    if ph == 0 and pw == 0:
        return a
    c, n, h, w = a.shape
    out = np.zeros((c, n, h + 2 * ph, w + 2 * pw), dtype=a.dtype)
    sh, sw, dh, dw = max(-ph, 0), max(-pw, 0), max(ph, 0), max(pw, 0)
    out[:, :, dh:dh + h - 2 * sh, dw:dw + w - 2 * sw] = a[:, :, sh:h - sh, sw:w - sw]
    return out


def _out_size(h: int, w: int, kh: int, kw: int, stride: int, padding: int) -> tuple[int, int]:
    if stride < 1:
        raise ShapeError(f"conv2d stride must be >= 1, got {stride}")
    if h + 2 * padding < kh or w + 2 * padding < kw:
        raise ShapeError(f"kernel {kh}x{kw} larger than padded input {h + 2 * padding}x{w + 2 * padding}")
    return (h + 2 * padding - kh) // stride + 1, (w + 2 * padding - kw) // stride + 1


def im2col(x: np.ndarray, kh: int, kw: int, stride: int = 1, padding: int = 0) -> np.ndarray:
    """A (C, N, H, W) array, zero-padded (a negative padding crops), as the
    (C*kh*kw, N*H'*W') GEMM operand of a conv of that geometry; unrolled
    once, it can be handed to every such conv that reads x."""
    c, n, h, w = x.shape
    ho, wo = _out_size(h, w, kh, kw, stride, padding)
    xpad = _pad(x, padding, padding)
    cols = np.empty((c, kh, kw, n, ho, wo), dtype=x.dtype)
    for i in range(kh):
        for j in range(kw):
            cols[:, i, j] = xpad[:, :, i:i + stride * ho:stride, j:j + stride * wo:stride]
    return cols.reshape(c * kh * kw, n * ho * wo)


def conv2d(x: Tensor, weight: Tensor, bias: Tensor, stride: int = 1, padding: int = 0,
           cols: np.ndarray | None = None) -> Tensor:
    """2-D cross-correlation of a channel-major (C, N, H, W) input with an
    FCkk kernel stack.

    Output spatial size is floor((H + 2*padding - kh) / stride) + 1 (same for
    W). No kernel flip. One matrix product over the im2col columns of the
    input, or over `cols`, that input's `im2col` handed in. A stride-1 input
    gradient is the output gradient, padded by k-1-padding, correlated with
    the flipped kernel, F and C swapped (Dumoulin & Visin 2016); a strided
    one is a col2im. An untracked input gets no gradient. The bias gradient
    sums in the batch-major conv's order, which follows g's memory layout.

    Args:
        x: input of shape (C, N, H, W).
        weight: kernels of shape (F, C, kh, kw).
        bias: per-filter bias of shape (F,).
        stride: positive step between windows.
        padding: zero padding added on each spatial border.
        cols: optional im2col(x.data, kh, kw, stride, padding).

    Returns:
        Tensor of shape (F, N, H', W').
    """
    if x.data.ndim != 4 or weight.data.ndim != 4:
        raise ShapeError(f"conv2d expects a 4-D (C, N, H, W) input and an (F, C, kh, kw) kernel, "
                         f"got {x.data.shape} and {weight.data.shape}")
    c, n, h, w = x.data.shape
    f, ck, kh, kw = weight.data.shape
    if ck != c:
        raise ShapeError(f"conv2d channel mismatch: (C, N, H, W) input has C = {c}, kernel expects {ck}")
    ho, wo = _out_size(h, w, kh, kw, stride, padding)
    if cols is None:
        cols = im2col(x.data, kh, kw, stride, padding)
    elif cols.shape != (c * kh * kw, n * ho * wo):
        raise ShapeError(f"conv2d: handed-in columns have shape {cols.shape}, the (C, N, H, W) "
                         f"input {x.data.shape} unrolls to {(c * kh * kw, n * ho * wo)}")
    k = weight.data
    w2 = k.reshape(f, c * kh * kw)
    out_data = (w2 @ cols).reshape(f, n, ho, wo) + bias.data.reshape(f, 1, 1, 1)
    x_tracked, x_dtype = _records((x,)), x.data.dtype  # the rule keeps these, not x

    def backward_fn(g):
        g2 = np.ascontiguousarray(g.reshape(f, n * ho * wo))  # BLAS may round a strided operand differently
        dw = (g2 @ cols.T).reshape(f, c, kh, kw)
        if g.strides[0] > g.strides[1]:  # filter-major: each (filter, sample) block, then the samples
            per_sample = g.reshape(f, n, ho * wo).sum(axis=2).T
            db = sum(per_sample[1:], per_sample[0])
        else:  # sample-major, as anchor_order's view: one pass over the (sample, row, column) rows
            db = g.sum(axis=(1, 2, 3))
        dx = None
        if x_tracked and stride == 1:
            wflip = k[:, :, ::-1, ::-1].transpose(1, 0, 2, 3).reshape(c, f * kh * kw)
            gcols = im2col(_pad(g2.reshape(f, n, ho, wo), kh - 1 - padding, kw - 1 - padding), kh, kw)
            dx = (wflip @ gcols).reshape(c, n, h, w)
        elif x_tracked:
            dcols = (w2.T @ g2).reshape(c, kh, kw, n, ho, wo)
            dxpad = np.zeros((c, n, h + 2 * padding, w + 2 * padding), dtype=x_dtype)
            for i in range(kh):
                for j in range(kw):
                    dxpad[:, :, i:i + stride * ho:stride, j:j + stride * wo:stride] += dcols[:, i, j]
            dx = dxpad[:, :, padding:padding + h, padding:padding + w]
        return dx, dw, db

    return _op(out_data, (x, weight, bias), backward_fn)


def grad_reverse(x: Tensor, lam: float = 1.0) -> Tensor:
    """Identity forward; backward multiplies the upstream gradient by -lam."""
    if lam < 0:
        raise ValueError(f"grad_reverse lambda must be >= 0, got {lam}")
    return _op(x.data, (x,), lambda g: (-lam * g,))

