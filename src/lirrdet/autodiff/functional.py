"""Neural-network operations on tensors: convolution and gradient reversal.

Every op here builds its output through ``_op`` from ``tensor.py``, as the
elementwise ops do: forward values are plain numpy, and a backward rule is
recorded when any input is being tracked. Each batch's detection risk
under one head and the alignment term are one op each, in ``lirr.py``.
"""

from __future__ import annotations

import numpy as np

from .tensor import ShapeError, Tensor, _op

__all__ = ["conv2d", "grad_reverse"]


def _pad(a: np.ndarray, ph: int, pw: int) -> np.ndarray:
    """Zero-pad the spatial axes of a 4-D array by ph, pw per side; a negative pad crops."""
    if ph == 0 and pw == 0:
        return a
    c, n, h, w = a.shape
    out = np.zeros((c, n, h + 2 * ph, w + 2 * pw), dtype=a.dtype)
    sh, sw, dh, dw = max(-ph, 0), max(-pw, 0), max(ph, 0), max(pw, 0)
    out[:, :, dh:dh + h - 2 * sh, dw:dw + w - 2 * sw] = a[:, :, sh:h - sh, sw:w - sw]
    return out


def _im2col(xpad: np.ndarray, kh: int, kw: int, stride: int, ho: int, wo: int) -> np.ndarray:
    """Channel-major (C, N, Hp, Wp) input to the (C*kh*kw, N*ho*wo) GEMM operand."""
    c, n = xpad.shape[:2]
    cols = np.empty((c, kh, kw, n, ho, wo), dtype=xpad.dtype)
    for i in range(kh):
        for j in range(kw):
            cols[:, i, j] = xpad[:, :, i:i + stride * ho:stride, j:j + stride * wo:stride]
    return cols.reshape(c * kh * kw, n * ho * wo)


def conv2d(x: Tensor, weight: Tensor, bias: Tensor, stride: int = 1, padding: int = 0) -> Tensor:
    """2-D cross-correlation of an NCHW input with an FCkk kernel stack.

    Output spatial size is floor((H + 2*padding - kh) / stride) + 1 (same for
    W). No kernel flip. One matrix product over channel-major im2col patches.
    A stride-1 input gradient is the output gradient, padded by k-1-padding,
    correlated with the flipped kernel, F and C swapped (Dumoulin & Visin
    2016); a strided one is a col2im. An untracked input gets no gradient.

    Args:
        x: input of shape (N, C, H, W).
        weight: kernels of shape (F, C, kh, kw).
        bias: per-filter bias of shape (F,).
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

    xpad = _pad(x.data.transpose(1, 0, 2, 3), padding, padding)
    cols2 = _im2col(xpad, kh, kw, stride, ho, wo)
    w2 = weight.data.reshape(f, c * kh * kw)
    out_data = (w2 @ cols2).reshape(f, n, ho, wo).transpose(1, 0, 2, 3) + bias.data.reshape(1, f, 1, 1)
    x_tracked = x.requires_grad or x._entry is not None

    def backward_fn(g):
        g2 = np.ascontiguousarray(g.transpose(1, 0, 2, 3).reshape(f, n * ho * wo))
        dw = (g2 @ cols2.T).reshape(f, c, kh, kw)
        dx = None
        if x_tracked and stride == 1:
            wflip = weight.data[:, :, ::-1, ::-1].transpose(1, 0, 2, 3).reshape(c, f * kh * kw)
            gcols = _im2col(_pad(g2.reshape(f, n, ho, wo), kh - 1 - padding, kw - 1 - padding),
                            kh, kw, 1, h, w)
            dx = (wflip @ gcols).reshape(c, n, h, w).transpose(1, 0, 2, 3)
        elif x_tracked:
            dcols = (w2.T @ g2).reshape(c, kh, kw, n, ho, wo)
            dxpad = np.zeros((c, n, h + 2 * padding, w + 2 * padding), dtype=x.data.dtype)
            for i in range(kh):
                for j in range(kw):
                    dxpad[:, :, i:i + stride * ho:stride, j:j + stride * wo:stride] += dcols[:, i, j]
            dx = dxpad[:, :, padding:padding + h, padding:padding + w].transpose(1, 0, 2, 3)
        return dx, dw, g.sum(axis=(0, 2, 3))

    return _op(np.ascontiguousarray(out_data), (x, weight, bias), backward_fn)


def grad_reverse(x: Tensor, lam: float = 1.0) -> Tensor:
    """Identity forward; backward multiplies the upstream gradient by -lam."""
    if lam < 0:
        raise ValueError(f"grad_reverse lambda must be >= 0, got {lam}")
    return _op(x.data, (x,), lambda g: (-lam * g,))

