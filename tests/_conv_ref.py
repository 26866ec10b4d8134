"""Batch-major im2col reference for `lirrdet.autodiff.functional.conv2d`.

This is the conv2d the package used before its buffers became channel-major
and its stride-1 input gradient became a convolution of the padded output
gradient with the flipped kernel. Padded input, im2col columns and col2im
buffer are (N, C, H, W) here, the columns are transposed into the GEMM
operand, and every input gradient is a col2im of nine strided
scatter-adds. `conv2d` must match its forward output, dW, db and strided dx
byte for byte, and its stride-1 dx to a tight tolerance.
"""

import numpy as np

from lirrdet.autodiff.tensor import Tensor, _op


def _im2col(xpad, kh, kw, stride, ho, wo):
    n, c = xpad.shape[:2]
    cols = np.empty((n, c, kh, kw, ho, wo), dtype=xpad.dtype)
    for i in range(kh):
        for j in range(kw):
            cols[:, :, i, j] = xpad[:, :, i:i + stride * ho:stride, j:j + stride * wo:stride]
    return cols


def conv2d(x: Tensor, weight: Tensor, bias: Tensor | None = None,
           stride: int = 1, padding: int = 0) -> Tensor:
    n, c, h, w = x.data.shape
    f, _, kh, kw = weight.data.shape
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
