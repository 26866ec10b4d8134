"""The batch-major layout as the package ran it before activations became
channel-major.

`conv2d` is the convolution of that time: it took and returned
(N, C, H, W) arrays, transposed its input into channel-major im2col
columns and its output back, unrolled its own input on every call, and
summed the bias gradient as `g.sum(axis=(0, 2, 3))`, in the memory order
of g. `anchor_order` read (N, per_cell*width, H, W) head outputs,
`head_set_call` is the `HeadSet.__call__` of that time (each conv unrolls
its input itself), `stack_images` stacked a batch on axis 0, and
`rep_loss` pooled (N, C, H, W) maps. `install` swaps all of them into the
package, so that a training step runs batch-major end to end; the
channel-major package must give the same bits.
"""

import numpy as np

from lirrdet import lirr
from lirrdet.autodiff import default_dtype, functional
from lirrdet.autodiff.functional import _pad, im2col
from lirrdet.autodiff.tensor import ShapeError, Tensor, _op
from lirrdet.detector.model import HeadSet
from lirrdet.lirr import _sigmoid


def conv2d(x: Tensor, weight: Tensor, bias: Tensor, stride: int = 1, padding: int = 0,
           cols=None) -> Tensor:
    """(N, C, H, W) in, (N, F, H', W') out; `cols` must be None."""
    assert cols is None, "the batch-major conv unrolls its own input"
    n, c, h, w = x.data.shape
    f, _, kh, kw = weight.data.shape
    ho = (h + 2 * padding - kh) // stride + 1
    wo = (w + 2 * padding - kw) // stride + 1

    cols2 = im2col(x.data.transpose(1, 0, 2, 3), kh, kw, stride, padding)
    w2 = weight.data.reshape(f, c * kh * kw)
    out_data = (w2 @ cols2).reshape(f, n, ho, wo).transpose(1, 0, 2, 3) + bias.data.reshape(1, f, 1, 1)
    x_tracked = x.requires_grad or x._entry is not None

    def backward_fn(g):
        g2 = np.ascontiguousarray(g.transpose(1, 0, 2, 3).reshape(f, n * ho * wo))
        dw = (g2 @ cols2.T).reshape(f, c, kh, kw)
        dx = None
        if x_tracked and stride == 1:
            wflip = weight.data[:, :, ::-1, ::-1].transpose(1, 0, 2, 3).reshape(c, f * kh * kw)
            gcols = im2col(_pad(g2.reshape(f, n, ho, wo), kh - 1 - padding, kw - 1 - padding), kh, kw)
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


def anchor_order(outs, width: int) -> Tensor:
    """(N, per_cell*width, H, W) head outputs as one (N, A, width) tensor."""
    n = outs[0].data.shape[0]
    dims = [(o.data.shape[1] // width, *o.data.shape[2:]) for o in outs]  # (per_cell, H, W)
    ends = np.cumsum([pc * h * w for pc, h, w in dims])

    def backward_fn(g):
        return tuple(g[:, end - pc * h * w:end].reshape(n, h, w, pc, width)
                     .transpose(0, 3, 4, 1, 2).reshape(n, pc * width, h, w)
                     for (pc, h, w), end in zip(dims, ends))

    data = np.concatenate([o.data.reshape(n, pc, width, h, w).transpose(0, 3, 4, 1, 2)
                           .reshape(n, h * w * pc, width) for o, (pc, h, w) in zip(outs, dims)], axis=1)
    return _op(data, tuple(outs), backward_fn)


def head_set_call(head_set, feats, cols=None):
    """`HeadSet.__call__` on (N, C, H, W) features, each conv unrolling its input."""
    outs = [(head.cls(f), head.loc(f)) for head, f in zip(head_set.heads, feats)]
    return (anchor_order([c for c, _ in outs], head_set.num_logits),
            anchor_order([l for _, l in outs], 4))


def stack_images(batch) -> Tensor:
    return Tensor(np.stack([np.asarray(s.image, dtype=default_dtype()) for s in batch]))


def rep_loss(feat_src: Tensor, feat_tgt: Tensor, classifier, grl_lambda: float = 1.0) -> Tensor:
    """`lirr.rep_loss` on (N, C, H, W) maps."""
    params = [p for fc in (classifier.fc1, classifier.fc2) for p in (fc.weight, fc.bias)]
    w1, b1, w2, b2 = (p.data for p in params)
    maps = (feat_src.data, feat_tgt.data)
    if any(f.ndim != 4 for f in maps):
        raise ShapeError(f"rep_loss expects (N, C, H, W) feature maps, got {maps[0].shape} and {maps[1].shape}")
    if any(len(f) == 0 for f in maps):
        raise ValueError("rep_loss: empty domain batch")

    sides, bce = [], []
    for f, fill in zip(maps, (np.ones, np.zeros)):
        h = f.mean(axis=(2, 3))
        pre = h @ w1 + b1[None, :]
        a = np.maximum(pre, 0.0)
        z = a @ w2 + b2[None, :]
        t = fill(z.shape, dtype=z.dtype)
        per = np.maximum(z, 0.0) - z * t + np.log1p(np.exp(-np.abs(z)))
        sides.append((f, h, pre, a, z, t))
        bce.append(np.asarray(per.mean(), z.dtype))

    def backward_fn(g):
        feat_grads, param_grads = [], []
        for f, h, pre, a, z, t in sides:
            dz = (_sigmoid(z) - t) / z.size * g
            dpre = (dz @ w2.T) * (pre > 0)
            dh = (-grl_lambda * (dpre @ w1.T))[:, :, None, None] / (f.shape[2] * f.shape[3])
            feat_grads.append(np.broadcast_to(dh, f.shape).astype(f.dtype, copy=False))
            param_grads.append((h.T @ dpre, dpre.sum(axis=0), a.T @ dz, dz.sum(axis=0)))
        return (*feat_grads, *(t + s for s, t in zip(*param_grads)))

    return _op(bce[0] + bce[1], (feat_src, feat_tgt, *params), backward_fn)


def install(monkeypatch) -> None:
    """Run the package batch-major: every piece above in place of its
    channel-major counterpart, and no shared head columns."""
    monkeypatch.setattr(functional, "conv2d", conv2d)
    monkeypatch.setattr(lirr, "_stack_images", stack_images)
    monkeypatch.setattr(lirr, "rep_loss", rep_loss)
    monkeypatch.setattr(HeadSet, "__call__", head_set_call)
    monkeypatch.setattr(HeadSet, "columns", lambda self, feats: [None] * len(feats))


def swap_nc(t: Tensor) -> Tensor:
    """t with axes 0 and 1 swapped, C-contiguous, as one op: a (C, N, H, W)
    tensor as (N, C, H, W), or back."""
    return _op(np.ascontiguousarray(t.data.transpose(1, 0, 2, 3)), (t,), lambda g: (g.transpose(1, 0, 2, 3),))
