"""The head-output layout as the package built it before it became one tape
op per output kind.

`transpose` and `concat` are the autodiff ops it was assembled from,
`flatten_head` is the reshape, transpose, reshape chain that laid one
level's (N, per_cell*width, H, W) conv output out in anchor order, and
`head_set_call` is the old `HeadSet.__call__`: per level the class conv
and the box conv, each swapped from the channel-major layout the convs
now return into (N, F, H, W) and flattened, then one `concat` per output
kind.
`lirrdet.detector.model.anchor_order` and `HeadSet.__call__` must match
them bit for bit, sign bits and the layout of each level's gradient
included.
"""

import numpy as np

from lirrdet.autodiff.tensor import ShapeError, Tensor, _op

from _gradcheck import reshape
from _layout_ref import swap_nc


def transpose(x: Tensor, *axes) -> Tensor:
    inv = np.argsort(axes)
    return _op(x.data.transpose(axes), (x,), lambda g: (g.transpose(inv),))


def concat(tensors: list, axis: int = 0) -> Tensor:
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


def flatten_head(out: Tensor, per_cell: int, width: int) -> Tensor:
    # (N, A*W, H, Wd) -> (N, H*Wd*A, W) matching anchor order within a level
    n, _, h, w = out.data.shape
    return reshape(transpose(reshape(out, n, per_cell, width, h, w), 0, 3, 4, 1, 2),
                   n, h * w * per_cell, width)


def head_set_call(head_set, feats, cols=None):
    """The old `HeadSet.__call__`, for monkeypatching onto `HeadSet`; each
    conv unrolls its own input, so `cols` goes unread."""
    outs = []
    for head, f in zip(head_set.heads, feats):
        per_cell = head.loc.weight.data.shape[0] // 4
        cls = flatten_head(swap_nc(head.cls(f)), per_cell, head_set.num_logits)
        loc = flatten_head(swap_nc(head.loc(f)), per_cell, 4)
        outs.append((cls, loc))
    return concat([c for c, _ in outs], axis=1), concat([l for _, l in outs], axis=1)
