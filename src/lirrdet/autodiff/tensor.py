"""Reverse-mode automatic differentiation over dense numpy-backed tensors.

A ``Tensor`` wraps a numpy array. Operations on tensors that participate in
gradient computation are recorded on the thread's tape in execution order
(which is already a topological order). ``backward(loss)`` walks the tape
once in reverse and accumulates gradients into the ``grad`` attribute of
leaf tensors created with ``requires_grad=True``.

Each thread has one tape, and each ``backward`` empties it: it takes every
op off the tape as it sweeps it and unlinks the op's output, so the op's
inputs, backward rule and buffers are freed by reference counting once
nothing else holds them, even when a backward rule raises. Tensors of a
swept graph are no longer tracked, so a second ``backward`` from the same
loss raises ``TapeError``.

Broadcasting is deliberately restricted to scalar-with-tensor (a size-1
tensor counts as a scalar) and identical-shape pairs; anything else raises
``ShapeError``.

Precision is a per-thread mode (float32 by default, float64 for
verification); see ``set_default_dtype`` / ``precision``. Grad mode and the
tape are per thread as well.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager

import numpy as np

__all__ = [
    "Tensor",
    "ShapeError",
    "TapeError",
    "backward",
    "no_grad",
    "precision",
    "set_default_dtype",
    "default_dtype",
]


class ShapeError(ValueError):
    """Raised when operand shapes are incompatible."""


class TapeError(RuntimeError):
    """Raised on invalid tape use (e.g. a second backward from the same loss)."""


class _ThreadState(threading.local):
    """Precision, grad mode and the tape of one thread."""

    def __init__(self):
        self.dtype = np.dtype(np.float32)
        self.grad_enabled = True
        self.tape: list[_Entry] = []


_state = _ThreadState()


def default_dtype() -> np.dtype:
    """Return the dtype newly created tensors use."""
    return _state.dtype


def set_default_dtype(dtype) -> None:
    """Set this thread's tensor dtype ('float32' or 'float64')."""
    dt = np.dtype(dtype)
    if dt not in (np.dtype(np.float32), np.dtype(np.float64)):
        raise ValueError(f"unsupported dtype {dt}; use float32 or float64")
    _state.dtype = dt


@contextmanager
def precision(dtype):
    """Temporarily switch this thread's dtype, e.g. ``with precision('float64')``."""
    old = _state.dtype
    set_default_dtype(dtype)
    try:
        yield
    finally:
        _state.dtype = old


@contextmanager
def no_grad():
    """Disable tape recording inside the block (inference / reporting paths)."""
    old = _state.grad_enabled
    _state.grad_enabled = False
    try:
        yield
    finally:
        _state.grad_enabled = old


class _Entry:
    """One recorded operation: inputs, output and its backward rule."""

    __slots__ = ("inputs", "output", "backward")

    def __init__(self, inputs, output, backward):
        self.inputs = inputs
        self.output = output
        self.backward = backward


class Tensor:
    """Dense n-dimensional float tensor with optional gradient tracking."""

    __slots__ = ("data", "requires_grad", "grad", "_entry", "_tape")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=_state.dtype)
        self.requires_grad = bool(requires_grad)
        self.grad: np.ndarray | None = None
        self._entry: _Entry | None = None
        self._tape: list[_Entry] | None = None

    # -- bookkeeping ----------------------------------------------------------

    @property
    def shape(self) -> tuple:
        return self.data.shape

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        if self.data.size != 1:
            raise ShapeError(f"item() on tensor of shape {self.data.shape}")
        return float(self.data.reshape(()))

    def zero_grad(self) -> None:
        self.grad = None

    def __repr__(self) -> str:
        return f"Tensor(shape={self.data.shape}, dtype={self.data.dtype}, requires_grad={self.requires_grad})"

    def backward(self) -> None:
        backward(self)

    # -- arithmetic -----------------------------------------------------------

    def __add__(self, other):
        return _binary(self, other, lambda a, b: a + b, lambda g, a, b: (g, g), "add")

    __radd__ = __add__

    def __sub__(self, other):
        return _binary(self, other, lambda a, b: a - b, lambda g, a, b: (g, -g), "sub")

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        return _binary(self, other, lambda a, b: a * b, lambda g, a, b: (g * b, g * a), "mul")

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, Tensor):
            raise ShapeError("tensor/tensor division not supported; multiply by a scalar instead")
        return self * (1.0 / float(other))

    def __neg__(self):
        return _unary(self, lambda a: -a, lambda g, a, out: -g)

    def __matmul__(self, other):
        return matmul(self, other)

    # -- elementwise functions --------------------------------------------------

    def relu(self) -> "Tensor":
        return _unary(self, lambda a: np.maximum(a, 0.0), lambda g, a, out: g * (a > 0))

    def sigmoid(self) -> "Tensor":
        return _unary(self, _sigmoid, lambda g, a, out: g * out * (1.0 - out))

    def log(self) -> "Tensor":
        return _unary(self, np.log, lambda g, a, out: g / a)

    def exp(self) -> "Tensor":
        return _unary(self, np.exp, lambda g, a, out: g * out)

    # -- reductions ---------------------------------------------------------------

    def sum(self, axis=None) -> "Tensor":
        return _reduce(self, axis, mean=False)

    def mean(self, axis=None) -> "Tensor":
        return _reduce(self, axis, mean=True)

    # -- shape manipulation ---------------------------------------------------

    def reshape(self, *shape) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        src_shape = self.data.shape
        return _op(self.data.reshape(shape), (self,), lambda g: (g.reshape(src_shape),))

    def transpose(self, *axes) -> "Tensor":
        if len(axes) == 1 and isinstance(axes[0], (tuple, list)):
            axes = tuple(axes[0])
        inv = np.argsort(axes)
        return _op(self.data.transpose(axes), (self,), lambda g: (g.transpose(inv),))


def _sigmoid(x: np.ndarray) -> np.ndarray:
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def _op(data: np.ndarray, inputs: tuple, backward_fn) -> Tensor:
    """The output of an op: `data` as a tensor, recorded on the thread's tape
    with `backward_fn` if grad mode is on and any input is tracked (a leaf
    that requires grad, or the output of an op still on a tape)."""
    out = Tensor.__new__(Tensor)
    out.data = data
    out.requires_grad = False
    out.grad = None
    out._entry = None
    out._tape = None
    if _state.grad_enabled and any(t.requires_grad or t._entry is not None for t in inputs):
        out._entry = _Entry(inputs, out, backward_fn)
        out._tape = _state.tape
        out._tape.append(out._entry)
    return out


def _unary(x: Tensor, fwd, bwd) -> Tensor:
    out_data = fwd(x.data)
    return _op(out_data, (x,), lambda g: (bwd(g, x.data, out_data),))


def _scalar_operands(x: np.ndarray, y: np.ndarray):
    """Drop the dimensions of a size-1 operand paired with a larger one, so
    it acts as a scalar and the result takes the larger operand's shape."""
    if x.shape == y.shape:
        return x, y
    if x.size != 1:
        return x, y.reshape(())
    if y.size != 1:
        return x.reshape(()), y
    return x, y


def _binary(a: Tensor, b, fwd, bwd, name: str) -> Tensor:
    """Binary elementwise op; b may be a Tensor or a python scalar.

    A size-1 tensor operand acts as a scalar.
    """
    if isinstance(b, Tensor):
        if a.data.shape != b.data.shape and a.data.size != 1 and b.data.size != 1:
            raise ShapeError(f"{name}: shapes {a.data.shape} and {b.data.shape} are not compatible "
                             "(only same-shape or scalar broadcasting is supported)")

        def backward_fn(g):
            ga, gb = bwd(g, *_scalar_operands(a.data, b.data))
            return _unbroadcast(ga, a.data.shape), _unbroadcast(gb, b.data.shape)

        return _op(fwd(*_scalar_operands(a.data, b.data)), (a, b), backward_fn)
    s = float(b)

    def backward_scalar(g):
        ga, _ = bwd(g, a.data, s)
        return (ga,)

    return _op(fwd(a.data, s), (a,), backward_scalar)


def _unbroadcast(g, shape) -> np.ndarray:
    """Sum a gradient down to `shape`; only a size-1 operand can differ."""
    g = np.asarray(g)
    return g if g.shape == tuple(shape) else g.sum().reshape(shape)


def _reduce(x: Tensor, axis, mean: bool) -> Tensor:
    """Sum or mean over `axis` (an int, a tuple of ints, or None for all)."""
    if axis is None:
        axes = tuple(range(x.data.ndim))
    else:
        axes = (axis,) if isinstance(axis, int) else tuple(axis)
    count = int(np.prod([x.data.shape[a] for a in axes]))
    data = x.data.mean(axis=axes) if mean else x.data.sum(axis=axes)
    src_shape = x.data.shape

    def backward_axis(g):
        ge = np.expand_dims(g, axes)
        gb = np.broadcast_to(ge, src_shape)
        return ((gb / count).astype(x.data.dtype, copy=False) if mean else gb.astype(x.data.dtype, copy=False),)

    return _op(np.asarray(data), (x,), backward_axis)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """2-D matrix product with the standard transpose backward rules."""
    if a.data.ndim != 2 or b.data.ndim != 2:
        raise ShapeError(f"matmul expects 2-D operands, got {a.data.shape} and {b.data.shape}")
    if a.data.shape[1] != b.data.shape[0]:
        raise ShapeError(f"matmul inner dimensions differ: {a.data.shape} vs {b.data.shape}")
    return _op(a.data @ b.data, (a, b), lambda g: (g @ b.data.T, a.data.T @ g))


def backward(loss: Tensor) -> None:
    """Reverse-sweep the tape from a scalar loss, accumulating leaf gradients.

    Every reachable leaf with ``requires_grad=True`` gets its gradient summed
    into ``.grad``. The sweep empties the loss's tape, also when a backward
    rule raises; a second call from the same loss raises ``TapeError``.
    """
    if loss.data.size != 1:
        raise ShapeError(f"backward requires a scalar loss, got shape {loss.data.shape}")
    if loss._entry is None:
        # A bare leaf used directly as the loss.
        if loss.requires_grad:
            g = np.ones_like(loss.data)
            loss.grad = g if loss.grad is None else loss.grad + g
            return
        raise TapeError("loss is not on a tape: no input of it was tracked, "
                        "or backward has already swept its graph")

    tape = loss._tape
    staged: dict[_Entry, np.ndarray] = {loss._entry: np.ones_like(loss.data)}
    try:
        while tape:
            entry = tape.pop()
            entry.output._entry = None
            g = staged.pop(entry, None)
            if g is None:
                continue
            input_grads = entry.backward(g)
            for t, gi in zip(entry.inputs, input_grads):
                if gi is None:
                    continue
                if t._entry is not None:
                    key = t._entry
                    staged[key] = staged[key] + gi if key in staged else gi
                elif t.requires_grad:
                    gi = np.asarray(gi, dtype=t.data.dtype).reshape(t.data.shape)
                    t.grad = gi.copy() if t.grad is None else t.grad + gi
    finally:
        for entry in tape:
            entry.output._entry = None
        tape.clear()
