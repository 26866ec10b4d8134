"""Reverse-mode automatic differentiation over dense numpy-backed tensors.

A ``Tensor`` wraps a numpy array. Operations on tensors that participate in
gradient computation are recorded on a thread-local ``Tape`` in execution
order (which is already a topological order). ``backward(loss)`` walks the
tape once in reverse and accumulates gradients into the ``grad`` attribute
of leaf tensors created with ``requires_grad=True``.

Tapes are single-use: after ``backward`` the tape is consumed and a second
``backward`` through it raises ``TapeError``. The next recorded operation
starts a fresh tape automatically.

Broadcasting is deliberately restricted to scalar-with-tensor (a size-1
tensor counts as a scalar) and identical-shape pairs; anything else raises
``ShapeError``.

Precision is a process-global mode (float32 by default, float64 for
verification); see ``set_default_dtype`` / ``precision``.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager

import numpy as np

__all__ = [
    "Tensor",
    "Tape",
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
    """Raised on invalid tape use (e.g. backward through a consumed tape)."""


_state = threading.local()


def _dtype() -> np.dtype:
    return getattr(_state, "dtype", np.dtype(np.float32))


def default_dtype() -> np.dtype:
    """Return the dtype newly created tensors use."""
    return _dtype()


def set_default_dtype(dtype) -> None:
    """Set the global tensor dtype ('float32' or 'float64')."""
    dt = np.dtype(dtype)
    if dt not in (np.dtype(np.float32), np.dtype(np.float64)):
        raise ValueError(f"unsupported dtype {dt}; use float32 or float64")
    _state.dtype = dt


@contextmanager
def precision(dtype):
    """Temporarily switch the global dtype, e.g. ``with precision('float64')``."""
    old = _dtype()
    set_default_dtype(dtype)
    try:
        yield
    finally:
        _state.dtype = old


def _grad_enabled() -> bool:
    return getattr(_state, "grad_enabled", True)


@contextmanager
def no_grad():
    """Disable tape recording inside the block (inference / reporting paths)."""
    old = _grad_enabled()
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


class Tape:
    """Ordered record of operations; execution order is topological order."""

    __slots__ = ("entries", "consumed")

    def __init__(self):
        self.entries: list[_Entry] = []
        self.consumed = False

    def __len__(self) -> int:
        return len(self.entries)


def _tape_for_recording() -> Tape:
    tape = getattr(_state, "tape", None)
    if tape is None or tape.consumed:
        tape = Tape()
        _state.tape = tape
    return tape


class Tensor:
    """Dense n-dimensional float tensor with optional gradient tracking."""

    __slots__ = ("data", "requires_grad", "grad", "_entry", "_tape")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=_dtype())
        self.requires_grad = bool(requires_grad)
        self.grad: np.ndarray | None = None
        self._entry: _Entry | None = None
        self._tape: Tape | None = None

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

    # -- recording ------------------------------------------------------------

    def _tracked(self) -> bool:
        if self.requires_grad:
            return True
        return self._entry is not None and self._tape is not None and not self._tape.consumed

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
        out = _wrap(self.data.reshape(shape))
        _record(out, (self,), lambda g: (g.reshape(src_shape),))
        return out

    def transpose(self, *axes) -> "Tensor":
        if len(axes) == 1 and isinstance(axes[0], (tuple, list)):
            axes = tuple(axes[0])
        inv = np.argsort(axes)
        out = _wrap(self.data.transpose(axes))
        _record(out, (self,), lambda g: (g.transpose(inv),))
        return out


def _sigmoid(x: np.ndarray) -> np.ndarray:
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def _wrap(data: np.ndarray) -> Tensor:
    out = Tensor.__new__(Tensor)
    out.data = data
    out.requires_grad = False
    out.grad = None
    out._entry = None
    out._tape = None
    return out


def _record(out: Tensor, inputs: tuple, backward_fn) -> None:
    """Record an op on the current tape if grad mode is on and any input is tracked."""
    if not _grad_enabled():
        return
    if not any(t._tracked() for t in inputs):
        return
    tape = _tape_for_recording()
    entry = _Entry(inputs, out, backward_fn)
    out._entry = entry
    out._tape = tape
    tape.entries.append(entry)


def _unary(x: Tensor, fwd, bwd) -> Tensor:
    out = _wrap(fwd(x.data))
    _record(out, (x,), lambda g: (bwd(g, x.data, out.data),))
    return out


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
        out = _wrap(fwd(*_scalar_operands(a.data, b.data)))

        def backward_fn(g):
            ga, gb = bwd(g, *_scalar_operands(a.data, b.data))
            return _unbroadcast(ga, a.data.shape), _unbroadcast(gb, b.data.shape)

        _record(out, (a, b), backward_fn)
        return out
    s = float(b)
    out = _wrap(fwd(a.data, s))

    def backward_scalar(g):
        ga, _ = bwd(g, a.data, s)
        return (ga,)

    _record(out, (a,), backward_scalar)
    return out


def _unbroadcast(g, shape) -> np.ndarray:
    """Sum a gradient down to `shape`; only a size-1 operand can differ."""
    g = np.asarray(g)
    return g if g.shape == tuple(shape) else g.sum().reshape(shape)


def _reduce(x: Tensor, axis, mean: bool) -> Tensor:
    if axis is None:
        count = x.data.size
        data = x.data.mean() if mean else x.data.sum()
        src_shape = x.data.shape

        def backward_full(g):
            gb = np.broadcast_to(g, src_shape)
            return ((gb / count).astype(x.data.dtype, copy=False) if mean else gb.astype(x.data.dtype, copy=False),)

        out = _wrap(np.asarray(data))
        _record(out, (x,), backward_full)
        return out

    axes = (axis,) if isinstance(axis, int) else tuple(axis)
    count = int(np.prod([x.data.shape[a] for a in axes]))
    data = x.data.mean(axis=axes) if mean else x.data.sum(axis=axes)
    src_shape = x.data.shape

    def backward_axis(g):
        ge = np.expand_dims(g, axes)
        gb = np.broadcast_to(ge, src_shape)
        return ((gb / count).astype(x.data.dtype, copy=False) if mean else gb.astype(x.data.dtype, copy=False),)

    out = _wrap(data)
    _record(out, (x,), backward_axis)
    return out


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """2-D matrix product with the standard transpose backward rules."""
    if a.data.ndim != 2 or b.data.ndim != 2:
        raise ShapeError(f"matmul expects 2-D operands, got {a.data.shape} and {b.data.shape}")
    if a.data.shape[1] != b.data.shape[0]:
        raise ShapeError(f"matmul inner dimensions differ: {a.data.shape} vs {b.data.shape}")
    out = _wrap(a.data @ b.data)
    _record(out, (a, b), lambda g: (g @ b.data.T, a.data.T @ g))
    return out


def backward(loss: Tensor) -> None:
    """Reverse-sweep the tape from a scalar loss, accumulating leaf gradients.

    Every reachable leaf with ``requires_grad=True`` gets its gradient summed
    into ``.grad``. The tape is consumed; a second call raises ``TapeError``.
    """
    if loss.data.size != 1:
        raise ShapeError(f"backward requires a scalar loss, got shape {loss.data.shape}")
    tape = loss._tape
    if tape is None or loss._entry is None:
        # A bare leaf used directly as the loss.
        if loss.requires_grad:
            g = np.ones_like(loss.data)
            loss.grad = g if loss.grad is None else loss.grad + g
            return
        raise TapeError("loss is not connected to a tape and does not require grad")
    if tape.consumed:
        raise TapeError("backward already called on this tape; rebuild the graph first")
    tape.consumed = True

    staged: dict[int, np.ndarray] = {id(loss): np.ones_like(loss.data)}
    for entry in reversed(tape.entries):
        g = staged.pop(id(entry.output), None)
        if g is None:
            continue
        input_grads = entry.backward(g)
        for t, gi in zip(entry.inputs, input_grads):
            if gi is None:
                continue
            if t._entry is not None and t._tape is tape:
                key = id(t)
                if key in staged:
                    staged[key] = staged[key] + gi
                else:
                    staged[key] = gi
            elif t.requires_grad:
                gi = np.asarray(gi, dtype=t.data.dtype).reshape(t.data.shape)
                t.grad = gi.copy() if t.grad is None else t.grad + gi
