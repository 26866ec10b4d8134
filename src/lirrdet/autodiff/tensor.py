"""Reverse-mode automatic differentiation over dense numpy-backed tensors.

A ``Tensor`` wraps a numpy array. Operations on tensors that participate in
gradient computation are recorded on the thread's tape in execution order
(which is already a topological order). ``backward(loss)`` walks the tape
once in reverse and accumulates gradients into the ``grad`` attribute of
leaf tensors created with ``requires_grad=True``.

An entry on the tape holds only what its backward reads. For each input
it holds that input's producing entry (a tracked intermediate), the leaf
tensor (one that requires grad) or nothing (an untracked input); it holds
its output by weak reference; and its backward rule captures the buffers
the rule reads, not its inputs: ``conv2d`` its im2col columns, ``relu`` a
bool mask, ``+`` and ``*`` by a scalar nothing. An intermediate tensor is
therefore freed as soon as its caller drops it, before ``backward``; one
the caller keeps is still tracked until the sweep passes its entry.

Each thread has one tape, and each ``backward`` empties it: it takes every
op off the tape as it sweeps it and unlinks the op's output, so the op's
backward rule and buffers are freed by reference counting once nothing
else holds them, even when a backward rule raises. Tensors of a swept
graph are no longer tracked, so a second ``backward`` from the same loss
raises ``TapeError``.

A training step records ``conv2d`` and ``grad_reverse`` (``functional.py``),
``relu``, tensor ``+`` tensor, tensor ``*`` scalar, ``anchor_order``
(``detector/model.py``), ``_risk_sum`` and ``rep_loss`` (``lirr.py``).
``-``, tensor ``+`` scalar, tensor ``*`` tensor and ``reshape`` stay for
the tests' references; acceptance criterion 1 checks each. ``+``, ``-``
and ``*`` take two same-shape tensors, or a tensor and then a Python
scalar; a scalar on the left is a ``TypeError``, anything else raises
``ShapeError``.

Precision is a per-thread mode (float32 by default, float64 for
verification); see ``precision``. Grad mode and the tape are per thread as
well.
"""

from __future__ import annotations

import threading
import weakref
from contextlib import contextmanager

import numpy as np

__all__ = [
    "Tensor",
    "ShapeError",
    "TapeError",
    "backward",
    "no_grad",
    "precision",
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


@contextmanager
def precision(dtype):
    """Temporarily switch this thread's dtype ('float32' or 'float64'),
    e.g. ``with precision('float64')``."""
    dt = np.dtype(dtype)
    if dt not in (np.dtype(np.float32), np.dtype(np.float64)):
        raise ValueError(f"unsupported dtype {dt}; use float32 or float64")
    old = _state.dtype
    _state.dtype = dt
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
    """One recorded operation. ``inputs`` has, per input, its producing
    ``_Entry``, the leaf ``Tensor`` or None (untracked); ``output`` is a
    weak reference to the output tensor; ``backward`` maps the output's
    gradient to one gradient (or None) per input."""

    __slots__ = ("inputs", "output", "backward")

    def __init__(self, inputs, output, backward):
        self.inputs = inputs
        self.output = output
        self.backward = backward


class Tensor:
    """Dense n-dimensional float tensor with optional gradient tracking."""

    __slots__ = ("data", "requires_grad", "grad", "_entry", "_tape", "__weakref__")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=_state.dtype)
        self.requires_grad = bool(requires_grad)
        self.grad: np.ndarray | None = None
        self._entry: _Entry | None = None
        self._tape: list[_Entry] | None = None

    # -- bookkeeping ----------------------------------------------------------

    def __repr__(self) -> str:
        return f"Tensor(shape={self.data.shape}, dtype={self.data.dtype}, requires_grad={self.requires_grad})"

    def backward(self) -> None:
        backward(self)

    # -- arithmetic -----------------------------------------------------------

    def __add__(self, other):
        return _binary(self, other, lambda a, b: a + b, lambda a, b: lambda g: (g, g), "add")

    def __sub__(self, other):
        return _binary(self, other, lambda a, b: a - b, lambda a, b: lambda g: (g, -g), "sub")

    def __mul__(self, other):
        return _binary(self, other, lambda a, b: a * b, _mul_rule, "mul")

    def relu(self) -> "Tensor":
        mask = self.data > 0 if _records((self,)) else None
        return _op(np.maximum(self.data, 0.0), (self,), lambda g: (g * mask,))

    # -- shape manipulation ---------------------------------------------------

    def reshape(self, *shape) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        src_shape = self.data.shape
        return _op(self.data.reshape(shape), (self,), lambda g: (g.reshape(src_shape),))


def _records(inputs) -> bool:
    """Whether an op on `inputs` goes on the tape: grad mode is on and an
    input is tracked (a leaf that requires grad, or the output of an op
    still on a tape)."""
    return _state.grad_enabled and any(t.requires_grad or t._entry is not None for t in inputs)


def _op(data: np.ndarray, inputs: tuple, backward_fn) -> Tensor:
    """The output of an op: `data` as a tensor, recorded on the thread's tape
    with `backward_fn` if `_records(inputs)`. The entry keeps each tracked
    input's entry or leaf, not the input tensor."""
    out = Tensor.__new__(Tensor)
    out.data = data
    out.requires_grad = False
    out.grad = None
    out._entry = None
    out._tape = None
    if _records(inputs):
        sources = tuple(t._entry if t._entry is not None else t if t.requires_grad else None
                        for t in inputs)
        out._entry = _Entry(sources, weakref.ref(out), backward_fn)
        out._tape = _state.tape
        out._tape.append(out._entry)
    return out


def _binary(a: Tensor, b, fwd, rule, name: str) -> Tensor:
    """Elementwise op of a tensor and a same-shape tensor or a Python scalar.
    `rule(x, y)` makes the backward rule from the operands' data, or from
    `(None, scalar)` for a scalar operand; the rule keeps only what it reads."""
    if isinstance(b, Tensor):
        if a.data.shape != b.data.shape:
            raise ShapeError(f"{name}: shapes {a.data.shape} and {b.data.shape} differ "
                             "(an operand is a same-shape tensor or a Python scalar)")
        return _op(fwd(a.data, b.data), (a, b), rule(a.data, b.data))
    s = float(b)
    return _op(fwd(a.data, s), (a,), rule(None, s))


def _mul_rule(x, y):
    """tensor * tensor reads both operands; tensor * scalar (x is None) only the scalar."""
    if x is None:
        return lambda g: (g * y,)
    return lambda g: (g * y, g * x)


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
            _untrack(entry)
            g = staged.pop(entry, None)
            if g is None:
                continue
            input_grads = entry.backward(g)
            for src, gi in zip(entry.inputs, input_grads):
                if gi is None or src is None:
                    continue
                if type(src) is _Entry:
                    staged[src] = staged[src] + gi if src in staged else gi
                else:
                    gi = np.asarray(gi, dtype=src.data.dtype).reshape(src.data.shape)
                    src.grad = gi.copy() if src.grad is None else src.grad + gi
    finally:
        for entry in tape:
            _untrack(entry)
        tape.clear()


def _untrack(entry: _Entry) -> None:
    """Unlink the entry's output, if still alive, from the tape."""
    out = entry.output()
    if out is not None:
        out._entry = None
