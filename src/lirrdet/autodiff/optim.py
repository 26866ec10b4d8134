"""First-order optimizer: SGD with classical momentum."""

from __future__ import annotations

import math

import numpy as np

from .nn import Parameter

__all__ = ["SGD"]


class SGD:
    """v <- momentum * v + g;  p <- p - lr * v.

    Parameters with no gradient (None) are left untouched, which also keeps
    their momentum buffers at zero.
    """

    def __init__(self, params: list[Parameter], lr: float, momentum: float = 0.9):
        if not 0 <= lr < math.inf:  # lr=0 is a valid no-op step, used to probe a training setup
            raise ValueError(f"lr must be finite and >= 0, got {lr}")
        if not 0.0 <= momentum < 1.0:
            raise ValueError(f"momentum must be in [0, 1), got {momentum}")
        self.params = list(params)
        self.lr = lr
        self.momentum = momentum
        self._velocity = [np.zeros_like(p.data) for p in self.params]

    def step(self) -> None:
        for p, v in zip(self.params, self._velocity):
            if p.grad is None:
                continue
            v *= self.momentum
            v += p.grad
            p.data = p.data - self.lr * v

    def zero_grad(self) -> None:
        for p in self.params:
            p.grad = None
