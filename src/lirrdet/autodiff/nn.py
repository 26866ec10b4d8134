"""Parameters, modules and layers built on the autodiff tensors.

Modules register parameters and submodules simply by attribute assignment;
``named_parameters`` walks the attribute tree in insertion order, producing
dotted, unique name paths (e.g. ``backbone.conv1.weight``).

Initialization is He-normal for conv/dense weights and zeros for biases,
drawn from a caller-supplied seeded generator so models are reproducible.
"""

from __future__ import annotations

import numpy as np

from . import functional as F
from .tensor import Tensor, default_dtype

__all__ = ["Parameter", "Module", "Conv2d", "Linear", "he_normal"]


class Parameter(Tensor):
    """A leaf tensor that is always tracked and updated by the optimizer."""

    def __init__(self, data):
        super().__init__(data, requires_grad=True)


def he_normal(rng: np.random.Generator, shape, fan_in: int) -> np.ndarray:
    """He-normal init, suited to ReLU stacks: std = sqrt(2 / fan_in)."""
    std = np.sqrt(2.0 / fan_in)
    return rng.normal(0.0, std, size=shape).astype(default_dtype())


class Module:
    """Minimal container: parameters and submodules found via attributes."""

    def parameters(self) -> list[Parameter]:
        return [p for _, p in self.named_parameters()]

    def named_parameters(self, prefix: str = ""):
        seen = set()
        for name, p in self._walk(prefix):
            if name in seen:
                raise ValueError(f"duplicate parameter name {name!r}")
            seen.add(name)
            yield name, p

    def _walk(self, prefix: str):
        for key, value in vars(self).items():
            path = f"{prefix}.{key}" if prefix else key
            if isinstance(value, Parameter):
                yield path, value
            elif isinstance(value, Module):
                yield from value._walk(path)
            elif isinstance(value, (list, tuple)):
                for i, item in enumerate(value):
                    if isinstance(item, Module):
                        yield from item._walk(f"{path}.{i}")

    def zero_grad(self) -> None:
        for p in self.parameters():
            p.grad = None

    def state_dict(self) -> dict[str, np.ndarray]:
        return {name: p.data for name, p in self.named_parameters()}

    def load_state_dict(self, state: dict[str, np.ndarray]) -> None:
        params = dict(self.named_parameters())
        missing = set(params) - set(state)
        extra = set(state) - set(params)
        if missing or extra:
            raise KeyError(f"state mismatch: missing={sorted(missing)} extra={sorted(extra)}")
        for name, p in params.items():
            arr = np.asarray(state[name])
            if arr.shape != p.data.shape:
                raise ValueError(f"shape mismatch for {name}: {arr.shape} vs {p.data.shape}")
            p.data = arr.astype(p.data.dtype, copy=True)


class Conv2d(Module):
    def __init__(self, in_ch: int, out_ch: int, ksize: int, stride: int = 1,
                 padding: int = 0, *, rng: np.random.Generator):
        fan_in = in_ch * ksize * ksize
        self.weight = Parameter(he_normal(rng, (out_ch, in_ch, ksize, ksize), fan_in))
        self.bias = Parameter(np.zeros(out_ch, dtype=default_dtype()))
        self.stride = stride
        self.padding = padding

    def __call__(self, x: Tensor, cols: np.ndarray | None = None) -> Tensor:
        return F.conv2d(x, self.weight, self.bias, stride=self.stride, padding=self.padding, cols=cols)

    def columns(self, x: Tensor) -> np.ndarray:
        """x's im2col columns, for the `cols` of every conv of this geometry that reads x."""
        kh, kw = self.weight.data.shape[2:]
        return F.im2col(x.data, kh, kw, self.stride, self.padding)


class Linear(Module):
    """Holds a dense layer's parameters, x @ weight + bias; lirr.rep_loss applies them."""

    def __init__(self, in_features: int, out_features: int, *, rng: np.random.Generator):
        self.weight = Parameter(he_normal(rng, (in_features, out_features), in_features))
        self.bias = Parameter(np.zeros(out_features, dtype=default_dtype()))
