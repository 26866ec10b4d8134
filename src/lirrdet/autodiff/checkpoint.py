"""Checkpoint files: one block of the container in `lirrdet/container.py` per
parameter, in state-dict order, named after it and holding its raw little-endian
floats. The header gives the shared ``dtype`` and, in block order, the ``params``
shapes. Round trips are bit-exact."""

from __future__ import annotations

import numpy as np

from ..container import json_int, read, write

__all__ = ["save_checkpoint", "load_checkpoint", "CheckpointError"]


class CheckpointError(RuntimeError):
    pass


def save_checkpoint(path, state: dict[str, np.ndarray]) -> None:
    if not state:
        raise CheckpointError("refusing to write an empty checkpoint")
    dtypes = {a.dtype for a in state.values()}
    if len(dtypes) != 1 or next(iter(dtypes)) not in (np.dtype(np.float32), np.dtype(np.float64)):
        raise CheckpointError(f"parameters must share one float dtype, got {sorted(map(str, dtypes))}")
    dtype = next(iter(dtypes))
    header = {"dtype": dtype.name, "params": [list(a.shape) for a in state.values()]}
    write(path, header, {n: np.ascontiguousarray(a, dtype=dtype.newbyteorder("<")) for n, a in state.items()})


def load_checkpoint(path) -> dict[str, np.ndarray]:
    header, blocks = read(path, CheckpointError)
    dtype, shapes = header.get("dtype"), header.get("params")
    if dtype not in ("float32", "float64"):
        raise CheckpointError(f"{path}: header 'dtype' {dtype!r} is not float32 or float64")
    state: dict[str, np.ndarray] = {}
    try:
        for (name, block), shape in zip(blocks.items(), shapes, strict=True):
            if min(map(json_int, shape), default=0) < 0:
                raise ValueError(f"negative dimension in {shape}")
            state[name] = np.frombuffer(block, np.dtype(dtype).newbyteorder("<")).reshape(shape)
    except (TypeError, ValueError) as e:
        raise CheckpointError(f"{path}: header 'params' does not give the shapes of the "
                              f"{len(blocks)} parameter blocks ({e})") from e
    return state
