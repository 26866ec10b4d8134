"""Single-file checkpoint format.

Layout: one UTF-8 JSON header line (format version, dtype, parameter names
and shapes, in order), a newline, then the raw little-endian float data of
every parameter concatenated in header order. Round trips are bit-exact.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

__all__ = ["save_checkpoint", "load_checkpoint", "CheckpointError"]

FORMAT_VERSION = 1


class CheckpointError(RuntimeError):
    pass


def save_checkpoint(path, state: dict[str, np.ndarray]) -> None:
    names = list(state.keys())
    if not names:
        raise CheckpointError("refusing to write an empty checkpoint")
    dtypes = {state[n].dtype for n in names}
    if len(dtypes) != 1 or next(iter(dtypes)) not in (np.dtype(np.float32), np.dtype(np.float64)):
        raise CheckpointError(f"parameters must share one float dtype, got {sorted(map(str, dtypes))}")
    dtype = next(iter(dtypes))
    header = {
        "version": FORMAT_VERSION,
        "dtype": dtype.name,
        "params": [{"name": n, "shape": list(state[n].shape)} for n in names],
    }
    with open(path, "wb") as fh:
        fh.write(json.dumps(header).encode("utf-8"))
        fh.write(b"\n")
        for n in names:
            fh.write(np.ascontiguousarray(state[n]).astype(f"<{dtype.name[0]}{dtype.itemsize}").tobytes())


def load_checkpoint(path) -> dict[str, np.ndarray]:
    raw = Path(path).read_bytes()
    nl = raw.find(b"\n")
    if nl < 0:
        raise CheckpointError(f"{path}: missing header line")
    try:
        header = json.loads(raw[:nl].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as e:
        raise CheckpointError(f"{path}: bad header: {e}") from e
    if not isinstance(header, dict):
        raise CheckpointError(f"{path}: header is not a JSON object")
    if header.get("version") != FORMAT_VERSION:
        raise CheckpointError(f"{path}: unsupported format version {header.get('version')}")
    if header.get("dtype") not in ("float32", "float64"):
        raise CheckpointError(f"{path}: header 'dtype' {header.get('dtype')!r} is not float32 or float64")
    if not isinstance(header.get("params"), list):
        raise CheckpointError(f"{path}: header 'params' is missing or not a list")
    dtype = np.dtype(header["dtype"]).newbyteorder("<")
    body = raw[nl + 1:]
    state: dict[str, np.ndarray] = {}
    offset = 0
    for entry in header["params"]:
        if not (isinstance(entry, dict) and isinstance(entry.get("name"), str)
                and isinstance(entry.get("shape"), list)
                and all(isinstance(d, int) and d >= 0 for d in entry["shape"])):
            raise CheckpointError(f"{path}: header 'params' entry {entry!r} needs a name "
                                  "and a shape of non-negative integers")
        if entry["name"] in state:
            raise CheckpointError(f"{path}: header 'params' names {entry['name']!r} twice")
        shape = tuple(entry["shape"])
        count = int(np.prod(shape)) if shape else 1
        nbytes = count * dtype.itemsize
        if offset + nbytes > len(body):
            raise CheckpointError(f"{path}: truncated data for parameter {entry['name']!r}")
        arr = np.frombuffer(body, dtype=dtype, count=count, offset=offset).reshape(shape)
        state[entry["name"]] = arr.astype(dtype.newbyteorder("="), copy=True)
        offset += nbytes
    if offset != len(body):
        raise CheckpointError(f"{path}: {len(body) - offset} trailing bytes after parameter data")
    return state
