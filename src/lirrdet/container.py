"""The one file layout behind dataset splits and checkpoints.

One UTF-8 JSON header line, then named binary blocks back to back. The header
holds ``version``, the caller's keys, a ``blocks`` table of
``[name, nbytes, crc32]`` entries in file order, and last ``header_crc32``,
the CRC-32 of the header's JSON without that key. A header line is accepted
only if it is byte for byte the one `write` makes from its parsed content,
so any change to its bytes is caught. `write` also takes a block as a list of
parts, written back to back; its ``nbytes`` and ``crc32`` cover them joined.
"""

from __future__ import annotations

import functools
import json
import operator
import os
import zlib
from contextlib import contextmanager
from pathlib import Path

VERSION = 3


def json_int(v) -> int:
    """`v` as an int; JSON booleans and non-integers raise TypeError."""
    if isinstance(v, bool):
        raise TypeError(f"expected an integer, got {v!r}")
    return operator.index(v)


@contextmanager
def atomic_open(path, mode: str = "w", newline: str | None = None):
    """Open a temp file that replaces `path` on a clean exit and is deleted otherwise."""
    tmp = Path(f"{path}.{os.getpid()}.tmp")
    try:
        with open(tmp, mode, newline=newline) as f:
            yield f
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def _header_line(header: dict) -> bytes:
    """`header` as JSON with its CRC appended as the last key."""
    return json.dumps({**header, "header_crc32": zlib.crc32(json.dumps(header).encode())}).encode()


def write(path, header: dict, blocks: dict) -> None:
    """Write `header` and the named `blocks` to `path`, atomically. A block is a C-contiguous
    bytes-like object or a list of them; any other part raises before a file is made."""
    parts = {name: [memoryview(p) for p in (b if isinstance(b, list) else [b])] for name, b in blocks.items()}
    table = [[name, sum(v.nbytes for v in vs), functools.reduce(lambda crc, v: zlib.crc32(v, crc), vs, 0)]
             for name, vs in parts.items()]
    with atomic_open(path, "wb") as f:
        f.write(_header_line({"version": VERSION, **header, "blocks": table}) + b"\n")
        f.writelines(v for vs in parts.values() for v in vs)


def read(path, error_cls) -> tuple[dict, dict[str, memoryview]]:
    """Check the container at `path` and split it into its header and blocks.

    Returns the caller's header keys and a read-only memoryview of each block,
    in file order, all views of the one buffer the file was read into. Any
    fault raises `error_cls` with a message naming `path` and the key or block.
    """
    raw = Path(path).read_bytes()
    nl = raw.find(b"\n")
    if nl < 0:
        raise error_cls(f"{path}: missing header line")
    try:
        header = json.loads(raw[:nl])
    except (ValueError, RecursionError) as e:  # JSON and UTF-8 decode errors are ValueErrors
        raise error_cls(f"{path}: invalid header: {e}") from e
    if not isinstance(header, dict):
        raise error_cls(f"{path}: header is not a JSON object")
    version = header.pop("version", None)
    if version != VERSION:
        raise error_cls(f"{path}: unsupported version {version!r}, expected {VERSION}")
    crc = header.pop("header_crc32", None)
    if _header_line({"version": version, **header}) != raw[:nl]:
        raise error_cls(f"{path}: header 'header_crc32' {crc!r} does not match the header line")
    table = header.pop("blocks", None)
    if not isinstance(table, list):
        raise error_cls(f"{path}: header 'blocks' {table!r} is missing or not a list")

    blocks: dict[str, memoryview] = {}
    offset = nl + 1
    for entry in table:
        try:
            name, nbytes, crc = entry
            nbytes, crc = json_int(nbytes), json_int(crc)
            if not isinstance(name, str) or nbytes < 0:
                raise ValueError
        except (TypeError, ValueError):
            raise error_cls(f"{path}: header 'blocks' entry {entry!r} is not [name, nbytes, crc32]") from None
        if name in blocks:
            raise error_cls(f"{path}: header 'blocks' names {name!r} twice")
        blocks[name] = memoryview(raw)[offset:offset + nbytes]
        if blocks[name].nbytes < nbytes:
            raise error_cls(f"{path}: block {name!r} is truncated: {blocks[name].nbytes} of {nbytes} bytes")
        if zlib.crc32(blocks[name]) != crc:
            raise error_cls(f"{path}: block {name!r} checksum mismatch")
        offset += nbytes
    if offset != len(raw):
        raise error_cls(f"{path}: {len(raw) - offset} trailing bytes after the last block")
    return header, blocks
