"""The one file layout behind dataset splits and checkpoints.

One UTF-8 JSON header line, then named binary blocks back to back. The header
holds ``version``, the caller's keys, a ``blocks`` table of
``[name, nbytes, crc32]`` entries in file order, and last ``header_crc32``,
the CRC-32 of the header's JSON without that key. A header line is accepted
only if it is byte for byte the one `write` makes from its parsed content,
so any change to its bytes is caught. `write` also takes a block as a
callable that yields its parts, written back to back; its ``nbytes`` and
``crc32`` cover them joined. `read` streams the file through
one fixed buffer, and can leave named blocks in the file, to be read on use
from the descriptor it keeps open. An `OpenFile` can also take over a
descriptor its caller wrote, such as an unnamed temporary file.
"""

from __future__ import annotations

import json
import operator
import os
import sys
import weakref
import zlib
from contextlib import contextmanager
from pathlib import Path
from typing import NamedTuple

VERSION = 3
_BUFFER = 1 << 20  # bytes read at a time


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


def _table(blocks: dict, f=None) -> list:
    """The ``[name, nbytes, crc32]`` of each block, writing its parts to `f` if given;
    a callable block is called for its parts. A part that is not C-contiguous
    raises BufferError."""
    table = []
    for name, block in blocks.items():
        parts = block() if callable(block) else [block]
        nbytes, crc = 0, 0
        for v in map(memoryview, parts):
            nbytes, crc = nbytes + v.nbytes, zlib.crc32(v, crc)
            if f is not None:
                f.write(v)
            del v  # a part is freed before the next one is made
        table.append([name, nbytes, crc])
    return table


def write(path, header: dict, blocks: dict) -> None:
    """Write `header` and the named `blocks` to `path`, atomically. A block is a C-contiguous
    bytes-like object or a zero-argument callable that yields them.

    A first pass sizes each block and chains its CRC, so any other part raises
    before a file is made; a second pass writes the parts and sizes them again.
    If a callable gave other bytes the second time, ValueError is raised before
    the rename, so no header describes bytes other than its own."""
    table = _table(blocks)
    with atomic_open(path, "wb") as f:
        f.write(_header_line({"version": VERSION, **header, "blocks": table}) + b"\n")
        if _table(blocks, f) != table:
            raise ValueError(f"{path}: a block gave other bytes on its second pass")


class OpenFile:
    """A container file kept open for the blocks `read` leaves in it.

    `pread` first checks that the file still has the size and mtime it had when
    opened, so a rewrite in place raises `error_cls`; an atomic replace leaves
    the descriptor on the bytes that were checked. The descriptor closes when
    the last reference to this object goes. Given `fd`, it takes over that
    open descriptor instead of opening `path`, which then only names it in
    messages."""

    def __init__(self, path, error_cls, fd: int | None = None):
        self.path, self.error_cls = path, error_cls
        self.fd = os.open(path, os.O_RDONLY) if fd is None else fd
        self.close = weakref.finalize(self, os.close, self.fd)
        self._stamp = self._stat()

    def _stat(self) -> tuple[int, int]:
        st = os.fstat(self.fd)
        return st.st_size, st.st_mtime_ns

    def pread(self, nbytes: int, offset: int) -> bytes:
        if self._stat() != self._stamp:
            raise self.error_cls(f"{self.path}: the file changed in place after it was read")
        return os.pread(self.fd, nbytes, offset)


class InFile(NamedTuple):
    """A block `read` left in its file: `nbytes` bytes at `offset`."""
    file: OpenFile
    offset: int
    nbytes: int


def _chunks(fd: int, buf: bytearray, offset: int, nbytes: int):
    """Views of `buf` holding the file's next bytes from `offset`, until `nbytes`
    have come or the file ends; each view is the start of `buf`."""
    view, end = memoryview(buf), offset + nbytes
    while offset < end and (n := os.preadv(fd, [view[:min(len(view), end - offset)]], offset)):
        yield view[:n]
        offset += n


def read(path, error_cls, in_file=()) -> tuple[dict, dict]:
    """Check the container at `path` and split it into its header and blocks.

    Returns the caller's header keys and each block in file order: as bytes,
    or, for a block named in `in_file`, as an `InFile` on the open file. The
    file is read once, through one buffer of `_BUFFER` bytes. Any fault
    raises `error_cls` with a message naming `path` and the key or block.
    """
    file = OpenFile(path, error_cls)
    try:
        return _read(file, in_file)
    except BaseException:
        file.close()
        raise


def _read(file: OpenFile, in_file) -> tuple[dict, dict]:
    path, error_cls, buf = file.path, file.error_cls, bytearray(_BUFFER)
    line = bytearray()
    for chunk in _chunks(file.fd, buf, 0, sys.maxsize):
        nl = buf.find(b"\n", 0, len(chunk))
        line += chunk if nl < 0 else chunk[:nl]
        if nl >= 0:
            break
    else:
        raise error_cls(f"{path}: missing header line")
    try:
        header = json.loads(line)
    except (ValueError, RecursionError) as e:  # JSON and UTF-8 decode errors are ValueErrors
        raise error_cls(f"{path}: invalid header: {e}") from e
    if not isinstance(header, dict):
        raise error_cls(f"{path}: header is not a JSON object")
    version = header.pop("version", None)
    if version != VERSION:
        raise error_cls(f"{path}: unsupported version {version!r}, expected {VERSION}")
    crc = header.pop("header_crc32", None)
    if _header_line({"version": version, **header}) != line:
        raise error_cls(f"{path}: header 'header_crc32' {crc!r} does not match the header line")
    table = header.pop("blocks", None)
    if not isinstance(table, list):
        raise error_cls(f"{path}: header 'blocks' {table!r} is missing or not a list")

    blocks: dict = {}
    offset = len(line) + 1
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
        got, seen, parts = 0, 0, []
        for chunk in _chunks(file.fd, buf, offset, nbytes):
            got, seen = got + len(chunk), zlib.crc32(chunk, seen)
            if name not in in_file:
                parts.append(bytes(chunk))
        if got < nbytes:
            raise error_cls(f"{path}: block {name!r} is truncated: {got} of {nbytes} bytes")
        if seen != crc:
            raise error_cls(f"{path}: block {name!r} checksum mismatch")
        blocks[name] = InFile(file, offset, nbytes) if name in in_file else b"".join(parts)
        offset += nbytes
    trailing = sum(map(len, _chunks(file.fd, buf, offset, sys.maxsize)))
    if trailing:
        raise error_cls(f"{path}: {trailing} trailing bytes after the last block")
    return header, blocks
