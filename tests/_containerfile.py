"""Edit container files (dataset splits, checkpoints) behind the reader's back.

This parses the layout on its own, without `lirrdet.container`, so the tests
that use it do not trust the code they test.
"""

import json
import zlib


def edit_container(path, header=None, blocks=None) -> None:
    """Rewrite the container file at `path` in place.

    `blocks(d)` edits the dict of block name -> bytes, after which the block
    table gets fresh sizes and CRCs. `header(h)` then edits the parsed header,
    block table included and header CRC left out. Both edit their argument in
    place. The header gets a fresh CRC, of its JSON, as its last key.
    """
    raw = path.read_bytes()
    nl = raw.find(b"\n")
    head = json.loads(raw[:nl])
    del head["header_crc32"]
    body, offset = {}, nl + 1
    for name, nbytes, _ in head["blocks"]:
        body[name] = raw[offset:offset + nbytes]
        offset += nbytes
    if blocks is not None:
        blocks(body)
        head["blocks"] = [[name, len(b), zlib.crc32(b)] for name, b in body.items()]
    if header is not None:
        header(head)
    line = json.dumps({**head, "header_crc32": zlib.crc32(json.dumps(head).encode())})
    path.write_bytes(line.encode() + b"\n" + b"".join(body.values()))
