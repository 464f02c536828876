"""The binary container of checkpoints, indexes and embeddings: 8-byte magic |
version u32 | fields, each a little-endian u32 or u64, a UTF-8 string after
its u32 byte length, or f32 data. A read consumes the file exactly; a write
replaces its target only once the whole file is written, as the CLI's
reports and metadata records and the corpus manifests do through the same
`replacing`."""

from __future__ import annotations

import math
import os
import struct
from contextlib import contextmanager
from pathlib import Path

import numpy as np

VERSION = 1
_U32, _U64 = struct.Struct("<I"), struct.Struct("<Q")
u32, u64 = _U32.pack, _U64.pack


def string(text: str) -> bytes:
    encoded = text.encode("utf-8")
    return _U32.pack(len(encoded)) + encoded


def f32(arr) -> bytes:
    return np.ascontiguousarray(arr, dtype="<f4").tobytes()


@contextmanager
def replacing(path, mode: str = "wb", **open_args):
    """Yield a file open (by `mode` and `open_args`) on a temp file beside
    `path`, unique to the process, and rename it over `path` when the block
    ends; a block that raises deletes it, and `path` keeps its previous
    content."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    try:
        with tmp.open(mode, **open_args) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write(path, magic: bytes, fields) -> None:
    """Write magic, version and `fields` to `path` through `replacing`."""
    with replacing(path) as fh:
        fh.write(magic + _U32.pack(VERSION))
        fh.writelines(fields)


class Reader:
    """Decodes the fields of a whole file in order."""

    def __init__(self, path: Path):
        self.path, self.data, self.pos = path, path.read_bytes(), 0

    def take(self, n: int, what: str) -> int:  # the offset of the next n bytes
        start, self.pos = self.pos, self.pos + n
        if self.pos > len(self.data):
            raise ValueError(f"corrupt file (truncated at {what}): {self.path}")
        return start

    def u32(self, what: str) -> int:
        return _U32.unpack_from(self.data, self.take(4, what))[0]

    def u64(self, what: str) -> int:
        return _U64.unpack_from(self.data, self.take(8, what))[0]

    def strings(self, count: int, what: str) -> tuple[str, ...]:
        # One loop without method calls: an index holds thousands of ids.
        data, pos, end, unpack, out = self.data, self.pos, len(self.data), _U32.unpack_from, []
        for _ in range(count):
            if pos + 4 > end or (stop := pos + 4 + unpack(data, pos)[0]) > end:
                pos = end + 1
                break
            out.append(data[pos + 4 : stop].decode("utf-8"))
            pos = stop
        self.take(pos - self.pos, what)
        return tuple(out)

    def f32(self, shape, what: str) -> np.ndarray:
        """A read-only view of the next f32 block; no copy is made."""
        count = math.prod(shape)
        return np.frombuffer(self.data, "<f4", count, self.take(4 * count, what)).reshape(shape)


@contextmanager
def read(path, magic: bytes):
    """Yield a Reader past a checked magic and version; once the block ends,
    every byte of the file must have been read."""
    src = Reader(Path(path))
    src.take(len(magic), "magic")
    if (got := src.data[: len(magic)]) != magic:
        raise ValueError(f"bad magic {got!r} (expected {magic!r}): {src.path}")
    if (version := src.u32("version")) != VERSION:
        raise ValueError(f"unsupported version {version}: {src.path}")
    yield src
    if src.pos != len(src.data):
        raise ValueError(f"corrupt file (trailing bytes): {src.path}")
