"""Binary checkpoint files: a named-tensor table plus a metadata blob.

Layout (all integers little-endian):

    8 bytes   magic "CPRUNECK"
    u32       format version
    u32       tensor count
    per tensor:
        u32       name length, then UTF-8 name bytes
        u8        dtype tag (0=f32, 1=f64, 2=u8, 3=i64)
        u8        rank, then rank u32 extents
        raw       values, little-endian, C order
    u32       metadata length, then UTF-8 JSON bytes

Tensors are written in sorted name order and JSON keys are sorted, so
identical state always produces byte-identical files. Writes go to a
temp file in the same directory and are renamed into place.
"""

from __future__ import annotations

import json
import os
import shutil
import struct
import tempfile

import numpy as np

MAGIC = b"CPRUNECK"
VERSION = 1

_TAG_OF_DTYPE = {np.dtype("<f4"): 0, np.dtype("<f8"): 1,
                 np.dtype("|u1"): 2, np.dtype("<i8"): 3}
_DTYPE_OF_TAG = {t: d for d, t in _TAG_OF_DTYPE.items()}


class CheckpointError(Exception):
    """Unreadable, truncated, or version-incompatible checkpoint file."""


def _tag_for(name: str, arr: np.ndarray) -> int:
    if arr.dtype not in _TAG_OF_DTYPE:
        raise CheckpointError(f"tensor {name!r} has unsupported dtype "
                              f"{arr.dtype}")
    return _TAG_OF_DTYPE[arr.dtype]


def save_checkpoint(path: str, tensors: dict[str, np.ndarray],
                    metadata: dict) -> None:
    chunks = [MAGIC, struct.pack("<I", VERSION),
              struct.pack("<I", len(tensors))]
    for name in sorted(tensors):
        arr = np.asarray(tensors[name])  # tobytes() below emits C order
        tag = _tag_for(name, arr)
        encoded = name.encode("utf-8")
        chunks.append(struct.pack("<I", len(encoded)))
        chunks.append(encoded)
        chunks.append(struct.pack("<BB", tag, arr.ndim))
        chunks.append(struct.pack(f"<{arr.ndim}I", *arr.shape))
        chunks.append(arr.tobytes())
    blob = json.dumps(metadata, sort_keys=True,
                      separators=(",", ":")).encode("utf-8")
    chunks.append(struct.pack("<I", len(blob)))
    chunks.append(blob)

    write_atomically(path, lambda fh: fh.write(b"".join(chunks)))


def copy_checkpoint(src: str, dst: str) -> None:
    """Copy the file src over dst, as atomically as save_checkpoint writes."""
    with open(src, "rb") as fin:
        write_atomically(dst, lambda fh: shutil.copyfileobj(fin, fh))


def write_atomically(path: str, write) -> None:
    """Run write(fh) on a temp file in path's directory, then rename it over
    path: readers see the old file or the new one, never a partial one,
    and a failed write leaves no temp file behind."""
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            write(fh)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


class _Reader:
    def __init__(self, raw: bytes, path: str):
        self.raw = raw
        self.pos = 0
        self.name = os.path.basename(path)

    def take(self, count: int, what: str) -> bytes:
        if self.pos + count > len(self.raw):
            raise CheckpointError(
                f"{self.name}: truncated while reading {what} at byte "
                f"{self.pos} (need {count}, have {len(self.raw) - self.pos})")
        out = self.raw[self.pos:self.pos + count]
        self.pos += count
        return out

    def u32(self, what: str) -> int:
        return struct.unpack("<I", self.take(4, what))[0]


def load_checkpoint(path: str) -> tuple[dict[str, np.ndarray], dict]:
    with open(path, "rb") as fh:
        raw = fh.read()
    r = _Reader(raw, path)
    if r.take(len(MAGIC), "magic") != MAGIC:
        raise CheckpointError(f"{r.name}: not a checkpoint file (bad magic)")
    version = r.u32("version")
    if version != VERSION:
        raise CheckpointError(f"{r.name}: format version {version}, this "
                              f"build reads version {VERSION}")
    tensors: dict[str, np.ndarray] = {}
    count = r.u32("tensor count")
    for i in range(count):
        name_len = r.u32(f"entry {i} name length")
        name = r.take(name_len, f"entry {i} name").decode("utf-8")
        tag, rank = struct.unpack("<BB", r.take(2, f"{name}: header"))
        if tag not in _DTYPE_OF_TAG:
            raise CheckpointError(f"{r.name}: {name}: unknown dtype tag {tag}")
        shape = struct.unpack(f"<{rank}I", r.take(4 * rank, f"{name}: extents"))
        dt = _DTYPE_OF_TAG[tag]
        nbytes = int(np.prod(shape, dtype=np.int64)) * dt.itemsize
        values = r.take(nbytes, f"{name}: values")
        tensors[name] = np.frombuffer(values, dtype=dt).reshape(shape).copy()
    blob_len = r.u32("metadata length")
    metadata = json.loads(r.take(blob_len, "metadata").decode("utf-8"))
    if r.pos != len(raw):
        raise CheckpointError(f"{r.name}: {len(raw) - r.pos} trailing bytes "
                              f"after metadata")
    return tensors, metadata
