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

Each tensor is streamed to and from its own array: a save writes its
bytes from the array itself and a load reads them into a fresh writable
array, so neither holds the file or a second copy of a tensor.
"""

from __future__ import annotations

import json
import math
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


def save_checkpoint(path: str, tensors: dict[str, np.ndarray],
                    metadata: dict) -> None:
    blob = json.dumps(metadata, sort_keys=True, separators=(",", ":")).encode("utf-8")

    def write(fh) -> None:
        fh.write(MAGIC + struct.pack("<II", VERSION, len(tensors)))
        for name in sorted(tensors):
            arr = np.asarray(tensors[name])
            if arr.dtype not in _TAG_OF_DTYPE:
                raise CheckpointError(f"tensor {name!r} has unsupported dtype "
                                      f"{arr.dtype}")
            encoded = name.encode("utf-8")
            fh.write(struct.pack(f"<I{len(encoded)}sBB{arr.ndim}I", len(encoded), encoded,
                                 _TAG_OF_DTYPE[arr.dtype], arr.ndim, *arr.shape))
            fh.write(np.ascontiguousarray(arr))  # a copy only if not C order
        fh.write(struct.pack("<I", len(blob)) + blob)

    write_atomically(path, write)


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


def load_checkpoint(path: str) -> tuple[dict[str, np.ndarray], dict]:
    label = os.path.basename(path)
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size

        def take(count: int, what: str, alloc=bytearray):
            """The next count bytes, read into alloc(count); a count past the
            end of the file, checked first, or a short read is truncation."""
            pos = fh.tell()
            have = size - pos
            if count <= have:
                out = alloc(count)
                have = fh.readinto(out)
                if have == count:
                    return out
            raise CheckpointError(
                f"{label}: truncated while reading {what} at byte {pos} "
                f"(need {count}, have {have})")

        def u32(what: str) -> int:
            return struct.unpack("<I", take(4, what))[0]

        if take(len(MAGIC), "magic") != MAGIC:
            raise CheckpointError(f"{label}: not a checkpoint file (bad magic)")
        version = u32("version")
        if version != VERSION:
            raise CheckpointError(f"{label}: format version {version}, this "
                                  f"build reads version {VERSION}")
        tensors: dict[str, np.ndarray] = {}
        for i in range(u32("tensor count")):
            name = take(u32(f"entry {i} name length"), f"entry {i} name").decode("utf-8")
            tag, rank = struct.unpack("<BB", take(2, f"{name}: header"))
            if tag not in _DTYPE_OF_TAG:
                raise CheckpointError(f"{label}: {name}: unknown dtype tag {tag}")
            shape = struct.unpack(f"<{rank}I", take(4 * rank, f"{name}: extents"))
            dt = _DTYPE_OF_TAG[tag]
            tensors[name] = take(math.prod(shape) * dt.itemsize, f"{name}: values",
                                 lambda _: np.empty(shape, dt))
        metadata = json.loads(take(u32("metadata length"), "metadata").decode("utf-8"))
        if fh.tell() != size:
            raise CheckpointError(f"{label}: {size - fh.tell()} trailing bytes "
                                  f"after metadata")
    return tensors, metadata
