"""Binary container for parameter and memory snapshots.

Layout (all integers little-endian):

    magic   4 bytes  b"MFS1"
    version u32      currently 1
    count   u32      number of named arrays
    entry*  count times:
        name_len u16
        name     utf-8 bytes
        ndim     u8
        shape    ndim * u64
        data     prod(shape) * float64, little-endian, C order

Entry order is preserved, so writing the same arrays twice produces
byte-identical files.
"""

from __future__ import annotations

import math
import struct
from typing import Dict

import numpy as np

from .errors import ParameterError
from .kernels import Array

MAGIC = b"MFS1"
VERSION = 1


def dump_arrays(arrays: Dict[str, Array]) -> bytes:
    chunks = [MAGIC, struct.pack("<II", VERSION, len(arrays))]
    for name, arr in arrays.items():
        data = np.ascontiguousarray(arr, dtype="<f8")
        encoded = name.encode("utf-8")
        chunks.append(struct.pack("<H", len(encoded)))
        chunks.append(encoded)
        chunks.append(struct.pack("<B", data.ndim))
        chunks.append(struct.pack(f"<{data.ndim}Q", *data.shape))
        chunks.append(data.tobytes())
    return b"".join(chunks)


def parse_arrays(blob: bytes) -> Dict[str, Array]:
    if len(blob) < 12 or blob[:4] != MAGIC:
        raise ParameterError("not a snapshot container (bad magic)")
    version, count = struct.unpack_from("<II", blob, 4)
    if version != VERSION:
        raise ParameterError(f"unsupported container version {version}")
    out: Dict[str, Array] = {}
    pos = 12
    try:
        for _ in range(count):
            (name_len,) = struct.unpack_from("<H", blob, pos)
            pos += 2
            name = blob[pos : pos + name_len].decode("utf-8")
            pos += name_len
            (ndim,) = struct.unpack_from("<B", blob, pos)
            pos += 1
            shape = struct.unpack_from(f"<{ndim}Q", blob, pos)
            pos += 8 * ndim
            # exact in Python ints: a corrupt shape must not wrap or overflow numpy's count
            n = math.prod(shape)
            if 8 * n > len(blob) - pos:
                raise ValueError(f"entry {name!r} of shape {shape} needs {8 * n} bytes, {len(blob) - pos} left")
            arr = np.frombuffer(blob, dtype="<f8", count=n, offset=pos).reshape(shape)
            pos += 8 * n
            out[name] = arr.astype(np.float64)
    except (struct.error, ValueError) as exc:
        raise ParameterError(f"truncated snapshot container: {exc}") from None
    if pos != len(blob):
        raise ParameterError("trailing bytes after snapshot payload")
    return out


def save_arrays(path, arrays: Dict[str, Array]) -> None:
    with open(path, "wb") as fh:
        fh.write(dump_arrays(arrays))


def load_arrays(path) -> Dict[str, Array]:
    with open(path, "rb") as fh:
        return parse_arrays(fh.read())
