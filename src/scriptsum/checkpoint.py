"""Flat binary checkpoint files for named parameter arrays.

Layout: 8-byte little-endian unsigned header length, then a JSON header
{"params": [{"name", "shape", "dtype", "offset"}]}, then the raw
little-endian float64 array bytes concatenated in name order. Offsets are
relative to the start of the data section. Writing the same parameters
always produces byte-identical files. The writer streams each array to
the file and the reader reads each entry straight into the array it
returns, so neither holds a second copy of any array. The reader accepts
only `<f8` entries with unique names and at most 32 non-negative integer
dims.
"""

from __future__ import annotations

import json
import math
import os
import struct

import numpy as np

from .errors import FormatError, parse_json

_DTYPE = "<f8"
_ITEMSIZE = np.dtype(_DTYPE).itemsize
# numpy 1.x holds arrays of at most 32 dimensions
_MAX_DIMS = 32


def save_checkpoint(params: dict[str, np.ndarray], path) -> None:
    """Write named arrays; names are sorted so output bytes are canonical.
    Each array's buffer is written straight to the file, with no copy of
    its bytes, unless it is not already C-contiguous `<f8`; such an array
    is copied only while it is written. Every array keeps its shape, a 0-d
    one included."""
    names = sorted(params)
    entries = []
    offset = 0
    for name in names:
        shape = np.shape(params[name])
        entries.append({"name": name, "shape": list(shape), "dtype": _DTYPE, "offset": offset})
        offset += math.prod(shape) * _ITEMSIZE
    header = json.dumps({"params": entries}, sort_keys=True, separators=(",", ":")).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(struct.pack("<Q", len(header)))
        fh.write(header)
        for name in names:
            fh.write(np.asarray(params[name], dtype=_DTYPE, order="C"))


def _is_count(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool) and value >= 0


def _entry_fields(entry) -> tuple[str, tuple[int, ...], int]:
    """Name, shape and offset of one header entry; FormatError unless the
    entry is a `<f8` array with a string name, at most 32 non-negative
    integer dims and a non-negative integer offset."""
    if not isinstance(entry, dict):
        raise FormatError(f"malformed checkpoint entry: {entry!r}")
    name, shape, offset = entry.get("name"), entry.get("shape"), entry.get("offset")
    if not (
        isinstance(name, str)
        and isinstance(shape, list)
        and len(shape) <= _MAX_DIMS
        and all(_is_count(dim) for dim in shape)
        and _is_count(offset)
    ):
        raise FormatError(f"malformed checkpoint entry: {entry!r}")
    dtype = entry.get("dtype")
    if dtype != _DTYPE:
        raise FormatError(f"checkpoint entry {name!r} has dtype {dtype!r}, not {_DTYPE!r}")
    return name, tuple(shape), offset


def load_checkpoint(path) -> dict[str, np.ndarray]:
    """Read a checkpoint back into name -> float64 array.

    The header and the extent of every entry are checked against the
    file's size before any array is made; each entry is then read straight
    into its own fresh C-contiguous array. Entries must be `<f8` with
    unique names; anything else is a FormatError."""
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        length = fh.read(8)
        if len(length) < 8:
            raise FormatError("checkpoint file too short for its header length field")
        (header_len,) = struct.unpack("<Q", length)
        base = 8 + header_len
        if size < base:
            raise FormatError("checkpoint header truncated")
        raw = fh.read(header_len)
        if len(raw) < header_len:
            raise FormatError("checkpoint header truncated")
        try:
            header = parse_json(raw.decode("utf-8"))
        except (UnicodeDecodeError, FormatError) as exc:
            raise FormatError(f"{path}: checkpoint header: {exc}") from exc
        if not isinstance(header, dict) or not isinstance(header.get("params"), list):
            raise FormatError("checkpoint header needs a 'params' list")
        extents: dict[str, tuple[tuple[int, ...], int]] = {}
        for entry in header["params"]:
            name, shape, offset = _entry_fields(entry)
            if name in extents:
                raise FormatError(f"duplicate checkpoint entry {name!r}")
            if offset + math.prod(shape) * _ITEMSIZE > size - base:
                raise FormatError(f"checkpoint entry {name!r} overruns the data section")
            extents[name] = shape, offset
        out: dict[str, np.ndarray] = {}
        for name, (shape, offset) in extents.items():
            arr = np.empty(shape, dtype=_DTYPE)
            fh.seek(base + offset)
            if fh.readinto(arr) != arr.nbytes:
                raise FormatError(f"checkpoint entry {name!r} overruns the data section")
            out[name] = arr
    return out
