"""Deterministic binary checkpoints.

Layout: a magic string, an 8-byte little-endian header length, a JSON
header (sorted keys, compact separators), then the raw parameter buffers
concatenated in header order as little-endian float64.  The same
parameters and metadata always serialize to identical bytes, which makes
repeat-run comparisons trivial.
"""

from __future__ import annotations

import json

import numpy as np

from .errors import LoadError

MAGIC = b"PTRPCKPT1\n"


def save_checkpoint(path, params, meta: dict):
    """Write named arrays plus JSON-serializable metadata.

    ``params`` is an ordered iterable of (name, ndarray) pairs; order is
    preserved and becomes part of the format.
    """
    entries = []
    buffers = []
    for name, array in params:
        data = np.asarray(array, dtype="<f8")
        entries.append({"name": name, "shape": list(data.shape)})
        buffers.append(data.tobytes())
    header = json.dumps({"format": 1, "meta": meta, "params": entries},
                        sort_keys=True, separators=(",", ":")).encode("utf-8")
    with open(path, "wb") as handle:
        handle.write(MAGIC)
        handle.write(len(header).to_bytes(8, "little"))
        handle.write(header)
        for buffer in buffers:
            handle.write(buffer)


def load_checkpoint(path):
    """Read a checkpoint; returns (params dict, meta dict)."""
    try:
        with open(path, "rb") as handle:
            blob = handle.read()
    except OSError as err:
        raise LoadError(f"cannot read checkpoint {path}: {err}") from err
    if not blob.startswith(MAGIC):
        raise LoadError(f"{path} is not a checkpoint (bad magic)")
    offset = len(MAGIC)
    if len(blob) < offset + 8:
        raise LoadError(f"{path} is truncated")
    header_len = int.from_bytes(blob[offset : offset + 8], "little")
    offset += 8
    try:
        header = json.loads(blob[offset : offset + header_len].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as err:
        raise LoadError(f"{path} has a corrupt header: {err}") from err
    offset += header_len
    if not isinstance(header, dict) or header.get("format") != 1:
        found = header.get("format") if isinstance(header, dict) else header
        raise LoadError(f"{path} has unsupported format {found!r}")
    entries, meta = header.get("params"), header.get("meta")
    if not isinstance(entries, list) or not isinstance(meta, dict):
        raise LoadError(f"{path} header lacks its parameter table or metadata")

    params = {}
    for entry in entries:
        try:
            name, shape = entry["name"], tuple(int(size) for size in entry["shape"])
        except (KeyError, TypeError, ValueError) as err:
            raise LoadError(f"{path} has a malformed parameter entry {entry!r}") from err
        if any(size < 0 for size in shape):
            raise LoadError(f"{path} parameter {name!r} has a negative dimension in shape {shape}")
        count = int(np.prod(shape)) if shape else 1
        nbytes = count * 8
        if offset + nbytes > len(blob):
            raise LoadError(f"{path} is truncated inside parameter {name!r}")
        flat = np.frombuffer(blob[offset : offset + nbytes], dtype="<f8")
        params[name] = flat.reshape(shape).astype(np.float64)
        offset += nbytes
    if offset != len(blob):
        raise LoadError(f"{path} has {len(blob) - offset} trailing bytes")
    return params, meta
