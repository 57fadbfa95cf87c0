"""Deterministic binary checkpoints: JSON manifest + raw array payload.

The same model/optimizer state always serializes to identical bytes, so
save -> load -> save round-trips are byte-stable.
"""
from __future__ import annotations

import json
import logging
import os
import struct

import numpy as np

log = logging.getLogger(__name__)

MAGIC = b"MMCKPT1\0"


class CheckpointError(RuntimeError):
    pass


def save_checkpoint(path, arrays: dict[str, np.ndarray], meta: dict) -> None:
    """Write named arrays (sorted by name) plus a JSON metadata block.

    The bytes go to a temporary file next to ``path`` that is flushed,
    fsynced and then renamed over ``path``, so a write that fails or is
    interrupted leaves the previous checkpoint as it was.
    """
    names = sorted(arrays)
    manifest = {
        "meta": meta,
        "arrays": [{"name": n, "shape": list(arrays[n].shape), "dtype": str(arrays[n].dtype)}
                   for n in names],
    }
    blob = json.dumps(manifest, sort_keys=True).encode("utf-8")
    tmp = f"{os.fspath(path)}.{os.getpid()}.tmp"
    try:
        with open(tmp, "wb") as f:
            f.write(MAGIC)
            f.write(struct.pack("<Q", len(blob)))
            f.write(blob)
            for n in names:
                f.write(np.ascontiguousarray(arrays[n]).tobytes())
            f.flush()
            os.fsync(f.fileno())
        os.replace(tmp, path)
    except OSError as e:
        raise CheckpointError(f"cannot write checkpoint '{path}': {e}") from e
    finally:
        if os.path.exists(tmp):     # the write or the rename did not finish
            os.remove(tmp)


def _read_exact(f, n: int, size: int, path, what: str) -> bytes:
    """``n`` bytes of ``what`` from ``f``, or CheckpointError naming the file.
    ``size`` is the file's length, checked first so a corrupt length field
    never asks for a huge read."""
    at = f.tell()
    if n > size - at:
        raise CheckpointError(f"'{path}' truncated in {what} "
                              f"(needs {n} bytes at offset {at}, the file has {size})")
    return f.read(n)


def load_checkpoint(path) -> tuple[dict[str, np.ndarray], dict]:
    try:
        with open(path, "rb") as f:
            if f.read(8) != MAGIC:
                raise CheckpointError(f"'{path}' is not a checkpoint file")
            size = os.fstat(f.fileno()).st_size
            (n,) = struct.unpack("<Q", _read_exact(f, 8, size, path, "the manifest length"))
            raw = _read_exact(f, n, size, path, "the manifest")
            try:
                manifest = json.loads(raw.decode("utf-8"))
            except ValueError as e:     # bad UTF-8 or bad JSON
                raise CheckpointError(f"'{path}' has a manifest that is not valid JSON: {e}") from e
            entries, meta = _parse_manifest(manifest, path)
            arrays = {}
            for name, shape, dtype in entries:
                count = int(np.prod(shape)) if shape else 1
                buf = _read_exact(f, count * dtype.itemsize, size, path, f"array '{name}'")
                arrays[name] = np.frombuffer(buf, dtype=dtype).reshape(shape).copy()
    except OSError as e:
        raise CheckpointError(f"cannot read checkpoint '{path}': {e}") from e
    return arrays, meta


def _parse_manifest(manifest, path) -> tuple[list[tuple[str, tuple, np.dtype]], dict]:
    """(name, shape, dtype) per array plus the metadata dict, or
    CheckpointError naming the file when the manifest has the wrong shape."""
    try:
        entries = [(str(e["name"]), tuple(int(d) for d in e["shape"]), np.dtype(e["dtype"]))
                   for e in manifest["arrays"]]
        meta = manifest["meta"]
    except (TypeError, KeyError, ValueError) as e:
        raise CheckpointError(f"'{path}' has a malformed manifest: {type(e).__name__}: {e}") from e
    if not isinstance(meta, dict) or any(d < 0 for _, shape, _ in entries for d in shape):
        raise CheckpointError(f"'{path}' has a malformed manifest: bad metadata or array shape")
    return entries, meta


def check_config_hash(meta: dict, expected_hash: str, path) -> None:
    got = meta.get("config_hash")
    if got != expected_hash:
        log.warning("checkpoint '%s' was written under a different config "
                    "(hash %s, current %s)", path, got, expected_hash)
