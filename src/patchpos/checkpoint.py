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

from .config import ConfigFileError
from .groups import build_group_setting

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


def read_exact(f, n: int, error: type[Exception], what: str) -> bytes:
    """``n`` bytes from the file ``f``, or ``error`` that starts with ``what``
    and gives the offset and the file's length. The length is checked before
    reading, so a corrupt length field never asks for a huge read."""
    at, size = f.tell(), os.fstat(f.fileno()).st_size
    if n > size - at:
        raise error(f"{what} (needs {n} bytes at offset {at}, the file has {size})")
    return f.read(n)


def load_checkpoint(path) -> tuple[dict[str, np.ndarray], dict]:
    try:
        with open(path, "rb") as f:
            if f.read(8) != MAGIC:
                raise CheckpointError(f"'{path}' is not a checkpoint file")
            cut = f"'{path}' truncated in"
            (n,) = struct.unpack("<Q", read_exact(f, 8, CheckpointError,
                                                  f"{cut} the manifest length"))
            raw = read_exact(f, n, CheckpointError, f"{cut} the manifest")
            try:
                manifest = json.loads(raw.decode("utf-8"))
            except ValueError as e:     # bad UTF-8 or bad JSON
                raise CheckpointError(f"'{path}' has a manifest that is not valid JSON: {e}") from e
            entries, meta = _parse_manifest(manifest, path)
            arrays = {}
            for name, shape, dtype in entries:
                count = int(np.prod(shape)) if shape else 1
                buf = read_exact(f, count * dtype.itemsize, CheckpointError,
                                 f"{cut} array '{name}'")
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


def load_params(params: dict, arrays: dict[str, np.ndarray], path) -> None:
    """Copy ``arrays["param/<name>"]`` into each tensor of ``params``.

    Every parameter must be present with exactly its shape, or
    CheckpointError names the first one that is not and the file, before
    any is copied. Arrays that no parameter reads are ignored, so the
    caller decides what is required by the ``params`` it passes.
    """
    for name, p in params.items():
        got = arrays.get(f"param/{name}")
        if got is None or got.shape != p.data.shape:
            found = "missing" if got is None else f"of shape {got.shape}"
            raise CheckpointError(f"'{path}': parameter '{name}' is {found}; "
                                  f"the model needs shape {p.data.shape}")
    for name, p in params.items():
        p.data = arrays[f"param/{name}"].astype(p.data.dtype)


def check_config_hash(meta: dict, expected_hash: str, path) -> None:
    got = meta.get("config_hash")
    if got != expected_hash:
        log.warning("checkpoint '%s' was written under a different config "
                    "(hash %s, current %s)", path, got, expected_hash)


def check_bands(meta: dict, group_setting: str, channel_tags: list[str], path, dataset) -> None:
    """Each group of ``group_setting`` reads the same bands, by tag, from the
    channels the checkpoint at ``path`` was trained on as from
    ``channel_tags``, the channels of ``dataset``; otherwise ConfigFileError
    names both. Presets and listings compare band codes, so a reordered
    dataset passes; ``all`` needs the same order. A checkpoint that stores no channel tags
    raises CheckpointError."""
    stored = meta.get("channel_tags")
    if not isinstance(stored, list):
        raise CheckpointError(f"'{path}' stores no channel tags")

    def bands(tags):
        return [[tags[c] for c in g] for g in build_group_setting(group_setting, tags).groups]

    trained, given = bands(stored), bands(channel_tags)
    if trained != given:
        raise ConfigFileError(f"checkpoint '{path}' was trained with groups reading bands "
                              f"{trained}, but {dataset} gives them {given}")
