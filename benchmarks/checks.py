"""Correctness checks the benchmark runs on the program's outputs."""
from __future__ import annotations

import math
import re

import numpy as np

from patchpos.views import ViewSpec

_NUMBER = re.compile(r"(\w+)=(-?[0-9.]+(?:e[-+]?\d+)?|nan|inf|-inf)")


def logged_losses(lines, keys) -> list[float]:
    """Values of the ``key=value`` fields named in ``keys`` on each line."""
    return [float(v) for line in lines for k, v in _NUMBER.findall(line) if k in keys]


def all_finite(values) -> bool:
    return all(math.isfinite(v) for v in values)


def _owner(top: float, length: float, out: int, patch: int, coords: np.ndarray) -> np.ndarray:
    """Index of the patch row (or column interval) whose source footprint
    holds each pixel centre, -1 outside the crop."""
    step = patch * (length / out)
    bounds = top + np.arange(out // patch + 1, dtype=np.float64) * step
    k = np.searchsorted(bounds, coords, side="right") - 1
    return np.where((coords >= bounds[0]) & (coords < bounds[-1]), k, -1)


def oracle_correspondence(q: ViewSpec, ref: ViewSpec, src_h: int, src_w: int) -> np.ndarray:
    """Brute-force ``h``: rasterize every source pixel centre into its query
    and reference patch, histogram the pairs, and take the most-overlapping
    reference patch (smallest index on ties, -1 without overlap)."""
    ys = np.arange(src_h) + 0.5
    xs = np.arange(src_w) + 0.5

    def grid(v: ViewSpec):
        row = _owner(v.top, v.height, v.out_h, v.patch, ys)
        col = _owner(v.left, v.width, v.out_w, v.patch, xs)
        if v.hflip:
            col = np.where(col >= 0, v.grid_w - 1 - col, -1)
        idx = row[:, None] * v.grid_w + col[None, :]
        return np.where((row[:, None] >= 0) & (col[None, :] >= 0), idx, -1).ravel()

    qi, ri = grid(q), grid(ref)
    both = (qi >= 0) & (ri >= 0)
    counts = np.zeros((q.n_patches, ref.n_patches), dtype=np.int64)
    np.add.at(counts, (qi[both], ri[both]), 1)
    h = counts.argmax(axis=1)
    h[counts.max(axis=1) == 0] = -1
    return h


def same_arrays(a: dict[str, np.ndarray], b: dict[str, np.ndarray]) -> bool:
    return a.keys() == b.keys() and all(
        a[k].shape == b[k].shape and a[k].dtype == b[k].dtype and np.array_equal(a[k], b[k])
        for k in a)
