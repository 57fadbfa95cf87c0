"""View sampling, augmentation and query/reference patch correspondence.

Every view is a crop + optional horizontal flip + bilinear rescale of a
source raster. Patch footprints are tracked in source-pixel coordinates
so the correspondence between query and reference patch grids can be
computed exactly: overlap is measured as the number of source pixel
centers falling inside both footprints.
"""
from __future__ import annotations

from dataclasses import InitVar, dataclass, field
from functools import lru_cache

import numpy as np


class SamplingError(RuntimeError):
    pass


@dataclass
class RasterImage:
    """A C x H x W raster with one modality/band tag per channel.

    Values are checked to be finite unless ``check_finite`` is False, which
    is for rasters derived from an already checked one (channel subsets,
    resampled views: convex mixes of finite values stay finite).
    """
    data: np.ndarray
    channel_tags: list[str]
    check_finite: InitVar[bool] = True

    def __post_init__(self, check_finite: bool):
        if self.data.ndim != 3:
            raise ValueError(f"raster must be CxHxW, got shape {self.data.shape}")
        if len(self.channel_tags) != self.data.shape[0]:
            raise ValueError(f"{len(self.channel_tags)} tags for {self.data.shape[0]} channels")
        if check_finite and not np.all(np.isfinite(self.data)):
            raise ValueError("raster contains non-finite values")

    @property
    def channels(self):
        return self.data.shape[0]

    @property
    def height(self):
        return self.data.shape[1]

    @property
    def width(self):
        return self.data.shape[2]


@dataclass
class ViewSpec:
    """Crop rectangle in source pixels, flip flag and output geometry."""
    top: int
    left: int
    height: int
    width: int
    hflip: bool
    out_h: int
    out_w: int
    patch: int

    def __post_init__(self):
        if self.out_h % self.patch or self.out_w % self.patch:
            raise ValueError(f"output {self.out_h}x{self.out_w} not divisible by patch {self.patch}")
        if self.height <= 0 or self.width <= 0:
            raise ValueError("empty crop rectangle")

    @property
    def grid_h(self):
        return self.out_h // self.patch

    @property
    def grid_w(self):
        return self.out_w // self.patch

    @property
    def n_patches(self):
        return self.grid_h * self.grid_w

    def validate_inside(self, image: RasterImage):
        if self.top < 0 or self.left < 0 or self.top + self.height > image.height \
                or self.left + self.width > image.width:
            raise ValueError(f"crop {self} outside {image.height}x{image.width} source")


@dataclass
class Correspondence:
    """h maps query patch index -> reference patch index, -1 where no overlap."""
    h: np.ndarray
    omega: np.ndarray = field(init=False)

    def __post_init__(self):
        self.h = np.asarray(self.h, dtype=np.int64)
        self.omega = np.flatnonzero(self.h >= 0)


def _sample_crop(image, frac_range, min_side, rng):
    H, W = image.height, image.width
    frac = rng.uniform(*frac_range)
    side = int(round((frac * H * W) ** 0.5))
    side = max(min_side, min(side, H, W))
    top = int(rng.integers(0, H - side + 1))
    left = int(rng.integers(0, W - side + 1))
    return top, left, side, side


def sample_reference_view(image: RasterImage, rng: np.random.Generator,
                          scale_range=(0.3, 1.0), out_size: int = 64,
                          patch: int = 8, flip_prob: float = 0.5) -> ViewSpec:
    """Large crop covering much of the source image."""
    if image.height < patch or image.width < patch:
        raise SamplingError(f"source {image.height}x{image.width} smaller than one {patch}x{patch} patch")
    top, left, h, w = _sample_crop(image, scale_range, patch, rng)
    return ViewSpec(top, left, h, w, bool(rng.random() < flip_prob), out_size, out_size, patch)


def sample_query_views(image: RasterImage, ref: ViewSpec, count: int,
                       rng: np.random.Generator, scale_range=(0.05, 0.3),
                       out_size: int = 32, patch: int = 8,
                       flip_prob: float = 0.5, max_tries: int = 100) -> list[ViewSpec]:
    """Small crops, rejection-sampled to overlap the reference rectangle."""
    if count < 1:
        raise SamplingError("query view count must be >= 1")
    specs = []
    for _ in range(count):
        for _ in range(max_tries):
            top, left, h, w = _sample_crop(image, scale_range, patch, rng)
            if top < ref.top + ref.height and top + h > ref.top \
                    and left < ref.left + ref.width and left + w > ref.left:
                break
        specs.append(ViewSpec(top, left, h, w, bool(rng.random() < flip_prob),
                              out_size, out_size, patch))
    return specs


@lru_cache(maxsize=None)
def _interp_matrix(n_in: int, n_out: int, flip: bool = False) -> np.ndarray:
    """Read-only (n_out, n_in) float32 bilinear weights with half-pixel-centred
    sampling; row i mixes the two source samples nearest output centre i.
    ``flip`` reverses the rows, which mirrors the resampled axis."""
    if flip:
        m = _interp_matrix(n_in, n_out)[::-1].copy()
        m.flags.writeable = False
        return m
    c = (np.arange(n_out) + 0.5) * (n_in / n_out) - 0.5
    i0 = np.clip(np.floor(c).astype(np.int64), 0, n_in - 1)
    i1 = np.minimum(i0 + 1, n_in - 1)
    w = np.clip(c - i0, 0.0, 1.0)
    m = np.zeros((n_out, n_in))
    rows = np.arange(n_out)
    np.add.at(m, (rows, i0), 1.0 - w)
    np.add.at(m, (rows, i1), w)     # i0 == i1 at the last source sample
    m = m.astype(np.float32)
    m.flags.writeable = False
    return m


def _resize_bilinear(x: np.ndarray, out_h: int, out_w: int, hflip: bool = False) -> np.ndarray:
    """Bilinear resample of (C, H, W) with half-pixel-centred sampling, then
    an optional horizontal flip.

    Bilinear interpolation is separable, so the resample is two matmuls,
    ``R_y @ x @ R_xᵀ``, with the interpolation matrices from
    :func:`_interp_matrix`; the flip reverses the rows of ``R_x``.
    """
    C, H, W = x.shape
    if (out_h, out_w) == (H, W):
        return (x[:, :, ::-1] if hflip else x).copy()
    out = _interp_matrix(H, out_h) @ (x @ _interp_matrix(W, out_w, hflip).T)
    return out.astype(x.dtype, copy=False)


def materialize_view(image: RasterImage, spec: ViewSpec) -> RasterImage:
    """Crop, rescale, then flip."""
    spec.validate_inside(image)
    crop = image.data[:, spec.top:spec.top + spec.height, spec.left:spec.left + spec.width]
    out = _resize_bilinear(crop, spec.out_h, spec.out_w, spec.hflip)
    return RasterImage(out, list(image.channel_tags), check_finite=False)


def patch_boundaries(spec: ViewSpec) -> tuple[np.ndarray, np.ndarray]:
    """Ascending source-coordinate boundaries of the patch grid rows/columns.

    Interval k spans [bounds[k], bounds[k+1]) in source pixels. Without a
    flip, patch column c owns interval c; with a horizontal flip, patch
    column c owns interval grid_w-1-c.
    """
    m = np.arange(spec.grid_h + 1, dtype=np.float64)
    yb = spec.top + m * spec.patch * (spec.height / spec.out_h)
    n = np.arange(spec.grid_w + 1, dtype=np.float64)
    xb = spec.left + n * spec.patch * (spec.width / spec.out_w)
    return yb, xb


def _center_counts(lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Number of integer+0.5 pixel centers in each half-open interval [lo, hi)."""
    return np.maximum(0, np.ceil(hi - 0.5) - np.ceil(lo - 0.5)).astype(np.int64)


def _axis_overlap(qb: np.ndarray, rb: np.ndarray) -> np.ndarray:
    """Pairwise pixel-center overlap counts between two boundary partitions."""
    lo = np.maximum(qb[:-1, None], rb[None, :-1])
    hi = np.minimum(qb[1:, None], rb[None, 1:])
    return _center_counts(lo, hi)


def overlap_matrix(q: ViewSpec, ref: ViewSpec) -> np.ndarray:
    """(N_q, N_ref) matrix of source-pixel-center overlap counts."""
    qyb, qxb = patch_boundaries(q)
    ryb, rxb = patch_boundaries(ref)
    oy = _axis_overlap(qyb, ryb)    # (q grid_h, ref grid_h)
    ox = _axis_overlap(qxb, rxb)    # (q grid_w, ref grid_w) in interval order
    if q.hflip:
        ox = ox[::-1]
    if ref.hflip:
        ox = ox[:, ::-1]
    counts = np.einsum("ab,cd->acbd", oy, ox)
    return counts.reshape(q.n_patches, ref.n_patches)


def compute_correspondence(q: ViewSpec, ref: ViewSpec) -> Correspondence:
    """Greatest-overlap reference patch per query patch; ties to the smallest
    reference index, -1 where the overlap is zero."""
    counts = overlap_matrix(q, ref)
    h = counts.argmax(axis=1)
    h[counts.max(axis=1) == 0] = -1
    return Correspondence(h)


def patchify(x: np.ndarray, patch: int) -> np.ndarray:
    """Split (..., C, H, W) into row-major (..., N, C, P, P) patches."""
    if x.ndim < 3:
        raise ValueError(f"patchify expects (..., C, H, W), got shape {x.shape}")
    *lead, C, H, W = x.shape
    if H % patch or W % patch:
        raise ValueError(f"{H}x{W} not divisible by patch size {patch}")
    gh, gw = H // patch, W // patch
    k = len(lead)
    x = x.reshape(*lead, C, gh, patch, gw, patch)
    x = x.transpose(*range(k), k + 1, k + 3, k, k + 2, k + 4)
    return x.reshape(*lead, gh * gw, C, patch, patch)


def unpatchify(patches: np.ndarray, grid_h: int, grid_w: int) -> np.ndarray:
    """Inverse of :func:`patchify`."""
    n, C, P, _ = patches.shape
    x = patches.reshape(grid_h, grid_w, C, P, P)
    return x.transpose(2, 0, 3, 1, 4).reshape(C, grid_h * P, grid_w * P)
