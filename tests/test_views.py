"""View geometry and the exact patch correspondence, validated against a
brute-force pixel-rasterization oracle."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from patchpos.views import (Correspondence, RasterImage, SamplingError, ViewSpec,
                            _resize_bilinear, compute_correspondence, materialize_view,
                            overlap_matrix, patch_boundaries, patchify,
                            sample_query_views, sample_reference_view, unpatchify)


# -- oracle ------------------------------------------------------------------
#
# Assign every source pixel center to its owning patch by scanning the
# boundary partition directly (searchsorted), then rasterize the joint
# (query patch, reference patch) histogram. Shares only the boundary floats
# with the production path, not the counting method.

def _assign(bounds, coords, grid, flip):
    k = np.searchsorted(bounds, coords, side="right") - 1
    inside = (coords >= bounds[0]) & (coords < bounds[-1]) & (k >= 0) & (k < grid)
    k = np.where(inside, k, -1)
    if flip:
        k = np.where(k >= 0, grid - 1 - k, -1)
    return k


def oracle_overlap(q: ViewSpec, ref: ViewSpec, src_h: int, src_w: int) -> np.ndarray:
    qyb, qxb = patch_boundaries(q)
    ryb, rxb = patch_boundaries(ref)
    ys = np.arange(src_h) + 0.5
    xs = np.arange(src_w) + 0.5
    qy = _assign(qyb, ys, q.grid_h, False)
    qx = _assign(qxb, xs, q.grid_w, q.hflip)
    ry = _assign(ryb, ys, ref.grid_h, False)
    rx = _assign(rxb, xs, ref.grid_w, ref.hflip)
    counts = np.zeros((q.n_patches, ref.n_patches), dtype=np.int64)
    valid_y = np.flatnonzero((qy >= 0) & (ry >= 0))
    valid_x = np.flatnonzero((qx >= 0) & (rx >= 0))
    for y in valid_y:
        qi = qy[y] * q.grid_w + qx[valid_x]
        ri = ry[y] * ref.grid_w + rx[valid_x]
        np.add.at(counts, (qi, ri), 1)
    return counts


def oracle_h(q, ref, src_h, src_w):
    counts = oracle_overlap(q, ref, src_h, src_w)
    h = counts.argmax(axis=1)
    h[counts.max(axis=1) == 0] = -1
    return h


def random_pair(rng, src=128):
    img = RasterImage(np.zeros((1, src, src), dtype=np.float32), ["B2"])
    out_ref = int(rng.choice([32, 64]))
    out_q = int(rng.choice([16, 32]))
    ref = sample_reference_view(img, rng, out_size=out_ref, patch=8)
    (q,) = sample_query_views(img, ref, 1, rng, out_size=out_q, patch=8)
    return q, ref, src


def test_overlap_matches_oracle_on_random_pairs():
    rng = np.random.default_rng(0)
    for _ in range(200):
        q, ref, src = random_pair(rng)
        got = overlap_matrix(q, ref)
        want = oracle_overlap(q, ref, src, src)
        assert np.array_equal(got, want), f"mismatch for {q} vs {ref}"


def test_correspondence_matches_oracle():
    rng = np.random.default_rng(1)
    for _ in range(200):
        q, ref, src = random_pair(rng)
        assert np.array_equal(compute_correspondence(q, ref).h,
                              oracle_h(q, ref, src, src))


def test_hand_case_identical_views():
    # Same crop, same geometry: h is the identity.
    v = ViewSpec(0, 0, 32, 32, False, 32, 32, 8)
    corr = compute_correspondence(v, v)
    assert np.array_equal(corr.h, np.arange(16))
    assert np.array_equal(corr.omega, np.arange(16))


def test_hand_case_disjoint_crops():
    a = ViewSpec(0, 0, 16, 16, False, 16, 16, 8)
    b = ViewSpec(64, 64, 16, 16, False, 16, 16, 8)
    corr = compute_correspondence(a, b)
    assert np.all(corr.h == -1)
    assert corr.omega.size == 0


def test_flip_permutes_columns():
    # Flipping the query reverses the column order of h on the query grid.
    rng = np.random.default_rng(2)
    for _ in range(50):
        q, ref, _ = random_pair(rng)
        q_flipped = ViewSpec(q.top, q.left, q.height, q.width, not q.hflip,
                             q.out_h, q.out_w, q.patch)
        h = compute_correspondence(q, ref).h.reshape(q.grid_h, q.grid_w)
        hf = compute_correspondence(q_flipped, ref).h.reshape(q.grid_h, q.grid_w)
        assert np.array_equal(hf, h[:, ::-1])


def test_overlap_total_is_intersection_area():
    # Summed overlap counts equal the pixel-center count of the crop
    # rectangle intersection (integer crops make this exact).
    rng = np.random.default_rng(3)
    for _ in range(50):
        q, ref, _ = random_pair(rng)
        y0, y1 = max(q.top, ref.top), min(q.top + q.height, ref.top + ref.height)
        x0, x1 = max(q.left, ref.left), min(q.left + q.width, ref.left + ref.width)
        want = max(0, y1 - y0) * max(0, x1 - x0)
        assert overlap_matrix(q, ref).sum() == want


def test_desk_and_paper_patch_counts():
    assert ViewSpec(0, 0, 64, 64, False, 64, 64, 8).n_patches == 64
    assert ViewSpec(0, 0, 32, 32, False, 32, 32, 8).n_patches == 16
    # paper geometry: 224/16 -> 14x14 = 196 reference, 96/16 -> 36 query
    assert ViewSpec(0, 0, 224, 224, False, 224, 224, 16).n_patches == 196
    assert ViewSpec(0, 0, 96, 96, False, 96, 96, 16).n_patches == 36


def test_tie_break_smallest_index():
    h = Correspondence(np.array([2, -1, 0])).h
    assert np.array_equal(h, [2, -1, 0])
    counts = np.array([[3, 3, 1]])
    assert counts.argmax(axis=1)[0] == 0  # documented argmax behavior


def test_materialize_identity_geometry():
    rng = np.random.default_rng(4)
    img = RasterImage(rng.standard_normal((2, 32, 32)).astype(np.float32), ["B2", "B3"])
    out = materialize_view(img, ViewSpec(0, 0, 32, 32, False, 32, 32, 8))
    assert np.array_equal(out.data, img.data)
    flipped = materialize_view(img, ViewSpec(0, 0, 32, 32, True, 32, 32, 8))
    assert np.array_equal(flipped.data, img.data[:, :, ::-1])


def test_materialize_crop_and_resize():
    rng = np.random.default_rng(5)
    img = RasterImage(rng.standard_normal((1, 64, 64)).astype(np.float32), ["B2"])
    out = materialize_view(img, ViewSpec(8, 16, 32, 32, False, 16, 16, 8))
    assert out.data.shape == (1, 16, 16)
    # 2x downsample with half-pixel centers averages each 2x2 block
    block = img.data[0, 8:10, 16:18].mean()
    assert np.isclose(out.data[0, 0, 0], block, atol=1e-5)


def gather_resize(x, out_h, out_w):
    """Oracle: bilinear resample by four fancy-index gathers of the corner
    samples, half-pixel-centred, weights in float64."""
    C, H, W = x.shape
    ys = (np.arange(out_h) + 0.5) * (H / out_h) - 0.5
    xs = (np.arange(out_w) + 0.5) * (W / out_w) - 0.5
    y0 = np.clip(np.floor(ys).astype(np.int64), 0, H - 1)
    x0 = np.clip(np.floor(xs).astype(np.int64), 0, W - 1)
    y1 = np.clip(y0 + 1, 0, H - 1)
    x1 = np.clip(x0 + 1, 0, W - 1)
    wy = np.clip(ys - y0, 0.0, 1.0)[None, :, None]
    wx = np.clip(xs - x0, 0.0, 1.0)[None, None, :]
    top = x[:, y0[:, None], x0[None, :]] * (1 - wx) + x[:, y0[:, None], x1[None, :]] * wx
    bot = x[:, y1[:, None], x0[None, :]] * (1 - wx) + x[:, y1[:, None], x1[None, :]] * wx
    return top * (1 - wy) + bot * wy


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(c=st.integers(1, 4), h=st.integers(1, 96), w=st.integers(1, 96),
       out_h=st.integers(1, 72), out_w=st.integers(1, 72),
       seed=st.integers(0, 2 ** 32 - 1))
def test_resize_matches_gather_oracle(c, h, w, out_h, out_w, seed):
    rng = np.random.default_rng(seed)
    src = rng.standard_normal((c, h + 3, w + 2)).astype(np.float32)
    crop = src[:, 1:1 + h, 2:2 + w]         # a strided view, as materialize_view passes
    out = _resize_bilinear(crop, out_h, out_w)
    assert out.shape == (c, out_h, out_w) and out.dtype == np.float32
    assert np.abs(out - gather_resize(crop, out_h, out_w)).max() <= 1e-6


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(c=st.integers(1, 4), src=st.integers(8, 80), out=st.sampled_from([8, 16, 24, 32, 64]),
       seed=st.integers(0, 2 ** 32 - 1))
def test_flipped_view_equals_copy_then_flip(c, src, out, seed):
    rng = np.random.default_rng(seed)
    img = RasterImage(rng.standard_normal((c, src, src + 3)).astype(np.float32),
                      [f"B{k}" for k in range(c)])
    h = int(rng.integers(1, src + 1))
    w = int(rng.integers(1, src + 4))
    top, left = int(rng.integers(0, src - h + 1)), int(rng.integers(0, src + 3 - w + 1))
    plain = materialize_view(img, ViewSpec(top, left, h, w, False, out, out, 8))
    flipped = materialize_view(img, ViewSpec(top, left, h, w, True, out, out, 8))
    want = plain.data[:, :, ::-1]
    if out % 16 == 0:       # every shipped geometry: 16, 32, 64
        assert np.array_equal(flipped.data, want)
    else:   # the BLAS rounds a narrower last column panel differently: 1 ulp
        assert np.abs(flipped.data - want).max() <= 4e-7 * np.abs(want).max()


def test_materialized_view_skips_second_finiteness_check():
    img = RasterImage(np.ones((1, 16, 16), dtype=np.float32), ["B2"])
    img.data[0, 0, 0] = np.inf      # after the image's own check, as a probe
    with np.errstate(invalid="ignore"):     # inf * 0 in the resampling matmul
        out = materialize_view(img, ViewSpec(0, 0, 16, 16, False, 8, 8, 8))
    assert not np.isfinite(out.data).all()
    with pytest.raises(ValueError, match="non-finite"):
        RasterImage(out.data, ["B2"])


def test_crop_outside_raises():
    img = RasterImage(np.zeros((1, 32, 32), dtype=np.float32), ["B2"])
    with pytest.raises(ValueError):
        materialize_view(img, ViewSpec(20, 0, 16, 16, False, 16, 16, 8))


def test_raster_validation():
    with pytest.raises(ValueError):
        RasterImage(np.zeros((4, 4), dtype=np.float32), ["B2"])
    with pytest.raises(ValueError):
        RasterImage(np.zeros((2, 4, 4), dtype=np.float32), ["B2"])
    bad = np.zeros((1, 4, 4), dtype=np.float32)
    bad[0, 0, 0] = np.nan
    with pytest.raises(ValueError):
        RasterImage(bad, ["B2"])


def test_view_spec_validation():
    with pytest.raises(ValueError):
        ViewSpec(0, 0, 16, 16, False, 30, 30, 8)   # not divisible by patch
    with pytest.raises(ValueError):
        ViewSpec(0, 0, 0, 16, False, 32, 32, 8)    # empty crop


def test_query_views_overlap_reference():
    rng = np.random.default_rng(6)
    img = RasterImage(np.zeros((1, 128, 128), dtype=np.float32), ["B2"])
    ref = sample_reference_view(img, rng)
    for q in sample_query_views(img, ref, 20, rng):
        assert q.top < ref.top + ref.height and q.top + q.height > ref.top
        assert q.left < ref.left + ref.width and q.left + q.width > ref.left


def test_sampling_errors():
    img = RasterImage(np.zeros((1, 4, 4), dtype=np.float32), ["B2"])
    rng = np.random.default_rng(0)
    with pytest.raises(SamplingError):
        sample_reference_view(img, rng, patch=8)
    big = RasterImage(np.zeros((1, 64, 64), dtype=np.float32), ["B2"])
    ref = sample_reference_view(big, rng)
    with pytest.raises(SamplingError):
        sample_query_views(big, ref, 0, rng)


def test_patchify_roundtrip():
    rng = np.random.default_rng(7)
    img = rng.standard_normal((3, 32, 48)).astype(np.float32)
    patches = patchify(img, 8)
    assert patches.shape == (4 * 6, 3, 8, 8)
    assert np.array_equal(unpatchify(patches, 4, 6), img)
    # row-major: patch 1 is the block one patch to the right
    assert np.array_equal(patches[1], img[:, 0:8, 8:16])


def test_patchify_leading_dims():
    rng = np.random.default_rng(8)
    batch = rng.standard_normal((2, 3, 4, 16, 24)).astype(np.float32)
    patches = patchify(batch, 8)
    assert patches.shape == (2, 3, 2 * 3, 4, 8, 8)
    for i in range(2):
        for j in range(3):
            assert np.array_equal(patches[i, j], patchify(batch[i, j], 8))


def test_patchify_rejects_indivisible():
    with pytest.raises(ValueError):
        patchify(np.zeros((1, 30, 32), dtype=np.float32), 8)
    with pytest.raises(ValueError):
        patchify(np.zeros((2, 3, 30, 32), dtype=np.float32), 8)
    with pytest.raises(ValueError):
        patchify(np.zeros((32, 32), dtype=np.float32), 8)
