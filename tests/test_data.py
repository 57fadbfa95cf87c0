"""Binary dataset/label formats and the synthetic generator."""
import os
import struct
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from patchpos.data import (ALL_BANDS, DatasetReader, FormatError,
                           generate_synthetic_dataset,
                           generate_synthetic_segmentation, read_labels,
                           write_dataset, write_labels)


def test_write_read_roundtrip(tmp_path):
    path = tmp_path / "d.mmr"
    rng = np.random.default_rng(0)
    samples = rng.standard_normal((5, 3, 16, 16)).astype(np.float32)
    write_dataset(path, samples, ["B2", "B3", "B4"])
    r = DatasetReader(path)
    assert len(r) == 5
    assert r.channel_tags == ["B2", "B3", "B4"]
    raw = r.sample(2, standardize=False)
    assert np.array_equal(raw.data, samples[2])


# (count, C, H, W) float32 samples of any finite values, an empty dataset too
rasters = st.tuples(st.integers(0, 3), st.integers(1, 4), st.integers(1, 5),
                    st.integers(1, 5)).flatmap(lambda shape: arrays(
                        np.float32, shape,
                        elements=st.floats(width=32, allow_nan=False, allow_infinity=False)))


@settings(max_examples=40)
@given(samples=rasters, data=st.data())
def test_written_values_read_back(tmp_path_factory, samples, data):
    path = tmp_path_factory.mktemp("raster") / "d.mmr"
    tags = ALL_BANDS[:samples.shape[1]]
    write_dataset(path, samples, tags)
    r = DatasetReader(path)
    assert len(r) == len(samples) and r.channel_tags == tags
    for i in range(len(samples)):
        channels = sorted(data.draw(st.sets(st.integers(0, len(tags) - 1), min_size=1)))
        assert np.array_equal(r.sample(i, standardize=False).data, samples[i])
        assert np.array_equal(r.sample(i, channels, standardize=False).data, samples[i, channels])


@pytest.mark.parametrize("standardize", [True, False])
def test_sample_channels_equals_sliced_full_read(tmp_path, standardize):
    path = tmp_path / "d.mmr"
    generate_synthetic_dataset(path, 3, 16, 16, ALL_BANDS, seed=4)
    r = DatasetReader(path)
    for channels in ([0, 1, 6, 21], [3], [2, 5, 9, 13, 14, 20], list(range(22))):
        for i in range(3):
            full = r.sample(i, standardize=standardize)
            part = r.sample(i, channels, standardize=standardize)
            assert part.data.dtype == np.float32
            assert np.array_equal(part.data, full.data[channels])     # bit for bit
            assert part.channel_tags == [ALL_BANDS[c] for c in channels]


def test_standardization():
    # standardized samples use header statistics over the whole dataset
    import tempfile, os
    rng = np.random.default_rng(1)
    samples = (rng.standard_normal((8, 2, 8, 8)) * np.array([3.0, 0.5])[None, :, None, None]
               + np.array([10.0, -4.0])[None, :, None, None]).astype(np.float32)
    with tempfile.TemporaryDirectory() as d:
        path = os.path.join(d, "d.mmr")
        write_dataset(path, samples, ["B2", "B3"])
        r = DatasetReader(path)
        all_std = np.stack([r.sample(i).data for i in range(8)])
        assert np.allclose(all_std.mean(axis=(0, 2, 3)), 0.0, atol=1e-4)
        assert np.allclose(all_std.std(axis=(0, 2, 3)), 1.0, atol=1e-3)


def test_bad_magic_raises(tmp_path):
    path = tmp_path / "bad.mmr"
    path.write_bytes(b"NOTMAGIC" + b"\0" * 64)
    with pytest.raises(FormatError, match=r"bad\.mmr: bad magic"):
        DatasetReader(path)


def test_truncated_payload_raises(tmp_path):
    path = tmp_path / "trunc.mmr"
    write_dataset(path, np.zeros((2, 1, 4, 4), dtype=np.float32), ["B2"])
    data = path.read_bytes()
    path.write_bytes(data[:-8])
    with pytest.raises(FormatError, match=r"trunc\.mmr: payload holds 120 bytes, expected 128"):
        DatasetReader(path)


@pytest.mark.parametrize("cut", [8, 14, 28, 31, 40])
def test_truncated_header_raises(tmp_path, cut):
    # 8: no version block, 14: mid-version block, 28: no tag length,
    # 31: mid-tag, 40: mid-statistics
    path = tmp_path / "trunc.mmr"
    write_dataset(path, np.zeros((2, 1, 4, 4), dtype=np.float32), ["B12"])
    path.write_bytes(path.read_bytes()[:cut])
    with pytest.raises(FormatError, match="trunc.mmr: truncated header"):
        DatasetReader(path)


@pytest.mark.parametrize("cut", [8, 15])
def test_truncated_label_header_raises(tmp_path, cut):
    path = tmp_path / "trunc.lbl"
    write_labels(path, np.zeros((2, 4, 4), dtype=np.int8))
    path.write_bytes(path.read_bytes()[:cut])
    with pytest.raises(FormatError, match="trunc.lbl: truncated header"):
        read_labels(path)


def _write_small(path, count=2, tags=("B2", "B3")):
    """A small raster; returns the byte offset of its payload."""
    samples = np.arange(count * len(tags) * 16, dtype=np.float32).reshape(count, len(tags), 4, 4)
    write_dataset(path, samples, list(tags))
    return os.path.getsize(path) - samples.nbytes


def _patch(path, at, raw):
    data = bytearray(path.read_bytes())
    data[at:at + len(raw)] = raw
    path.write_bytes(bytes(data))


# Format errors name the file they are about (bad magic and a short payload:
# the tests above). The raster header of `_write_small` is magic (8) + version
# block (20) + two tags of 2 + 2 bytes, then the (mean, std) pairs from byte 36.
RASTER_DAMAGE = {
    "unsupported format version": lambda p: _patch(p, 8, struct.pack("<I", 7)),
    "non-positive channel std": lambda p: _patch(p, 36 + 16 + 8, struct.pack("<d", 0.0)),
}


@pytest.mark.parametrize("what", sorted(RASTER_DAMAGE))
def test_raster_format_errors_name_the_file(tmp_path, what):
    path = tmp_path / "damaged.mmr"
    _write_small(path)
    RASTER_DAMAGE[what](path)
    with pytest.raises(FormatError, match=what) as err:
        DatasetReader(path)
    assert str(path) in str(err.value)


LABEL_DAMAGE = {
    "version": (lambda p: _patch(p, 8, struct.pack("<I", 7)), "unsupported format version"),
    "short": (lambda p: p.write_bytes(p.read_bytes()[:-1]), "label payload"),
    "long": (lambda p: p.write_bytes(p.read_bytes() + b"\0"), "label payload"),
}


@pytest.mark.parametrize("case", sorted(LABEL_DAMAGE))
def test_label_format_errors_name_the_file(tmp_path, case):
    path = tmp_path / "damaged.lbl"
    write_labels(path, np.zeros((2, 4, 4), dtype=np.int8))
    damage, what = LABEL_DAMAGE[case]
    damage(path)
    with pytest.raises(FormatError, match=what) as err:
        read_labels(path)
    assert str(path) in str(err.value)


@pytest.mark.parametrize("i", [-1, 2, 10])
def test_sample_index_out_of_range(tmp_path, i):
    path = tmp_path / "d.mmr"
    _write_small(path, count=2)
    with pytest.raises(IndexError) as err:
        DatasetReader(path).sample(i)
    assert f"sample {i} out of range for 2 samples" in str(err.value)
    assert str(path) in str(err.value)


def test_sample_index_types(tmp_path):
    path = tmp_path / "d.mmr"
    _write_small(path, count=2)
    r = DatasetReader(path)
    assert np.array_equal(r.sample(np.int32(1)).data, r.sample(1).data)
    with pytest.raises(TypeError):
        r.sample(1.0)


@pytest.mark.parametrize("channels, error", [([2], IndexError), ([0, -1], IndexError),
                                             ([[0, 1]], TypeError), ([0.0], TypeError)])
def test_sample_rejects_bad_channels(tmp_path, channels, error):
    path = tmp_path / "d.mmr"
    _write_small(path)
    with pytest.raises(error):
        DatasetReader(path).sample(0, channels)


def test_payload_shortened_after_open(tmp_path):
    path = tmp_path / "d.mmr"
    _write_small(path, count=3)
    reader = DatasetReader(path)
    os.truncate(path, os.path.getsize(path) - 4)
    assert np.array_equal(reader.sample(1, standardize=False).data.ravel(), np.arange(32, 64))
    with pytest.raises(FormatError, match="payload ends inside sample 2") as err:
        reader.sample(2)
    assert str(path) in str(err.value)


def test_non_finite_sample_names_file_and_index(tmp_path):
    path = tmp_path / "d.mmr"
    offset = _write_small(path, count=3)
    _patch(path, offset + 4 * (32 + 21), struct.pack("<f", np.inf))     # sample 1
    reader = DatasetReader(path)
    reader.sample(0), reader.sample(2)
    for channels in (None, [1]):
        with pytest.raises(ValueError, match="sample 1 contains non-finite") as err:
            reader.sample(1, channels)
        assert str(path) in str(err.value)
    assert reader.sample(1, [0]).data.shape == (1, 4, 4)     # the damaged channel is unread


# channel lists as callers may pass them: consecutive runs, gaps, any order,
# repeats; each is compared with a plain read of the whole payload
@settings(max_examples=60)
@given(samples=st.tuples(st.integers(1, 3), st.integers(1, 6), st.integers(1, 4),
                         st.integers(1, 4)).flatmap(lambda shape: arrays(
                             np.float32, shape, elements=st.floats(-1e6, 1e6, width=32))),
       data=st.data())
def test_sample_matches_whole_payload_read(tmp_path_factory, samples, data):
    path = tmp_path_factory.mktemp("raster") / "d.mmr"
    write_dataset(path, samples, ALL_BANDS[:samples.shape[1]])
    r = DatasetReader(path)
    count, C = samples.shape[:2]
    payload = np.fromfile(path, dtype="<f4", offset=os.path.getsize(path) - samples.nbytes)
    payload = payload.reshape(samples.shape)
    shift = r.header.means.astype(np.float32)[:, None, None]
    scale = (1.0 / r.header.stds).astype(np.float32)[:, None, None]
    i = data.draw(st.integers(0, count - 1))
    channels = data.draw(st.none() | st.lists(st.integers(0, C - 1), min_size=1, max_size=2 * C))
    standardize = data.draw(st.booleans())
    idx = list(range(C)) if channels is None else channels
    want = payload[i, idx]
    if standardize:
        want = (want - shift[idx]) * scale[idx]
    got = r.sample(i, channels, standardize)
    assert got.data.dtype == np.float32 and got.data.shape == want.shape
    assert got.data.tobytes() == want.astype(np.float32).tobytes()
    assert got.channel_tags == [ALL_BANDS[c] for c in idx]


@pytest.mark.skipif(not os.path.exists("/proc/self/maps"), reason="needs /proc/self/maps")
def test_reading_leaves_no_mapping_of_the_file(tmp_path):
    path = tmp_path / "mapped.mmr"
    generate_synthetic_dataset(path, 4, 32, 32, ALL_BANDS, seed=0)
    reader = DatasetReader(path)
    best = [0, 1, 2, 3, 6, 8, 11, *range(13, 20), 21]     # the `best` grouping's channels
    images = [reader.sample(i, channels) for i in range(len(reader)) for channels in (None, best)]
    assert len(images) == 8
    with open("/proc/self/maps") as maps:
        assert os.path.realpath(path) not in maps.read()


def test_import_leaves_scipy_unloaded():
    # scipy is needed only to generate synthetic data
    import patchpos
    src = os.path.dirname(os.path.dirname(patchpos.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    code = "import sys, patchpos; print('scipy' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env=env)
    assert out.stdout.strip() == "False"


def test_write_dataset_rejects_non_finite(tmp_path):
    samples = np.zeros((4, 2, 3, 3), dtype=np.float32)
    samples[2, 1, 0, 0] = np.nan
    samples[3, 0, 1, 1] = np.inf
    path = tmp_path / "bad.mmr"
    with pytest.raises(ValueError, match=r"bad\.mmr: sample 2 contains non-finite"):
        write_dataset(path, samples, ["B2", "B3"])
    assert not path.exists()


def test_tag_count_mismatch():
    with pytest.raises(ValueError):
        write_dataset("/tmp/never-written.mmr", np.zeros((1, 2, 4, 4), dtype=np.float32),
                      ["B2"])


def test_generation_is_deterministic(tmp_path):
    a, b = tmp_path / "a.mmr", tmp_path / "b.mmr"
    generate_synthetic_dataset(a, 4, 32, 32, ["B2", "A-VV", "DEM"], seed=7)
    generate_synthetic_dataset(b, 4, 32, 32, ["B2", "A-VV", "DEM"], seed=7)
    assert a.read_bytes() == b.read_bytes()
    c = tmp_path / "c.mmr"
    generate_synthetic_dataset(c, 4, 32, 32, ["B2", "A-VV", "DEM"], seed=8)
    assert a.read_bytes() != c.read_bytes()


def test_generation_rejects_unknown_bands(tmp_path):
    with pytest.raises(ValueError, match="XYZ"):
        generate_synthetic_dataset(tmp_path / "x.mmr", 1, 16, 16, ["XYZ"], 0)
    with pytest.raises(ValueError, match="mode"):
        generate_synthetic_dataset(tmp_path / "x.mmr", 1, 16, 16, ["B2"], 0, mode="hard")


def test_easy_mode_adds_coordinate_ramps(tmp_path):
    plain, easy = tmp_path / "p.mmr", tmp_path / "e.mmr"
    generate_synthetic_dataset(plain, 2, 32, 32, ["B2", "B3"], 0, mode="default")
    generate_synthetic_dataset(easy, 2, 32, 32, ["B2", "B3"], 0, mode="easy")
    rp = DatasetReader(plain).sample(0, standardize=False).data
    re = DatasetReader(easy).sample(0, standardize=False).data
    diff = re - rp
    # even channels carry the row ramp, odd channels the column ramp
    ramp_y = 3.0 * np.broadcast_to(np.linspace(-1, 1, 32)[:, None], (32, 32))
    ramp_x = 3.0 * np.broadcast_to(np.linspace(-1, 1, 32)[None, :], (32, 32))
    assert np.allclose(diff[0], ramp_y, atol=1e-5)
    assert np.allclose(diff[1], ramp_x, atol=1e-5)


def test_all_bands_supported(tmp_path):
    generate_synthetic_dataset(tmp_path / "all.mmr", 1, 16, 16, ALL_BANDS, 0)
    r = DatasetReader(tmp_path / "all.mmr")
    assert r.channel_tags == ALL_BANDS
    assert r.sample(0).data.shape == (22, 16, 16)


def test_epoch_order_deterministic(tmp_path):
    generate_synthetic_dataset(tmp_path / "d.mmr", 16, 16, 16, ["B2"], 0)
    r = DatasetReader(tmp_path / "d.mmr")
    assert np.array_equal(r.epoch_order(1, 0), r.epoch_order(1, 0))
    assert not np.array_equal(r.epoch_order(1, 0), r.epoch_order(1, 1))
    assert sorted(r.epoch_order(1, 0)) == list(range(16))


def test_labels_roundtrip(tmp_path):
    path = tmp_path / "l.lbl"
    labels = np.random.default_rng(2).integers(-1, 3, size=(4, 8, 8)).astype(np.int8)
    write_labels(path, labels)
    assert np.array_equal(read_labels(path), labels)


def test_labels_bad_magic(tmp_path):
    path = tmp_path / "bad.lbl"
    path.write_bytes(b"WRONG!!\0" + b"\0" * 16)
    with pytest.raises(FormatError, match=r"bad\.lbl: bad magic"):
        read_labels(path)


def test_segmentation_labels_match_images(tmp_path):
    img, lbl = tmp_path / "s.mmr", tmp_path / "s.lbl"
    generate_synthetic_segmentation(img, lbl, 6, 32, 32, ["B2", "B3", "B4"], 3)
    labels = read_labels(lbl)
    assert labels.shape == (6, 32, 32)
    assert set(np.unique(labels)) <= {0, 1}
    # roughly balanced by construction (threshold at the median)
    frac = (labels == 1).mean(axis=(1, 2))
    assert np.all((frac > 0.3) & (frac < 0.7))
