"""Binary dataset/label formats and the synthetic generator."""
import os
import subprocess
import sys

import numpy as np
import pytest

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
    with pytest.raises(FormatError, match="magic"):
        DatasetReader(path)


def test_truncated_payload_raises(tmp_path):
    path = tmp_path / "trunc.mmr"
    write_dataset(path, np.zeros((2, 1, 4, 4), dtype=np.float32), ["B2"])
    data = path.read_bytes()
    path.write_bytes(data[:-8])
    with pytest.raises(FormatError, match="payload"):
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
    with pytest.raises(FormatError):
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
