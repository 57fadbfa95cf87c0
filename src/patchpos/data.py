"""Binary raster dataset format plus synthetic data generation.

File layout (little-endian):
  magic   8 bytes  ``MMRAST1\\0``
  header  <IIIII   version, sample count, C, H, W
  tags    C x (<H length, utf-8 bytes)
  stats   C x (<d mean, <d std)
  payload count * C * H * W float32, row-major

Label files for segmentation share the idea:
  magic   8 bytes  ``MMLABL1\\0``
  header  <IIII    version, count, H, W
  payload count * H * W int8 (IGNORE_LABEL = -1 marks a pixel with no class)
"""
from __future__ import annotations

import operator
import os
import struct
from dataclasses import dataclass

import numpy as np

from .checkpoint import read_exact
from .views import RasterImage

RASTER_MAGIC = b"MMRAST1\0"
LABEL_MAGIC = b"MMLABL1\0"
FORMAT_VERSION = 1
IGNORE_LABEL = -1       # the label of a pixel that neither the loss nor the IoU counts

# Appendix band codes: 13 Sentinel-2 bands, 8 Sentinel-1 channels, DEM.
S2_BANDS = ["B1", "B2", "B3", "B4", "B5", "B6", "B7", "B8", "B8A", "B9", "B10", "B11", "B12"]
S1_BANDS = ["A-VV", "A-VH", "A-HH", "A-HV", "D-VV", "D-VH", "D-HH", "D-HV"]
DEM_BANDS = ["DEM"]
ALL_BANDS = S2_BANDS + S1_BANDS + DEM_BANDS


class FormatError(RuntimeError):
    pass


@dataclass
class DatasetHeader:
    count: int
    channels: int
    height: int
    width: int
    channel_tags: list[str]
    means: np.ndarray
    stds: np.ndarray


def write_dataset(path, samples: np.ndarray, channel_tags: list[str]):
    """Write (count, C, H, W) float32 samples with per-channel statistics."""
    samples = np.ascontiguousarray(samples, dtype="<f4")
    count, C, H, W = samples.shape
    if len(channel_tags) != C:
        raise ValueError(f"{len(channel_tags)} tags for {C} channels")
    finite = np.isfinite(samples).all(axis=(1, 2, 3))
    if not finite.all():
        raise ValueError(f"{path}: sample {int(np.argmin(finite))} contains non-finite values")
    means = samples.mean(axis=(0, 2, 3), dtype=np.float64) if count else np.zeros(C)
    stds = samples.std(axis=(0, 2, 3), dtype=np.float64) if count else np.ones(C)
    stds = np.maximum(stds, 1e-8)
    with open(path, "wb") as f:
        f.write(RASTER_MAGIC)
        f.write(struct.pack("<IIIII", FORMAT_VERSION, count, C, H, W))
        for tag in channel_tags:
            raw = tag.encode("utf-8")
            f.write(struct.pack("<H", len(raw)))
            f.write(raw)
        for m, s in zip(means, stds):
            f.write(struct.pack("<dd", m, s))
        f.write(samples.tobytes())


def read_header(f) -> DatasetHeader:
    magic = f.read(8)
    if magic != RASTER_MAGIC:
        raise FormatError(f"{f.name}: bad magic {magic!r}, expected {RASTER_MAGIC!r}")
    cut = f"{f.name}: truncated header"
    version, count, C, H, W = struct.unpack("<IIIII", read_exact(f, 20, FormatError, cut))
    if version != FORMAT_VERSION:
        raise FormatError(f"{f.name}: unsupported format version {version}")
    tags = []
    for _ in range(C):
        (n,) = struct.unpack("<H", read_exact(f, 2, FormatError, cut))
        tags.append(read_exact(f, n, FormatError, cut).decode("utf-8"))
    stats = np.frombuffer(read_exact(f, 16 * C, FormatError, cut), dtype="<f8").reshape(C, 2)
    return DatasetHeader(count, C, H, W, tags, stats[:, 0].copy(), stats[:, 1].copy())


class DatasetReader:
    """Reader yielding standardized samples.

    Nothing of the payload stays in the process between calls: ``sample``
    opens the file, reads the channels it asks for into a fresh array with
    positioned reads, and closes it again.
    """

    def __init__(self, path):
        self.path = path
        with open(path, "rb") as f:
            self.header = read_header(f)
            self._offset = f.tell()
            payload = os.fstat(f.fileno()).st_size - self._offset
        h = self.header
        if np.any(h.stds <= 0):
            raise FormatError(f"{path}: non-positive channel std in header")
        self._plane = 4 * h.height * h.width             # bytes of one channel
        expected = h.count * h.channels * self._plane
        if payload != expected:
            raise FormatError(f"{path}: payload holds {payload} bytes, expected {expected}")
        self._scale = (1.0 / h.stds).astype(np.float32)[:, None, None]
        self._shift = h.means.astype(np.float32)[:, None, None]

    def __len__(self):
        return self.header.count

    @property
    def channel_tags(self):
        return self.header.channel_tags

    def sample(self, i: int, channels=None, standardize: bool = True) -> RasterImage:
        """Sample ``i``, standardized unless ``standardize`` is False.

        ``channels``: indices of the channels to read, all by default, in any
        order and with repeats. Only those are read from the file (one read
        per run of consecutive indices) and standardized, and the image's
        tags follow them. This is the one finiteness check a sample gets.
        """
        h, i = self.header, operator.index(i)     # a Python int: byte offsets never overflow
        if not 0 <= i < h.count:
            raise IndexError(f"{self.path}: sample {i} out of range for {h.count} samples")
        chans = np.arange(h.channels) if channels is None else np.array(
            [operator.index(c) for c in channels], dtype=np.intp)
        if not np.all((chans >= 0) & (chans < h.channels)):
            raise IndexError(f"{self.path}: channels {channels!r} not in [0, {h.channels})")
        x = np.empty((len(chans), h.height, h.width), dtype="<f4")
        starts = np.flatnonzero(np.diff(chans, prepend=-2) != 1)    # runs of c, c+1, ...
        with open(self.path, "rb") as f:
            for a, b in zip(starts, [*starts[1:], len(chans)]):
                f.seek(self._offset + (i * h.channels + int(chans[a])) * self._plane)
                if f.readinto(x[a:b]) != (b - a) * self._plane:
                    raise FormatError(f"{self.path}: payload ends inside sample {i}; "
                                      f"the file was shortened after it was opened")
        x = x.astype(np.float32, copy=False)
        if standardize:
            x -= self._shift[chans]
            x *= self._scale[chans]
        if not np.all(np.isfinite(x)):
            raise ValueError(f"{self.path}: sample {i} contains non-finite values")
        return RasterImage(x, [h.channel_tags[c] for c in chans], check_finite=False)

    def epoch_order(self, seed: int, epoch: int) -> np.ndarray:
        rng = np.random.default_rng([seed, 0xE9, epoch])
        return rng.permutation(self.header.count)


# -- synthetic content -------------------------------------------------------

def _smooth_field(rng, h, w, sigma):
    from scipy.ndimage import gaussian_filter  # keeps scipy out of `import patchpos`
    f = gaussian_filter(rng.standard_normal((h, w)), sigma, mode="wrap")
    return (f / max(f.std(), 1e-8)).astype(np.float64)


def _add_shapes(rng, field, count=3, amplitude=2.0):
    h, w = field.shape
    ys, xs = np.mgrid[0:h, 0:w]
    for _ in range(count):
        kind = rng.integers(0, 2)
        cy, cx = rng.integers(0, h), rng.integers(0, w)
        ry = int(rng.integers(h // 10 + 1, h // 3 + 1))
        rx = int(rng.integers(w // 10 + 1, w // 3 + 1))
        amp = amplitude * (1 if rng.random() < 0.5 else -1)
        if kind == 0:
            mask = (np.abs(ys - cy) < ry) & (np.abs(xs - cx) < rx)
        else:
            mask = ((ys - cy) / ry) ** 2 + ((xs - cx) / rx) ** 2 < 1.0
        field = field + amp * mask
    return field


def _synth_sample(rng, channel_tags, h, w, easy: bool) -> np.ndarray:
    """One multimodal sample: shared smooth latents mixed per modality."""
    l1 = _add_shapes(rng, _smooth_field(rng, h, w, sigma=max(h, w) / 12), count=3)
    l2 = _add_shapes(rng, _smooth_field(rng, h, w, sigma=max(h, w) / 8), count=2)
    l3 = _smooth_field(rng, h, w, sigma=max(h, w) / 5)
    ramp_y = np.linspace(-1.0, 1.0, h)[:, None] * np.ones((1, w))
    ramp_x = np.ones((h, 1)) * np.linspace(-1.0, 1.0, w)[None, :]
    out = np.empty((len(channel_tags), h, w), dtype=np.float32)
    for c, tag in enumerate(channel_tags):
        if tag in DEM_BANDS:
            base = 3.0 * l3 + 0.5 * l1
        elif tag in S1_BANDS:
            i = S1_BANDS.index(tag)
            mix = np.tanh(l2 + 0.3 * i * l3)
            base = mix + 0.15 * rng.standard_normal((h, w))  # speckle-like noise
        else:
            i = S2_BANDS.index(tag) if tag in S2_BANDS else hash(tag) % 13
            a = np.cos(i * 0.7)
            b = np.sin(i * 0.7)
            base = a * l1 + b * l2 + 0.05 * rng.standard_normal((h, w))
        if easy:
            # alternate the two axes across channels so that, with at least
            # two channels, both coordinates are recoverable from content
            base = base + 3.0 * (ramp_y if c % 2 == 0 else ramp_x)
        out[c] = base.astype(np.float32)
    return out


def generate_synthetic_dataset(path, count: int, height: int, width: int,
                               channel_tags: list[str], seed: int,
                               mode: str = "default") -> None:
    """Deterministically generate a raster dataset file.

    ``mode='easy'`` adds strong coordinate ramps to every channel so patch
    position is directly recoverable from content.
    """
    unknown = [t for t in channel_tags if t not in ALL_BANDS]
    if unknown:
        raise ValueError(f"unknown band codes {unknown}; valid: {ALL_BANDS}")
    if mode not in ("default", "easy"):
        raise ValueError(f"unknown mode '{mode}'")
    rng = np.random.default_rng([seed, 0xDA7A])
    samples = np.empty((count, len(channel_tags), height, width), dtype=np.float32)
    for i in range(count):
        samples[i] = _synth_sample(rng, channel_tags, height, width, easy=(mode == "easy"))
    write_dataset(path, samples, channel_tags)


# -- segmentation labels -----------------------------------------------------

def write_labels(path, labels: np.ndarray):
    labels = np.ascontiguousarray(labels, dtype=np.int8)
    count, H, W = labels.shape
    with open(path, "wb") as f:
        f.write(LABEL_MAGIC)
        f.write(struct.pack("<IIII", FORMAT_VERSION, count, H, W))
        f.write(labels.tobytes())


def read_labels(path) -> np.ndarray:
    with open(path, "rb") as f:
        magic = f.read(8)
        if magic != LABEL_MAGIC:
            raise FormatError(f"{path}: bad magic {magic!r}, expected {LABEL_MAGIC!r}")
        version, count, H, W = struct.unpack(
            "<IIII", read_exact(f, 16, FormatError, f"{path}: truncated header"))
        if version != FORMAT_VERSION:
            raise FormatError(f"{path}: unsupported format version {version}")
        want = count * H * W
        if os.fstat(f.fileno()).st_size - f.tell() == want:
            labels = np.empty((count, H, W), dtype=np.int8)
            if f.readinto(labels) == want:
                return labels
    raise FormatError(f"{path}: label payload is not the {want} bytes its header declares")


def generate_synthetic_segmentation(image_path, label_path, count: int, height: int,
                                    width: int, channel_tags: list[str], seed: int,
                                    mode: str = "default") -> None:
    """Images plus two-class masks: class 1 where a smoothed mix of the first
    channels exceeds its per-sample median (a toy flooded/dry split that is a
    deterministic function of the image content)."""
    from scipy.ndimage import gaussian_filter

    generate_synthetic_dataset(image_path, count, height, width, channel_tags, seed, mode=mode)
    reader = DatasetReader(image_path)
    labels = np.empty((count, height, width), dtype=np.int8)
    k = min(3, len(channel_tags))
    for i in range(count):
        x = reader.sample(i, standardize=False).data
        field = gaussian_filter(x[:k].mean(axis=0), max(height, width) / 16)
        labels[i] = (field > np.median(field)).astype(np.int8)
    write_labels(label_path, labels)
