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
  payload count * H * W int8 (-1 = ignore)
"""
from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from .views import RasterImage

RASTER_MAGIC = b"MMRAST1\0"
LABEL_MAGIC = b"MMLABL1\0"
FORMAT_VERSION = 1

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


def _read_exact(f, n: int) -> bytes:
    """Exactly ``n`` header bytes from ``f``, or FormatError naming the file."""
    raw = f.read(n)
    if len(raw) != n:
        raise FormatError(f"{getattr(f, 'name', f)}: truncated header "
                          f"(needed {n} bytes at offset {f.tell() - len(raw)}, got {len(raw)})")
    return raw


def read_header(f) -> DatasetHeader:
    magic = f.read(8)
    if magic != RASTER_MAGIC:
        raise FormatError(f"bad magic {magic!r}, expected {RASTER_MAGIC!r}")
    version, count, C, H, W = struct.unpack("<IIIII", _read_exact(f, 20))
    if version != FORMAT_VERSION:
        raise FormatError(f"unsupported format version {version}")
    tags = []
    for _ in range(C):
        (n,) = struct.unpack("<H", _read_exact(f, 2))
        tags.append(_read_exact(f, n).decode("utf-8"))
    stats = np.frombuffer(_read_exact(f, 16 * C), dtype="<f8").reshape(C, 2)
    return DatasetHeader(count, C, H, W, tags, stats[:, 0].copy(), stats[:, 1].copy())


class DatasetReader:
    """Memory-mapped reader yielding standardized samples."""

    def __init__(self, path):
        self.path = path
        with open(path, "rb") as f:
            self.header = read_header(f)
            offset = f.tell()
        h = self.header
        if np.any(h.stds <= 0):
            raise FormatError("non-positive channel std in header")
        expected = h.count * h.channels * h.height * h.width
        self._raw = np.memmap(path, dtype="<f4", mode="r", offset=offset)
        if self._raw.size != expected:
            raise FormatError(f"payload holds {self._raw.size} floats, expected {expected}")
        self._raw = self._raw.reshape(h.count, h.channels, h.height, h.width)
        self._scale = (1.0 / h.stds).astype(np.float32)[:, None, None]
        self._shift = h.means.astype(np.float32)[:, None, None]

    def __len__(self):
        return self.header.count

    @property
    def channel_tags(self):
        return self.header.channel_tags

    def sample(self, i: int, channels=None, standardize: bool = True) -> RasterImage:
        """Sample ``i``, standardized unless ``standardize`` is False.

        ``channels``: indices of the channels to read, all by default. Only
        those are sliced out of the file and standardized, and the image's
        tags follow them. This is the one finiteness check a sample gets.
        """
        tags = self.header.channel_tags
        if channels is None or list(channels) == list(range(len(tags))):
            x = np.asarray(self._raw[i], dtype=np.float32)
            shift, scale = self._shift, self._scale
        else:
            x = np.asarray(self._raw[i, channels], dtype=np.float32)
            shift, scale = self._shift[channels], self._scale[channels]
            tags = [tags[c] for c in channels]
        if standardize:
            x = (x - shift) * scale
        return RasterImage(x, list(tags))

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
            raise FormatError(f"bad magic {magic!r}, expected {LABEL_MAGIC!r}")
        version, count, H, W = struct.unpack("<IIII", _read_exact(f, 16))
        if version != FORMAT_VERSION:
            raise FormatError(f"unsupported format version {version}")
        payload = np.frombuffer(f.read(), dtype=np.int8)
    if payload.size != count * H * W:
        raise FormatError("truncated label payload")
    return payload.reshape(count, H, W).copy()


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
