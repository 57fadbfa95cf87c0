"""Light upsampling decoder, finetuning, and IoU metrics."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autodiff import Tensor, conv2d, conv_transpose2d, cross_entropy, no_grad
from .checkpoint import (CheckpointError, check_bands, load_checkpoint, load_params,
                         save_checkpoint)
from .config import ConfigFileError, FinetuneConfig, PretrainConfig
from .data import IGNORE_LABEL, DatasetReader, read_labels
from .encoder import Backbone
from .optim import AdamW, cosine_lr
from .views import patchify


def decoder_upsamplings(patch: int) -> int:
    """Doublings that take the token grid to pixels: log2 of the patch size,
    which must be a power of two <= 16 (the decoder has four layers)."""
    ups = int(patch).bit_length() - 1
    if patch < 1 or patch != 2 ** ups or ups > 4:
        raise ConfigFileError(f"config key 'patch_size': the decoder needs a power of two "
                              f"<= 16, got {patch}")
    return ups


class LightDecoder:
    """Four layers plus a final 1x1 classification convolution.

    Each "up" layer is a 2x2 transposed convolution at stride 2, computed as
    one matmul plus a pixel shuffle (``conv_transpose2d`` accepts only
    kernel size == stride). When the patch size needs fewer doublings, the
    remaining layers are 3x3 "same" convolutions. Each layer adds its bias
    and applies GELU inside its convolution's tape node, and the head adds
    its bias inside its own, so no pre-activation map is kept for backward."""

    def __init__(self, rng, width: int, patch: int, classes: int, dtype=np.float32):
        ups = decoder_upsamplings(patch)
        widths = [max(width // 2, 1), max(width // 4, 1), max(width // 8, 1), max(width // 8, 1)]
        self.layers: list[tuple[str, Tensor, Tensor]] = []
        c_in = width
        for i in range(4):
            c_out = widths[i]
            if i < ups:
                k = (rng.standard_normal((c_in, c_out, 2, 2)) * (2.0 / c_in) ** 0.5)
                self.layers.append(("up", Tensor(k.astype(dtype), requires_grad=True),
                                    Tensor(np.zeros(c_out, dtype=dtype), requires_grad=True)))
            else:
                k = (rng.standard_normal((c_out, c_in, 3, 3)) * (2.0 / (9 * c_in)) ** 0.5)
                self.layers.append(("same", Tensor(k.astype(dtype), requires_grad=True),
                                    Tensor(np.zeros(c_out, dtype=dtype), requires_grad=True)))
            c_in = c_out
        k = rng.standard_normal((classes, c_in, 1, 1)) * (2.0 / c_in) ** 0.5
        self.final = (Tensor(k.astype(dtype), requires_grad=True),
                      Tensor(np.zeros(classes, dtype=dtype), requires_grad=True))
        self.classes = classes
        self.patch = patch

    def params(self, prefix):
        out = {}
        for i, (_, w, b) in enumerate(self.layers):
            out[f"{prefix}.layer{i}.w"] = w
            out[f"{prefix}.layer{i}.b"] = b
        out[f"{prefix}.final.w"] = self.final[0]
        out[f"{prefix}.final.b"] = self.final[1]
        return out

    def __call__(self, grid: Tensor) -> Tensor:
        """(B, d, h, w) token grid -> (B, classes, h*patch, w*patch) logits."""
        x = grid
        for kind, w, b in self.layers:
            if kind == "up":
                x = conv_transpose2d(x, w, stride=2, bias=b, gelu=True)
            else:
                x = conv2d(x, w, stride=1, padding=1, bias=b, gelu=True)
        w, b = self.final
        return conv2d(x, w, stride=1, padding=0, bias=b)


class SegmentationModel:
    """Grouped embedding + encoder (no group sampling) + light decoder."""

    def __init__(self, cfg: PretrainConfig, channel_tags: list[str], classes: int,
                 same_group_masking: bool = False, seed: int = 0, dtype=np.float32):
        self.cfg = cfg
        self.channel_tags = list(channel_tags)
        self.classes = classes
        self.same_group_masking = same_group_masking
        rng = np.random.default_rng([seed, 0x5E6])
        self.backbone = Backbone(rng, cfg, channel_tags, dtype=dtype)
        self.decoder = LightDecoder(rng, cfg.width, cfg.patch_size, classes, dtype=dtype)

    def params(self):
        return {**self.backbone.params(), **self.decoder.params("decoder")}

    def forward(self, images: np.ndarray) -> Tensor:
        """(B, C, H, W) standardized images whose C channels are the group
        setting's ``channels`` -> (B, classes, H, W) logits."""
        cfg = self.cfg
        B, _, H, W = images.shape
        gh, gw = H // cfg.patch_size, W // cfg.patch_size
        patches = patchify(images, cfg.patch_size)          # (B, N, C, P, P)
        tokens = self.backbone.embed(patches, gh, gw)        # (B, G*N, d)
        z = self.backbone.encoder(tokens, self.same_group_masking)
        g = self.backbone.setting.num_groups
        n = gh * gw
        z = z.reshape(B, g, n, cfg.width).mean(axis=1)       # all groups kept, averaged
        grid = z.reshape(B, gh, gw, cfg.width).transpose((0, 3, 1, 2))
        return self.decoder(grid)


def pixel_cross_entropy(logits: Tensor, labels: np.ndarray) -> Tensor:
    """Mean cross-entropy over the pixels not labeled IGNORE_LABEL, on the
    (B, K, H, W) logits as they are: an ignored pixel weighs 0."""
    valid = labels != IGNORE_LABEL
    n_valid = int(valid.sum())
    if n_valid == 0:
        return Tensor(np.zeros((), dtype=logits.dtype))
    weights = None if n_valid == valid.size else valid
    targets = np.where(valid, labels, 0).astype(np.int64)
    return cross_entropy(logits, targets, axis=1, weights=weights).sum() * (1.0 / n_valid)


# -- metrics ----------------------------------------------------------------

def check_labels(labels: np.ndarray, classes: int, path, reader: DatasetReader) -> None:
    """The file ``path`` holds one label map per image of ``reader``, of the
    image's size, and every label is IGNORE_LABEL or a class in
    [0, ``classes``); otherwise ConfigFileError names the files, or the
    first label that is neither."""
    h = reader.header
    if labels.shape != (h.count, h.height, h.width):
        n, lh, lw = labels.shape
        raise ConfigFileError(f"labels file '{path}' holds {n} label maps of {lh}x{lw}, but "
                              f"'{reader.path}' holds {h.count} images of {h.height}x{h.width}")
    bad = (labels < IGNORE_LABEL) | (labels >= classes)
    if bad.any():
        raise ConfigFileError(f"config key 'classes' ({classes}): labels file '{path}' holds "
                              f"label {int(labels[bad][0])}, which is neither {IGNORE_LABEL} "
                              f"(ignore) nor a class in [0, {classes})")


def check_image_size(reader: DatasetReader, patch: int) -> None:
    """The images of ``reader`` split into whole ``patch`` x ``patch``
    patches; otherwise ConfigFileError names ``patch_size`` and the file."""
    h = reader.header
    if h.height % patch or h.width % patch:
        raise ConfigFileError(f"config key 'patch_size': the {h.height}x{h.width} images of "
                              f"'{reader.path}' are not divisible by patch size {patch}")


def iou_miou(pred: np.ndarray, truth: np.ndarray, classes: int
             ) -> tuple[np.ndarray, float | None]:
    """Per-class IoU over the pixels not labeled IGNORE_LABEL (nan where a
    class is absent from the truth) and the unweighted mean over the classes
    present in the truth, None when there is none."""
    if pred.shape != truth.shape:
        raise ValueError(f"shape mismatch {pred.shape} vs {truth.shape}")
    keep = truth != IGNORE_LABEL
    idx = truth[keep].astype(np.int64) * classes + pred[keep].astype(np.int64)
    counts = np.bincount(idx, minlength=classes ** 2).reshape(classes, classes)
    tp = np.diag(counts).astype(np.float64)
    fn = counts.sum(axis=1) - tp
    fp = counts.sum(axis=0) - tp
    denom = tp + fp + fn
    present = counts.sum(axis=1) > 0
    with np.errstate(invalid="ignore", divide="ignore"):
        iou = np.where(denom > 0, tp / np.maximum(denom, 1), np.nan)
    iou = np.where(present, iou, np.nan)
    if not present.any():
        return iou, None
    return iou, float(np.nanmean(iou[present]))


# -- finetuning --------------------------------------------------------------

@dataclass
class FinetuneResult:
    miou: float | None
    per_class_iou: np.ndarray
    train_miou: float | None
    steps_to_threshold: int | None
    model: SegmentationModel


def read_images(reader: DatasetReader, ids, model: SegmentationModel) -> np.ndarray:
    """Samples ``ids``, standardized, in the channels ``model`` reads."""
    return np.stack([reader.sample(int(i), model.backbone.setting.channels).data for i in ids])


def predict(model: SegmentationModel, images: np.ndarray, batch: int = 8) -> np.ndarray:
    """(N, H, W) argmax class per pixel, ``batch`` images per forward pass,
    with no tape recorded."""
    with no_grad():
        return np.concatenate([np.argmax(model.forward(images[i:i + batch]).data, axis=1)
                               for i in range(0, len(images), batch)])


def evaluate(model: SegmentationModel, images: np.ndarray, labels: np.ndarray,
             batch: int = 8):
    return iou_miou(predict(model, images, batch), labels, model.classes)


def _stored_config(meta: dict, path) -> PretrainConfig:
    """The pretraining config that the checkpoint at ``path`` was written
    under, checked like a config file's."""
    if not isinstance(meta.get("config"), dict):
        raise CheckpointError(f"'{path}' stores no model config")
    return PretrainConfig.from_dict(meta["config"], path)


def finetune(cfg: FinetuneConfig, pretrain_cfg: PretrainConfig | None = None,
             seed: int | None = None, miou_threshold: float | None = None,
             log_stream=None) -> FinetuneResult:
    """End-to-end finetuning of one run; reports held-out IoU/mIoU."""
    cfg.require_paths("dataset", "labels")
    seed = cfg.seed if seed is None else seed
    ckpt_arrays, ckpt_meta = (None, None)
    if cfg.checkpoint:
        ckpt_arrays, ckpt_meta = load_checkpoint(cfg.checkpoint)
        if pretrain_cfg is None:
            pretrain_cfg = _stored_config(ckpt_meta, cfg.checkpoint)
    if pretrain_cfg is None:
        raise ConfigFileError("config key 'checkpoint': a pretraining checkpoint is required, "
                              "got ''; random initialization needs finetune(..., pretrain_cfg=...)")
    decoder_upsamplings(pretrain_cfg.patch_size)
    reader = DatasetReader(cfg.dataset)
    check_image_size(reader, pretrain_cfg.patch_size)
    if ckpt_meta is not None:
        check_bands(ckpt_meta, pretrain_cfg.group_setting, reader.channel_tags, cfg.checkpoint,
                    f"dataset '{cfg.dataset}'")
    labels = read_labels(cfg.labels)
    check_labels(labels, cfg.classes, cfg.labels, reader)

    model = SegmentationModel(pretrain_cfg, reader.channel_tags, cfg.classes,
                              same_group_masking=cfg.same_group_masking, seed=seed)
    if ckpt_arrays is not None:     # the decoder is new, the pretraining heads unused
        load_params(model.backbone.params(), ckpt_arrays, cfg.checkpoint)

    rng = np.random.default_rng([seed, 0xF1])
    n = len(reader)
    order = rng.permutation(n)
    n_val = int(round(cfg.val_fraction * n))
    val_ids, train_ids = order[:n_val], order[n_val:]
    if train_ids.size == 0:
        raise ConfigFileError(f"config key 'val_fraction': {cfg.val_fraction} leaves none of "
                              f"the {n} samples for training")
    if cfg.batch_size > train_ids.size:
        raise ConfigFileError(f"config key 'batch_size': {cfg.batch_size} is larger than the "
                              f"{train_ids.size} training samples")
    train_x = read_images(reader, train_ids, model)
    train_y = labels[train_ids]
    val_x = read_images(reader, val_ids, model) if n_val else None
    val_y = labels[val_ids] if n_val else None

    opt = AdamW(model.params(), lr=cfg.lr, weight_decay=cfg.weight_decay)
    warmup = int(round(cfg.warmup_frac * cfg.steps))
    steps_to_threshold = None
    for step in range(cfg.steps):
        ids = rng.integers(0, len(train_x), size=cfg.batch_size)
        logits = model.forward(train_x[ids])
        loss = pixel_cross_entropy(logits, train_y[ids])
        opt.zero_grad()
        loss.backward()
        opt.step(lr=cosine_lr(step, cfg.steps, cfg.lr, warmup))
        if (step + 1) % cfg.eval_every == 0:
            line = f"step={step + 1} train_loss={float(loss.data):.6f}"
            if val_x is not None:
                _, vm = evaluate(model, val_x, val_y)
                line += f" val_miou={'none' if vm is None else f'{vm:.4f}'}"
                if (miou_threshold is not None and steps_to_threshold is None
                        and vm is not None and vm >= miou_threshold):
                    steps_to_threshold = step + 1
            if log_stream is not None:
                print(line, file=log_stream)

    _, train_miou = evaluate(model, train_x, train_y)
    if val_x is not None:
        per_class, miou = evaluate(model, val_x, val_y)
    else:
        per_class, miou = evaluate(model, train_x, train_y)
    return FinetuneResult(miou, per_class, train_miou, steps_to_threshold, model)


def finetune_runs(cfg: FinetuneConfig, log_stream=None):
    """``cfg.runs`` finetuning runs with shifted seeds; returns results and mean mIoU."""
    results = [finetune(cfg, seed=cfg.seed + r, log_stream=log_stream) for r in range(cfg.runs)]
    mious = [r.miou for r in results if r.miou is not None]
    return results, (float(np.mean(mious)) if mious else None)


def save_finetuned(path, model: SegmentationModel, cfg: FinetuneConfig):
    arrays = {f"param/{k}": v.data.copy() for k, v in model.params().items()}
    meta = {"config": model.cfg.to_dict(), "config_hash": model.cfg.hash(),
            "finetune": cfg.to_dict(), "classes": model.classes,
            "same_group_masking": model.same_group_masking, "channel_tags": model.channel_tags}
    save_checkpoint(path, arrays, meta)


def load_finetuned(path, channel_tags: list[str]) -> SegmentationModel:
    arrays, meta = load_checkpoint(path)
    pcfg = _stored_config(meta, path)
    check_bands(meta, pcfg.group_setting, channel_tags, path,
                f"a dataset with channels {list(channel_tags)}")
    model = SegmentationModel(pcfg, channel_tags, int(meta["classes"]),
                              same_group_masking=bool(meta["same_group_masking"]))
    load_params(model.params(), arrays, path)
    return model


def write_pgm(path, mask: np.ndarray, classes: int):
    """Dump a predicted mask as a binary PGM for quick visual inspection."""
    scale = 255 // max(classes - 1, 1)
    img = (mask.astype(np.int32) * scale).clip(0, 255).astype(np.uint8)
    with open(path, "wb") as f:
        f.write(f"P5\n{img.shape[1]} {img.shape[0]}\n255\n".encode())
        f.write(img.tobytes())
