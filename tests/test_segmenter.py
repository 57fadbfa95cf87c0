"""Decoder geometry, pixel loss, IoU metrics, and finetune plumbing."""
import io
import re

import numpy as np
import pytest

from patchpos import segmenter
from patchpos.autodiff import Tensor, conv_transpose2d, no_grad
from patchpos.checkpoint import CheckpointError, load_checkpoint, save_checkpoint
from patchpos.config import ConfigFileError, FinetuneConfig, PretrainConfig
from patchpos.data import (ALL_BANDS, DatasetReader, generate_synthetic_segmentation,
                           read_labels, write_labels)
from patchpos.model import PretrainModel
from patchpos.optim import AdamW
from patchpos.train import save_run_checkpoint
from patchpos.segmenter import (LightDecoder, SegmentationModel,
                                evaluate, finetune, iou_miou, load_finetuned,
                                pixel_cross_entropy, save_finetuned, write_pgm)

from reference import cross_entropy_from_logits


def test_conv_transpose_upsamples_ones():
    # 1x1 input, 2x2 kernel of ones, stride 2 -> each input paints a 2x2 block.
    x = Tensor(np.ones((1, 1, 1, 1), dtype=np.float32))
    k = Tensor(np.ones((1, 1, 2, 2), dtype=np.float32))
    out = conv_transpose2d(x, k, stride=2).data
    assert out.shape == (1, 1, 2, 2)
    assert np.allclose(out, 1.0)
    x2 = Tensor(np.arange(4, dtype=np.float32).reshape(1, 1, 2, 2))
    out2 = conv_transpose2d(x2, k, stride=2).data
    assert out2.shape == (1, 1, 4, 4)
    assert np.allclose(out2[0, 0, :2, :2], 0.0)
    assert np.allclose(out2[0, 0, 2:, 2:], 3.0)


def test_decoder_output_geometry():
    rng = np.random.default_rng(0)
    for patch in [4, 8, 16]:
        dec = LightDecoder(rng, width=16, patch=patch, classes=3)
        grid = Tensor(np.random.default_rng(1).standard_normal((2, 16, 4, 4)).astype(np.float32))
        out = dec(grid)
        assert out.shape == (2, 3, 4 * patch, 4 * patch)


def test_decoder_rejects_bad_patch():
    with pytest.raises(ValueError):
        LightDecoder(np.random.default_rng(0), width=16, patch=6, classes=2)
    with pytest.raises(ValueError):
        LightDecoder(np.random.default_rng(0), width=16, patch=32, classes=2)


def test_segmentation_model_forward_shape():
    cfg = PretrainConfig(depth=1, width=16, heads=2, group_setting="all")
    model = SegmentationModel(cfg, ["B2", "B3"], classes=2)
    x = np.random.default_rng(2).standard_normal((3, 2, 32, 32)).astype(np.float32)
    out = model.forward(x)
    assert out.shape == (3, 2, 32, 32)
    with pytest.raises(ValueError):
        model.forward(np.zeros((1, 2, 30, 30), dtype=np.float32))


def test_forward_under_no_grad_is_bit_identical_and_records_no_tape(monkeypatch):
    cfg = PretrainConfig(depth=1, width=16, heads=2, group_setting="all")
    model = SegmentationModel(cfg, ["B2", "B3"], classes=3)
    x = np.random.default_rng(3).standard_normal((2, 2, 32, 32)).astype(np.float32)
    made = []
    init = Tensor.__init__

    def recording_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        made.append(self)

    monkeypatch.setattr(Tensor, "__init__", recording_init)
    with no_grad():
        quiet = model.forward(x)
    assert len(made) > 20
    assert all(t._parents == () and t._backward is None for t in made)
    recorded = model.forward(x)
    assert quiet.data.tobytes() == recorded.data.tobytes()
    assert not quiet.requires_grad and len(tape_ops(recorded)) > 3


def test_pixel_cross_entropy_ignores_label():
    logits = Tensor(np.zeros((1, 2, 2, 2), dtype=np.float32))
    labels = np.array([[[0, 1], [-1, -1]]])
    loss = pixel_cross_entropy(logits, labels)
    assert np.isclose(float(loss.data), np.log(2.0), atol=1e-6)  # uniform over 2
    all_ignored = pixel_cross_entropy(logits, np.full((1, 2, 2), -1))
    assert float(all_ignored.data) == 0.0


def tape_ops(out):
    ops, stack, seen = set(), [out], set()
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen.add(id(node))
            ops.add(node._op)
            stack.extend(node._parents)
    return ops


def test_pixel_cross_entropy_without_ignored_pixels_skips_gather():
    rng = np.random.default_rng(4)
    x = rng.standard_normal((2, 3, 4, 5)).astype(np.float32)
    labels = rng.integers(0, 3, size=(2, 4, 5))
    logits = Tensor(x, requires_grad=True)
    loss = pixel_cross_entropy(logits, labels)
    assert tape_ops(loss) == {"leaf", "cross_entropy", "sum", "mul"}    # before backward frees it
    loss.backward()
    # bit for bit the composite on the pixel rows, with every row selected
    ref_logits = Tensor(x, requires_grad=True)
    flat = ref_logits.transpose((0, 2, 3, 1)).reshape(-1, 3)
    ref = cross_entropy_from_logits(flat[np.arange(flat.shape[0])], labels.reshape(-1)).mean()
    ref.backward()
    assert loss.data.tobytes() == ref.data.tobytes()
    assert logits.grad.tobytes() == ref_logits.grad.tobytes()


def test_pixel_cross_entropy_weighs_ignored_pixels_zero():
    rng = np.random.default_rng(5)
    x = rng.standard_normal((2, 3, 4, 5)).astype(np.float32)
    labels = rng.integers(-1, 3, size=(2, 4, 5))
    valid = labels != -1
    assert 0 < valid.sum() < valid.size
    logits = Tensor(x, requires_grad=True)
    loss = pixel_cross_entropy(logits, labels)
    loss.backward()
    flat = Tensor(x).transpose((0, 2, 3, 1))[valid]
    want = cross_entropy_from_logits(flat, labels[valid]).mean()
    assert np.isclose(float(loss.data), float(want.data), rtol=1e-6, atol=0)
    assert np.all(logits.grad.transpose(0, 2, 3, 1)[~valid] == 0.0)
    assert np.all(logits.grad.transpose(0, 2, 3, 1)[valid].any(axis=-1))


def test_iou_hand_cases():
    # pred covers half the truth region plus nothing else
    truth = np.array([[0, 0, 1, 1]])
    pred = np.array([[0, 1, 1, 0]])
    iou, miou = iou_miou(pred, truth, classes=2)
    # class 0: inter 1, union 3; class 1: inter 1, union 3
    assert np.allclose(iou, [1 / 3, 1 / 3])
    assert np.isclose(miou, 1 / 3)
    perfect = iou_miou(truth, truth, classes=2)
    assert np.allclose(perfect[0], [1.0, 1.0]) and perfect[1] == 1.0
    disjoint = iou_miou(1 - truth, truth, classes=2)
    assert np.allclose(disjoint[0], [0.0, 0.0]) and disjoint[1] == 0.0


def test_iou_absent_class_is_nan():
    truth = np.zeros((2, 2), dtype=np.int64)
    pred = np.zeros((2, 2), dtype=np.int64)
    iou, miou = iou_miou(pred, truth, classes=3)
    assert np.isclose(iou[0], 1.0)
    assert np.isnan(iou[1]) and np.isnan(iou[2])
    assert np.isclose(miou, 1.0)  # mean over present classes only


def test_iou_all_ignored_returns_none():
    truth = np.full((2, 2), -1)
    iou, miou = iou_miou(np.zeros((2, 2), dtype=np.int64), truth, classes=2)
    assert miou is None
    assert np.all(np.isnan(iou))


def test_iou_excludes_ignored_pixels():
    pred, truth = np.array([0, 1, 1, 1]), np.array([0, 0, 1, -1])
    iou, miou = iou_miou(pred, truth, classes=2)
    # the last pixel is ignored: each class has 1 hit in a union of 2
    assert np.array_equal(iou, [0.5, 0.5]) and miou == 0.5
    assert np.array_equal(iou, iou_miou(pred[:3], truth[:3], classes=2)[0])
    with pytest.raises(ValueError, match="shape mismatch"):
        iou_miou(np.zeros(2, dtype=np.int64), np.zeros(3, dtype=np.int64), classes=2)


def test_finetune_end_to_end(tmp_path):
    img, lbl = tmp_path / "s.mmr", tmp_path / "s.lbl"
    generate_synthetic_segmentation(img, lbl, 8, 32, 32, ["B2", "B3"], 0)
    pcfg = PretrainConfig(depth=1, width=16, heads=2, h_ref=32, h_q=16)
    fcfg = FinetuneConfig(dataset=str(img), labels=str(lbl), steps=3,
                          batch_size=4, eval_every=2)
    res = finetune(fcfg, pretrain_cfg=pcfg, seed=0)
    assert res.miou is not None and 0.0 <= res.miou <= 1.0
    assert res.per_class_iou.shape == (2,)

    # save/load round-trip keeps predictions identical
    ckpt = tmp_path / "ft.ckpt"
    save_finetuned(ckpt, res.model, fcfg)
    loaded = load_finetuned(ckpt, ["B2", "B3"])
    x = np.random.default_rng(3).standard_normal((2, 2, 32, 32)).astype(np.float32)
    assert np.array_equal(res.model.forward(x).data, loaded.forward(x).data)


def test_finetune_logs_val_miou_without_threshold(tmp_path):
    img, lbl = tmp_path / "s.mmr", tmp_path / "s.lbl"
    generate_synthetic_segmentation(img, lbl, 8, 32, 32, ["B2"], 0)
    pcfg = PretrainConfig(depth=1, width=16, heads=2)
    fcfg = FinetuneConfig(dataset=str(img), labels=str(lbl), steps=4, batch_size=4,
                          eval_every=2, val_fraction=0.25)
    out = io.StringIO()
    res = finetune(fcfg, pretrain_cfg=pcfg, seed=0, log_stream=out)
    lines = out.getvalue().splitlines()
    assert [line.split()[0] for line in lines] == ["step=2", "step=4"]
    assert all(re.fullmatch(r"step=\d+ train_loss=\S+ val_miou=(none|\d\.\d{4})", line)
               for line in lines)
    assert res.steps_to_threshold is None

    no_split = FinetuneConfig(**{**fcfg.to_dict(), "val_fraction": 0.0})
    out = io.StringIO()
    finetune(no_split, pretrain_cfg=pcfg, seed=0, log_stream=out)
    assert "val_miou=" not in out.getvalue()


def test_finetune_deterministic(tmp_path):
    img, lbl = tmp_path / "s.mmr", tmp_path / "s.lbl"
    generate_synthetic_segmentation(img, lbl, 8, 32, 32, ["B2"], 1)
    pcfg = PretrainConfig(depth=1, width=16, heads=2)
    fcfg = FinetuneConfig(dataset=str(img), labels=str(lbl), steps=2, batch_size=4)
    a = finetune(fcfg, pretrain_cfg=pcfg, seed=5)
    b = finetune(fcfg, pretrain_cfg=pcfg, seed=5)
    assert a.miou == b.miou


def test_finetune_needs_model_source(tmp_path):
    img, lbl = tmp_path / "s.mmr", tmp_path / "s.lbl"
    generate_synthetic_segmentation(img, lbl, 4, 32, 32, ["B2"], 0)
    fcfg = FinetuneConfig(dataset=str(img), labels=str(lbl), steps=1)
    with pytest.raises(ConfigFileError, match=re.escape(
            "config key 'checkpoint': a pretraining checkpoint is required, got ''; random "
            "initialization needs finetune(..., pretrain_cfg=...)")):
        finetune(fcfg)


def test_finetune_checks_the_image_size_before_training(tmp_path, monkeypatch):
    img, lbl = tmp_path / "s.mmr", tmp_path / "s.lbl"
    generate_synthetic_segmentation(img, lbl, 4, 60, 60, ["B2"], 0)
    monkeypatch.setattr(segmenter, "SegmentationModel", None)     # never reached
    fcfg = FinetuneConfig(dataset=str(img), labels=str(lbl), steps=1, batch_size=2)
    with pytest.raises(ConfigFileError, match=re.escape(
            f"config key 'patch_size': the 60x60 images of '{img}' are not divisible by "
            f"patch size 8")):
        finetune(fcfg, pretrain_cfg=PretrainConfig(depth=1, width=16, heads=2))


@pytest.mark.parametrize("patch", [6, 32])
def test_finetune_rejects_decoder_patch_before_reading_data(tmp_path, patch):
    # the data files do not exist: the patch size must fail first
    fcfg = FinetuneConfig(dataset=str(tmp_path / "missing.mmr"),
                          labels=str(tmp_path / "missing.lbl"), steps=1)
    pcfg = PretrainConfig(depth=1, width=16, heads=2, h_ref=96, h_q=96, patch_size=patch)
    with pytest.raises(ConfigFileError, match="patch_size"):
        finetune(fcfg, pretrain_cfg=pcfg)


def pretraining_checkpoint(path, pcfg, tags):
    model = PretrainModel(pcfg, tags)
    save_run_checkpoint(path, model, AdamW(model.params(), lr=1e-3), 0, 0)
    return model


def test_finetune_loads_every_backbone_parameter(tmp_path):
    img, lbl = tmp_path / "s.mmr", tmp_path / "s.lbl"
    generate_synthetic_segmentation(img, lbl, 4, 32, 32, ["B2", "B3"], 0)
    pcfg = PretrainConfig(depth=1, width=16, heads=2, h_ref=32, h_q=16, group_setting="B2|B3")
    pre = pretraining_checkpoint(tmp_path / "pre.ckpt", pcfg, ["B2", "B3"])
    fcfg = FinetuneConfig(dataset=str(img), labels=str(lbl), checkpoint=str(tmp_path / "pre.ckpt"),
                          steps=1, batch_size=4, lr=1e-12, weight_decay=0.0, val_fraction=0.0)
    res = finetune(fcfg, seed=0)
    backbone = res.model.backbone.params()
    assert set(backbone) == {k for k in pre.params()
                             if k.split(".")[0] in ("embed", "encpos", "encoder")}
    for name, p in backbone.items():      # one step at lr 1e-12 moves nothing visibly
        assert np.allclose(p.data, pre.params()[name].data, atol=1e-9), name


@pytest.mark.parametrize("override, name", [
    ({"group_setting": "all"}, "embed.group0.w"),
    ({"width": 32}, "embed.group0.w"),
    ({"depth": 2}, "encoder.block1.ln1.gain"),
], ids=["group_setting", "width", "depth"])
def test_finetune_rejects_a_checkpoint_of_another_shape(tmp_path, override, name):
    img, lbl = tmp_path / "s.mmr", tmp_path / "s.lbl"
    generate_synthetic_segmentation(img, lbl, 4, 32, 32, ["B2", "B3"], 0)
    pcfg = PretrainConfig(depth=1, width=16, heads=2, h_ref=32, h_q=16, group_setting="B2|B3")
    ckpt = tmp_path / "pre.ckpt"
    pretraining_checkpoint(ckpt, pcfg, ["B2", "B3"])
    fcfg = FinetuneConfig(dataset=str(img), labels=str(lbl), checkpoint=str(ckpt), steps=1)
    other = PretrainConfig(**{**pcfg.to_dict(), **override})
    with pytest.raises(CheckpointError, match=re.escape(f"'{ckpt}': parameter '{name}'")):
        finetune(fcfg, pretrain_cfg=other, seed=0)


@pytest.mark.parametrize("setting, trained, given, ok", [
    ("all", ["B2", "B3", "B4", "B8"], ["B11", "B12", "DEM", "A-VV"], False),
    ("all", ["B2", "B3", "B4"], ["B4", "B3", "B2"], False),     # all: the order counts
    ("B2,B3|B4", ["B2", "B3", "B4"], ["B4", "B3", "B2"], True),  # a listing: the codes
    ("B2,B3|B4", ["B2", "B3", "B4"], ["B8", "B2", "B3", "B4"], True),
], ids=["all-other-bands", "all-reordered", "listing-reordered", "listing-extra-band"])
def test_finetune_checks_the_checkpoints_bands(tmp_path, setting, trained, given, ok):
    img, lbl = tmp_path / "s.mmr", tmp_path / "s.lbl"
    generate_synthetic_segmentation(img, lbl, 4, 32, 32, given, 0)
    pcfg = PretrainConfig(depth=1, width=16, heads=2, h_ref=32, h_q=16, group_setting=setting)
    ckpt = tmp_path / "pre.ckpt"
    pretraining_checkpoint(ckpt, pcfg, trained)
    fcfg = FinetuneConfig(dataset=str(img), labels=str(lbl), checkpoint=str(ckpt), steps=1,
                          batch_size=2)
    if ok:
        finetune(fcfg, seed=0)
        return
    with pytest.raises(ConfigFileError, match=re.escape(
            f"checkpoint '{ckpt}' was trained with groups reading bands [{trained}], but "
            f"dataset '{img}' gives them [{given}]")):
        finetune(fcfg, seed=0)


def test_load_finetuned_checks_the_bands(tmp_path):
    pcfg = PretrainConfig(depth=1, width=16, heads=2, group_setting="all")
    ckpt = tmp_path / "ft.ckpt"
    save_finetuned(ckpt, SegmentationModel(pcfg, ["B2", "B3"], 2), FinetuneConfig())
    assert load_checkpoint(ckpt)[1]["channel_tags"] == ["B2", "B3"]
    load_finetuned(ckpt, ["B2", "B3"])
    with pytest.raises(ConfigFileError, match=re.escape(
            f"checkpoint '{ckpt}' was trained with groups reading bands [['B2', 'B3']], but "
            f"a dataset with channels ['B11', 'B12'] gives them [['B11', 'B12']]")):
        load_finetuned(ckpt, ["B11", "B12"])
    arrays, meta = load_checkpoint(ckpt)
    del meta["channel_tags"]
    save_checkpoint(ckpt, arrays, meta)
    with pytest.raises(CheckpointError, match=re.escape(f"'{ckpt}' stores no channel tags")):
        load_finetuned(ckpt, ["B2", "B3"])


def test_finetune_rejects_a_batch_larger_than_the_training_split(tmp_path):
    img, lbl = tmp_path / "s.mmr", tmp_path / "s.lbl"
    generate_synthetic_segmentation(img, lbl, 8, 32, 32, ["B2"], 0)
    pcfg = PretrainConfig(depth=1, width=16, heads=2)
    fcfg = FinetuneConfig(dataset=str(img), labels=str(lbl), steps=1, batch_size=7,
                          val_fraction=0.25)
    with pytest.raises(ConfigFileError, match="'batch_size': 7 is larger than the 6 training"):
        finetune(fcfg, pretrain_cfg=pcfg)
    finetune(FinetuneConfig(**{**fcfg.to_dict(), "batch_size": 6}), pretrain_cfg=pcfg)


def test_finetune_reads_only_the_grouped_channels(tmp_path, monkeypatch):
    img, lbl = tmp_path / "s.mmr", tmp_path / "s.lbl"
    generate_synthetic_segmentation(img, lbl, 8, 32, 32, ALL_BANDS, 0)
    pcfg = PretrainConfig(depth=1, width=16, heads=2, h_ref=32, h_q=16,
                          group_setting="B2,B3|B11,B12")
    fcfg = FinetuneConfig(dataset=str(img), labels=str(lbl), steps=2, batch_size=4,
                          eval_every=1)
    channels = [ALL_BANDS.index(b) for b in ["B2", "B3", "B11", "B12"]]
    read = []
    real_sample = DatasetReader.sample

    def sample(reader, i, *args, **kwargs):
        image = real_sample(reader, i, *args, **kwargs)
        read.append(image.data.shape[0])
        return image

    monkeypatch.setattr(DatasetReader, "sample", sample)
    res = finetune(fcfg, pretrain_cfg=pcfg, seed=0)
    assert res.model.backbone.setting.channels == channels
    assert read == [len(channels)] * 8

    # reference: full 22-band images, sliced to the grouped channels here
    def full_then_sliced(reader, ids, model):
        return np.stack([real_sample(reader, int(i)).data for i in ids])[:, channels]

    monkeypatch.setattr(segmenter, "read_images", full_then_sliced)
    ref = finetune(fcfg, pretrain_cfg=pcfg, seed=0)
    assert res.miou == ref.miou and res.train_miou == ref.train_miou
    for name, p in res.model.params().items():
        assert np.array_equal(p.data, ref.model.params()[name].data), name
    x = np.stack([real_sample(DatasetReader(img), i).data for i in range(2)])
    with pytest.raises(ValueError, match="reads 4 channels; got an input with 22"):
        res.model.forward(x)


def test_evaluate_batching_consistent(tmp_path):
    img, lbl = tmp_path / "s.mmr", tmp_path / "s.lbl"
    generate_synthetic_segmentation(img, lbl, 6, 32, 32, ["B2"], 2)
    from patchpos.data import DatasetReader
    reader = DatasetReader(img)
    labels = read_labels(lbl)
    model = SegmentationModel(PretrainConfig(depth=1, width=16, heads=2),
                              ["B2"], classes=2)
    x = np.stack([reader.sample(i).data for i in range(6)])
    a = evaluate(model, x, labels, batch=2)
    b = evaluate(model, x, labels, batch=6)
    assert np.allclose(a[0], b[0], equal_nan=True) and a[1] == b[1]


def test_write_pgm(tmp_path):
    p = tmp_path / "m.pgm"
    write_pgm(p, np.array([[0, 1], [1, 0]]), classes=2)
    data = p.read_bytes()
    assert data.startswith(b"P5\n2 2\n255\n")
    assert data[-4:] == bytes([0, 255, 255, 0])


@pytest.mark.parametrize("kind", ["pretrained", "finetuned"])
@pytest.mark.parametrize("change, error, message", [
    # checkpoints written before a key was removed store it
    (lambda meta: meta["config"].update(dropout=0.0), ConfigFileError,
     "'{ckpt}': unknown config keys: ['dropout']"),
    (lambda meta: meta.pop("config"), CheckpointError, "'{ckpt}' stores no model config"),
], ids=["removed_key", "no_config"])
def test_stored_config_is_checked_naming_the_file(tmp_path, kind, change, error, message):
    img, lbl = tmp_path / "s.mmr", tmp_path / "s.lbl"
    generate_synthetic_segmentation(img, lbl, 4, 32, 32, ["B2", "B3"], 0)
    pcfg = PretrainConfig(depth=1, width=16, heads=2, h_ref=32, h_q=16)
    ckpt = tmp_path / f"{kind}.ckpt"
    fcfg = FinetuneConfig(dataset=str(img), labels=str(lbl), checkpoint=str(ckpt), steps=1,
                          batch_size=2)
    if kind == "pretrained":
        pretraining_checkpoint(ckpt, pcfg, ["B2", "B3"])
        load = lambda: finetune(fcfg, seed=0)
    else:
        save_finetuned(ckpt, SegmentationModel(pcfg, ["B2", "B3"], 2), fcfg)
        load = lambda: load_finetuned(ckpt, ["B2", "B3"])
    load()
    arrays, meta = load_checkpoint(ckpt)
    change(meta)
    save_checkpoint(ckpt, arrays, meta)
    with pytest.raises(error, match=re.escape(message.format(ckpt=ckpt))):
        load()


@pytest.mark.parametrize("keep", [np.s_[:3], np.s_[:, :, :16]])
def test_finetune_checks_one_label_map_per_image(tmp_path, keep):
    img, lbl = tmp_path / "s.mmr", tmp_path / "s.lbl"
    generate_synthetic_segmentation(img, lbl, 4, 32, 32, ["B2"], 0)
    write_labels(lbl, read_labels(lbl)[keep])
    n, h, w = read_labels(lbl).shape
    fcfg = FinetuneConfig(dataset=str(img), labels=str(lbl), steps=1, batch_size=2)
    with pytest.raises(ConfigFileError, match=re.escape(
            f"labels file '{lbl}' holds {n} label maps of {h}x{w}, but '{img}' holds "
            f"4 images of 32x32")):
        finetune(fcfg, pretrain_cfg=PretrainConfig(depth=1, width=16, heads=2))


@pytest.mark.parametrize("bad", [2, -2])
def test_finetune_rejects_labels_outside_the_classes(tmp_path, bad):
    img, lbl = tmp_path / "s.mmr", tmp_path / "s.lbl"
    generate_synthetic_segmentation(img, lbl, 4, 32, 32, ["B2"], 0)
    labels = read_labels(lbl)
    labels[1, 5, 7] = bad
    write_labels(lbl, labels)
    fcfg = FinetuneConfig(dataset=str(img), labels=str(lbl), steps=1, batch_size=2)
    pcfg = PretrainConfig(depth=1, width=16, heads=2)
    with pytest.raises(ConfigFileError, match=re.escape(
            f"config key 'classes' (2): labels file '{lbl}' holds label {bad}")):
        finetune(fcfg, pretrain_cfg=pcfg)
    if bad == 2:    # a third class makes the same labels valid
        finetune(FinetuneConfig(**{**fcfg.to_dict(), "classes": 3}), pretrain_cfg=pcfg)
