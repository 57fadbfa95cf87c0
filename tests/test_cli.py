"""End-to-end CLI subcommands through main(argv)."""
import re

import numpy as np
import pytest

from patchpos.cli import main
from patchpos.config import ConfigFileError, FinetuneConfig, PretrainConfig
from patchpos.data import DatasetReader, generate_synthetic_segmentation, read_labels, write_labels
from patchpos.segmenter import (SegmentationModel, iou_miou, load_finetuned, read_images,
                                save_finetuned)


def test_gen_data_and_inspect(tmp_path, capsys):
    out = tmp_path / "d.mmr"
    main(["gen-data", "--out", str(out), "--count", "4", "--size", "64",
          "--channels", "rgbn", "--seed", "1"])
    assert DatasetReader(out).channel_tags == ["B2", "B3", "B4", "B8"]
    main(["inspect-correspondence", "--seed", "3", "--source-size", "64",
          "--h-ref", "32", "--h-q", "16"])
    text = capsys.readouterr().out
    assert "reference crop:" in text and "omega (" in text
    # the printed h grid has grid_h rows of grid_w entries
    rows = [l for l in text.splitlines() if l.startswith("  ")]
    assert len(rows) == 2 and len(rows[0].split()) == 2


def test_pretrain_finetune_eval_pipeline(tmp_path, capsys):
    img = tmp_path / "s.mmr"
    lbl = tmp_path / "s.lbl"
    main(["gen-data", "--out", str(img), "--labels", str(lbl), "--count", "8",
          "--size", "64", "--channels", "B2,B3", "--seed", "2"])

    pcfg = tmp_path / "p.cfg"
    pcfg.write_text(f"dataset = {img}\nepochs = 1\nbatch_size = 4\n"
                    "queries_per_ref = 2\nh_ref = 32\nh_q = 16\n"
                    "depth = 1\nwidth = 16\nheads = 2\nnum_prototypes = 8\n")
    main(["pretrain", "--config", str(pcfg), "--out", str(tmp_path / "run")])
    out = capsys.readouterr().out
    assert "checkpoint" in out and "position_loss=" in out

    fcfg = tmp_path / "f.cfg"
    fcfg.write_text(f"dataset = {img}\nlabels = {lbl}\n"
                    f"checkpoint = {tmp_path / 'run' / 'checkpoint.ckpt'}\n"
                    "steps = 2\nbatch_size = 4\nval_fraction = 0.25\n")
    main(["finetune", "--config", str(fcfg), "--out", str(tmp_path / "ft")])
    out = capsys.readouterr().out
    assert "mean_miou=" in out
    assert (tmp_path / "ft" / "finetuned.ckpt").exists()

    main(["eval", "--checkpoint", str(tmp_path / "ft" / "finetuned.ckpt"),
          "--dataset", str(img), "--labels", str(lbl),
          "--dump-pgm", str(tmp_path / "masks")])
    out = capsys.readouterr().out
    assert "miou=" in out
    masks = sorted((tmp_path / "masks").glob("*.pgm"))
    assert len(masks) == 8

    # each dumped mask is the argmax of one forward pass over the eval batch,
    # and the printed mIoU is that of the dumped masks
    reader = DatasetReader(img)
    model = load_finetuned(tmp_path / "ft" / "finetuned.ckpt", reader.channel_tags)
    want = np.argmax(model.forward(read_images(reader, range(8), model)).data, axis=1)
    scale = 255 // (model.classes - 1)
    got = np.stack([np.frombuffer(p.read_bytes()[-64 * 64:], np.uint8).reshape(64, 64) // scale
                    for p in masks])
    assert np.array_equal(got, want)
    miou = iou_miou(got, read_labels(lbl), model.classes)[1]
    assert f"miou={miou:.4f}" in out


def test_unknown_subcommand_exits():
    with pytest.raises(SystemExit):
        main(["frobnicate"])


@pytest.mark.parametrize("command, flag, value", [
    ("pretrain", "--seed", "-1"), ("finetune", "--seed", "-1"), ("finetune", "--runs", "0")])
def test_flag_overrides_are_validated(tmp_path, command, flag, value):
    # a flag is checked like the config file's keys, before any data is read
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"dataset = {tmp_path / 'missing.mmr'}\n")
    with pytest.raises(ConfigFileError, match=f"config key '{flag[2:]}': {value} "):
        main([command, "--config", str(cfg), "--out", str(tmp_path / "out"), flag, value])


def test_finetune_checks_out_before_training(tmp_path, monkeypatch):
    # an --out that cannot be a directory fails before any run starts
    def no_runs(*args, **kwargs):
        raise AssertionError("finetune_runs was called")

    monkeypatch.setattr("patchpos.cli.finetune_runs", no_runs)
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"dataset = {tmp_path / 'd.mmr'}\nlabels = {tmp_path / 'd.lbl'}\n")
    out = tmp_path / "taken"
    out.write_text("a file, not a directory\n")
    with pytest.raises(FileExistsError):
        main(["finetune", "--config", str(cfg), "--out", str(out)])


def test_eval_has_no_ignore_label_flag(capsys):
    # -1 is the label format's one ignore value
    with pytest.raises(SystemExit):
        main(["eval", "--checkpoint", "m.ckpt", "--dataset", "d.mmr", "--labels", "d.lbl",
              "--ignore-label", "0"])
    assert "unrecognized arguments: --ignore-label 0" in capsys.readouterr().err


@pytest.mark.parametrize("bad", [2, -2])
def test_eval_rejects_labels_outside_the_classes(tmp_path, bad):
    img, lbl = tmp_path / "s.mmr", tmp_path / "s.lbl"
    generate_synthetic_segmentation(img, lbl, 4, 32, 32, ["B2"], 0)
    labels = read_labels(lbl)
    labels[3, 0, 0] = bad
    write_labels(lbl, labels)
    model = SegmentationModel(PretrainConfig(depth=1, width=16, heads=2), ["B2"], 2)
    ckpt = tmp_path / "ft.ckpt"
    save_finetuned(ckpt, model, FinetuneConfig())
    with pytest.raises(ConfigFileError, match=re.escape(
            f"config key 'classes' (2): labels file '{lbl}' holds label {bad}")):
        main(["eval", "--checkpoint", str(ckpt), "--dataset", str(img), "--labels", str(lbl)])


@pytest.mark.parametrize("keep", [np.s_[:3], np.s_[:, :16]])
def test_eval_checks_one_label_map_per_image(tmp_path, keep):
    # 3 maps for 4 images, or maps of another size, fail before predicting,
    # naming both files
    img, lbl = tmp_path / "s.mmr", tmp_path / "s.lbl"
    generate_synthetic_segmentation(img, lbl, 4, 32, 32, ["B2"], 0)
    write_labels(lbl, read_labels(lbl)[keep])
    n, h, w = read_labels(lbl).shape
    model = SegmentationModel(PretrainConfig(depth=1, width=16, heads=2), ["B2"], 2)
    ckpt = tmp_path / "ft.ckpt"
    save_finetuned(ckpt, model, FinetuneConfig())
    with pytest.raises(ConfigFileError, match=re.escape(
            f"labels file '{lbl}' holds {n} label maps of {h}x{w}, but '{img}' holds "
            f"4 images of 32x32")):
        main(["eval", "--checkpoint", str(ckpt), "--dataset", str(img), "--labels", str(lbl)])


def test_finetune_without_checkpoint_names_the_key(tmp_path):
    img, lbl = tmp_path / "s.mmr", tmp_path / "s.lbl"
    generate_synthetic_segmentation(img, lbl, 4, 32, 32, ["B2"], 0)
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"dataset = {img}\nlabels = {lbl}\nsteps = 1\nbatch_size = 2\n")
    with pytest.raises(ConfigFileError, match=re.escape(
            "config key 'checkpoint': a pretraining checkpoint is required, got ''")):
        main(["finetune", "--config", str(cfg), "--out", str(tmp_path / "out")])


def finetuned_checkpoint(path, tags, group_setting="all"):
    model = SegmentationModel(PretrainConfig(depth=1, width=16, heads=2,
                                             group_setting=group_setting), tags, 2)
    save_finetuned(path, model, FinetuneConfig())
    return path


def test_finetune_and_eval_check_the_image_size(tmp_path):
    # 60x60 images do not split into 8x8 patches: both commands say so before running
    img, lbl = tmp_path / "s.mmr", tmp_path / "s.lbl"
    generate_synthetic_segmentation(img, lbl, 4, 60, 60, ["B2"], 0)
    wanted = re.escape(f"config key 'patch_size': the 60x60 images of '{img}' are not "
                       f"divisible by patch size 8")
    main(["gen-data", "--out", str(tmp_path / "p.mmr"), "--count", "4", "--size", "32",
          "--channels", "B2", "--seed", "1"])
    pcfg = tmp_path / "p.cfg"
    pcfg.write_text(f"dataset = {tmp_path / 'p.mmr'}\nepochs = 1\nbatch_size = 4\n"
                    "queries_per_ref = 1\nh_ref = 16\nh_q = 8\ndepth = 1\nwidth = 16\n"
                    "heads = 2\ncluster_loss = false\n")
    main(["pretrain", "--config", str(pcfg), "--out", str(tmp_path / "run")])
    fcfg = tmp_path / "f.cfg"
    fcfg.write_text(f"dataset = {img}\nlabels = {lbl}\n"
                    f"checkpoint = {tmp_path / 'run' / 'checkpoint.ckpt'}\n"
                    "steps = 1\nbatch_size = 2\n")
    with pytest.raises(ConfigFileError, match=wanted):
        main(["finetune", "--config", str(fcfg), "--out", str(tmp_path / "ft")])
    ckpt = finetuned_checkpoint(tmp_path / "ft.ckpt", ["B2"])
    with pytest.raises(ConfigFileError, match=wanted):
        main(["eval", "--checkpoint", str(ckpt), "--dataset", str(img), "--labels", str(lbl)])


def test_eval_checks_the_checkpoints_bands(tmp_path):
    img, lbl = tmp_path / "s.mmr", tmp_path / "s.lbl"
    generate_synthetic_segmentation(img, lbl, 4, 32, 32, ["B11", "B12", "DEM", "A-VV"], 0)
    ckpt = finetuned_checkpoint(tmp_path / "ft.ckpt", ["B2", "B3", "B4", "B8"])
    with pytest.raises(ConfigFileError, match=re.escape(
            f"checkpoint '{ckpt}' was trained with groups reading bands "
            f"[['B2', 'B3', 'B4', 'B8']], but a dataset with channels "
            f"['B11', 'B12', 'DEM', 'A-VV'] gives them [['B11', 'B12', 'DEM', 'A-VV']] "
            f"(evaluating on dataset '{img}')")):
        main(["eval", "--checkpoint", str(ckpt), "--dataset", str(img), "--labels", str(lbl)])
