"""Training loop: determinism, resume, abort handling, checkpoint stability."""
import os
import re
import struct

import numpy as np
import pytest

from patchpos.checkpoint import (CheckpointError, check_config_hash,
                                 load_checkpoint, save_checkpoint)
from patchpos.config import PretrainConfig
from patchpos.data import generate_synthetic_dataset
from patchpos.model import PretrainModel
from patchpos.train import TrainingAborted, pretrain, step_rng


def small_cfg(dataset, **overrides):
    base = dict(dataset=str(dataset), epochs=1, batch_size=4, queries_per_ref=2,
                h_ref=32, h_q=16, depth=1, width=16, heads=2, num_prototypes=8,
                log_every=1)
    base.update(overrides)
    return PretrainConfig(**base)


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "train.mmr"
    generate_synthetic_dataset(path, 16, 64, 64, ["B2", "B3", "B4"], seed=0)
    return path


def losses(result):
    return [m["combined"] for m in result["metrics"]]


def test_identical_runs_identical_logs(dataset, tmp_path):
    cfg = small_cfg(dataset)
    a = pretrain(cfg, tmp_path / "a", log_stream=open("/dev/null", "w"))
    b = pretrain(cfg, tmp_path / "b", log_stream=open("/dev/null", "w"))
    assert (tmp_path / "a" / "metrics.log").read_bytes() == \
           (tmp_path / "b" / "metrics.log").read_bytes()
    assert losses(a) == losses(b)


def test_seed_changes_losses(dataset, tmp_path):
    null = open("/dev/null", "w")
    a = pretrain(small_cfg(dataset, seed=1), tmp_path / "a", log_stream=null)
    b = pretrain(small_cfg(dataset, seed=2), tmp_path / "b", log_stream=null)
    assert losses(a) != losses(b)


def test_resume_matches_uninterrupted(dataset, tmp_path):
    cfg = small_cfg(dataset, epochs=3)  # 12 total steps
    null = open("/dev/null", "w")
    full = pretrain(cfg, tmp_path / "full", log_stream=null)
    part = pretrain(cfg, tmp_path / "part", max_steps=7, log_stream=null)
    assert part["steps"] == 7
    resumed = pretrain(cfg, tmp_path / "part", resume=part["checkpoint"],
                       log_stream=null)
    got = losses(part) + losses(resumed)
    want = losses(full)
    assert len(got) == len(want) == 12
    # the 5 steps after the resume point agree with the uninterrupted run
    assert np.allclose(got[7:], want[7:], atol=1e-6)
    assert got[:7] == want[:7]


def test_resume_logs_every_step_once(dataset, tmp_path):
    import shutil
    cfg = small_cfg(dataset, epochs=3)  # 4 steps per epoch, 12 in all
    null = open("/dev/null", "w")
    full = pretrain(cfg, tmp_path / "full", log_stream=null)
    first = pretrain(cfg, tmp_path / "run", max_steps=4, log_stream=null)
    early = str(tmp_path / "step4.ckpt")
    shutil.copy(first["checkpoint"], early)
    # the run goes on to step 6, so the log holds steps the checkpoint does not
    pretrain(cfg, tmp_path / "run", resume=first["checkpoint"], max_steps=6, log_stream=null)
    resumed = pretrain(cfg, tmp_path / "run", resume=early, log_stream=null)
    assert resumed["steps"] == 12
    lines = (tmp_path / "run" / "metrics.log").read_text().splitlines()
    steps = [int(line.split(" ", 1)[0][len("step="):]) for line in lines]
    assert steps == list(range(1, 13))
    assert (tmp_path / "run" / "metrics.log").read_bytes() == \
        (tmp_path / "full" / "metrics.log").read_bytes()


def test_step_rng_is_stream_per_step():
    a = step_rng(0, 5).standard_normal(4)
    b = step_rng(0, 5).standard_normal(4)
    c = step_rng(0, 6).standard_normal(4)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_empty_dataset_rejected(tmp_path):
    path = tmp_path / "empty.mmr"
    generate_synthetic_dataset(path, 0, 16, 16, ["B2"], 0)
    with pytest.raises(ValueError, match="no samples"):
        pretrain(small_cfg(path), tmp_path / "out")


def test_nonfinite_loss_aborts(dataset, tmp_path, monkeypatch):
    cfg = small_cfg(dataset)

    real = PretrainModel.forward_step

    def poisoned(self, images, rng, noise_rng=None):
        loss, report = real(self, images, rng, noise_rng)
        report.combined = float("nan")
        return loss, report

    monkeypatch.setattr(PretrainModel, "forward_step", poisoned)
    with pytest.raises(TrainingAborted, match="non-finite loss"):
        pretrain(cfg, tmp_path / "out", log_stream=open("/dev/null", "w"))


def test_checkpoint_save_load_save_is_byte_stable(tmp_path):
    rng = np.random.default_rng(0)
    arrays = {"b": rng.standard_normal((3, 4)).astype(np.float32),
              "a": rng.standard_normal(5).astype(np.float64)}
    meta = {"step": 3, "config": {"x": 1}}
    p1, p2 = tmp_path / "c1.ckpt", tmp_path / "c2.ckpt"
    save_checkpoint(p1, arrays, meta)
    loaded, loaded_meta = load_checkpoint(p1)
    assert loaded_meta == meta
    save_checkpoint(p2, loaded, loaded_meta)
    assert p1.read_bytes() == p2.read_bytes()


def test_checkpoint_truncation_detected(tmp_path):
    p = tmp_path / "c.ckpt"
    save_checkpoint(p, {"a": np.zeros(8, dtype=np.float32)}, {})
    p.write_bytes(p.read_bytes()[:-4])
    with pytest.raises(CheckpointError, match="truncated"):
        load_checkpoint(p)


def test_checkpoint_bad_magic(tmp_path):
    p = tmp_path / "c.ckpt"
    p.write_bytes(b"garbage!" * 4)
    with pytest.raises(CheckpointError):
        load_checkpoint(p)


def saved_checkpoint(tmp_path):
    p = tmp_path / "c.ckpt"
    save_checkpoint(p, {"a": np.arange(6, dtype=np.float32), "b": np.ones((2, 2))}, {"step": 1})
    raw = p.read_bytes()
    return p, raw, struct.unpack("<Q", raw[8:16])[0]


@pytest.mark.parametrize("cut", ["length", "no manifest", "manifest", "manifest end"])
def test_checkpoint_cut_raises_checkpoint_error(tmp_path, cut):
    p, raw, n = saved_checkpoint(tmp_path)
    at = {"length": 10, "no manifest": 16, "manifest": 20, "manifest end": 16 + n - 1}[cut]
    p.write_bytes(raw[:at])
    with pytest.raises(CheckpointError, match=re.escape(str(p)) + ".* truncated"):
        load_checkpoint(p)


@pytest.mark.parametrize("garbage", [b"{", b"\xff"])
def test_checkpoint_bad_manifest_json(tmp_path, garbage):
    p, raw, n = saved_checkpoint(tmp_path)
    p.write_bytes(raw[:16] + garbage * n + raw[16 + n:])
    with pytest.raises(CheckpointError, match=re.escape(str(p)) + ".* not valid JSON"):
        load_checkpoint(p)


@pytest.mark.parametrize("manifest", [[], {}, {"arrays": 3, "meta": {}},
                                      {"arrays": [{"name": "a"}], "meta": {}},
                                      {"arrays": [], "meta": []}])
def test_checkpoint_malformed_manifest(tmp_path, manifest):
    import json
    p, raw, n = saved_checkpoint(tmp_path)
    blob = json.dumps(manifest).encode()
    p.write_bytes(raw[:8] + struct.pack("<Q", len(blob)) + blob + raw[16 + n:])
    with pytest.raises(CheckpointError, match=re.escape(str(p)) + ".* malformed manifest"):
        load_checkpoint(p)


def test_checkpoint_write_failing_partway_keeps_previous(tmp_path):
    # The file-size limit makes the write fail with EFBIG after 64 KiB of a
    # 1 MiB checkpoint, the way a full disk would.
    resource = pytest.importorskip("resource")
    p, before, _ = saved_checkpoint(tmp_path)
    soft, hard = resource.getrlimit(resource.RLIMIT_FSIZE)
    resource.setrlimit(resource.RLIMIT_FSIZE, (1 << 16, hard))
    try:
        with pytest.raises(CheckpointError, match=re.escape(str(p))):
            save_checkpoint(p, {"a": np.zeros(1 << 18, dtype=np.float32)}, {"step": 2})
    finally:
        resource.setrlimit(resource.RLIMIT_FSIZE, (soft, hard))
    assert p.read_bytes() == before
    assert os.listdir(tmp_path) == [p.name]


@pytest.mark.parametrize("fail, error", [("fsync", OSError), ("replace", KeyboardInterrupt)])
def test_checkpoint_write_error_removes_temp_file(tmp_path, monkeypatch, fail, error):
    p, before, _ = saved_checkpoint(tmp_path)

    def boom(*args):
        raise error("injected")

    monkeypatch.setattr(os, fail, boom)
    with pytest.raises(CheckpointError if error is OSError else error):
        save_checkpoint(p, {"a": np.zeros(3, dtype=np.float32)}, {"step": 2})
    monkeypatch.undo()
    assert p.read_bytes() == before
    assert os.listdir(tmp_path) == [p.name]


def test_config_hash_mismatch_warns(caplog):
    import logging
    with caplog.at_level(logging.WARNING, logger="patchpos.checkpoint"):
        check_config_hash({"config_hash": "aaaa"}, "bbbb", "x.ckpt")
    assert "different config" in caplog.text
    caplog.clear()
    with caplog.at_level(logging.WARNING, logger="patchpos.checkpoint"):
        check_config_hash({"config_hash": "same"}, "same", "x.ckpt")
    assert caplog.text == ""


def test_run_checkpoint_restores_exact_state(dataset, tmp_path):
    # back-to-back save/restore reproduces identical parameters and optimizer
    cfg = small_cfg(dataset)
    null = open("/dev/null", "w")
    res = pretrain(cfg, tmp_path / "run", log_stream=null)
    arrays, meta = load_checkpoint(res["checkpoint"])
    model = res["model"]
    for name, p in model.params().items():
        assert np.array_equal(arrays[f"param/{name}"], p.data), name
    assert meta["step"] == res["steps"]
    assert meta["config_hash"] == cfg.hash()
    assert meta["channel_tags"] == ["B2", "B3", "B4"]
