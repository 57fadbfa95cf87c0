"""Key=value config files and validation."""
import os

import pytest

from patchpos.config import (ConfigFileError, FinetuneConfig, PretrainConfig,
                             parse_kv_file)


def test_parse_kv_file(tmp_path):
    p = tmp_path / "run.cfg"
    p.write_text("# a comment\n"
                 "dataset = data/train.mmr\n"
                 "epochs=3   # trailing comment\n"
                 "\n"
                 "eta = 0.6\n")
    assert parse_kv_file(p) == {"dataset": "data/train.mmr", "epochs": "3", "eta": "0.6"}


def test_parse_rejects_garbage(tmp_path):
    p = tmp_path / "bad.cfg"
    p.write_text("this is not a key value line\n")
    with pytest.raises(ConfigFileError, match="bad.cfg:1"):
        parse_kv_file(p)


def test_from_file_coerces_types(tmp_path):
    p = tmp_path / "run.cfg"
    p.write_text("dataset = d.mmr\nepochs = 5\nlr = 1e-3\n"
                 "same_group_masking = true\ncluster_loss = off\n")
    cfg = PretrainConfig.from_file(p)
    assert cfg.epochs == 5 and cfg.lr == 1e-3
    assert cfg.same_group_masking is True and cfg.cluster_loss is False


def test_unknown_key_rejected(tmp_path):
    p = tmp_path / "run.cfg"
    p.write_text("not_a_real_key = 1\n")
    with pytest.raises(ConfigFileError, match="not_a_real_key"):
        PretrainConfig.from_file(p)


def test_bad_value_rejected(tmp_path):
    p = tmp_path / "run.cfg"
    p.write_text("epochs = soon\n")
    with pytest.raises(ConfigFileError, match="epochs"):
        PretrainConfig.from_file(p)


def test_validation():
    with pytest.raises(ConfigFileError):
        PretrainConfig(eta=1.5)
    with pytest.raises(ConfigFileError):
        PretrainConfig(h_ref=60)          # not divisible by patch
    with pytest.raises(ConfigFileError):
        PretrainConfig(width=30, heads=4)
    with pytest.raises(ConfigFileError):
        PretrainConfig(q_scale_min=0.5, q_scale_max=0.1)
    with pytest.raises(ConfigFileError):
        PretrainConfig(queries_per_ref=0)


def test_derived_patch_counts():
    cfg = PretrainConfig(h_ref=64, h_q=32, patch_size=8)
    assert cfg.n_ref == 64 and cfg.n_q == 16
    paper = PretrainConfig(h_ref=224, h_q=96, patch_size=16)
    assert paper.n_ref == 196 and paper.n_q == 36


def test_hash_tracks_content():
    a = PretrainConfig(seed=1)
    b = PretrainConfig(seed=1)
    c = PretrainConfig(seed=2)
    assert a.hash() == b.hash() != c.hash()
    assert len(a.hash()) == 16


def test_finetune_config_from_file(tmp_path):
    p = tmp_path / "ft.cfg"
    p.write_text("dataset = d.mmr\nlabels = d.lbl\nsteps = 50\nval_fraction = 0.5\n")
    cfg = FinetuneConfig.from_file(p)
    assert cfg.steps == 50 and cfg.val_fraction == 0.5 and cfg.classes == 2


@pytest.mark.parametrize("key, value", [
    ("batch_size", 0), ("log_every", 0), ("checkpoint_every_epochs", 0), ("tau", 0.0),
    ("tau", float("inf")), ("h_ref", 0), ("h_q", 0), ("patch_size", 0),
    ("num_prototypes", 0), ("batch_size", -1), ("lr", 0.0), ("lr", -1e-3),
    ("lr", float("nan")), ("lr", float("inf")), ("heads", 0), ("width", 0), ("mlp_ratio", 0),
])
def test_pretrain_config_rejects_non_positive(key, value):
    with pytest.raises(ConfigFileError, match=key):
        PretrainConfig(**{key: value})


def test_width_not_divisible_by_heads_names_both_keys():
    with pytest.raises(ConfigFileError, match=r"'width' \(30\) and 'heads' \(4\)"):
        PretrainConfig(width=30, heads=4)


@pytest.mark.parametrize("key, value", [
    ("eval_every", 0), ("batch_size", 0), ("classes", 0), ("eval_every", -5),
    ("lr", 0.0), ("lr", -1.0), ("lr", float("nan")),
])
def test_finetune_config_rejects_non_positive(key, value):
    with pytest.raises(ConfigFileError, match=key):
        FinetuneConfig(**{key: value})


def test_blas_threads_are_pinned():
    # tests/conftest.py sets each one that the caller left unset
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        assert int(os.environ[var]) >= 1
