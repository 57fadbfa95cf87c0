"""Key=value config files and validation."""
import dataclasses
import os
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from patchpos import config
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


@pytest.mark.parametrize("cls, key, value", [
    (PretrainConfig, "grad_clip", "0.0"), (PretrainConfig, "dropout", "0.0"),
    (PretrainConfig, "noise_reference", "false"), (PretrainConfig, "beta1", "0.9"),
    (PretrainConfig, "beta2", "0.999"), (PretrainConfig, "proto_dim", "0"),
    (FinetuneConfig, "ignore_label", "-1"),
])
def test_removed_key_is_unknown(tmp_path, cls, key, value):
    # keys that once set a default nothing changed; a file naming one fails
    p = tmp_path / "run.cfg"
    p.write_text(f"dataset = d.mmr\n{key} = {value}\n")
    with pytest.raises(ConfigFileError,
                       match=re.escape(f"'{p}': unknown config keys: ['{key}']")):
        cls.from_file(p)


def test_from_dict_names_its_source():
    with pytest.raises(ConfigFileError, match=r"'run\.ckpt': unknown config keys: \['bogus'\]"):
        PretrainConfig.from_dict({"epochs": 1, "bogus": 2}, "run.ckpt")
    with pytest.raises(ConfigFileError, match=r"'run\.ckpt': config key 'epochs': 0 is not"):
        PretrainConfig.from_dict({"epochs": 0}, "run.ckpt")
    assert PretrainConfig.from_dict({"epochs": 3}, "run.ckpt") == PretrainConfig(epochs=3)


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


NAN, INF = float("nan"), float("inf")

# At least one out-of-domain value per key; the values first probed as
# accepted silently or failing deep in training are among them.
OUT_OF_DOMAIN = {
    PretrainConfig: {
        "dataset": [None, 3], "seed": [-1, 0.5], "epochs": [0, -2],
        "batch_size": [0, 2.0], "queries_per_ref": [0], "h_ref": [0, -8], "h_q": [0],
        "patch_size": [0], "ref_scale_min": [0.0, 1.5, NAN], "ref_scale_max": [0.0, 1.01],
        "q_scale_min": [-0.1], "q_scale_max": [2.0], "flip_prob": [2, -0.1, NAN],
        "group_setting": [None, 6], "group_sampling": [1, "yes"],
        "same_group_masking": [0, None], "eta": [1.5, -0.5, NAN], "cluster_loss": ["on"],
        "num_prototypes": [0], "tau": [0.0, INF], "sinkhorn_iters": [-1, 1.5], "depth": [0, True],
        "width": [0, -16], "heads": [0], "mlp_ratio": [0], "lr": [0.0, -1e-3, NAN, INF],
        "weight_decay": [NAN, -0.1, INF], "warmup_frac": [-1, 1.5],
        "log_every": [0], "checkpoint_every_epochs": [0],
    },
    FinetuneConfig: {
        "dataset": [None], "labels": [0], "checkpoint": [None], "classes": [0],
        "seed": [-1], "steps": [0, -1], "batch_size": [0],
        "lr": [0.0, NAN], "weight_decay": [NAN, -1.0], "warmup_frac": [2, NAN],
        "val_fraction": [-0.5, 1.0, NAN], "eval_every": [0], "runs": [0, 1.0],
        "same_group_masking": ["true"],
    },
}


@pytest.mark.parametrize("cls", [PretrainConfig, FinetuneConfig])
def test_every_key_has_out_of_domain_values(cls):
    declared = {f.name for f in dataclasses.fields(cls)
                if isinstance(f.metadata.get("domain"), config.Domain)}
    assert declared == {f.name for f in dataclasses.fields(cls)}
    assert set(OUT_OF_DOMAIN[cls]) == declared
    assert all(OUT_OF_DOMAIN[cls].values())


DOMAIN_VALUES = {
    config.POSITIVE_INT: st.integers(1, 64),
    config.NON_NEGATIVE_INT: st.integers(0, 2 ** 31),
    config.POSITIVE: st.floats(0.0, 1e6, exclude_min=True),
    config.NON_NEGATIVE: st.floats(0.0, 1e6),
    config.FRACTION: st.floats(0.0, 1.0),
    config.PROPER_FRACTION: st.floats(0.0, 1.0, exclude_max=True),
    config.SCALE: st.floats(0.0, 1.0, exclude_min=True),
    config.BOOL: st.booleans(),
    # paths and group settings as a key = value line carries them: no '#', no edge spaces
    config.TEXT: st.text("abcB0123456789/._-|,+", max_size=12),
}


@st.composite
def configs(draw, cls):
    """An in-domain config of ``cls`` that keeps the cross-key rules."""
    kw = {f.name: draw(DOMAIN_VALUES[f.metadata["domain"]]) for f in dataclasses.fields(cls)}
    if cls is PretrainConfig:
        kw["h_ref"] = kw["patch_size"] * draw(st.integers(1, 8))
        kw["h_q"] = kw["patch_size"] * draw(st.integers(1, 8))
        kw["width"] = 16 * draw(st.integers(1, 8))     # its position part is a multiple of 12
        kw["heads"] = draw(st.sampled_from([h for h in range(1, 17) if kw["width"] % h == 0]))
        for lo, hi in [("ref_scale_min", "ref_scale_max"), ("q_scale_min", "q_scale_max")]:
            kw[lo], kw[hi] = sorted((kw[lo], kw[hi]))
    return kw


@settings(max_examples=5)
@pytest.mark.parametrize("cls, key, value", [
    (cls, key, value) for cls, keys in OUT_OF_DOMAIN.items()
    for key, values in keys.items() for value in values])
@given(data=st.data())
def test_out_of_domain_value_names_its_key(cls, key, value, data):
    kw = data.draw(configs(cls))
    with pytest.raises(ConfigFileError, match=f"config key '{key}': "):
        cls(**{**kw, key: value})


@settings(max_examples=40)
@given(data=st.data(), cls=st.sampled_from([PretrainConfig, FinetuneConfig]))
def test_in_domain_configs_round_trip_through_a_file(tmp_path_factory, data, cls):
    cfg = cls(**data.draw(configs(cls)))
    path = tmp_path_factory.mktemp("cfg") / "run.cfg"
    path.write_text("".join(f"{k} = {v}\n" for k, v in cfg.to_dict().items()))
    back = cls.from_file(path)
    assert back == cfg and back.to_dict() == cfg.to_dict()


@pytest.mark.parametrize("overrides, keys", [
    (dict(h_ref=60), ("h_ref", "patch_size")),
    (dict(h_q=20), ("h_q", "patch_size")),
    (dict(width=30, heads=4), ("width", "heads")),
    (dict(width=8, heads=2), ("width",)),
    (dict(width=6, heads=2), ("width",)),
    (dict(ref_scale_min=0.9, ref_scale_max=0.5), ("ref_scale_min", "ref_scale_max")),
    (dict(q_scale_min=0.5, q_scale_max=0.1), ("q_scale_min", "q_scale_max")),
])
def test_cross_key_rules_name_their_keys(overrides, keys):
    values = {**PretrainConfig().to_dict(), **overrides}
    named = " and ".join(f"'{k}' ({values[k]!r})" for k in keys)
    with pytest.raises(ConfigFileError, match=re.escape(f"{named}: ")):
        PretrainConfig(**overrides)
