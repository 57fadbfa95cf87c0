"""Flat key=value run configuration."""
from __future__ import annotations

import dataclasses
import hashlib
import json
import math
from dataclasses import dataclass


class ConfigFileError(ValueError):
    pass


def parse_kv_file(path) -> dict[str, str]:
    """Parse ``key = value`` lines; '#' starts a comment, blank lines ignored."""
    out: dict[str, str] = {}
    with open(path, "r", encoding="utf-8") as f:
        for lineno, line in enumerate(f, 1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigFileError(f"{path}:{lineno}: expected 'key = value', got '{line}'")
            key, value = line.split("=", 1)
            out[key.strip()] = value.strip()
    return out


_BOOL = {"true": True, "1": True, "yes": True, "on": True,
         "false": False, "0": False, "no": False, "off": False}


def _coerce(name, value: str, typ):
    try:
        if typ is bool:
            return _BOOL[value.lower()]
        return typ(value)
    except (KeyError, ValueError) as e:
        raise ConfigFileError(f"config key '{name}': cannot parse '{value}' as {typ.__name__}") from e


def _require_positive(cfg, *names):
    """Raise ConfigFileError naming the first key that is not a positive finite number."""
    for name in names:
        value = getattr(cfg, name)
        if not (value > 0 and math.isfinite(value)):
            raise ConfigFileError(f"config key '{name}' must be positive and finite, got {value}")


def from_mapping(cls, mapping: dict[str, str]):
    fields = {f.name: f for f in dataclasses.fields(cls)}
    unknown = set(mapping) - set(fields)
    if unknown:
        raise ConfigFileError(f"unknown config keys: {sorted(unknown)}")
    # field types are strings here (postponed annotations): coerce by the default's type
    kwargs = {k: _coerce(k, v, type(fields[k].default)) for k, v in mapping.items()}
    return cls(**kwargs)


@dataclass
class PretrainConfig:
    """Everything a pretraining run needs; all keys reachable from a config file."""
    dataset: str = ""
    seed: int = 0
    epochs: int = 2
    batch_size: int = 8
    queries_per_ref: int = 10
    # geometry
    h_ref: int = 64
    h_q: int = 32
    patch_size: int = 8
    ref_scale_min: float = 0.3
    ref_scale_max: float = 1.0
    q_scale_min: float = 0.05
    q_scale_max: float = 0.3
    flip_prob: float = 0.5
    # channel grouping
    group_setting: str = "all"
    group_sampling: bool = True
    # attention / reference masking
    same_group_masking: bool = False
    eta: float = 0.8
    # cluster objective
    cluster_loss: bool = True
    num_prototypes: int = 256
    proto_dim: int = 0          # 0 -> encoder width
    lambda_me: float = 1.0
    tau: float = 0.05
    sinkhorn_iters: int = 3
    # encoder
    depth: int = 4
    width: int = 64
    heads: int = 4
    mlp_ratio: int = 4
    # optimizer (paper recipe scalars; warmup/betas/clip/dropout are ours)
    lr: float = 6.25e-5
    weight_decay: float = 0.1
    beta1: float = 0.9
    beta2: float = 0.999
    warmup_frac: float = 0.05
    grad_clip: float = 0.0
    dropout: float = 0.0
    # harness
    log_every: int = 1
    checkpoint_every_epochs: int = 1
    noise_reference: bool = False   # debug: replace reference pixels with noise

    def __post_init__(self):
        _require_positive(self, "batch_size", "h_ref", "h_q", "patch_size", "num_prototypes",
                          "tau", "lr", "log_every", "checkpoint_every_epochs", "width", "heads",
                          "mlp_ratio")
        if self.h_ref % self.patch_size or self.h_q % self.patch_size:
            raise ConfigFileError("view sizes must be divisible by patch_size")
        if not 0.0 <= self.eta <= 1.0:
            raise ConfigFileError(f"eta must be in [0,1], got {self.eta}")
        if self.width % self.heads:
            raise ConfigFileError(f"config keys 'width' ({self.width}) and 'heads' "
                                  f"({self.heads}): width must be divisible by heads")
        if self.queries_per_ref < 1:
            raise ConfigFileError("queries_per_ref must be >= 1")
        for lo, hi, name in [(self.ref_scale_min, self.ref_scale_max, "ref_scale"),
                             (self.q_scale_min, self.q_scale_max, "q_scale")]:
            if not 0 < lo <= hi <= 1.0:
                raise ConfigFileError(f"{name} range [{lo}, {hi}] invalid")

    @property
    def n_ref(self):
        return (self.h_ref // self.patch_size) ** 2

    @property
    def n_q(self):
        return (self.h_q // self.patch_size) ** 2

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    def hash(self) -> str:
        canon = json.dumps(self.to_dict(), sort_keys=True)
        return hashlib.sha256(canon.encode()).hexdigest()[:16]

    @classmethod
    def from_file(cls, path) -> "PretrainConfig":
        return from_mapping(cls, parse_kv_file(path))


@dataclass
class FinetuneConfig:
    """End-to-end segmentation finetuning on a labeled dataset."""
    dataset: str = ""
    labels: str = ""
    checkpoint: str = ""        # pretrained weights; empty -> random init
    classes: int = 2
    ignore_label: int = -1
    seed: int = 0
    steps: int = 300
    batch_size: int = 8
    lr: float = 1e-4
    weight_decay: float = 0.05
    warmup_frac: float = 0.05
    val_fraction: float = 0.25
    eval_every: int = 25
    runs: int = 1
    same_group_masking: bool = False

    def __post_init__(self):
        _require_positive(self, "classes", "batch_size", "lr", "eval_every")

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    @classmethod
    def from_file(cls, path) -> "FinetuneConfig":
        return from_mapping(cls, parse_kv_file(path))
