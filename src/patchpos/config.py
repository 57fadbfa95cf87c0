"""Flat key=value run configuration. Every key declares its domain beside its
default, and constructing a config checks each key, then the cross-key rules."""
from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import numbers
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable


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


@dataclass(frozen=True)
class Domain:
    """The values of ``type`` that pass ``test``, described by ``text``. An int
    domain takes any integer but a bool, a float domain any real number but
    a bool."""
    type: type
    text: str
    test: Callable[[Any], bool] = lambda v: True

    def accepts(self, value) -> bool:
        kind = {int: numbers.Integral, float: numbers.Real}.get(self.type, self.type)
        return (isinstance(value, kind) and isinstance(value, bool) == (self.type is bool)
                and self.test(value))

    def parse(self, name: str, text: str):
        """The value of type ``type`` that a config file's ``text`` gives key ``name``."""
        try:
            return _BOOL[text.lower()] if self.type is bool else self.type(text)
        except (KeyError, ValueError) as e:
            raise ConfigFileError(f"config key '{name}': cannot parse '{text}' "
                                  f"as {self.type.__name__}") from e


_BOOL = {"true": True, "1": True, "yes": True, "on": True,
         "false": False, "0": False, "no": False, "off": False}


POSITIVE_INT = Domain(int, "an integer >= 1", lambda v: v >= 1)
NON_NEGATIVE_INT = Domain(int, "an integer >= 0", lambda v: v >= 0)
POSITIVE = Domain(float, "a finite number > 0", lambda v: 0 < v < math.inf)
NON_NEGATIVE = Domain(float, "a finite number >= 0", lambda v: 0 <= v < math.inf)
FRACTION = Domain(float, "a number in [0, 1]", lambda v: 0 <= v <= 1)
PROPER_FRACTION = Domain(float, "a number in [0, 1)", lambda v: 0 <= v < 1)
SCALE = Domain(float, "a number in (0, 1]", lambda v: 0 < v <= 1)
BOOL = Domain(bool, "true or false")
TEXT = Domain(str, "a string")


def key(default, domain: Domain):
    """A config key: its default and the domain of the values it accepts."""
    return field(default=default, metadata={"domain": domain})


def encoding_widths(width: int) -> tuple[int, int]:
    """The group and position parts of a token ``width`` wide: the group part
    is a quarter of the width rounded down to an even count, the position
    part the rest."""
    d_ge = width // 4 - width // 4 % 2
    return d_ge, width - d_ge


class _Config:
    """The domain check, cross-key rules and file form of a run config."""

    def __post_init__(self):
        for f in dataclasses.fields(self):
            value, domain = getattr(self, f.name), f.metadata["domain"]
            if not domain.accepts(value):
                raise ConfigFileError(f"config key '{f.name}': {value!r} is not {domain.text}")
        for keys, holds, rule in self.rules():
            if not holds:
                named = " and ".join(f"'{k}' ({getattr(self, k)!r})" for k in keys)
                raise ConfigFileError(f"config key{'s' * (len(keys) > 1)} {named}: {rule}")

    def rules(self) -> Iterable[tuple[tuple[str, ...], bool, str]]:
        """Cross-key rules, checked once every key is in its domain: the keys
        each rule reads, whether it holds, and what it asks."""
        return ()

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    def require_paths(self, *names: str) -> None:
        """A run calls this before it reads or writes anything: an empty path
        is in its key's domain, because a config may be built without one."""
        for name in names:
            if not getattr(self, name):
                raise ConfigFileError(f"config key '{name}': a path is required, got ''")

    @classmethod
    def from_dict(cls, mapping: dict, source):
        """The config that ``mapping`` (key -> value) holds, as read from the
        file ``source``: a key that is not in the config, or a value outside
        its key's domain, raises ConfigFileError naming the file."""
        unknown = set(mapping) - {f.name for f in dataclasses.fields(cls)}
        if unknown:
            raise ConfigFileError(f"'{source}': unknown config keys: {sorted(unknown)}")
        try:
            return cls(**mapping)
        except ConfigFileError as e:
            raise ConfigFileError(f"'{source}': {e}") from e

    @classmethod
    def from_file(cls, path):
        domains = {f.name: f.metadata["domain"] for f in dataclasses.fields(cls)}
        return cls.from_dict({k: domains[k].parse(k, v) if k in domains else v
                              for k, v in parse_kv_file(path).items()}, path)


@dataclass
class PretrainConfig(_Config):
    """Everything a pretraining run needs; all keys reachable from a config file."""
    dataset: str = key("", TEXT)
    seed: int = key(0, NON_NEGATIVE_INT)
    epochs: int = key(2, POSITIVE_INT)
    batch_size: int = key(8, POSITIVE_INT)
    queries_per_ref: int = key(10, POSITIVE_INT)
    # geometry
    h_ref: int = key(64, POSITIVE_INT)
    h_q: int = key(32, POSITIVE_INT)
    patch_size: int = key(8, POSITIVE_INT)
    ref_scale_min: float = key(0.3, SCALE)
    ref_scale_max: float = key(1.0, SCALE)
    q_scale_min: float = key(0.05, SCALE)
    q_scale_max: float = key(0.3, SCALE)
    flip_prob: float = key(0.5, FRACTION)
    # channel grouping
    group_setting: str = key("all", TEXT)
    group_sampling: bool = key(True, BOOL)
    # attention / reference masking
    same_group_masking: bool = key(False, BOOL)
    eta: float = key(0.8, FRACTION)
    # cluster objective
    cluster_loss: bool = key(True, BOOL)
    num_prototypes: int = key(256, POSITIVE_INT)
    tau: float = key(0.05, POSITIVE)
    sinkhorn_iters: int = key(3, NON_NEGATIVE_INT)
    # encoder
    depth: int = key(4, POSITIVE_INT)
    width: int = key(64, POSITIVE_INT)
    heads: int = key(4, POSITIVE_INT)
    mlp_ratio: int = key(4, POSITIVE_INT)
    # optimizer (paper recipe scalars; the warmup is ours)
    lr: float = key(6.25e-5, POSITIVE)
    weight_decay: float = key(0.1, NON_NEGATIVE)
    warmup_frac: float = key(0.05, FRACTION)
    # harness
    log_every: int = key(1, POSITIVE_INT)
    checkpoint_every_epochs: int = key(1, POSITIVE_INT)

    def rules(self):
        for a, b in [("h_ref", "patch_size"), ("h_q", "patch_size"), ("width", "heads")]:
            yield (a, b), getattr(self, a) % getattr(self, b) == 0, f"{a} must be divisible by {b}"
        d_pe = encoding_widths(self.width)[1]
        yield (("width",), d_pe % 4 == 0,
               f"its position part ({d_pe}, see encoding_widths) must be divisible by 4")
        for lo, hi in [("ref_scale_min", "ref_scale_max"), ("q_scale_min", "q_scale_max")]:
            yield (lo, hi), getattr(self, lo) <= getattr(self, hi), f"{lo} must be <= {hi}"

    def hash(self) -> str:
        canon = json.dumps(self.to_dict(), sort_keys=True)
        return hashlib.sha256(canon.encode()).hexdigest()[:16]

    @property
    def n_ref(self):
        return (self.h_ref // self.patch_size) ** 2

    @property
    def n_q(self):
        return (self.h_q // self.patch_size) ** 2


@dataclass
class FinetuneConfig(_Config):
    """End-to-end segmentation finetuning on a labeled dataset."""
    dataset: str = key("", TEXT)
    labels: str = key("", TEXT)
    checkpoint: str = key("", TEXT)        # pretrained weights; empty needs a pretrain_cfg
    classes: int = key(2, POSITIVE_INT)
    seed: int = key(0, NON_NEGATIVE_INT)
    steps: int = key(300, POSITIVE_INT)
    batch_size: int = key(8, POSITIVE_INT)
    lr: float = key(1e-4, POSITIVE)
    weight_decay: float = key(0.05, NON_NEGATIVE)
    warmup_frac: float = key(0.05, FRACTION)
    val_fraction: float = key(0.25, PROPER_FRACTION)
    eval_every: int = key(25, POSITIVE_INT)
    runs: int = key(1, POSITIVE_INT)
    same_group_masking: bool = key(False, BOOL)
