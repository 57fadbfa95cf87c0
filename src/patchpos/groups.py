"""Channel grouping: presets, per-group patch embedding, encodings, sampling."""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .autodiff import Tensor, concat, gather_rows, gather_seq
from .nn import Linear


class ConfigError(ValueError):
    pass


# Band codes per channel group preset. A band may appear in several groups.
_S2_SIMILARITY = [["B2", "B3", "B4", "B8"], ["B5", "B6", "B7", "B8A"], ["B11", "B12"]]
_S1_SEPARATE = [["A-VV", "A-VH", "D-VV", "D-VH"], ["A-HH", "A-HV", "D-HH", "D-HV"]]

GROUP_PRESETS: dict[str, list[list[str]]] = {
    "s2-similarity": _S2_SIMILARITY,
    "s2+s1-separate": _S2_SIMILARITY + _S1_SEPARATE,
    "rgbn+s1-separate": [["B2"], ["B3"], ["B4"], ["B8"]] + _S1_SEPARATE,
    "s2+s1-mixed": _S2_SIMILARITY + [["B1", "A-VV", "A-VH", "D-VV", "D-VH"],
                                     ["B1", "A-HH", "A-HV", "D-HH", "D-HV"]],
    "s2+s1+dem-separate": _S2_SIMILARITY + _S1_SEPARATE + [["DEM"]],
    "best": [["B1", "B2"], ["B3", "B7"], ["B4", "B8A"], ["B11"],
             ["DEM", "A-VV", "A-VH", "D-VH"], ["A-HH", "A-HV", "D-VV", "D-HH"]],
}


@dataclass
class GroupSetting:
    """Ordered partition-with-duplicates of channel indices.

    ``groups`` index the dataset's ``num_channels`` channels. ``channels``
    lists, sorted, the ones some group reads, and ``pruned_groups`` index the
    same bands within that subset: the layout ``DatasetReader.sample(i,
    channels)`` returns.
    """
    name: str
    groups: list[list[int]]
    num_channels: int
    channels: list[int] = field(init=False)
    pruned_groups: list[list[int]] = field(init=False)

    def __post_init__(self):
        if len(self.groups) < 1:
            raise ConfigError("a group setting needs at least one group")
        self.channels = sorted({c for g in self.groups for c in g})
        at = {c: i for i, c in enumerate(self.channels)}
        self.pruned_groups = [[at[c] for c in g] for g in self.groups]

    @property
    def num_groups(self):
        return len(self.groups)

    def groups_for(self, channels: int) -> list[list[int]]:
        """The groups as indices into inputs with ``channels`` channels: the
        dataset's full set or the pruned subset (the two agree when every
        channel is used)."""
        if channels == len(self.channels):
            return self.pruned_groups
        if channels == self.num_channels:
            return self.groups
        raise ValueError(f"group setting '{self.name}' reads {len(self.channels)} of "
                         f"{self.num_channels} channels; got an input with {channels}")


def _normalize(name: str) -> str:
    return name.lower().replace(" ", "-").replace("_", "-")


def build_group_setting(spec: str, channel_tags: list[str]) -> GroupSetting:
    """Resolve a preset name, ``all`` (single group), or an explicit
    ``B2,B3|B11,B12`` band-code listing against the dataset's channel tags."""
    tag_index: dict[str, int] = {}
    for i, t in enumerate(channel_tags):
        tag_index.setdefault(t, i)
    norm = _normalize(spec)
    if norm == "all":
        return GroupSetting("all", [list(range(len(channel_tags)))], len(channel_tags))
    if norm in GROUP_PRESETS:
        bands = GROUP_PRESETS[norm]
    elif "," in spec or "|" in spec:
        bands = [[b.strip() for b in grp.split(",") if b.strip()] for grp in spec.split("|")]
    else:
        raise ConfigError(f"unknown group setting '{spec}'; "
                          f"presets: {sorted(GROUP_PRESETS)} or explicit 'B2,B3|B11,B12'")
    groups = []
    for grp in bands:
        idx = []
        for code in grp:
            if code not in tag_index:
                raise ConfigError(f"band '{code}' of group setting '{spec}' not in dataset "
                                  f"channels {channel_tags}")
            idx.append(tag_index[code])
        groups.append(idx)
    return GroupSetting(norm, groups, len(channel_tags))


@dataclass
class GroupedTokens:
    """Token sequence with per-token group and spatial-position ids.

    ``tokens`` may carry leading batch dimensions; group/position ids apply
    to the shared sequence axis (second to last).
    """
    tokens: Tensor
    group_ids: np.ndarray
    position_ids: np.ndarray

    @property
    def length(self):
        return self.tokens.shape[-2]


class GroupEmbedder:
    """One linear patch embedding per channel group."""

    def __init__(self, rng: np.random.Generator, setting: GroupSetting,
                 patch: int, width: int, dtype=np.float32):
        self.setting = setting
        self.patch = patch
        self.width = width
        self.embedders = [Linear(rng, patch * patch * len(g), width, dtype=dtype)
                          for g in setting.groups]

    def params(self, prefix: str) -> dict[str, Tensor]:
        out = {}
        for g, emb in enumerate(self.embedders):
            out.update(emb.params(f"{prefix}.group{g}"))
        return out

    def __call__(self, patches: np.ndarray, choice: np.ndarray | None = None) -> GroupedTokens:
        """Embed (..., N, C, P, P) patches; C is the dataset's channel count
        or the pruned count of ``GroupSetting.channels``.

        Without ``choice``: (..., G*N, width) tokens, group-major along the
        sequence axis. With ``choice``, one group id per patch shaped
        (..., N): only the chosen group embeds each patch, one GEMM per group
        over the patches that chose it, and the (..., N, width) tokens come
        back in position order, as ``sample_groups`` would leave them.
        """
        if patches.shape[-1] != self.patch or patches.shape[-2] != self.patch:
            raise ValueError(f"patch size mismatch: got {patches.shape[-2:]}, expected {self.patch}")
        groups = self.setting.groups_for(patches.shape[-3])
        if choice is not None:
            return self._embed_chosen(patches, groups, choice)
        n = patches.shape[-4]
        lead = patches.shape[:-4]
        pieces = []
        for chan, emb in zip(groups, self.embedders):
            flat = patches[..., chan, :, :].reshape(lead + (n, len(chan) * self.patch * self.patch))
            pieces.append(emb(Tensor(flat)))
        tokens = concat(pieces, axis=-2) if len(pieces) > 1 else pieces[0]
        group_ids = np.repeat(np.arange(self.setting.num_groups), n)
        position_ids = np.tile(np.arange(n), self.setting.num_groups)
        return GroupedTokens(tokens, group_ids, position_ids)

    def _embed_chosen(self, patches, groups, choice) -> GroupedTokens:
        lead_n = patches.shape[:-3]
        if choice.shape != lead_n:
            raise ValueError(f"group choice shape {choice.shape}, expected {lead_n}")
        flat = patches.reshape((-1,) + patches.shape[-3:])
        c = choice.reshape(-1)
        rows = [np.flatnonzero(c == g) for g in range(self.setting.num_groups)]
        pieces = [emb(Tensor(flat[r[:, None], chan].reshape(r.size, -1)))
                  for r, chan, emb in zip(rows, groups, self.embedders) if r.size]
        tokens = concat(pieces, axis=0) if len(pieces) > 1 else pieces[0]
        order = np.concatenate(rows)                # the pieces' rows, as patch indices
        inverse = np.empty_like(order)
        inverse[order] = np.arange(order.size)
        tokens = gather_rows(tokens, inverse).reshape(lead_n + (self.width,))
        n = lead_n[-1]
        return GroupedTokens(tokens, choice, np.broadcast_to(np.arange(n), lead_n).copy())


def sincos_position_encoding(grid_h: int, grid_w: int, dim: int, dtype=np.float32) -> np.ndarray:
    """Fixed 2-d sine-cosine encoding over a patch grid, row-major positions."""
    if dim % 4:
        raise ConfigError(f"positional encoding width {dim} must be divisible by 4")
    half = dim // 2

    def encode_1d(pos):
        omega = 1.0 / (10000.0 ** (np.arange(half // 2, dtype=np.float64) / (half // 2)))
        angles = np.outer(pos, omega)
        return np.concatenate([np.sin(angles), np.cos(angles)], axis=1)

    ys, xs = np.meshgrid(np.arange(grid_h), np.arange(grid_w), indexing="ij")
    enc = np.concatenate([encode_1d(ys.reshape(-1)), encode_1d(xs.reshape(-1))], axis=1)
    return enc.astype(dtype)


class GroupPositionEncoding:
    """Learned per-group vector concatenated with a fixed sinusoidal position
    vector; the concatenation is added to each token."""

    def __init__(self, rng: np.random.Generator, num_groups: int, width: int,
                 dtype=np.float32, ge_fraction: float = 0.25):
        d_ge = int(width * ge_fraction)
        d_ge -= d_ge % 2
        d_pe = width - d_ge
        if d_pe % 4:
            raise ConfigError(f"width {width} cannot be split into even group/position parts")
        self.d_ge = d_ge
        self.d_pe = d_pe
        self.group_table = Tensor((rng.standard_normal((num_groups, d_ge)) * 0.02).astype(dtype),
                                  requires_grad=True)
        self.dtype = dtype
        self._pe_cache: dict[tuple[int, int], np.ndarray] = {}

    def params(self, prefix: str) -> dict[str, Tensor]:
        return {f"{prefix}.group_table": self.group_table}

    def position_table(self, grid_h: int, grid_w: int) -> np.ndarray:
        key = (grid_h, grid_w)
        if key not in self._pe_cache:
            self._pe_cache[key] = sincos_position_encoding(grid_h, grid_w, self.d_pe, self.dtype)
        return self._pe_cache[key]

    def __call__(self, tokens: GroupedTokens, grid_h: int, grid_w: int) -> GroupedTokens:
        pe = self.position_table(grid_h, grid_w)
        ge_rows = gather_rows(self.group_table, tokens.group_ids)
        enc = concat([ge_rows, Tensor(pe[tokens.position_ids])], axis=-1)
        return GroupedTokens(tokens.tokens + enc, tokens.group_ids, tokens.position_ids)


def draw_groups(num_groups: int, shape: tuple, rng: np.random.Generator) -> np.ndarray:
    """One uniformly drawn group id per position, ``shape`` = (..., N)."""
    return rng.integers(0, num_groups, size=shape)


def sample_groups(tokens: GroupedTokens, rng: np.random.Generator) -> GroupedTokens:
    """Keep one uniformly chosen group's token per spatial position.

    Sequence length drops from G*N to N; the draw is independent per leading
    batch element. Output is ordered by position id. ``GroupEmbedder`` given
    the same :func:`draw_groups` choice gives the same tokens without
    embedding the G-1 groups this discards.
    """
    length = tokens.length
    if length == 0:
        return tokens
    n = int(tokens.position_ids.max()) + 1
    g = length // max(n, 1)
    if g * n != length:
        raise ValueError(f"sequence length {length} is not G*N for N={n}")
    if g == 1:
        return tokens
    lead = tokens.tokens.shape[:-2]
    choice = draw_groups(g, lead + (n,), rng)
    idx = choice * n + np.arange(n)
    out = gather_seq(tokens.tokens, idx)
    return GroupedTokens(out, choice, np.broadcast_to(np.arange(n), lead + (n,)).copy())
