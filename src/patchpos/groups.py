"""Channel grouping: presets, per-group patch embedding, encodings, sampling."""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .autodiff import Tensor, concat
from .config import ConfigFileError, encoding_widths
from .nn import Linear


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
    """Ordered partition-with-duplicates of the dataset's channel indices.

    ``groups`` index the dataset's channels. ``channels`` lists, sorted, the
    ones some group reads: the layout ``DatasetReader.sample(i, channels)``
    returns and the only one ``GroupEmbedder`` accepts.
    """
    name: str
    groups: list[list[int]]
    channels: list[int] = field(init=False)

    def __post_init__(self):
        self.channels = sorted({c for g in self.groups for c in g})

    @property
    def num_groups(self):
        return len(self.groups)


def _normalize(name: str) -> str:
    return name.lower().replace(" ", "-").replace("_", "-")


def build_group_setting(spec: str, channel_tags: list[str]) -> GroupSetting:
    """Resolve a preset name, ``all`` (single group), or an explicit
    ``B2,B3|B11,B12`` band-code listing against the dataset's channel tags.
    An unknown preset, an empty group or a band the dataset lacks raises
    ConfigFileError naming the ``group_setting`` key."""
    tag_index: dict[str, int] = {}
    for i, t in enumerate(channel_tags):
        tag_index.setdefault(t, i)
    norm = _normalize(spec)
    if norm == "all":
        return GroupSetting("all", [list(range(len(channel_tags)))])
    if norm in GROUP_PRESETS:
        bands = GROUP_PRESETS[norm]
    elif "," in spec or "|" in spec:
        bands = [[b.strip() for b in grp.split(",") if b.strip()] for grp in spec.split("|")]
    else:
        raise ConfigFileError(f"config key 'group_setting': unknown setting '{spec}'; presets: "
                              f"{sorted(GROUP_PRESETS)}, 'all' or explicit 'B2,B3|B11,B12'")
    for g, grp in enumerate(bands):
        if not grp:
            raise ConfigFileError(f"config key 'group_setting': group {g} of '{spec}' is empty")
        for code in grp:
            if code not in tag_index:
                raise ConfigFileError(f"config key 'group_setting': band '{code}' of '{spec}' "
                                      f"not in dataset channels {channel_tags}")
    return GroupSetting(norm, [[tag_index[code] for code in grp] for grp in bands])


@dataclass
class GroupedTokens:
    """Token sequence with per-token group and spatial-position ids.

    ``tokens`` may carry leading batch dimensions before the sequence axis
    (second to last). ``position_ids`` is one (L,) array that every sequence
    shares; ``group_ids`` is (L,) too, or one row per sequence when each
    drew its own groups.
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
        at = {c: i for i, c in enumerate(setting.channels)}
        self.groups = [[at[c] for c in g] for g in setting.groups]     # into ``channels``
        self.embedders = [Linear(rng, patch * patch * len(g), width, dtype=dtype)
                          for g in setting.groups]

    def params(self, prefix: str) -> dict[str, Tensor]:
        out = {}
        for g, emb in enumerate(self.embedders):
            out.update(emb.params(f"{prefix}.group{g}"))
        return out

    def __call__(self, patches: np.ndarray, choice: np.ndarray | None = None) -> GroupedTokens:
        """Embed (..., N, C, P, P) patches whose C channels are, in order,
        ``setting.channels``.

        Without ``choice`` every group embeds every patch: (..., G*N, width)
        tokens, group-major along the sequence axis. With ``choice``, one
        group id per patch shaped (..., N), only the chosen group embeds each
        patch and the (..., N, width) tokens come back in position order, as
        ``sample_groups`` would leave them. Either way each group runs one
        GEMM over the patches of its tokens.
        """
        lead, (n, c, p, q) = patches.shape[:-4], patches.shape[-4:]
        if (p, q) != (self.patch, self.patch):
            raise ValueError(f"patch size mismatch: got {(p, q)}, expected {self.patch}")
        if c != len(self.setting.channels):
            raise ValueError(f"group setting '{self.setting.name}' reads "
                             f"{len(self.setting.channels)} channels; got an input with {c}")
        if choice is None:
            length = self.setting.num_groups * n
            group_ids = np.arange(length) // n          # shared by every sequence
        elif choice.shape != lead + (n,):
            raise ValueError(f"group choice shape {choice.shape}, expected {lead + (n,)}")
        else:
            length, group_ids = n, choice
        shape, positions = lead + (length,), np.arange(length) % n
        token_group = np.broadcast_to(group_ids, shape).reshape(-1)
        t = np.arange(token_group.size)
        source = t // length * n + t % n                # each token's patch
        flat = patches.reshape((-1, c, p, q))
        rows = [np.flatnonzero(token_group == g) for g in range(self.setting.num_groups)]
        # a group that holds every token embeds straight into the token shape
        pieces = [emb(Tensor(flat[source[r, None], chan].reshape(
                      (shape if r.size == t.size else (r.size,)) + (-1,))))
                  for r, chan, emb in zip(rows, self.groups, self.embedders) if r.size]
        if len(pieces) == 1:
            return GroupedTokens(pieces[0], group_ids, positions)
        tokens = concat(pieces, axis=0)
        order = np.concatenate(rows)                    # the pieces' rows, as tokens
        if (order != t).any():
            inverse = np.empty_like(order)
            inverse[order] = t
            tokens = tokens[inverse]
        return GroupedTokens(tokens.reshape(shape + (self.width,)), group_ids, positions)


def sincos_position_encoding(grid_h: int, grid_w: int, dim: int, dtype=np.float32) -> np.ndarray:
    """Fixed 2-d sine-cosine encoding over a patch grid, row-major positions."""
    if dim % 4:
        raise ValueError(f"positional encoding width {dim} must be divisible by 4")
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
    vector; the concatenation is added to each token. ``encoding_widths``
    splits the width between them."""

    def __init__(self, rng: np.random.Generator, num_groups: int, width: int,
                 dtype=np.float32):
        self.d_ge, self.d_pe = encoding_widths(width)
        table = rng.standard_normal((num_groups, self.d_ge)) * 0.02
        self.group_table = Tensor(table.astype(dtype), requires_grad=True)
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
        ge_rows = self.group_table[tokens.group_ids]
        pe_rows = np.broadcast_to(pe[tokens.position_ids], ge_rows.shape[:-1] + (self.d_pe,))
        enc = concat([ge_rows, Tensor(pe_rows)], axis=-1)
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
    choice = draw_groups(g, tokens.tokens.shape[:-2] + (n,), rng)
    idx = choice * n + np.arange(n)
    out = tokens.tokens[(*np.indices(idx.shape, sparse=True)[:-1], idx)]
    return GroupedTokens(out, choice, np.arange(n))
