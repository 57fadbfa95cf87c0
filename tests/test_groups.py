"""Channel grouping: presets, embedding layout, encodings, group sampling."""
import re
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import chisquare

from patchpos.autodiff import Tensor
from patchpos.config import ConfigFileError
from patchpos.data import ALL_BANDS
from patchpos.groups import (GROUP_PRESETS, GroupEmbedder,
                             GroupPositionEncoding, GroupedTokens,
                             build_group_setting, draw_groups, sample_groups,
                             sincos_position_encoding)


def test_presets_have_expected_group_counts():
    assert len(GROUP_PRESETS["s2-similarity"]) == 3
    assert len(GROUP_PRESETS["s2+s1-separate"]) == 5
    assert len(GROUP_PRESETS["rgbn+s1-separate"]) == 6
    assert len(GROUP_PRESETS["s2+s1-mixed"]) == 5
    assert len(GROUP_PRESETS["s2+s1+dem-separate"]) == 6
    assert len(GROUP_PRESETS["best"]) == 6


def test_best_preset_contents():
    best = GROUP_PRESETS["best"]
    assert best[0] == ["B1", "B2"]
    assert best[3] == ["B11"]
    assert best[4] == ["DEM", "A-VV", "A-VH", "D-VH"]
    assert best[5] == ["A-HH", "A-HV", "D-VV", "D-HH"]


def test_build_group_setting_all():
    s = build_group_setting("all", ["B2", "B3", "B4"])
    assert s.num_groups == 1
    assert s.groups == [[0, 1, 2]]


def test_build_group_setting_preset():
    s = build_group_setting("best", ALL_BANDS)
    assert s.num_groups == 6
    assert all(len(g) >= 1 for g in s.groups)
    # group 3 is the lone B11 band
    assert s.groups[3] == [ALL_BANDS.index("B11")]


def test_build_group_setting_explicit():
    s = build_group_setting("B2,B3|B11,B12", ["B2", "B3", "B11", "B12"])
    assert s.groups == [[0, 1], [2, 3]]


def test_build_group_setting_errors():
    for spec, tags, message in [
            ("no-such-preset", ["B2"], "unknown setting 'no-such-preset'"),
            ("B2|B12", ["B2"], "band 'B12' of 'B2|B12' not in dataset channels"),
            ("B2||B3", ["B2", "B3"], "group 1 of 'B2||B3' is empty"),
            ("|", ["B2"], "group 0 of '|' is empty")]:
        message = re.escape(f"config key 'group_setting': {message}")
        with pytest.raises(ConfigFileError, match=message):
            build_group_setting(spec, tags)


def test_embedder_group_major_layout():
    rng = np.random.default_rng(0)
    setting = build_group_setting("B2|B3", ["B2", "B3"])
    emb = GroupEmbedder(rng, setting, patch=4, width=8)
    patches = np.random.default_rng(1).standard_normal((5, 2, 4, 4)).astype(np.float32)
    out = emb(patches)
    assert out.tokens.shape == (10, 8)
    assert np.array_equal(out.group_ids, [0] * 5 + [1] * 5)
    assert np.array_equal(out.position_ids, list(range(5)) * 2)
    # token g*N+i depends only on channel g of patch i
    single = emb(patches[2:3])
    assert np.allclose(out.tokens.data[2], single.tokens.data[0])
    assert np.allclose(out.tokens.data[5 + 2], single.tokens.data[1])


def test_embedder_token_count_scales_with_groups():
    rng = np.random.default_rng(0)
    tags = ALL_BANDS
    for name, g in [("all", 1), ("s2-similarity", 3), ("best", 6)]:
        setting = build_group_setting(name, tags)
        patches = np.zeros((36, len(setting.channels), 8, 8), dtype=np.float32)
        emb = GroupEmbedder(rng, setting, 8, 16)
        assert emb(patches).tokens.shape == (g * 36, 16), name
    # G=3 on a 6x6 grid gives the documented 108 tokens
    emb = GroupEmbedder(rng, build_group_setting("s2-similarity", tags), 8, 16)
    assert emb(np.zeros((36, 10, 8, 8), dtype=np.float32)).tokens.shape[0] == 108


def tape_ops(root):
    """Counts of the non-leaf ops on the tape that built ``root``."""
    seen, stack, ops = {id(root)}, [root], Counter()
    while stack:
        node = stack.pop()
        if node._op != "leaf":
            ops[node._op] += 1
        for p in node._parents:
            if id(p) not in seen:
                seen.add(id(p))
                stack.append(p)
    return ops


@pytest.mark.parametrize("spec, lead, sampled, ops", [
    ("all", (), False, {"linear": 1}),
    ("all", (3, 2), False, {"linear": 1}),
    ("all", (3, 2), True, {"linear": 1}),
    ("B2|B3,B4", (), False, {"linear": 2, "concat": 1, "reshape": 1}),
    ("B2|B3,B4", (3,), False, {"linear": 2, "concat": 1, "getitem": 1, "reshape": 1}),
], ids=["G1", "G1-batched", "G1-sampled", "G2", "G2-batched"])
def test_embedder_tape(spec, lead, sampled, ops):
    # one GEMM per group; the rows are permuted only when the groups' pieces
    # are not already in token order, and G = 1 embeds straight into shape
    setting = build_group_setting(spec, ["B2", "B3", "B4"])
    emb = GroupEmbedder(np.random.default_rng(0), setting, 2, 8)
    patches = np.random.default_rng(1).standard_normal(lead + (4, 3, 2, 2)).astype(np.float32)
    choice = np.zeros(lead + (4,), dtype=np.int64) if sampled else None
    out = emb(patches, choice)
    length = 4 if sampled else 4 * setting.num_groups
    assert out.tokens.shape == lead + (length, 8)
    assert np.array_equal(out.position_ids, np.arange(length) % 4)
    assert tape_ops(out.tokens) == ops


def test_sincos_encoding_closed_form():
    enc = sincos_position_encoding(2, 3, 8)
    assert enc.shape == (6, 8)
    # first half encodes the row, second half the column
    half = 4
    # position (0,0): sin(0)=0, cos(0)=1 everywhere
    assert np.allclose(enc[0, :half], [0, 0, 1, 1], atol=1e-6)
    assert np.allclose(enc[0, half:], [0, 0, 1, 1], atol=1e-6)
    # position (1, 2) = row-major index 5: row part sin(1*w), col part sin(2*w)
    w = 1.0 / (10000.0 ** (np.arange(2) / 2))
    assert np.allclose(enc[5, :half], np.concatenate([np.sin(w), np.cos(w)]), atol=1e-6)
    assert np.allclose(enc[5, half:], np.concatenate([np.sin(2 * w), np.cos(2 * w)]), atol=1e-6)
    with pytest.raises(ValueError, match="divisible by 4"):
        sincos_position_encoding(2, 2, 6)


def test_group_position_encoding_added():
    rng = np.random.default_rng(0)
    enc = GroupPositionEncoding(rng, num_groups=2, width=16)
    tokens = GroupedTokens(Tensor(np.zeros((4, 16), dtype=np.float32)),
                           np.array([0, 0, 1, 1]), np.array([0, 1, 0, 1]))
    out = enc(tokens, 1, 2)
    ge = enc.group_table.data
    pe = enc.position_table(1, 2)
    want = np.concatenate([ge[[0, 0, 1, 1]], pe[[0, 1, 0, 1]]], axis=1)
    assert np.allclose(out.tokens.data, want, atol=1e-6)
    assert enc.d_ge + enc.d_pe == 16


def test_sample_groups_length_and_layout():
    rng = np.random.default_rng(0)
    n, g, d = 6, 3, 4
    data = np.arange(g * n * d, dtype=np.float32).reshape(g * n, d)
    tokens = GroupedTokens(Tensor(data), np.repeat(np.arange(g), n),
                           np.tile(np.arange(n), g))
    out = sample_groups(tokens, rng)
    assert out.tokens.shape == (n, d)
    assert np.array_equal(out.position_ids, np.arange(n))
    # each kept token is exactly the chosen group's token at that position
    for i in range(n):
        choice = out.group_ids[i]
        assert np.array_equal(out.tokens.data[i], data[choice * n + i])


def test_sample_groups_noop_for_single_group():
    tokens = GroupedTokens(Tensor(np.zeros((4, 2), dtype=np.float32)),
                           np.zeros(4, dtype=np.int64), np.arange(4))
    assert sample_groups(tokens, np.random.default_rng(0)) is tokens


def test_sample_groups_batched_independent_draws():
    rng = np.random.default_rng(0)
    n, g, b = 8, 4, 16
    data = np.zeros((b, g * n, 2), dtype=np.float32)
    tokens = GroupedTokens(Tensor(data), np.repeat(np.arange(g), n),
                           np.tile(np.arange(n), g))
    out = sample_groups(tokens, rng)
    assert out.tokens.shape == (b, n, 2)
    assert out.group_ids.shape == (b, n)
    # batch elements draw independently
    assert not all(np.array_equal(out.group_ids[0], out.group_ids[i]) for i in range(b))


def test_sample_groups_uniform_chi_square():
    rng = np.random.default_rng(7)
    n, g = 4, 5
    tokens = GroupedTokens(Tensor(np.zeros((g * n, 2), dtype=np.float32)),
                           np.repeat(np.arange(g), n), np.tile(np.arange(n), g))
    draws = np.concatenate([sample_groups(tokens, rng).group_ids
                            for _ in range(2500)])
    counts = np.bincount(draws, minlength=g)
    assert counts.sum() == 10000
    _, p = chisquare(counts)
    assert p > 0.01, f"group draws non-uniform: counts {counts}, p={p}"


def test_setting_channels_and_pruned_groups():
    # the embedder's groups index the pruned subset ``channels``
    rng = np.random.default_rng(0)
    s = build_group_setting("best", ALL_BANDS)
    unused = ["B5", "B6", "B8", "B9", "B10", "B12", "D-HV"]
    assert [ALL_BANDS[c] for c in s.channels] == [b for b in ALL_BANDS if b not in unused]
    emb = GroupEmbedder(rng, s, 2, 8)
    for full, pruned in zip(s.groups, emb.groups):
        assert [s.channels[c] for c in pruned] == full
    # B1 sits in two groups of s2+s1-mixed; both point at the one pruned channel
    mixed = build_group_setting("s2+s1-mixed", ALL_BANDS)
    b1 = mixed.channels.index(ALL_BANDS.index("B1"))
    emb = GroupEmbedder(rng, mixed, 2, 8)
    assert emb.groups[3][0] == emb.groups[4][0] == b1
    explicit = build_group_setting("B2,B3|B11,B12", ALL_BANDS)
    assert GroupEmbedder(rng, explicit, 2, 8).groups == [[0, 1], [2, 3]]
    assert [ALL_BANDS[c] for c in explicit.channels] == ["B2", "B3", "B11", "B12"]
    # every channel used: the subset is the dataset's layout
    assert GroupEmbedder(rng, build_group_setting("all", ["B2", "B3"]), 2, 8).groups == [[0, 1]]


def test_embedder_rejects_the_full_layout_for_a_partial_setting():
    rng = np.random.default_rng(3)
    setting = build_group_setting("s2+s1-mixed", ALL_BANDS)
    emb = GroupEmbedder(rng, setting, patch=4, width=8)
    full = rng.standard_normal((2, 5, 22, 4, 4)).astype(np.float32)
    with pytest.raises(ValueError, match="'s2\\+s1-mixed' reads 19 channels; got an input with 22"):
        emb(full)
    assert emb(full[:, :, setting.channels]).tokens.shape == (2, 5 * 5, 8)


def embed_all_then_gather(emb, enc, patches, grid, choice):
    """The old path: embed every group, add the encodings to all G*N tokens,
    then keep the chosen group's token per position."""
    t = enc(emb(patches), *grid)
    n = patches.shape[-4]
    lead = np.indices(choice.shape, sparse=True)[:-1]
    return GroupedTokens(t.tokens[(*lead, choice * n + np.arange(n))], choice, np.arange(n))


@settings(max_examples=40)
@given(dtype=st.sampled_from([np.float64, np.float32]),
       lead=st.sampled_from([(), (3,), (2, 3)]), grid=st.sampled_from([(1, 1), (2, 3), (4, 4)]),
       spec=st.sampled_from(["B2|B3", "B2,B3|B3,B4|B4", "B4|B2,B3,B4|B2", "B2,B4|B3"]),
       seed=st.integers(0, 2 ** 32 - 1))
def test_sample_before_embed_matches_embed_all(dtype, lead, grid, spec, seed):
    tags = ["B2", "B3", "B4", "B8"]
    setting = build_group_setting(spec, tags)
    width, p = 16, 2
    n = grid[0] * grid[1]
    emb = GroupEmbedder(np.random.default_rng(seed), setting, p, width, dtype=dtype)
    enc = GroupPositionEncoding(np.random.default_rng(seed + 1), setting.num_groups, width,
                                dtype=dtype)
    rng = np.random.default_rng(seed + 2)
    patches = rng.standard_normal(lead + (n, len(setting.channels), p, p)).astype(dtype)
    weight = rng.standard_normal(lead + (n, width)).astype(dtype)
    params = list(emb.params("e").values()) + list(enc.params("g").values())

    def run(path):
        for t in params:
            t.grad = None
        choice = draw_groups(setting.num_groups, lead + (n,), np.random.default_rng(seed + 3))
        out = path(choice)
        (out.tokens * Tensor(weight)).sum().backward()
        assert np.array_equal(out.group_ids, choice)
        assert out.position_ids.shape == (n,) and np.array_equal(out.position_ids, np.arange(n))
        # a group no patch chose gets no gradient, which AdamW reads as zero
        return [out.tokens.data] + [np.zeros_like(t.data) if t.grad is None else t.grad.copy()
                                    for t in params]

    new = run(lambda c: enc(emb(patches, c), *grid))
    old = run(lambda c: embed_all_then_gather(emb, enc, patches, grid, c))
    bound = 1e-12 if dtype == np.float64 else 2e-6
    for got, want in zip(new, old):
        assert got.shape == want.shape and got.dtype == want.dtype
        scale = max(float(np.abs(want).max(initial=0.0)), 1e-30)
        assert float(np.abs(got - want).max(initial=0.0)) / scale <= bound


def test_draw_groups_is_sample_groups_draw():
    n, g = 6, 3
    tokens = GroupedTokens(Tensor(np.zeros((2, g * n, 4), dtype=np.float32)),
                           np.repeat(np.arange(g), n), np.tile(np.arange(n), g))
    out = sample_groups(tokens, np.random.default_rng(11))
    assert np.array_equal(out.group_ids, draw_groups(g, (2, n), np.random.default_rng(11)))
