"""Attention masking invariants, the encoder stack and the cross-attention
block."""
import logging
from collections import Counter

import numpy as np
import pytest

from patchpos.autodiff import Tensor, attention, softmax_lastdim
from patchpos.encoder import (Block, CrossAttentionBlock, Encoder, MultiHeadAttention,
                              attention_mask_bias)
from patchpos.groups import GroupedTokens


def test_masked_weights_exactly_zero():
    # Weight on a masked pair must underflow to exactly 0, not just be small.
    rng = np.random.default_rng(0)
    scores_q = Tensor(rng.standard_normal((5, 4)).astype(np.float32))
    k = Tensor(rng.standard_normal((6, 4)).astype(np.float32))
    mask = rng.integers(0, 2, size=(5, 6))
    mask[:, 0] = 1  # no fully-masked rows
    bias = attention_mask_bias(np.array([0, 0, 1, 1, 2]), np.array([0, 1, 1, 2, 2, 0]))
    logits = (scores_q @ k.swapaxes(0, 1)) + Tensor(bias)
    weights = softmax_lastdim(logits).data
    same = np.array([0, 0, 1, 1, 2])[:, None] == np.array([0, 1, 1, 2, 2, 0])[None, :]
    assert np.all(weights[same] == 0.0)
    assert np.allclose(weights.sum(axis=-1), 1.0, atol=1e-6)


def test_masked_attention_hand_case():
    # 1 query, 3 keys, known values: masking key 1 renormalizes over 0 and 2.
    q = Tensor(np.array([[1.0, 0.0]], dtype=np.float32))
    k = Tensor(np.array([[1.0, 0.0], [5.0, 0.0], [0.0, 0.0]], dtype=np.float32))
    v = Tensor(np.array([[1.0], [100.0], [3.0]], dtype=np.float32))
    bias = attention_mask_bias(np.array([0]), np.array([1, 0, 2]))   # key 1 shares group 0
    out = attention(q, k, v, 1, bias).data
    s0 = np.exp(1.0 / np.sqrt(2))
    s2 = np.exp(0.0)
    want = (s0 * 1.0 + s2 * 3.0) / (s0 + s2)
    assert np.allclose(out, [[want]], atol=1e-5)


def test_masked_attention_none_mask():
    rng = np.random.default_rng(1)
    q = Tensor(rng.standard_normal((3, 4)).astype(np.float32))
    out = attention(q, q, q, 1, None)
    assert out.shape == (3, 4)


def test_fully_masked_row_falls_back_with_log(caplog):
    groups = np.array([0, 0, 0])
    with caplog.at_level(logging.WARNING, logger="patchpos.encoder"):
        bias = attention_mask_bias(groups, groups)
    assert "fallback" in caplog.text
    assert np.all(bias == 0.0)  # every row fell back to unmasked


def test_multihead_shapes_and_batching():
    rng = np.random.default_rng(2)
    attn = MultiHeadAttention(rng, width=16, heads=4)
    x = Tensor(rng.standard_normal((2, 3, 5, 16)).astype(np.float32))
    out = attn(x, x, None)
    assert out.shape == (2, 3, 5, 16)


def tape_ops(out: Tensor) -> dict:
    """Op label counts of the non-leaf nodes reachable from ``out``."""
    counts, seen, stack = Counter(), set(), [out]
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen.add(id(node))
            counts[node._op] += node._op != "leaf"
            stack.extend(node._parents)
    return {op: n for op, n in counts.items() if n}


@pytest.mark.parametrize("masked", [False, True])
def test_block_tape_is_fused(masked):
    # One node per layernorm, projection, attention call and residual; GELU
    # runs inside the MLP's first projection.
    rng = np.random.default_rng(7)
    block = Block(rng, width=16, heads=2, mlp_ratio=4)
    x = Tensor(rng.standard_normal((2, 6, 16)).astype(np.float32), requires_grad=True)
    gids = np.array([0, 0, 1, 1, 2, 2])
    bias = attention_mask_bias(gids, gids) if masked else None
    assert tape_ops(block(x, bias)) == {"layernorm": 2, "linear": 6, "attention": 1, "add": 2}


def test_encoder_permutation_equivariance():
    # Token order only matters through the ids; permuting tokens permutes outputs.
    rng = np.random.default_rng(3)
    enc = Encoder(rng, depth=2, width=16, heads=2, mlp_ratio=4)
    x = np.random.default_rng(4).standard_normal((6, 16)).astype(np.float32)
    gids = np.array([0, 0, 1, 1, 2, 2])
    out = enc(GroupedTokens(Tensor(x), gids, np.arange(6)), True).data
    perm = np.array([3, 1, 5, 0, 2, 4])
    out_p = enc(GroupedTokens(Tensor(x[perm]), gids[perm], np.arange(6)[perm]), True).data
    assert np.allclose(out_p, out[perm], atol=1e-5)


def test_block_residual_structure():
    # Zeroing attention+mlp outputs reduces a block to the identity.
    rng = np.random.default_rng(5)
    block = Block(rng, width=8, heads=2, mlp_ratio=4)
    block.attn.wo.w.data[:] = 0
    block.attn.wo.b.data[:] = 0
    block.mlp.fc2.w.data[:] = 0
    block.mlp.fc2.b.data[:] = 0
    x = Tensor(np.random.default_rng(6).standard_normal((4, 8)).astype(np.float32))
    assert np.allclose(block(x, None).data, x.data, atol=1e-6)


def test_cross_attention_block():
    rng = np.random.default_rng(9)
    cross = CrossAttentionBlock(rng, width=16, heads=2, mlp_ratio=4)
    zq = Tensor(np.random.default_rng(10).standard_normal((2, 5, 16)).astype(np.float32))
    ref = Tensor(np.random.default_rng(11).standard_normal((2, 3, 16)).astype(np.float32))
    out = cross(zq, ref, np.zeros((2, 5), dtype=np.int64),
                np.ones((2, 3), dtype=np.int64), True)
    assert out.shape == (2, 5, 16)
    with pytest.raises(ValueError):
        cross(zq, Tensor(np.zeros((2, 0, 16), dtype=np.float32)),
              np.zeros((2, 5), dtype=np.int64), np.zeros((2, 0), dtype=np.int64), False)


def test_cross_attention_masking_changes_output():
    rng = np.random.default_rng(12)
    cross = CrossAttentionBlock(rng, width=16, heads=2, mlp_ratio=4)
    zq = Tensor(np.random.default_rng(13).standard_normal((1, 4, 16)).astype(np.float32))
    ref = Tensor(np.random.default_rng(14).standard_normal((1, 6, 16)).astype(np.float32))
    qg = np.zeros((1, 4), dtype=np.int64)
    rg = np.array([[0, 0, 0, 1, 1, 1]])
    with_mask = cross(zq, ref, qg, rg, True).data
    without = cross(zq, ref, qg, rg, False).data
    assert not np.allclose(with_mask, without)
