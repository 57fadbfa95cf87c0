"""Transformer encoder with same-group attention masking, the backbone both
models share, and the single query-to-reference cross-attention block."""
from __future__ import annotations

import logging

import numpy as np

from .autodiff import Tensor, attention
from .config import PretrainConfig
from .groups import GroupEmbedder, GroupedTokens, GroupPositionEncoding, build_group_setting
from .nn import LayerNorm, Linear, Mlp

log = logging.getLogger(__name__)

_NEG_INF = -1e30


def attention_mask_bias(query_groups: np.ndarray, key_groups: np.ndarray) -> np.ndarray:
    """Additive attention bias from group ids.

    Same-group pairs get a large negative bias so their softmax weight
    underflows to exactly zero. Rows whose keys are all masked fall back to
    unmasked attention (logged); with at least two groups present among the
    keys this never triggers.
    """
    same = query_groups[..., :, None] == key_groups[..., None, :]
    dead = same.all(axis=-1)
    if dead.any():
        log.warning("attention mask fallback: %d fully-masked rows attend unmasked",
                    int(dead.sum()))
        same = same & ~dead[..., None]
    return np.where(same, _NEG_INF, 0.0).astype(np.float32)


class MultiHeadAttention:
    def __init__(self, rng, width: int, heads: int, dtype=np.float32):
        self.width = width
        self.heads = heads
        self.wq = Linear(rng, width, width, dtype=dtype)
        self.wk = Linear(rng, width, width, dtype=dtype)
        self.wv = Linear(rng, width, width, dtype=dtype)
        self.wo = Linear(rng, width, width, dtype=dtype)

    def params(self, prefix):
        return {**self.wq.params(f"{prefix}.wq"), **self.wk.params(f"{prefix}.wk"),
                **self.wv.params(f"{prefix}.wv"), **self.wo.params(f"{prefix}.wo")}

    def __call__(self, xq: Tensor, xkv: Tensor, bias: np.ndarray | None) -> Tensor:
        out = attention(self.wq(xq), self.wk(xkv), self.wv(xkv), self.heads, bias)
        return self.wo(out)


class Block:
    """Pre-norm transformer block: ln -> attention -> residual, ln -> mlp -> residual."""

    def __init__(self, rng, width: int, heads: int, mlp_ratio: int, dtype=np.float32):
        self.ln1 = LayerNorm(width, dtype=dtype)
        self.attn = MultiHeadAttention(rng, width, heads, dtype=dtype)
        self.ln2 = LayerNorm(width, dtype=dtype)
        self.mlp = Mlp(rng, width, width * mlp_ratio, dtype=dtype)

    def params(self, prefix):
        return {**self.ln1.params(f"{prefix}.ln1"), **self.attn.params(f"{prefix}.attn"),
                **self.ln2.params(f"{prefix}.ln2"), **self.mlp.params(f"{prefix}.mlp")}

    def __call__(self, x: Tensor, bias: np.ndarray | None) -> Tensor:
        h = self.ln1(x)
        x = x + self.attn(h, h, bias)
        return x + self.mlp(self.ln2(x))


class Encoder:
    """Stack of self-attention blocks with a final layernorm."""

    def __init__(self, rng, depth: int, width: int, heads: int, mlp_ratio: int,
                 dtype=np.float32):
        self.blocks = [Block(rng, width, heads, mlp_ratio, dtype=dtype) for _ in range(depth)]
        self.final_ln = LayerNorm(width, dtype=dtype)

    def params(self, prefix):
        out = {}
        for i, b in enumerate(self.blocks):
            out.update(b.params(f"{prefix}.block{i}"))
        out.update(self.final_ln.params(f"{prefix}.final_ln"))
        return out

    def __call__(self, tokens: GroupedTokens, same_group_masking: bool) -> Tensor:
        bias = None
        if same_group_masking:
            bias = attention_mask_bias(tokens.group_ids, tokens.group_ids)
        x = tokens.tokens
        for block in self.blocks:
            x = block(x, bias)
        return self.final_ln(x)


class Backbone:
    """The encoder that pretraining and finetuning share: one patch embedding
    per group of the group setting, the group/position encoding and the
    self-attention stack, whose initial weights are drawn from ``rng`` in that
    order. Parameters are named ``embed.*``, ``encpos.*`` and ``encoder.*``."""

    def __init__(self, rng, cfg: PretrainConfig, channel_tags: list[str], dtype=np.float32):
        self.setting = build_group_setting(cfg.group_setting, channel_tags)
        self.embedder = GroupEmbedder(rng, self.setting, cfg.patch_size, cfg.width, dtype=dtype)
        self.encoding = GroupPositionEncoding(rng, self.setting.num_groups, cfg.width, dtype=dtype)
        self.encoder = Encoder(rng, cfg.depth, cfg.width, cfg.heads, cfg.mlp_ratio, dtype=dtype)

    def params(self) -> dict[str, Tensor]:
        return {**self.embedder.params("embed"), **self.encoding.params("encpos"),
                **self.encoder.params("encoder")}

    def embed(self, patches: np.ndarray, grid_h: int, grid_w: int,
              choice: np.ndarray | None = None) -> GroupedTokens:
        """(..., N, C, P, P) patches on a grid_h x grid_w grid -> tokens with
        their group and position encodings added: every group's, group-major,
        or with ``choice`` only the chosen group's per position (see
        ``GroupEmbedder``)."""
        return self.encoding(self.embedder(patches, choice), grid_h, grid_w)


class CrossAttentionBlock:
    """Single block whose queries come from the query representations and
    keys/values from the visible reference rows."""

    def __init__(self, rng, width: int, heads: int, mlp_ratio: int, dtype=np.float32):
        self.ln_q = LayerNorm(width, dtype=dtype)
        self.ln_kv = LayerNorm(width, dtype=dtype)
        self.attn = MultiHeadAttention(rng, width, heads, dtype=dtype)
        self.ln2 = LayerNorm(width, dtype=dtype)
        self.mlp = Mlp(rng, width, width * mlp_ratio, dtype=dtype)

    def params(self, prefix):
        return {**self.ln_q.params(f"{prefix}.ln_q"), **self.ln_kv.params(f"{prefix}.ln_kv"),
                **self.attn.params(f"{prefix}.attn"), **self.ln2.params(f"{prefix}.ln2"),
                **self.mlp.params(f"{prefix}.mlp")}

    def __call__(self, z_q: Tensor, visible_ref: Tensor, query_groups: np.ndarray,
                 ref_groups: np.ndarray, same_group_mask: bool) -> Tensor:
        if visible_ref.shape[-2] == 0:
            raise ValueError("cross attention needs at least one visible reference row")
        bias = None
        if same_group_mask:
            bias = attention_mask_bias(query_groups, ref_groups)
        u = z_q + self.attn(self.ln_q(z_q), self.ln_kv(visible_ref), bias)
        return u + self.mlp(self.ln2(u))
