"""Transformer encoder with same-group attention masking and the single
query-to-reference cross-attention block."""
from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .autodiff import Tensor, attention
from .groups import GroupedTokens
from .nn import LayerNorm, Linear, Mlp

log = logging.getLogger(__name__)

_NEG_INF = -1e30


@dataclass
class EncoderConfig:
    depth: int = 4
    width: int = 64
    heads: int = 4
    mlp_ratio: int = 4
    patch: int = 8

    def __post_init__(self):
        if self.width % self.heads:
            raise ValueError(f"width {self.width} not divisible by {self.heads} heads")


def attention_mask_bias(query_groups: np.ndarray, key_groups: np.ndarray,
                        mode: str = "same-group-exclusion") -> np.ndarray | None:
    """Additive attention bias from group ids.

    Same-group pairs get a large negative bias so their softmax weight
    underflows to exactly zero. Rows whose keys are all masked fall back to
    unmasked attention (logged); with at least two groups present among the
    keys this never triggers.
    """
    if mode == "none":
        return None
    if mode != "same-group-exclusion":
        raise ValueError(f"unknown attention mask mode '{mode}'")
    same = query_groups[..., :, None] == key_groups[..., None, :]
    dead = same.all(axis=-1)
    if dead.any():
        log.warning("attention mask fallback: %d fully-masked rows attend unmasked",
                    int(dead.sum()))
        same = same & ~dead[..., None]
    return np.where(same, _NEG_INF, 0.0).astype(np.float32)


def mask_to_bias(mask: np.ndarray) -> np.ndarray:
    """Binary attention mask (1 = may attend) to an additive logit bias.

    Fully-masked rows fall back to unmasked attention (logged).
    """
    keep = np.asarray(mask).astype(bool)
    dead = (~keep).all(axis=-1)
    if dead.any():
        log.warning("attention mask fallback: %d fully-masked rows attend unmasked",
                    int(dead.sum()))
        keep = keep | dead[..., None]
    return np.where(keep, 0.0, _NEG_INF).astype(np.float32)


def masked_attention(q: Tensor, k: Tensor, v: Tensor, mask: np.ndarray | None) -> Tensor:
    """Scaled dot-product attention over the last two axes.

    ``q``: (..., Nq, dk), ``k``: (..., Nk, dk), ``v``: (..., Nk, dv); ``mask``
    is either None or a binary matrix (1 = may attend) broadcastable to
    (..., Nq, Nk).
    Masked pairs receive exactly zero attention weight.
    """
    return attention(q, k, v, heads=1, bias=None if mask is None else mask_to_bias(mask))


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

    def __init__(self, rng, cfg: EncoderConfig, dtype=np.float32):
        self.ln1 = LayerNorm(cfg.width, dtype=dtype)
        self.attn = MultiHeadAttention(rng, cfg.width, cfg.heads, dtype=dtype)
        self.ln2 = LayerNorm(cfg.width, dtype=dtype)
        self.mlp = Mlp(rng, cfg.width, cfg.width * cfg.mlp_ratio, dtype=dtype)

    def params(self, prefix):
        return {**self.ln1.params(f"{prefix}.ln1"), **self.attn.params(f"{prefix}.attn"),
                **self.ln2.params(f"{prefix}.ln2"), **self.mlp.params(f"{prefix}.mlp")}

    def __call__(self, x: Tensor, bias: np.ndarray | None) -> Tensor:
        h = self.ln1(x)
        x = x + self.attn(h, h, bias)
        return x + self.mlp(self.ln2(x))


class Encoder:
    """Stack of self-attention blocks with a final layernorm."""

    def __init__(self, rng, cfg: EncoderConfig, dtype=np.float32):
        self.cfg = cfg
        self.blocks = [Block(rng, cfg, dtype=dtype) for _ in range(cfg.depth)]
        self.final_ln = LayerNorm(cfg.width, dtype=dtype)

    def params(self, prefix):
        out = {}
        for i, b in enumerate(self.blocks):
            out.update(b.params(f"{prefix}.block{i}"))
        out.update(self.final_ln.params(f"{prefix}.final_ln"))
        return out

    def __call__(self, tokens: GroupedTokens, mask_mode: str = "none") -> Tensor:
        bias = attention_mask_bias(tokens.group_ids, tokens.group_ids, mask_mode)
        x = tokens.tokens
        for block in self.blocks:
            x = block(x, bias)
        return self.final_ln(x)


def mask_reference(z_ref: Tensor, eta: float, rng: np.random.Generator,
                   group_ids: np.ndarray, position_ids: np.ndarray
                   ) -> tuple[Tensor | None, np.ndarray, np.ndarray]:
    """Keep ceil((1-eta)*N) reference rows, chosen uniformly without
    replacement. Returns (visible rows or None, their group ids, position ids).

    ``z_ref`` is a single (N, d) sequence.
    """
    if not 0.0 <= eta <= 1.0:
        raise ValueError(f"reference masking ratio must be in [0,1], got {eta}")
    n = z_ref.shape[-2]
    keep = int(np.ceil((1.0 - eta) * n))
    if keep == 0:
        return None, np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
    idx = np.sort(rng.choice(n, size=keep, replace=False))
    from .autodiff import gather_rows
    return gather_rows(z_ref, idx), np.asarray(group_ids)[idx], np.asarray(position_ids)[idx]


class CrossAttentionBlock:
    """Single block whose queries come from the query representations and
    keys/values from the visible reference rows."""

    def __init__(self, rng, cfg: EncoderConfig, dtype=np.float32):
        self.ln_q = LayerNorm(cfg.width, dtype=dtype)
        self.ln_kv = LayerNorm(cfg.width, dtype=dtype)
        self.attn = MultiHeadAttention(rng, cfg.width, cfg.heads, dtype=dtype)
        self.ln2 = LayerNorm(cfg.width, dtype=dtype)
        self.mlp = Mlp(rng, cfg.width, cfg.width * cfg.mlp_ratio, dtype=dtype)

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
