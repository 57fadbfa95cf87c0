"""Pretraining objectives: patch-position prediction, cluster prediction
with balanced pseudo-labels, and the mean-entropy regularizer."""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .autodiff import (Tensor, cross_entropy_from_logits, gather_rows, gelu,
                       log, softmax_lastdim, sqrt)
from .nn import Linear
from .views import Correspondence


@dataclass
class LossReport:
    """Per-batch loss breakdown, emitted once per training step."""
    position_loss: float
    cluster_loss: float
    entropy_reg: float
    combined: float
    acc_at_1: Optional[float]
    omega_size: int

    def log_line(self, step: int, lr: float) -> str:
        acc = "none" if self.acc_at_1 is None else f"{self.acc_at_1:.4f}"
        return (f"step={step} position_loss={self.position_loss:.6f} "
                f"cluster_loss={self.cluster_loss:.6f} entropy_reg={self.entropy_reg:.6f} "
                f"combined={self.combined:.6f} acc_at_1={acc} omega={self.omega_size} "
                f"lr={lr:.8f}")


class PositionHead:
    """Linear classifier over reference grid positions."""

    def __init__(self, rng, width: int, n_ref: int, dtype=np.float32):
        self.n_ref = n_ref
        self.linear = Linear(rng, width, n_ref, dtype=dtype, std=0.01)

    def params(self, prefix):
        return self.linear.params(prefix)

    def __call__(self, u: Tensor) -> Tensor:
        return self.linear(u)


def flatten_correspondences(corrs: Sequence[Correspondence], n_q: int
                            ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Pool the valid patches of several query views.

    Returns (row indices into the views*N_q flattening, target reference
    positions, per-row weights). Weights average within each view's valid
    set first, then across views with a nonempty valid set, matching a
    per-view mean loss averaged over views.
    """
    rows, targets, weights = [], [], []
    nonempty = sum(1 for c in corrs if c.omega.size)
    for v, corr in enumerate(corrs):
        if corr.omega.size == 0:
            continue
        rows.append(v * n_q + corr.omega)
        targets.append(corr.h[corr.omega])
        weights.append(np.full(corr.omega.size, 1.0 / (nonempty * corr.omega.size)))
    if not rows:
        return (np.empty(0, dtype=np.int64),) * 2 + (np.empty(0),)
    return (np.concatenate(rows), np.concatenate(targets),
            np.concatenate(weights).astype(np.float64))


def position_loss(u: Tensor, head: PositionHead, corrs: Sequence[Correspondence]
                  ) -> tuple[Tensor, Optional[float], int]:
    """Mean softmax cross-entropy of each valid query patch against its
    reference position, plus top-1 accuracy over the valid set.

    ``u`` is (views, N_q, d) or (N_q, d) with one correspondence per view.
    """
    if u.ndim == 2:
        u = u.reshape((1,) + u.shape)
    n_views, n_q, _ = u.shape
    if n_views != len(corrs):
        raise ValueError(f"{n_views} views but {len(corrs)} correspondences")
    rows, targets, weights = flatten_correspondences(corrs, n_q)
    if rows.size == 0:
        return Tensor(np.zeros((), dtype=u.dtype)), None, 0
    logits = head(u).reshape(n_views * n_q, head.n_ref)
    picked = gather_rows(logits, rows)
    ce = cross_entropy_from_logits(picked, targets)
    loss = (ce * Tensor(weights.astype(u.dtype))).sum()
    acc = float(np.mean(np.argmax(picked.data, axis=-1) == targets))
    return loss, acc, int(rows.size)


def sinkhorn_knopp(scores: np.ndarray, iterations: int = 3, tau: float = 1.0) -> np.ndarray:
    """Balanced soft assignments from a B x K score matrix.

    Starts from a row softmax of scores/tau, then alternates column
    normalization (sums to B/K) and row normalization (sums to 1). Always
    ends on a row normalization, so output rows sum to 1.
    """
    s = np.asarray(scores, dtype=np.float64)
    if s.ndim != 2:
        raise ValueError(f"expected a B x K matrix, got shape {s.shape}")
    if not np.all(np.isfinite(s)):
        raise ValueError("non-finite scores")
    b, k = s.shape
    p = np.exp(s / tau - (s / tau).max(axis=1, keepdims=True))
    p /= p.sum(axis=1, keepdims=True)
    for _ in range(max(iterations, 0)):
        p /= p.sum(axis=0, keepdims=True) * (k / b)
        p /= p.sum(axis=1, keepdims=True)
    return p


class ClusterHead:
    """Two-layer projector plus learnable cluster prototypes.

    Projected vectors are L2-normalized before comparing against the
    prototype rows; prototype rows are re-normalized to unit length after
    every optimizer step via :meth:`renormalize_prototypes`.
    """

    def __init__(self, rng, width: int, num_prototypes: int, proto_dim: int | None = None,
                 hidden: int | None = None, tau: float = 0.05, dtype=np.float32):
        self.tau = tau
        self.proto_dim = proto_dim or width
        self.fc1 = Linear(rng, width, hidden or 2 * width, dtype=dtype)
        self.fc2 = Linear(rng, hidden or 2 * width, self.proto_dim, dtype=dtype)
        protos = rng.standard_normal((num_prototypes, self.proto_dim))
        protos /= np.linalg.norm(protos, axis=1, keepdims=True)
        self.prototypes = Tensor(protos.astype(dtype), requires_grad=True)

    def params(self, prefix):
        return {**self.fc1.params(f"{prefix}.fc1"), **self.fc2.params(f"{prefix}.fc2"),
                f"{prefix}.prototypes": self.prototypes}

    def renormalize_prototypes(self):
        norms = np.linalg.norm(self.prototypes.data, axis=1, keepdims=True)
        self.prototypes.data = (self.prototypes.data / np.maximum(norms, 1e-12)).astype(
            self.prototypes.data.dtype, copy=False)

    def project(self, z: Tensor) -> Tensor:
        p = self.fc2(gelu(self.fc1(z)))
        norm = sqrt((p * p).sum(axis=-1, keepdims=True) + 1e-12)
        return p / norm

    def logits(self, z: Tensor) -> Tensor:
        """Prototype similarities of projected, normalized representations / tau."""
        return (self.project(z) @ self.prototypes.swapaxes(0, 1)) * (1.0 / self.tau)


def pseudo_labels(z_ref: np.ndarray, head: ClusterHead, positions: np.ndarray,
                  iterations: int = 3) -> np.ndarray:
    """Balanced soft cluster targets for the reference rows at ``positions``.

    The rows enter ``project()`` as a constant and only the values of its
    output are kept, so no gradient flows into the label branch. Positions
    repeat (several query patches share a reference patch), so each distinct
    row is projected once; Sinkhorn still balances over every position.
    """
    unique, inverse = np.unique(positions, return_inverse=True)
    proj = head.project(Tensor(np.asarray(z_ref)[unique])).data
    sims = (proj @ head.prototypes.data.T)[inverse.reshape(-1)]
    return sinkhorn_knopp(sims, iterations=iterations, tau=head.tau)


def soft_cross_entropy(logits: Tensor, targets: np.ndarray, weights: np.ndarray) -> Tensor:
    """Weighted cross-entropy against soft target rows."""
    from .autodiff import log_softmax_lastdim
    logp = log_softmax_lastdim(logits)
    per_row = -(logp * Tensor(targets.astype(logits.dtype))).sum(axis=-1)
    return (per_row * Tensor(np.asarray(weights, dtype=logits.dtype))).sum()


def mean_entropy_regularizer(probs: Tensor) -> Tensor:
    """Entropy of the batch-mean cluster distribution (to be maximised)."""
    m = probs.mean(axis=tuple(range(probs.ndim - 1)))
    return -(m * log(m + 1e-12)).sum()


def cluster_objective(z_q: Tensor, z_ref: np.ndarray, head: ClusterHead,
                      rows: np.ndarray, targets_ref_positions: np.ndarray,
                      weights: np.ndarray, sinkhorn_iterations: int = 3
                      ) -> tuple[Tensor, Tensor]:
    """Cluster loss and entropy regularizer over pooled valid patches.

    ``z_q``: flattened (views*N_q, d) query representations; ``rows`` index
    into them; ``targets_ref_positions`` gives h(i) per row into ``z_ref``.
    """
    labels = pseudo_labels(z_ref, head, targets_ref_positions, iterations=sinkhorn_iterations)
    logits = head.logits(gather_rows(z_q, rows))
    loss = soft_cross_entropy(logits, labels, weights)
    reg = mean_entropy_regularizer(softmax_lastdim(logits))
    return loss, reg
