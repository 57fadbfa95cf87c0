"""Pretraining objectives: patch-position prediction, cluster prediction
with balanced pseudo-labels, and the mean-entropy regularizer."""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .autodiff import ShapeError, Tensor, cross_entropy, no_grad, sqrt
from .nn import Linear


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


def flatten_correspondences(h: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Pool the valid patches of several query views.

    ``h`` is (views, N_q): each query patch's reference patch, -1 where it
    has none. Returns (row indices into the views*N_q flattening, target
    reference positions, per-row weights). Weights average within each
    view's valid set first, then across views with a nonempty valid set,
    matching a per-view mean loss averaged over views.
    """
    valid = h >= 0
    rows = np.flatnonzero(valid)
    count = valid.sum(axis=1)
    weights = 1.0 / (np.count_nonzero(count) * count[rows // h.shape[1]])
    return rows, h.ravel()[rows], weights


def position_loss(u: Tensor, head: Linear, h: np.ndarray
                  ) -> tuple[Tensor, Optional[float], int]:
    """Mean softmax cross-entropy of each valid query patch against its
    reference position, plus top-1 accuracy over the valid set.

    ``u`` is (views, N_q, d) and ``h`` (views, N_q), as in
    :func:`flatten_correspondences`; ``head`` maps d to the reference grid.
    """
    if h.shape != u.shape[:2]:
        raise ValueError(f"targets of shape {h.shape} for representations {u.shape[:2]}")
    rows, targets, weights = flatten_correspondences(h)
    if rows.size == 0:
        return Tensor(np.zeros((), dtype=u.dtype)), None, 0
    logits = head(u)
    picked = logits.reshape(h.size, logits.shape[-1])[rows]
    loss = cross_entropy(picked, targets, weights=weights).sum()
    acc = float(np.mean(np.argmax(picked.data, axis=-1) == targets))
    return loss, acc, int(rows.size)


def sinkhorn_knopp(scores: np.ndarray, iterations: int = 3, tau: float = 1.0,
                   counts: Optional[np.ndarray] = None) -> np.ndarray:
    """Balanced soft assignments from a B x K score matrix.

    Starts from a row softmax of scores/tau, then alternates column
    normalization (sums to B/K) and row normalization (sums to 1). Always
    ends on a row normalization, so output rows sum to 1. Float32 scores
    are balanced in float32, any other dtype in float64.

    ``counts``, when given, is the multiplicity of each row: the result is
    that of the matrix with row i repeated ``counts[i]`` times, without
    building it. Column sums are then ``counts @ p`` and B is
    ``counts.sum()``; repeated rows would stay equal, because the column
    scaling is shared and the row normalization is per row.
    """
    s = np.asarray(scores)
    s = s.astype(np.float32 if s.dtype == np.float32 else np.float64, copy=False)
    if s.ndim != 2:
        raise ValueError(f"expected a B x K matrix, got shape {s.shape}")
    if not np.all(np.isfinite(s)):
        raise ValueError("non-finite scores")
    b, k = s.shape
    if counts is not None:
        counts = np.asarray(counts, dtype=s.dtype)
        if counts.shape != (b,):
            raise ValueError(f"counts of shape {counts.shape} for {b} score rows")
        b = counts.sum()
    p = s / tau
    p -= p.max(axis=1, keepdims=True)
    np.exp(p, out=p)
    p /= p.sum(axis=1, keepdims=True)
    for _ in range(iterations):
        cols = p.sum(axis=0) if counts is None else counts @ p
        p /= cols * (k / b)
        p /= p.sum(axis=1, keepdims=True)
    return p


class ClusterHead:
    """Two-layer projector (hidden layer twice the width) plus learnable
    cluster prototypes.

    Projected vectors are L2-normalized before comparing against the
    prototype rows; prototype rows are re-normalized to unit length after
    every optimizer step via :meth:`renormalize_prototypes`.
    """

    def __init__(self, rng, width: int, num_prototypes: int, tau: float = 0.05,
                 dtype=np.float32):
        self.tau = tau
        self.fc1 = Linear(rng, width, 2 * width, dtype=dtype)
        self.fc2 = Linear(rng, 2 * width, width, dtype=dtype)
        protos = rng.standard_normal((num_prototypes, width))
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
        p = self.fc2(self.fc1(z, gelu=True))
        norm = sqrt((p * p).sum(axis=-1, keepdims=True) + 1e-12)
        return p / norm

    def logits(self, z: Tensor) -> Tensor:
        """Prototype similarities of projected, normalized representations / tau."""
        return (self.project(z) @ self.prototypes.swapaxes(0, 1)) * (1.0 / self.tau)


def pseudo_labels(z_ref: np.ndarray, head: ClusterHead, positions: np.ndarray,
                  iterations: int = 3) -> np.ndarray:
    """Balanced soft cluster targets for the reference rows at ``positions``.

    The rows are projected under ``no_grad()``, so the label branch records
    no tape and no gradient flows into it. Positions repeat (several query
    patches share a reference patch), so each distinct row is projected and
    balanced once: Sinkhorn weighs it by its number of positions through
    ``counts``, which gives the balancing of every position, and the rows
    are expanded to the positions at the end.
    """
    unique, inverse, counts = np.unique(positions, return_inverse=True, return_counts=True)
    with no_grad():
        proj = head.project(Tensor(np.asarray(z_ref)[unique])).data
    labels = sinkhorn_knopp(proj @ head.prototypes.data.T, iterations=iterations,
                            tau=head.tau, counts=counts)
    return labels[inverse.reshape(-1)]


def cluster_tail(logits: Tensor, targets: np.ndarray, weights: np.ndarray) -> Tensor:
    """The weighted soft cross-entropy of ``logits`` (n, K) against the
    target rows and the entropy of the batch-mean softmax, as one (2,) node.

    With s the row-shifted logits, lse the row log-sum-exp of s, t the
    targets, w the weights, p the row softmax and m̄ its mean over rows:
    out[0] = Σᵢ wᵢ(lseᵢ·Σₖtᵢₖ − Σₖtᵢₖsᵢₖ) and out[1] = −Σₖ m̄ₖ log(m̄ₖ + ε),
    ε = 1e-12. Target rows need not sum to 1. Backward keeps p, t and row
    vectors: with aₖ = −(log(m̄ₖ + ε) + m̄ₖ/(m̄ₖ + ε))/n and upstream gradients
    (g_c, g_r), gx = g_c·wᵢ(pᵢₖΣt − tᵢₖ) + g_r·pᵢₖ(aₖ − Σⱼpᵢⱼaⱼ).
    """
    eps = 1e-12
    x = logits.data
    if x.ndim != 2 or 0 in x.shape:
        raise ShapeError(f"cluster_tail expects (n, K) logits with n, K > 0, got {x.shape}")
    t = np.asarray(targets, dtype=x.dtype)
    w = np.asarray(weights, dtype=x.dtype)
    if t.shape != x.shape or w.shape != x.shape[:1]:
        raise ShapeError(f"cluster_tail: logits {x.shape}, targets {t.shape}, "
                         f"weights {w.shape}")
    n = x.shape[0]
    p = x - x.max(axis=1, keepdims=True)
    ts = np.einsum("ik,ik->i", t, p)            # Σₖ tᵢₖ sᵢₖ, without a product array
    np.exp(p, out=p)
    sums = p.sum(axis=1)
    t_sum = t.sum(axis=1)
    closs = w @ (np.log(sums) * t_sum - ts)
    p /= sums[:, None]
    m = p.sum(axis=0) / n
    log_m = np.log(m + eps)
    out = np.array([closs, -(m @ log_m)], dtype=x.dtype)

    def bwd(g):
        g_c, g_r = g
        a = (log_m + m / (m + eps)) * (-g_r / n)
        gx = np.add.outer(-(p @ a), a)          # aₖ − Σⱼpᵢⱼaⱼ, exactly 0 when K = 1
        gx += ((g_c * w) * t_sum)[:, None]
        gx *= p
        np.multiply(t, (g_c * w)[:, None], out=p)   # p is not read again
        gx -= p
        return (gx,)

    return Tensor(out, parents=(logits,), op="cluster_tail", backward=bwd)


def cluster_objective(z_q: Tensor, z_ref: np.ndarray, head: ClusterHead,
                      rows: np.ndarray, targets_ref_positions: np.ndarray,
                      weights: np.ndarray, sinkhorn_iterations: int = 3
                      ) -> tuple[Tensor, Tensor]:
    """Cluster loss and entropy regularizer over pooled valid patches.

    ``z_q``: flattened (views*N_q, d) query representations; ``rows`` index
    into them; ``targets_ref_positions`` gives h(i) per row into ``z_ref``.
    Both values are read from one ``cluster_tail`` node.
    """
    labels = pseudo_labels(z_ref, head, targets_ref_positions, iterations=sinkhorn_iterations)
    tail = cluster_tail(head.logits(z_q[rows]), labels, weights)
    return tail[0], tail[1]
