"""Composite reference formulations, built from the elementary tape ops,
that the one-node ops are tested against: the log-softmax family, the
hard-target cross-entropy that ``autodiff.cross_entropy`` fuses, and the
soft cross-entropy and mean-entropy regularizer that
``objectives.cluster_tail`` fuses; and the per-view loop that
``objectives.flatten_correspondences`` pools without."""
import numpy as np

from patchpos.autodiff import Tensor, exp, log, softmax_lastdim


def logsumexp_lastdim(x: Tensor) -> Tensor:
    m = x.data.max(axis=-1, keepdims=True)
    return log(exp(x - Tensor(m)).sum(axis=-1, keepdims=True)) + Tensor(m)


def log_softmax_lastdim(x: Tensor) -> Tensor:
    return x - logsumexp_lastdim(x)


def cross_entropy_from_logits(logits: Tensor, target_index) -> Tensor:
    """-log softmax(logits)[target]; ``target_index`` may be an index array
    of shape logits.shape[:-1], or a single int for 1-d logits."""
    idx = np.asarray(target_index)
    if idx.ndim == 0:
        idx = idx.reshape((1,) * (logits.ndim - 1))
        idx = np.broadcast_to(idx, logits.shape[:-1])
    lse = logsumexp_lastdim(logits)[..., 0]
    return lse - logits[(*np.indices(idx.shape, sparse=True), idx)]


def soft_cross_entropy(logits: Tensor, targets: np.ndarray, weights: np.ndarray) -> Tensor:
    """Weighted cross-entropy against soft target rows."""
    logp = log_softmax_lastdim(logits)
    per_row = -(logp * Tensor(targets.astype(logits.dtype))).sum(axis=-1)
    return (per_row * Tensor(np.asarray(weights, dtype=logits.dtype))).sum()


def mean_entropy_regularizer(probs: Tensor) -> Tensor:
    """Entropy of the batch-mean cluster distribution (to be maximised)."""
    m = probs.mean(axis=tuple(range(probs.ndim - 1)))
    return -(m * log(m + 1e-12)).sum()


def cluster_tail(logits: Tensor, targets: np.ndarray, weights: np.ndarray
                 ) -> tuple[Tensor, Tensor]:
    """The composite that ``objectives.cluster_tail`` replaces."""
    return (soft_cross_entropy(logits, targets, weights),
            mean_entropy_regularizer(softmax_lastdim(logits)))


def flatten_correspondences_per_view(h: np.ndarray):
    """``objectives.flatten_correspondences`` one query view at a time."""
    n_q = h.shape[1]
    valid = [np.flatnonzero(row >= 0) for row in h]
    nonempty = sum(1 for omega in valid if omega.size)
    rows, targets, weights = [], [], []
    for v, omega in enumerate(valid):
        if omega.size == 0:
            continue
        rows.append(v * n_q + omega)
        targets.append(h[v][omega])
        weights.append(np.full(omega.size, 1.0 / (nonempty * omega.size)))
    if not rows:
        return (np.empty(0, dtype=np.int64),) * 2 + (np.empty(0),)
    return (np.concatenate(rows), np.concatenate(targets),
            np.concatenate(weights).astype(np.float64))
