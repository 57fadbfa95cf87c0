"""AdamW with decoupled weight decay, plus the warmup/cosine schedule."""
from __future__ import annotations

import math

import numpy as np

from .autodiff import Tensor

BETA1, BETA2, EPS = 0.9, 0.999, 1e-8    # Adam's moment decays and denominator guard


class GradientError(RuntimeError):
    """Raised when a non-finite gradient reaches the optimizer."""


class AdamW:
    """Decoupled-weight-decay Adam over a named parameter dict."""

    def __init__(self, params: dict[str, Tensor], lr: float, weight_decay: float = 0.1):
        self.params = dict(params)
        self.lr = lr
        self.weight_decay = weight_decay
        self.step_count = 0
        self.m = {k: np.zeros_like(p.data) for k, p in self.params.items()}
        self.v = {k: np.zeros_like(p.data) for k, p in self.params.items()}

    def zero_grad(self):
        for p in self.params.values():
            p.grad = None

    def step(self, lr: float | None = None):
        if lr is None:
            lr = self.lr
        self.step_count += 1
        t = self.step_count
        for name, p in self.params.items():
            g = p.grad
            if g is None:
                g = np.zeros_like(p.data)
            if not np.all(np.isfinite(g)):
                raise GradientError(f"non-finite gradient in parameter '{name}' at step {t}")
            m = self.m[name]
            v = self.v[name]
            m *= BETA1
            m += (1 - BETA1) * g
            v *= BETA2
            v += (1 - BETA2) * g * g
            mhat = m / (1 - BETA1 ** t)
            vhat = v / (1 - BETA2 ** t)
            update = mhat / (np.sqrt(vhat) + EPS) + self.weight_decay * p.data
            p.data = (p.data - lr * update).astype(p.data.dtype, copy=False)

    def state_dict(self) -> dict:
        return {
            "step_count": self.step_count,
            "m": {k: v.copy() for k, v in self.m.items()},
            "v": {k: v.copy() for k, v in self.v.items()},
        }

    def load_state_dict(self, state: dict):
        self.step_count = int(state["step_count"])
        for k in self.m:
            self.m[k] = np.asarray(state["m"][k]).astype(self.m[k].dtype).reshape(self.m[k].shape)
            self.v[k] = np.asarray(state["v"][k]).astype(self.v[k].dtype).reshape(self.v[k].shape)


def cosine_lr(step: int, total_steps: int, base_lr: float, warmup_steps: int = 0) -> float:
    """Linear warmup to ``base_lr`` followed by cosine decay to 0."""
    if not 0 <= step <= total_steps:
        raise ValueError(f"step {step} outside [0, {total_steps}]")
    if warmup_steps > 0 and step < warmup_steps:
        return base_lr * step / warmup_steps
    span = max(total_steps - warmup_steps, 1)
    progress = (step - warmup_steps) / span
    return base_lr * 0.5 * (1.0 + math.cos(math.pi * progress))
