"""Parameter containers for the small set of layers the model uses."""
from __future__ import annotations

import numpy as np

from .autodiff import Tensor, layernorm, linear


def init_linear(rng: np.random.Generator, fan_in: int, fan_out: int,
                dtype=np.float32, std: float | None = None) -> tuple[Tensor, Tensor]:
    if std is None:
        std = (2.0 / (fan_in + fan_out)) ** 0.5
    w = Tensor((rng.standard_normal((fan_in, fan_out)) * std).astype(dtype), requires_grad=True)
    b = Tensor(np.zeros(fan_out, dtype=dtype), requires_grad=True)
    return w, b


class Linear:
    def __init__(self, rng, fan_in, fan_out, dtype=np.float32, std=None):
        self.w, self.b = init_linear(rng, fan_in, fan_out, dtype=dtype, std=std)

    def __call__(self, x: Tensor, gelu: bool = False) -> Tensor:
        return linear(x, self.w, self.b, gelu=gelu)

    def params(self, prefix: str) -> dict[str, Tensor]:
        return {f"{prefix}.w": self.w, f"{prefix}.b": self.b}


class LayerNorm:
    def __init__(self, width: int, dtype=np.float32):
        self.gain = Tensor(np.ones(width, dtype=dtype), requires_grad=True)
        self.bias = Tensor(np.zeros(width, dtype=dtype), requires_grad=True)

    def __call__(self, x: Tensor) -> Tensor:
        return layernorm(x, self.gain, self.bias)

    def params(self, prefix: str) -> dict[str, Tensor]:
        return {f"{prefix}.gain": self.gain, f"{prefix}.bias": self.bias}


class Mlp:
    """Two-layer GELU MLP."""

    def __init__(self, rng, width: int, hidden: int, dtype=np.float32):
        self.fc1 = Linear(rng, width, hidden, dtype=dtype)
        self.fc2 = Linear(rng, hidden, width, dtype=dtype)

    def __call__(self, x: Tensor) -> Tensor:
        return self.fc2(self.fc1(x, gelu=True))

    def params(self, prefix: str) -> dict[str, Tensor]:
        return {**self.fc1.params(f"{prefix}.fc1"), **self.fc2.params(f"{prefix}.fc2")}
