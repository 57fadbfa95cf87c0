"""Dense tensors with reverse-mode automatic differentiation.

A small dynamic tape: every operation records its parents and a closure
that maps the output gradient to parent gradients. Values are numpy
arrays; float32 by default, float64 when the caller builds float64
leaves (gradient checks rely on this).
"""
from __future__ import annotations

import math
from typing import Optional, Sequence

import numpy as np


class ShapeError(ValueError):
    pass


def _unbroadcast(g: np.ndarray, shape: tuple) -> np.ndarray:
    """Reduce gradient ``g`` back to ``shape`` after numpy broadcasting."""
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, (gd, sd) in enumerate(zip(g.shape, shape)) if sd == 1 and gd != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g.reshape(shape)


class Tensor:
    """A value node on the autodiff tape."""

    __slots__ = ("data", "requires_grad", "grad", "_parents", "_backward", "_op")

    def __init__(self, data, requires_grad: bool = False, parents=(), backward=None, op: str = "leaf"):
        self.data = np.asarray(data)
        if self.data.dtype not in (np.float32, np.float64):
            self.data = self.data.astype(np.float32)
        self.requires_grad = requires_grad or any(p.requires_grad for p in parents)
        self.grad: Optional[np.ndarray] = None
        self._parents = tuple(parents)
        self._backward = backward
        self._op = op

    # -- basic introspection -------------------------------------------------

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    @property
    def dtype(self):
        return self.data.dtype

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, op={self._op}, requires_grad={self.requires_grad})"

    def numpy(self) -> np.ndarray:
        return self.data

    def item(self) -> float:
        return float(self.data)

    def detach(self) -> "Tensor":
        return Tensor(self.data)

    # -- tape replay ---------------------------------------------------------

    def backward(self) -> None:
        """Populate ``.grad`` on every requires_grad node reachable from here.

        Only valid on scalar outputs.
        """
        if self.data.size != 1:
            raise ValueError(f"backward() requires a scalar, got shape {self.data.shape}")
        topo: list[Tensor] = []
        seen = set()
        stack = [(self, False)]
        while stack:
            node, done = stack.pop()
            if done:
                topo.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if id(p) not in seen and p.requires_grad:
                    stack.append((p, False))
        grads: dict[int, np.ndarray] = {id(self): np.ones_like(self.data)}
        for node in reversed(topo):
            g = grads.pop(id(node), None)
            if g is None:
                continue
            if node.requires_grad and node._backward is None:
                node.grad = g if node.grad is None else node.grad + g
            if node._backward is None:
                continue
            parent_grads = node._backward(g)
            for p, pg in zip(node._parents, parent_grads):
                if pg is None or not p.requires_grad:
                    continue
                if id(p) in grads:
                    grads[id(p)] = grads[id(p)] + pg
                else:
                    grads[id(p)] = pg

    # -- operators -----------------------------------------------------------

    def _coerce(self, other) -> "Tensor":
        if isinstance(other, Tensor):
            return other
        return Tensor(np.asarray(other, dtype=self.data.dtype))

    def __add__(self, other):
        other = self._coerce(other)
        a, b = self, other
        out = Tensor(a.data + b.data, parents=(a, b), op="add",
                     backward=lambda g: (_unbroadcast(g, a.shape), _unbroadcast(g, b.shape)))
        return out

    __radd__ = __add__

    def __neg__(self):
        a = self
        return Tensor(-a.data, parents=(a,), op="neg", backward=lambda g: (-g,))

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return self._coerce(other) + (-self)

    def __mul__(self, other):
        other = self._coerce(other)
        a, b = self, other
        return Tensor(a.data * b.data, parents=(a, b), op="mul",
                      backward=lambda g: (_unbroadcast(g * b.data, a.shape),
                                          _unbroadcast(g * a.data, b.shape)))

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._coerce(other)
        a, b = self, other
        return Tensor(a.data / b.data, parents=(a, b), op="div",
                      backward=lambda g: (_unbroadcast(g / b.data, a.shape),
                                          _unbroadcast(-g * a.data / (b.data * b.data), b.shape)))

    def __rtruediv__(self, other):
        return self._coerce(other) / self

    def __pow__(self, p: float):
        a = self
        out_data = a.data ** p
        return Tensor(out_data, parents=(a,), op="pow",
                      backward=lambda g: (g * p * a.data ** (p - 1),))

    def __matmul__(self, other):
        return matmul(self, self._coerce(other))

    def __getitem__(self, key):
        a = self

        def bwd(g):
            gx = np.zeros_like(a.data)
            np.add.at(gx, key, g)
            return (gx,)

        return Tensor(a.data[key], parents=(a,), op="getitem", backward=bwd)

    # -- reductions / shaping ------------------------------------------------

    def sum(self, axis=None, keepdims=False):
        a = self

        def bwd(g):
            if axis is None:
                return (np.broadcast_to(g, a.shape).astype(a.dtype, copy=False),)
            ax = axis if isinstance(axis, tuple) else (axis,)
            if not keepdims:
                g = np.expand_dims(g, ax)
            return (np.broadcast_to(g, a.shape).astype(a.dtype, copy=False),)

        return Tensor(a.data.sum(axis=axis, keepdims=keepdims), parents=(a,), op="sum", backward=bwd)

    def mean(self, axis=None, keepdims=False):
        if axis is None:
            n = self.data.size
        else:
            ax = axis if isinstance(axis, tuple) else (axis,)
            n = int(np.prod([self.shape[i] for i in ax]))
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / n)

    def reshape(self, *shape):
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        a = self
        return Tensor(a.data.reshape(shape), parents=(a,), op="reshape",
                      backward=lambda g: (g.reshape(a.shape),))

    def transpose(self, axes: Sequence[int]):
        a = self
        axes = tuple(axes)
        inv = tuple(np.argsort(axes))
        return Tensor(a.data.transpose(axes), parents=(a,), op="transpose",
                      backward=lambda g: (g.transpose(inv),))

    def swapaxes(self, i: int, j: int):
        a = self
        return Tensor(a.data.swapaxes(i, j), parents=(a,), op="swapaxes",
                      backward=lambda g: (g.swapaxes(i, j),))


# -- elementwise functions ---------------------------------------------------

def exp(x: Tensor) -> Tensor:
    out_data = np.exp(x.data)
    return Tensor(out_data, parents=(x,), op="exp", backward=lambda g: (g * out_data,))


def log(x: Tensor) -> Tensor:
    return Tensor(np.log(x.data), parents=(x,), op="log", backward=lambda g: (g / x.data,))


def sqrt(x: Tensor) -> Tensor:
    out_data = np.sqrt(x.data)
    return Tensor(out_data, parents=(x,), op="sqrt", backward=lambda g: (g / (2.0 * out_data),))


_INV_SQRT2 = 0.7071067811865476
_INV_SQRT2PI = 0.3989422804014327

# Abramowitz & Stegun 7.1.26: erf(x) = 1 - (a1 t + ... + a5 t^5) exp(-x^2),
# t = 1 / (1 + p x) for x >= 0, with absolute error at most 1.5e-7.
_ERF_P = 0.3275911
_ERF_A = (1.061405429, -1.453152027, 1.421413741, -0.284496736, 0.254829592)


def _erf(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(erf(x), exp(-x**2)) from numpy ufuncs, in the dtype of ``x``
    (A&S 7.1.26, odd extension); the Gaussian is a by-product of erf."""
    a = np.abs(x)
    t = a * _ERF_P
    t += 1.0
    np.reciprocal(t, out=t)
    y = t * _ERF_A[0]
    for coef in _ERF_A[1:]:     # Horner steps, in place
        y += coef
        y *= t
    np.square(a, out=a)
    np.negative(a, out=a)
    np.exp(a, out=a)
    y *= a
    np.subtract(1.0, y, out=y)
    return np.copysign(y, x, out=y), a


def gelu(x: Tensor) -> Tensor:
    """Erf-based GELU; erf follows Abramowitz & Stegun 7.1.26, whose absolute
    error is at most 1.5e-7 (plus float32 rounding on float32 inputs).

    Forward evaluates exp(-x²/2) once, for erf, and reuses it to build the
    derivative Φ(x) + x·φ(x), so backward is one multiply.
    """
    xd = x.data
    d, gauss = _erf(xd * _INV_SQRT2)    # gauss = exp(-x²/2)
    d += 1.0
    out_data = 0.5 * xd * d
    gauss *= xd
    gauss *= _INV_SQRT2PI
    d *= 0.5
    d += gauss
    return Tensor(out_data, parents=(x,), op="gelu", backward=lambda g: (g * d,))


# -- linear algebra ----------------------------------------------------------

def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product with batched leading dimensions on either side."""
    if a.ndim < 2 or b.ndim < 2:
        raise ShapeError(f"matmul requires >=2-d operands, got {a.shape} and {b.shape}")
    if a.shape[-1] != b.shape[-2]:
        raise ShapeError(f"matmul inner dimensions disagree: {a.shape} x {b.shape}")

    def bwd(g):
        ga = _unbroadcast(np.matmul(g, b.data.swapaxes(-1, -2)), a.shape)
        gb = _unbroadcast(np.matmul(a.data.swapaxes(-1, -2), g), b.shape)
        return (ga, gb)

    return Tensor(np.matmul(a.data, b.data), parents=(a, b), op="matmul", backward=bwd)


def linear(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """Affine map ``x @ w + b`` over the last axis of ``x``.

    ``x``: (..., d_in); ``w``: (d_in, d_out); ``b``: (d_out,). The leading
    dimensions are flattened into rows, so forward is one GEMM and backward
    is one GEMM each for the input and weight gradients plus a row sum.
    """
    if w.ndim != 2 or x.ndim < 1 or x.shape[-1] != w.shape[0] or b.shape != (w.shape[1],):
        raise ShapeError(f"linear expects x (..., d_in), w (d_in, d_out), b (d_out,), "
                         f"got {x.shape}, {w.shape}, {b.shape}")
    d_in, d_out = w.shape
    x2 = x.data.reshape(-1, d_in)

    def bwd(g):
        g2 = g.reshape(-1, d_out)
        gx = (g2 @ w.data.T).reshape(x.shape) if x.requires_grad else None
        return (gx, x2.T @ g2, g2.sum(axis=0))

    out = x2 @ w.data + b.data
    return Tensor(out.reshape(x.shape[:-1] + (d_out,)), parents=(x, w, b), op="linear",
                  backward=bwd)


def _scatter_add(x: np.ndarray, key, flat_rows: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Zeros like ``x`` with ``g`` added at ``key``. ``flat_rows`` numbers the
    selected rows; when no row repeats, a plain indexed assignment gives the
    same sums as ``np.add.at`` at a fraction of its cost."""
    gx = np.zeros_like(x)
    if flat_rows.size and np.bincount(flat_rows).max() == 1:
        gx[key] = g
    else:
        np.add.at(gx, key, g)
    return gx


def gather_rows(x: Tensor, indices) -> Tensor:
    """Select rows of ``x`` along the first axis."""
    idx = np.asarray(indices)
    if idx.size and (idx.min() < 0 or idx.max() >= x.shape[0]):
        raise IndexError(f"gather_rows index out of range for {x.shape[0]} rows")
    return Tensor(x.data[idx], parents=(x,), op="gather_rows",
                  backward=lambda g: (_scatter_add(x.data, idx, idx.reshape(-1), g),))


def gather_seq(x: Tensor, idx: np.ndarray) -> Tensor:
    """Select along the second-to-last axis with per-batch index arrays.

    ``x`` has shape (..., L, d) and ``idx`` shape (..., N); the result is
    (..., N, d).
    """
    lead = tuple(np.indices(idx.shape)[:-1])
    key = lead + (idx,) if lead else (idx,)

    def bwd(g):
        rows = np.ravel_multi_index(key, x.shape[:-1], mode="wrap") if lead else idx
        return (_scatter_add(x.data, key, rows.reshape(-1), g),)

    return Tensor(x.data[key], parents=(x,), op="gather_seq", backward=bwd)


def take_lastdim(x: Tensor, indices: np.ndarray) -> Tensor:
    """Pick one entry per last-dimension slice; ``indices`` has shape x.shape[:-1]."""
    idx = np.asarray(indices)
    if idx.size and (idx.min() < 0 or idx.max() >= x.shape[-1]):
        raise IndexError(f"take_lastdim index out of range for width {x.shape[-1]}")
    out_data = np.take_along_axis(x.data, idx[..., None], axis=-1)[..., 0]

    def bwd(g):
        gx = np.zeros_like(x.data)
        np.put_along_axis(gx, idx[..., None], g[..., None], axis=-1)
        return (gx,)

    return Tensor(out_data, parents=(x,), op="take_lastdim", backward=bwd)


def concat(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    tensors = list(tensors)
    sizes = [t.shape[axis] for t in tensors]
    splits = np.cumsum(sizes)[:-1]

    def bwd(g):
        return tuple(np.split(g, splits, axis=axis))

    return Tensor(np.concatenate([t.data for t in tensors], axis=axis),
                  parents=tuple(tensors), op="concat", backward=bwd)


# -- softmax / losses --------------------------------------------------------

def softmax_lastdim(x: Tensor) -> Tensor:
    """Numerically stabilized softmax along the last axis."""
    if x.shape[-1] == 0:
        raise ShapeError("softmax over an empty last dimension")
    m = x.data.max(axis=-1, keepdims=True)  # constant shift, gradient-neutral
    e = exp(x - Tensor(m))
    return e / e.sum(axis=-1, keepdims=True)


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
    picked = take_lastdim(logits, idx)
    return lse - picked


def layernorm(x: Tensor, gain: Tensor, bias: Tensor, eps: float = 1e-6) -> Tensor:
    """Layer normalization over the last axis, as one tape node.

    Forward keeps the normalized input ``xhat`` and ``rstd = 1/sqrt(var+eps)``;
    backward is gx = rstd·(gh − mean(gh) − xhat·mean(gh·xhat)) with
    gh = g·gain, ggain = Σrows g·xhat and gbias = Σrows g.
    """
    d = x.shape[-1]
    if gain.shape != (d,) or bias.shape != (d,):
        raise ShapeError(f"layernorm gain/bias must have shape ({d},), "
                         f"got {gain.shape}, {bias.shape}")
    inv_n = 1.0 / d
    xhat = x.data - x.data.sum(axis=-1, keepdims=True) * inv_n
    std = np.square(xhat).sum(axis=-1, keepdims=True) * inv_n
    std += eps
    np.sqrt(std, out=std)
    xhat /= std
    rstd = np.reciprocal(std, out=std)
    out = xhat * gain.data
    out += bias.data

    def bwd(g):
        gxhat = g * xhat
        gx = None
        if x.requires_grad:     # mean(gh) = g·gain / d, mean(gh·xhat) = (g·xhat)·gain / d
            gx = g * gain.data
            gx -= (g @ gain.data)[..., None] * inv_n
            gx -= xhat * ((gxhat @ gain.data)[..., None] * inv_n)
            gx *= rstd
        return (gx, gxhat.reshape(-1, d).sum(axis=0), g.reshape(-1, d).sum(axis=0))

    return Tensor(out, parents=(x, gain, bias), op="layernorm", backward=bwd)


def _split_heads(a: np.ndarray, heads: int) -> np.ndarray:
    """(..., N, w) -> (..., heads, N, w/heads), a view."""
    return a.reshape(a.shape[:-1] + (heads, a.shape[-1] // heads)).swapaxes(-2, -3)


def _merge_heads(a: np.ndarray) -> np.ndarray:
    """(..., heads, N, w) -> (..., N, heads·w)."""
    return a.swapaxes(-2, -3).reshape(a.shape[:-3] + (a.shape[-2], a.shape[-3] * a.shape[-1]))


def attention(q: Tensor, k: Tensor, v: Tensor, heads: int,
              bias: Optional[np.ndarray] = None) -> Tensor:
    """Multi-head softmax(q_h k_hᵀ/√dh + bias) v_h as one tape node.

    ``q``: (..., Nq, d), ``k``: (..., Nk, d), ``v``: (..., Nk, dv), with
    leading dimensions that broadcast (the cross block passes one set of
    keys and values per image). Head h attends with the h-th d/heads slice
    of q and k and returns the h-th dv/heads slice of the (..., Nq, dv)
    output. ``bias``: additive logits that broadcast to the (..., Nq, Nk)
    scores, shared by every head. The probabilities P are kept for backward rather
    than recomputed: gv = Pᵀg, gS = P∘(gP − Σ gP∘P)·scale, gq = gS k,
    gk = gSᵀq, with gP = g vᵀ.
    """
    d, dv = q.shape[-1], v.shape[-1]
    if (min(q.ndim, k.ndim, v.ndim) < 2 or k.shape[-1] != d or k.shape[-2] != v.shape[-2]
            or d % heads or dv % heads):
        raise ShapeError(f"attention expects q (..., Nq, d), k (..., Nk, d), v (..., Nk, dv) "
                         f"with d and dv divisible by {heads} heads, "
                         f"got {q.shape}, {k.shape}, {v.shape}")
    qh, kh, vh = (_split_heads(a.data, heads) for a in (q, k, v))
    scale = 1.0 / float(np.sqrt(d // heads))
    p = np.matmul(qh, kh.swapaxes(-1, -2))
    p *= scale
    if bias is not None:
        p += bias.astype(p.dtype, copy=False)[..., None, :, :]    # same for every head
    p -= p.max(axis=-1, keepdims=True)
    np.exp(p, out=p)
    p /= p.sum(axis=-1, keepdims=True)

    def bwd(g):
        gh = _split_heads(g, heads)
        gs = np.matmul(gh, vh.swapaxes(-1, -2))        # gP
        gs -= (gs * p).sum(axis=-1, keepdims=True)
        gs *= p
        gs *= scale                                     # gS

        def grad(t, th, a, b):
            return _merge_heads(_unbroadcast(np.matmul(a, b), th.shape)) if t.requires_grad else None

        return (grad(q, qh, gs, kh), grad(k, kh, gs.swapaxes(-1, -2), qh),
                grad(v, vh, p.swapaxes(-1, -2), gh))

    return Tensor(_merge_heads(np.matmul(p, vh)), parents=(q, k, v), op="attention",
                  backward=bwd)


def dropout(x: Tensor, rate: float, rng: np.random.Generator) -> Tensor:
    """Inverted dropout; identity when rate is 0."""
    if rate <= 0.0:
        return x
    keep = (rng.random(x.shape) >= rate).astype(x.dtype) / (1.0 - rate)
    return x * Tensor(keep)


# -- convolutions ------------------------------------------------------------

def _windows(xp: np.ndarray, kh: int, kw: int, stride: int) -> np.ndarray:
    win = np.lib.stride_tricks.sliding_window_view(xp, (kh, kw), axis=(2, 3))
    return win[:, :, ::stride, ::stride]


def conv2d(x: Tensor, kernel: Tensor, stride: int = 1, padding: int = 0) -> Tensor:
    """2-d cross-correlation. ``x``: (B, Cin, H, W); ``kernel``: (Cout, Cin, kh, kw)."""
    if x.ndim != 4 or kernel.ndim != 4:
        raise ShapeError(f"conv2d expects 4-d input/kernel, got {x.shape}, {kernel.shape}")
    if x.shape[1] != kernel.shape[1]:
        raise ShapeError(f"conv2d channel mismatch: input {x.shape[1]}, kernel {kernel.shape[1]}")
    kh, kw = kernel.shape[2], kernel.shape[3]
    p = padding
    xp = np.pad(x.data, ((0, 0), (0, 0), (p, p), (p, p)))
    if xp.shape[2] < kh or xp.shape[3] < kw:
        raise ShapeError(f"conv2d kernel {kh}x{kw} larger than padded input {xp.shape[2:]}")
    win = _windows(xp, kh, kw, stride)
    out_data = np.einsum("bchwij,ocij->bohw", win, kernel.data, optimize=True)

    def bwd(g):
        gw = np.einsum("bchwij,bohw->ocij", win, g, optimize=True)
        # input gradient: dilate g, pad, correlate with the flipped kernel
        gd = _dilate(g, stride)
        gp = np.pad(gd, ((0, 0), (0, 0), (kh - 1, kh - 1), (kw - 1, kw - 1)))
        wflip = kernel.data[:, :, ::-1, ::-1].swapaxes(0, 1)
        gwin = _windows(gp, kh, kw, 1)
        gx_full = np.einsum("bchwij,ocij->bohw", gwin, wflip, optimize=True)
        # undo padding and restore rows/cols the stride never reached
        H, W = x.shape[2], x.shape[3]
        gx = np.zeros_like(x.data)
        hh = min(H, gx_full.shape[2] - p)
        ww = min(W, gx_full.shape[3] - p)
        gx[:, :, :hh, :ww] = gx_full[:, :, p:p + hh, p:p + ww]
        return (gx.astype(x.dtype, copy=False), gw.astype(kernel.dtype, copy=False))

    return Tensor(out_data.astype(x.dtype, copy=False), parents=(x, kernel), op="conv2d", backward=bwd)


def _dilate(x: np.ndarray, stride: int) -> np.ndarray:
    if stride == 1:
        return x
    B, C, H, W = x.shape
    out = np.zeros((B, C, (H - 1) * stride + 1, (W - 1) * stride + 1), dtype=x.dtype)
    out[:, :, ::stride, ::stride] = x
    return out


def conv_transpose2d(x: Tensor, kernel: Tensor, stride: int) -> Tensor:
    """Transposed convolution whose windows do not overlap (kernel size == stride).

    ``x``: (B, Cin, H, W); ``kernel``: (Cin, Cout, s, s); output (B, Cout, H*s, W*s).
    Each input pixel paints one s x s block, so the op is one matmul
    (B*H*W, Cin) @ (Cin, Cout*s*s) followed by a pixel shuffle.
    """
    if x.ndim != 4 or kernel.ndim != 4:
        raise ShapeError(f"conv_transpose2d expects 4-d input/kernel, got {x.shape}, {kernel.shape}")
    if x.shape[1] != kernel.shape[0]:
        raise ShapeError(f"conv_transpose2d channel mismatch: input {x.shape[1]}, kernel {kernel.shape[0]}")
    s = stride
    if kernel.shape[2:] != (s, s):
        raise ShapeError(f"conv_transpose2d needs kernel size == stride, got a "
                         f"{kernel.shape[2]}x{kernel.shape[3]} kernel at stride {s}")
    B, cin, H, W = x.shape
    cout = kernel.shape[1]
    cols = x.transpose((0, 2, 3, 1)).reshape(B * H * W, cin) @ kernel.reshape(cin, cout * s * s)
    out = cols.reshape(B, H, W, cout, s, s).transpose((0, 3, 1, 4, 2, 5))
    return out.reshape(B, cout, H * s, W * s)


# -- gradient checking -------------------------------------------------------

def finite_difference_check(fn, tensors: Sequence[Tensor], eps: float = 1e-5) -> float:
    """Max relative error between analytic grads of scalar ``fn(*tensors)``
    and central finite differences. Callers pass float64 leaves."""
    for t in tensors:
        t.grad = None
    out = fn(*tensors)
    out.backward()
    worst = 0.0
    for t in tensors:
        g = t.grad if t.grad is not None else np.zeros_like(t.data)
        num = np.zeros_like(t.data)
        flat = t.data.reshape(-1)
        nflat = num.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + eps
            fp = float(fn(*tensors).data)
            flat[i] = orig - eps
            fm = float(fn(*tensors).data)
            flat[i] = orig
            nflat[i] = (fp - fm) / (2 * eps)
        denom = max(float(np.abs(g).max(initial=0.0)), float(np.abs(num).max(initial=0.0)), 1e-8)
        worst = max(worst, float(np.abs(g - num).max(initial=0.0)) / denom)
    return worst


def argmax_lastdim(x: Tensor) -> np.ndarray:
    return np.argmax(x.data, axis=-1)


def zeros(shape, dtype=np.float32, requires_grad=False) -> Tensor:
    return Tensor(np.zeros(shape, dtype=dtype), requires_grad=requires_grad)


def ones(shape, dtype=np.float32, requires_grad=False) -> Tensor:
    return Tensor(np.ones(shape, dtype=dtype), requires_grad=requires_grad)
