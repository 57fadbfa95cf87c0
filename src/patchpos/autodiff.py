"""Dense tensors with reverse-mode automatic differentiation.

A small dynamic tape: every operation records its parents and a closure
that maps the output gradient to parent gradients. Values are numpy
arrays; float32 by default, float64 when the caller builds float64
leaves (gradient checks rely on this).

The tape lives for one forward and one backward pass: ``backward()``
drops each node's closure and parents as it reaches the node, which frees
the arrays the closure kept. Under ``no_grad()`` no tape is recorded.
"""
from __future__ import annotations

import contextlib
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


_grad_enabled = True


@contextlib.contextmanager
def no_grad():
    """Inference: tensors made inside record no parents and no backward
    closure, so nothing outlives the values a caller keeps. The switch is
    process-wide, not per thread."""
    global _grad_enabled
    prev, _grad_enabled = _grad_enabled, False
    try:
        yield
    finally:
        _grad_enabled = prev


class Tensor:
    """A value node on the autodiff tape."""

    __slots__ = ("data", "requires_grad", "grad", "_parents", "_backward", "_op")

    def __init__(self, data, requires_grad: bool = False, parents=(), backward=None, op: str = "leaf"):
        self.data = np.asarray(data)
        if self.data.dtype not in (np.float32, np.float64):
            self.data = self.data.astype(np.float32)
        if not _grad_enabled:
            parents, backward = (), None
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

    # -- tape replay ---------------------------------------------------------

    def backward(self) -> None:
        """Populate ``.grad`` on every requires_grad leaf reachable from here.

        Only valid on scalar outputs. The pass drops each node's closure and
        parents as it reaches the node, so a tape supports one backward
        pass; a second raises ``RuntimeError``.
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
            step, parents = node._backward, node._parents
            if step is None:
                if node.requires_grad and node._op != "leaf":
                    raise RuntimeError(f"backward() reached a {node._op} node whose tape was "
                                       f"released by an earlier backward()")
                if g is not None and node.requires_grad:
                    node.grad = g if node.grad is None else node.grad + g
                continue
            node._backward, node._parents = None, ()
            if g is None:
                continue
            for p, pg in zip(parents, step(g)):
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
        return Tensor(a.data + b.data, parents=(a, b), op="add",
                      backward=lambda g: (_unbroadcast(g, a.shape) if a.requires_grad else None,
                                          _unbroadcast(g, b.shape) if b.requires_grad else None))

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
                      backward=lambda g: (
                          _unbroadcast(g * b.data, a.shape) if a.requires_grad else None,
                          _unbroadcast(g * a.data, b.shape) if b.requires_grad else None))

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._coerce(other)
        a, b = self, other
        return Tensor(a.data / b.data, parents=(a, b), op="div",
                      backward=lambda g: (
                          _unbroadcast(g / b.data, a.shape) if a.requires_grad else None,
                          _unbroadcast(-g * a.data / (b.data * b.data), b.shape)
                          if b.requires_grad else None))

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
        """numpy indexing, basic or advanced; the one selection op on the tape."""
        a = self
        return Tensor(a.data[key], parents=(a,), op="getitem",
                      backward=lambda g: (_scatter_add(a.data, key, g),))

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


def _gelu_into(z: np.ndarray, x: np.ndarray) -> Optional[np.ndarray]:
    """Write GELU(x) = x·Φ(x) into ``z``, which may be ``x`` itself, and
    return the derivative Φ(x) + x·φ(x); under ``no_grad()`` return None.

    Φ(x) = (1 + erf(x/√2)) / 2 with erf from A&S 7.1.26 (odd extension),
    whose absolute error is at most 1.5e-7 (plus float32 rounding on float32
    inputs). exp(-x²/2) is evaluated once, for erf, and reused for φ. The
    kernel allocates three arrays, in the dtype of ``x``, and works in place
    on them; ``x`` must be at least 1-d, because numpy returns scalars, which
    take no ``out=``, for 0-d operands.
    """
    a = x * _INV_SQRT2
    np.abs(a, out=a)
    t = a * _ERF_P
    t += 1.0
    np.reciprocal(t, out=t)
    y = t * _ERF_A[0]
    for coef in _ERF_A[1:]:     # Horner steps
        y += coef
        y *= t
    np.square(a, out=a)
    np.negative(a, out=a)
    np.exp(a, out=a)            # exp(-x²/2)
    y *= a
    np.subtract(1.0, y, out=y)
    np.copysign(y, x, out=y)    # erf(x/√2), which has the sign of x
    y += 1.0                    # 2Φ(x)
    if not _grad_enabled:
        np.multiply(x, 0.5, out=z)
        z *= y
        return None
    a *= x                      # x·φ(x), read from x before z may overwrite it
    a *= _INV_SQRT2PI
    np.multiply(x, 0.5, out=z)
    z *= y                      # x·Φ(x)
    y *= 0.5
    y += a
    return y


def gelu(x: Tensor) -> Tensor:
    """Erf-based GELU as its own tape node; ``linear``, ``conv2d`` and
    ``conv_transpose2d`` apply the same kernel in place as an epilogue
    (``gelu=True``). Backward is one multiply by the derivative the forward
    kept."""
    xd = np.atleast_1d(x.data)
    out = np.empty_like(xd)
    d = _gelu_into(out, xd)
    return Tensor(out.reshape(x.shape), parents=(x,), op="gelu",
                  backward=lambda g: (g * d.reshape(g.shape),))


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


def linear(x: Tensor, w: Tensor, b: Tensor, gelu: bool = False) -> Tensor:
    """Affine map ``x @ w + b`` over the last axis of ``x``, then GELU when
    ``gelu`` is set.

    ``x``: (..., d_in); ``w``: (d_in, d_out); ``b``: (d_out,). The leading
    dimensions are flattened into rows, so forward is one GEMM whose output
    takes the bias and GELU in place, and backward is one multiply by the
    GELU derivative (the only array the epilogue keeps), one GEMM each for
    the input and weight gradients and a row sum.
    """
    if w.ndim != 2 or x.ndim < 1 or x.shape[-1] != w.shape[0] or b.shape != (w.shape[1],):
        raise ShapeError(f"linear expects x (..., d_in), w (d_in, d_out), b (d_out,), "
                         f"got {x.shape}, {w.shape}, {b.shape}")
    d_in, d_out = w.shape
    x2 = x.data.reshape(-1, d_in)
    out = (x2 @ w.data).reshape(x.shape[:-1] + (d_out,))
    out += b.data
    deriv = _gelu_into(out, out) if gelu else None

    def bwd(g):
        if deriv is not None:
            g = g * deriv
        g2 = g.reshape(-1, d_out)
        gx = (g2 @ w.data.T).reshape(x.shape) if x.requires_grad else None
        return (gx, x2.T @ g2, g2.sum(axis=0))

    return Tensor(out, parents=(x, w, b), op="linear", backward=bwd)


def _selects_once(key, shape: tuple) -> bool:
    """Whether indexing an array of ``shape`` with ``key`` can select no
    element twice: basic indexing, or integer arrays on the leading axes
    (then only slices) whose raveled positions do not repeat."""
    parts = key if isinstance(key, tuple) else (key,)
    arrays = [p for p in parts if isinstance(p, np.ndarray)]
    if not arrays:
        return all(isinstance(p, (int, np.integer, slice)) or p is None or p is Ellipsis
                   for p in parts)
    if (any(p.dtype.kind not in "iu" for p in arrays)
            or not all(isinstance(p, slice) for p in parts[len(arrays):])):
        return False
    rows = np.ravel_multi_index(arrays, shape[:len(arrays)], mode="wrap").reshape(-1)
    return rows.size == 0 or np.bincount(rows).max() == 1


def _scatter_add(x: np.ndarray, key, g: np.ndarray) -> np.ndarray:
    """Zeros like ``x`` with ``g`` added at ``key``. When no element is
    selected twice a plain indexed assignment gives the same sums as
    ``np.add.at`` at a fraction of its cost."""
    gx = np.zeros_like(x)
    if _selects_once(key, x.shape):
        gx[key] = g
    else:
        np.add.at(gx, key, g)
    return gx


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


def cross_entropy(logits: Tensor, targets, axis: int = -1, weights=None) -> Tensor:
    """Per-position -log softmax(logits)[target] along ``axis``, times
    ``weights`` when given, as one tape node.

    ``targets`` (and ``weights``) have the shape of ``logits`` without
    ``axis``, and so does the result. The values and gradients equal those
    of the composite log-sum-exp minus the target logit (times the weights;
    ``tests/reference.py``) bit for bit when ``axis`` is last or the axis is
    shorter than 8, where numpy sums the exponentials in the same order:
    forward is log(Σ exp(x−m)) + m − x[t], backward e·((g·w)/Σe) with g·w
    subtracted at the target. The gradient is laid out with ``axis`` last in
    memory, as the composite's transpose leaves it, so reductions over it
    downstream add in the same order.
    """
    axis = axis % logits.ndim
    idx = np.expand_dims(np.asarray(targets), axis)
    if idx.shape != logits.shape[:axis] + (1,) + logits.shape[axis + 1:]:
        raise ShapeError(f"cross_entropy targets of shape {np.shape(targets)} do not match "
                         f"logits {logits.shape} without axis {axis}")
    if idx.size and (idx.min() < 0 or idx.max() >= logits.shape[axis]):
        raise IndexError(f"cross_entropy target out of range for {logits.shape[axis]} classes")
    x = logits.data
    m = x.max(axis=axis, keepdims=True)
    e = np.exp(x - m)
    s = e.sum(axis=axis, keepdims=True)
    out = np.log(s)
    out += m
    out -= np.take_along_axis(x, idx, axis=axis)
    w = None if weights is None else np.asarray(weights, dtype=x.dtype)
    if w is not None:
        out *= np.expand_dims(w, axis)

    def bwd(g):
        gw = np.expand_dims(g if w is None else g * w, axis)
        q = gw / s
        # classes innermost in memory, where the composite's transpose put them
        gx = np.moveaxis(np.empty_like(np.moveaxis(e, axis, -1), order="C"), -1, axis)
        np.multiply(e, q, out=gx)
        np.put_along_axis(gx, idx, np.take_along_axis(gx, idx, axis=axis) - gw, axis=axis)
        return (gx,)

    return Tensor(np.squeeze(out, axis), parents=(logits,), op="cross_entropy", backward=bwd)


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


# -- convolutions ------------------------------------------------------------

def _channel_bias_grad(g: np.ndarray, bias: Tensor) -> np.ndarray:
    """The gradient of a (C,) bias added per channel to (B, C, H, W) maps."""
    return _unbroadcast(g, (1, bias.data.size, 1, 1)).reshape(bias.shape)


def conv2d(x: Tensor, kernel: Tensor, stride: int = 1, padding: int = 0,
           bias: Optional[Tensor] = None, gelu: bool = False) -> Tensor:
    """2-d cross-correlation, plus a per-channel ``bias`` and then GELU when
    given. ``x``: (B, Cin, H, W); ``kernel``: (Cout, Cin, kh, kw); ``bias``: (Cout,).

    One small GEMM per image and kernel tap, with no column matrix. The
    padded input is viewed as (B, Cin, L), L = Hp·Wp, so stride-1 output
    pixel (h, w) sits at flat index h·Wp + w and tap (i, j) reads the input
    at that index plus s = i·Wp + j. Each tap adds
    ``W_ij @ x_flat[:, :, s:s+n]`` into one accumulator; the columns past
    the last valid one wrap into the next row and are cropped, and a stride
    keeps every stride-th row and column. The bias add writes the cropped
    output into a fresh array, so the accumulator is not kept, and GELU
    runs in place on it. Backward multiplies by the GELU derivative first,
    then mirrors the forward: gx adds ``W_ijᵀ @ g_flat`` back at each tap's
    offset, and gw_ij = Σ_b g_flat @ x_flat[:, :, s:s+n]ᵀ.
    """
    if x.ndim != 4 or kernel.ndim != 4:
        raise ShapeError(f"conv2d expects 4-d input/kernel, got {x.shape}, {kernel.shape}")
    if x.shape[1] != kernel.shape[1]:
        raise ShapeError(f"conv2d channel mismatch: input {x.shape[1]}, kernel {kernel.shape[1]}")
    B, cin, H, W = x.shape
    cout, _, kh, kw = kernel.shape
    p = padding
    Hp, Wp = H + 2 * p, W + 2 * p
    if Hp < kh or Wp < kw:
        raise ShapeError(f"conv2d kernel {kh}x{kw} larger than padded input {(Hp, Wp)}")
    Hf, Wf = Hp - kh + 1, Wp - kw + 1           # stride-1 output size
    n = (Hf - 1) * Wp + Wf                      # flat span from the first to the last output
    taps = [(i, j, i * Wp + j) for i in range(kh) for j in range(kw)]
    xp = np.pad(x.data, ((0, 0), (0, 0), (p, p), (p, p))) if p else x.data
    xf = xp.reshape(B, cin, Hp * Wp)
    wt = np.ascontiguousarray(kernel.data.transpose(2, 3, 0, 1))   # (kh, kw, Cout, Cin)
    dtype = np.result_type(x.data, kernel.data)
    acc = np.zeros((B, cout, Hf * Wp), dtype=dtype)
    for b in range(B):      # image-major, so one image's accumulator stays in cache
        for i, j, s in taps:
            acc[b, :, :n] += wt[i, j] @ xf[b, :, s:s + n]
    out = acc.reshape(B, cout, Hf, Wp)[:, :, ::stride, :Wf:stride].astype(x.dtype, copy=False)
    if bias is not None:
        out = out + bias.data.reshape(1, cout, 1, 1)
    deriv = _gelu_into(out, out) if gelu else None

    def bwd(g):
        if deriv is not None:
            g = g * deriv
        gs = np.zeros((B, cout, Hf, Wp), dtype=dtype)
        gs[:, :, ::stride, :Wf:stride] = g           # back onto the stride-1 positions
        gf = gs.reshape(B, cout, Hf * Wp)[:, :, :n]
        gx = None
        if x.requires_grad:
            gxf = np.zeros((B, cin, Hp * Wp), dtype=dtype)
            for b in range(B):
                for i, j, s in taps:
                    gxf[b, :, s:s + n] += wt[i, j].T @ gf[b]
            gx = gxf.reshape(B, cin, Hp, Wp)[:, :, p:p + H, p:p + W].astype(x.dtype, copy=False)
        gw = np.empty(kernel.shape, dtype=kernel.dtype)
        for i, j, s in taps:
            gw[:, :, i, j] = np.matmul(gf, xf[:, :, s:s + n].swapaxes(1, 2)).sum(axis=0)
        return (gx, gw) if bias is None else (gx, gw, _channel_bias_grad(g, bias))

    parents = (x, kernel) if bias is None else (x, kernel, bias)
    return Tensor(out, parents=parents, op="conv2d", backward=bwd)


def conv_transpose2d(x: Tensor, kernel: Tensor, stride: int, bias: Optional[Tensor] = None,
                     gelu: bool = False) -> Tensor:
    """Transposed convolution whose windows do not overlap (kernel size ==
    stride), plus a per-channel ``bias`` and then GELU when given.

    ``x``: (B, Cin, H, W); ``kernel``: (Cin, Cout, s, s); ``bias``: (Cout,);
    output (B, Cout, H*s, W*s). Each input pixel paints one s x s block, so
    the op is one matmul (B*H*W, Cin) @ (Cin, Cout*s*s) whose result is
    pixel-shuffled into a fresh output in the same pass as the bias add;
    GELU then runs in place on it. Backward multiplies by the GELU
    derivative first, shuffles the gradient back to (B*H*W, Cout*s*s) and
    is one GEMM each for the input and kernel gradients.
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
    xc = x.data.transpose(0, 2, 3, 1).reshape(B * H * W, cin)
    k2 = kernel.data.reshape(cin, cout * s * s)
    cols = np.matmul(xc, k2).reshape(B, H, W, cout, s, s).transpose(0, 3, 1, 4, 2, 5)
    out = np.empty((B, cout, H * s, W * s), dtype=cols.dtype)
    blocks = out.reshape(cols.shape)        # (B, Cout, H, s, W, s), a view of out
    if bias is None:
        np.copyto(blocks, cols)
    else:
        np.add(cols, bias.data.reshape(1, cout, 1, 1, 1, 1), out=blocks)
    deriv = _gelu_into(out, out) if gelu else None

    def bwd(g):
        if deriv is not None:
            g = g * deriv
        gc = g.reshape(B, cout, H, s, W, s).transpose(0, 2, 4, 1, 3, 5)
        gc = gc.reshape(B * H * W, cout * s * s)       # a copy: the shuffle undone
        gx = None
        if x.requires_grad:
            gx = np.matmul(gc, k2.T).reshape(B, H, W, cin).transpose(0, 3, 1, 2)
        gk = np.matmul(xc.T, gc).reshape(kernel.shape)
        return (gx, gk) if bias is None else (gx, gk, _channel_bias_grad(g, bias))

    parents = (x, kernel) if bias is None else (x, kernel, bias)
    return Tensor(out, parents=parents, op="conv_transpose2d", backward=bwd)


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
