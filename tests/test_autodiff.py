"""Finite-difference gradient checks and shape handling for the tensor engine."""
import operator

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from patchpos import autodiff as ad
from patchpos.autodiff import Tensor
from patchpos.encoder import attention_mask_bias

from reference import cross_entropy_from_logits, log_softmax_lastdim, logsumexp_lastdim

TOL = 1e-4


def t64(rng, *shape):
    return Tensor(rng.standard_normal(shape), requires_grad=True)


def check(fn, *tensors):
    err = ad.finite_difference_check(fn, tensors)
    assert err < TOL, f"finite-difference mismatch: {err}"


def test_add_mul_broadcast():
    rng = np.random.default_rng(0)
    a, b = t64(rng, 3, 4), t64(rng, 4)
    check(lambda a, b: ((a + b) * (a * 2.0 - b)).sum(), a, b)


def test_sub_div_pow():
    rng = np.random.default_rng(1)
    a, b = t64(rng, 2, 3), t64(rng, 2, 3)
    b.data = b.data + 3.0  # keep the divisor away from zero
    check(lambda a, b: ((a - b) / b + a ** 3).sum(), a, b)


def test_matmul_batched():
    rng = np.random.default_rng(2)
    a, b = t64(rng, 2, 3, 4), t64(rng, 4, 5)
    check(lambda a, b: (a @ b).sum(), a, b)
    c = t64(rng, 2, 5, 4)
    check(lambda a, c: ((a @ c.transpose((0, 2, 1))) ** 2).sum(), a, c)


def test_matmul_shape_errors():
    a = Tensor(np.zeros((3, 4)))
    with pytest.raises(ad.ShapeError):
        ad.matmul(a, Tensor(np.zeros((3, 4))))
    with pytest.raises(ad.ShapeError):
        ad.matmul(a, Tensor(np.zeros(4)))


def test_linear():
    rng = np.random.default_rng(17)
    x, w, b = t64(rng, 2, 3, 4), t64(rng, 4, 5), t64(rng, 5)
    out = ad.linear(x, w, b)
    assert out.shape == (2, 3, 5)
    assert np.allclose(out.data, x.data @ w.data + b.data)
    check(lambda x, w, b: (ad.linear(x, w, b) ** 2).sum(), x, w, b)
    v = t64(rng, 4)
    check(lambda v, w, b: (ad.linear(v, w, b) ** 2).sum(), v, w, b)


def test_linear_skips_constant_input_grad():
    rng = np.random.default_rng(18)
    x = Tensor(rng.standard_normal((3, 4)))
    w, b = t64(rng, 4, 2), t64(rng, 2)
    ad.linear(x, w, b).sum().backward()
    assert x.grad is None
    assert np.allclose(w.grad, x.data.sum(axis=0)[:, None] * np.ones((1, 2)))
    assert np.allclose(b.grad, 3.0)


@pytest.mark.parametrize("op", [operator.add, operator.mul, operator.truediv],
                         ids=["add", "mul", "div"])
def test_broadcasting_ops_skip_constant_operand_grads(op):
    # a constant operand gets None from the node's backward, not a gradient
    # for backward() to drop; the other operand's gradient does not change
    rng = np.random.default_rng(19)
    x = rng.standard_normal((5, 4)) + 3.0
    c = rng.standard_normal((1, 4)) + 3.0
    for const_first in (False, True):
        grads = []
        for c_requires_grad in (False, True):
            xt = Tensor(x, requires_grad=True)
            ct = Tensor(c, requires_grad=c_requires_grad)
            out = op(ct, xt) if const_first else op(xt, ct)
            pg = out._backward(np.ones(out.shape))
            assert (pg[0] if const_first else pg[1]) is None or c_requires_grad
            (out * out).sum().backward()
            grads.append(xt.grad)
        assert grads[0].tobytes() == grads[1].tobytes()


def test_linear_shape_errors():
    x = Tensor(np.zeros((2, 3, 4)))
    with pytest.raises(ad.ShapeError, match="linear"):
        ad.linear(x, Tensor(np.zeros((3, 5))), Tensor(np.zeros(5)))
    with pytest.raises(ad.ShapeError, match="linear"):
        ad.linear(x, Tensor(np.zeros((4, 5))), Tensor(np.zeros(4)))
    with pytest.raises(ad.ShapeError, match="linear"):
        ad.linear(x, Tensor(np.zeros((2, 4, 5))), Tensor(np.zeros(5)))


@pytest.mark.parametrize("dtype, bound", [(np.float64, 2e-7), (np.float32, 1e-6)])
def test_erf_matches_scipy(dtype, bound):
    # the GELU kernel's erf, read back as erf(x/√2) = 2·GELU(x)/x − 1, and
    # its derivative Φ(x) + x·φ(x)
    from scipy.special import erf
    x = np.linspace(-10.0, 10.0, 200_001).astype(dtype)
    z = np.empty_like(x)
    deriv = ad._gelu_into(z, x)
    assert z.dtype == deriv.dtype == dtype
    x64 = x.astype(np.float64)
    nonzero = x != 0
    got = 2.0 * z[nonzero] / x64[nonzero] - 1.0
    assert np.abs(got - erf(x64[nonzero] * ad._INV_SQRT2)).max() <= bound
    phi = 0.5 * (1.0 + erf(x64 * ad._INV_SQRT2))
    assert np.abs(deriv - (phi + x64 * np.exp(-0.5 * x64 * x64) * ad._INV_SQRT2PI)).max() <= bound


def test_getitem():
    rng = np.random.default_rng(3)
    a = t64(rng, 4, 6)
    check(lambda a: (a[1:3, ::2] * a[0:2, 1::2]).sum(), a)


def test_reductions_and_shaping():
    rng = np.random.default_rng(4)
    a = t64(rng, 2, 3, 4)
    check(lambda a: a.sum(axis=1).mean(), a)
    check(lambda a: (a.mean(axis=(0, 2), keepdims=True) * a).sum(), a)
    check(lambda a: a.reshape(6, 4).swapaxes(0, 1).sum(axis=0).sum(), a)
    check(lambda a: a.transpose((2, 0, 1)).mean(), a)


def test_elementwise_functions():
    rng = np.random.default_rng(5)
    a = t64(rng, 3, 3)
    check(lambda a: ad.exp(a).sum(), a)
    check(lambda a: ad.gelu(a).sum(), a)
    b = t64(rng, 3, 3)
    b.data = np.abs(b.data) + 0.5
    check(lambda b: ad.log(b).sum(), b)
    check(lambda b: ad.sqrt(b).sum(), b)



@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_gelu_on_a_0d_tensor_matches_the_1_element_case(dtype):
    def forward_backward(value):
        x = Tensor(value, requires_grad=True)
        out = ad.gelu(x)
        out.sum().backward()
        return out.data, x.grad

    for v in [0.3, -1.7, 0.0, 6.0]:
        out0, grad0 = forward_backward(dtype(v))
        out1, grad1 = forward_backward(np.array([v], dtype=dtype))
        assert out0.shape == grad0.shape == () and out0.dtype == grad0.dtype == dtype
        assert out0 == out1[0] and grad0 == grad1[0]


def test_gather_rows():
    # row selection by indexing; negatives wrap and out-of-range raises, as in numpy
    rng = np.random.default_rng(6)
    a = t64(rng, 5, 3)
    idx = np.array([0, 2, 2, 4])
    check(lambda a: (a[idx] ** 2).sum(), a)
    assert np.array_equal(a[np.array([-1])].data, a.data[4:])
    with pytest.raises(IndexError):
        a[np.array([5])]


def test_gather_seq():
    # one index row per sequence, selecting along the second-to-last axis
    rng = np.random.default_rng(7)
    a = t64(rng, 2, 6, 3)
    idx = np.array([[0, 5, 2], [1, 1, 3]])
    lead = np.arange(2)[:, None]
    check(lambda a: (a[lead, idx] * 1.5).sum(), a)
    out = a[lead, idx]
    assert np.array_equal(out.data[1, 0], a.data[1, 1])


@pytest.mark.parametrize("idx", [[4, 0, 2], [0, 2, 2, 4], [[3, 1], [0, 4]], [[1, 1], [1, 0]]])
def test_gather_rows_backward_matches_add_at(idx):
    # unique rows take the indexed-assignment path, repeated ones np.add.at
    rng = np.random.default_rng(9)
    idx = np.array(idx)
    x = Tensor(rng.standard_normal((5, 3)).astype(np.float32), requires_grad=True)
    g = rng.standard_normal(idx.shape + (3,)).astype(np.float32)
    (x[idx] * Tensor(g)).sum().backward()
    want = np.zeros_like(x.data)
    np.add.at(want, idx, g)
    assert np.array_equal(x.grad, want)


@pytest.mark.parametrize("idx", [[[0, 5, 2], [1, 4, 3]], [[0, 5, 2], [1, 1, 3]], [[-1, 0, 1], [2, 3, 4]]])
def test_gather_seq_backward_matches_add_at(idx):
    rng = np.random.default_rng(10)
    idx = np.array(idx)
    x = Tensor(rng.standard_normal((2, 6, 3)).astype(np.float32), requires_grad=True)
    g = rng.standard_normal(idx.shape + (3,)).astype(np.float32)
    (x[np.arange(2)[:, None], idx] * Tensor(g)).sum().backward()
    want = np.zeros_like(x.data)
    np.add.at(want, (np.arange(2)[:, None], idx), g)
    assert np.array_equal(x.grad, want)


def test_take_lastdim():
    # one entry per row, picked along the last axis
    rng = np.random.default_rng(8)
    a = t64(rng, 4, 6)
    idx = np.array([0, 5, 3, 3])
    check(lambda a: a[np.arange(4), idx].sum(), a)


@st.composite
def selections(draw):
    """An array shape and a key into it: integer arrays (repeats and negatives
    included) or broadcasting tuples of them on the leading axes, basic
    slices, or a boolean mask."""
    shape = tuple(draw(st.lists(st.integers(1, 4), min_size=1, max_size=3)))
    kind = draw(st.sampled_from(["ints", "tuple", "slices", "mask"]))
    if kind == "ints":
        idx_shape = tuple(draw(st.lists(st.integers(0, 3), min_size=1, max_size=2)))
        return shape, draw(hnp.arrays(np.int64, idx_shape,
                                      elements=st.integers(-shape[0], shape[0] - 1)))
    if kind == "tuple":
        k = draw(st.integers(1, len(shape)))
        ndims = draw(st.integers(1, 2))
        return shape, tuple(draw(hnp.arrays(np.int64, draw(hnp.broadcastable_shapes(
                                (3,) * ndims, min_dims=ndims, max_dims=ndims, min_side=1,
                                max_side=3)), elements=st.integers(-n, n - 1)))
                            for n in shape[:k])
    if kind == "slices":
        return shape, tuple(slice(draw(st.integers(-n, n)), draw(st.integers(-n, n)),
                                  draw(st.sampled_from([1, 2, -1]))) for n in shape)
    return shape, draw(hnp.arrays(np.bool_, shape))


@settings(max_examples=200)
@given(sel=selections(), seed=st.integers(0, 2 ** 32 - 1))
def test_getitem_backward_matches_add_at(sel, seed):
    shape, key = sel
    rng = np.random.default_rng(seed)
    x = Tensor(rng.standard_normal(shape).astype(np.float32), requires_grad=True)
    g = rng.standard_normal(x.data[key].shape).astype(np.float32)
    (x[key] * Tensor(g)).sum().backward()
    want = np.zeros_like(x.data)
    np.add.at(want, key, g)
    assert np.array_equal(x.grad, want)


def test_concat():
    rng = np.random.default_rng(9)
    a, b = t64(rng, 2, 3), t64(rng, 2, 2)
    check(lambda a, b: (ad.concat([a, b], axis=1) ** 2).sum(), a, b)


def test_softmax_losses():
    rng = np.random.default_rng(10)
    a = t64(rng, 3, 5)
    check(lambda a: (ad.softmax_lastdim(a) * np.arange(5.0)).sum(), a)
    check(lambda a: logsumexp_lastdim(a).sum(), a)
    check(lambda a: (log_softmax_lastdim(a) ** 2).sum(), a)
    tgt = np.array([1, 0, 4])
    check(lambda a: cross_entropy_from_logits(a, tgt).sum(), a)


def test_softmax_rows_sum_to_one():
    rng = np.random.default_rng(11)
    a = Tensor(rng.standard_normal((4, 7)) * 10)
    s = ad.softmax_lastdim(a)
    assert np.allclose(s.data.sum(axis=-1), 1.0, atol=1e-6)


def test_layernorm():
    rng = np.random.default_rng(12)
    x, g, b = t64(rng, 2, 4, 6), t64(rng, 6), t64(rng, 6)
    check(lambda x, g, b: (ad.layernorm(x, g, b) * 0.7).sum(), x, g, b)
    with pytest.raises(ad.ShapeError):
        ad.layernorm(x, Tensor(np.ones(3)), b)


def test_conv2d():
    rng = np.random.default_rng(13)
    x = t64(rng, 2, 3, 5, 5)
    w = t64(rng, 4, 3, 3, 3)
    check(lambda x, w: (ad.conv2d(x, w) ** 2).sum(), x, w)
    check(lambda x, w: ad.conv2d(x, w, stride=2, padding=1).sum(), x, w)


def conv_loops(x, k, g, stride, pad):
    """Loop reference for conv2d: the output, and for output gradient ``g``
    the input and kernel gradients, one multiply-add at a time."""
    B, cin, H, W = x.shape
    cout, _, kh, kw = k.shape
    xp = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    out, gxp, gk = np.zeros(g.shape), np.zeros_like(xp), np.zeros_like(k)
    for b in range(B):
        for o in range(cout):
            for h in range(g.shape[2]):
                for w in range(g.shape[3]):
                    for c in range(cin):
                        for i in range(kh):
                            for j in range(kw):
                                r, q = h * stride + i, w * stride + j
                                out[b, o, h, w] += xp[b, c, r, q] * k[o, c, i, j]
                                gxp[b, c, r, q] += g[b, o, h, w] * k[o, c, i, j]
                                gk[o, c, i, j] += g[b, o, h, w] * xp[b, c, r, q]
    return out, gxp[:, :, pad:pad + H, pad:pad + W], gk


@settings(max_examples=60)
@given(kh=st.integers(1, 3), kw=st.integers(1, 3), stride=st.integers(1, 2),
       pad=st.integers(0, 1), b=st.integers(1, 2), cin=st.integers(1, 3),
       cout=st.integers(1, 3), h=st.integers(1, 7), w=st.integers(1, 7),
       seed=st.integers(0, 2 ** 32 - 1))
def test_conv2d_matches_loops(kh, kw, stride, pad, b, cin, cout, h, w, seed):
    # small integers keep every sum exact, so the comparison is bit-for-bit
    h, w = max(h, kh - 2 * pad), max(w, kw - 2 * pad)
    rng = np.random.default_rng(seed)
    x = Tensor(rng.integers(-8, 9, size=(b, cin, h, w)).astype(np.float64), requires_grad=True)
    k = Tensor(rng.integers(-8, 9, size=(cout, cin, kh, kw)).astype(np.float64),
               requires_grad=True)
    out = ad.conv2d(x, k, stride=stride, padding=pad)
    assert out.shape == (b, cout, (h + 2 * pad - kh) // stride + 1,
                         (w + 2 * pad - kw) // stride + 1)
    g = rng.integers(-8, 9, size=out.shape).astype(np.float64)
    (out * Tensor(g)).sum().backward()
    ref_out, ref_gx, ref_gk = conv_loops(x.data, k.data, g, stride, pad)
    assert np.array_equal(out.data, ref_out)
    assert np.array_equal(x.grad, ref_gx)
    assert np.array_equal(k.grad, ref_gk)


def test_conv2d_shape_errors():
    x = Tensor(np.zeros((1, 3, 4, 4)))
    with pytest.raises(ad.ShapeError):
        ad.conv2d(x, Tensor(np.zeros((2, 2, 3, 3))))
    with pytest.raises(ad.ShapeError):
        ad.conv2d(x, Tensor(np.zeros((2, 3, 6, 6))))


def test_conv_transpose2d():
    rng = np.random.default_rng(14)
    x = t64(rng, 2, 3, 4, 4)
    w = t64(rng, 3, 2, 2, 2)
    out = ad.conv_transpose2d(x, w, stride=2)
    assert out.shape == (2, 2, 8, 8)
    check(lambda x, w: (ad.conv_transpose2d(x, w, stride=2) ** 2).sum(), x, w)


def paint_blocks(x, k):
    """Loop reference: input pixel (i, j) paints k-weighted s x s block (i, j)."""
    B, cin, H, W = x.shape
    _, cout, s, _ = k.shape
    out = np.zeros((B, cout, H * s, W * s))
    for b in range(B):
        for i in range(H):
            for j in range(W):
                for c in range(cin):
                    out[b, :, i * s:(i + 1) * s, j * s:(j + 1) * s] += x[b, c, i, j] * k[c]
    return out


@settings(max_examples=40)
@given(s=st.sampled_from([1, 2, 4]), b=st.integers(1, 2), cin=st.integers(1, 4),
       cout=st.integers(1, 3), h=st.integers(1, 4), w=st.integers(1, 4),
       seed=st.integers(0, 2 ** 32 - 1))
def test_conv_transpose2d_paints_blocks(s, b, cin, cout, h, w, seed):
    # small integers keep every sum exact, so the comparison is bit-for-bit
    rng = np.random.default_rng(seed)
    x = rng.integers(-8, 9, size=(b, cin, h, w)).astype(np.float64)
    k = rng.integers(-8, 9, size=(cin, cout, s, s)).astype(np.float64)
    out = ad.conv_transpose2d(Tensor(x), Tensor(k), stride=s).data
    assert np.array_equal(out, paint_blocks(x, k))


def test_conv_transpose2d_shape_errors():
    x = Tensor(np.zeros((1, 3, 4, 4)))
    with pytest.raises(ad.ShapeError, match="kernel size == stride"):
        ad.conv_transpose2d(x, Tensor(np.zeros((3, 2, 3, 3))), stride=2)
    with pytest.raises(ad.ShapeError, match="kernel size == stride"):
        ad.conv_transpose2d(x, Tensor(np.zeros((3, 2, 2, 2))), stride=1)
    with pytest.raises(ad.ShapeError, match="channel mismatch"):
        ad.conv_transpose2d(x, Tensor(np.zeros((2, 2, 2, 2))), stride=2)


def test_conv_transpose_matches_adjoint():
    # <conv(x), y> == <x, conv_transpose(y)> for matching shapes
    rng = np.random.default_rng(15)
    x = rng.standard_normal((1, 2, 6, 6))
    w = rng.standard_normal((3, 2, 2, 2))
    y = rng.standard_normal((1, 3, 3, 3))
    fwd = ad.conv2d(Tensor(x), Tensor(w), stride=2, padding=0).data
    adj = ad.conv_transpose2d(Tensor(y), Tensor(w), stride=2).data
    assert adj.shape == x.shape
    assert np.isclose((fwd * y).sum(), (x * adj).sum(), rtol=1e-10)


def test_grad_accumulates_over_reuse():
    a = Tensor(np.array([2.0]), requires_grad=True)
    ((a * a) + a * 3.0).sum().backward()
    assert np.allclose(a.grad, 2 * 2.0 + 3.0)


def test_backward_requires_scalar():
    a = Tensor(np.zeros((2, 2)), requires_grad=True)
    with pytest.raises(ValueError):
        (a + 1.0).backward()


# -- tape lifetime: release after backward, no tape under no_grad ------------

def tape_nodes(root):
    """Every node reachable from ``root`` through recorded parents."""
    seen, stack, nodes = {id(root)}, [root], []
    while stack:
        node = stack.pop()
        nodes.append(node)
        for p in node._parents:
            if id(p) not in seen:
                seen.add(id(p))
                stack.append(p)
    return nodes


def replay_grads(root):
    """Leaf gradients from the recorded closures, in the order ``backward``
    applies them, leaving the tape as it is."""
    order, seen = [], set()

    def visit(node):
        seen.add(id(node))
        for p in node._parents:
            if id(p) not in seen and p.requires_grad:
                visit(p)
        order.append(node)

    visit(root)
    grads, leaves = {id(root): np.ones_like(root.data)}, {}
    for node in reversed(order):
        g = grads.pop(id(node), None)
        if g is None:
            continue
        if node._backward is None:
            leaves[id(node)] = g if id(node) not in leaves else leaves[id(node)] + g
            continue
        for p, pg in zip(node._parents, node._backward(g)):
            if pg is not None and p.requires_grad:
                grads[id(p)] = grads[id(p)] + pg if id(p) in grads else pg
    return leaves


def small_net(rng, dtype=np.float32):
    """Leaves and a scalar loss that runs through every kind of tape node the
    models record."""
    def leaf(*shape):
        return Tensor(rng.standard_normal(shape).astype(dtype), requires_grad=True)

    x, w, b, gain, bias = leaf(2, 5, 8), leaf(8, 8), leaf(8), leaf(8), leaf(8)
    h = ad.gelu(ad.layernorm(ad.linear(x, w, b), gain, bias))
    h = ad.attention(h, h, h, 2) + h
    rows = h.reshape(10, 8)[np.array([0, 3, 3, 9])]
    img, kern = leaf(1, 2, 4, 4), leaf(3, 2, 3, 3)
    pix = ad.conv2d(img, kern, padding=1)
    loss = (ad.cross_entropy(rows, np.array([1, 0, 7, 2]), weights=np.full(4, 0.25)).sum()
            + ad.cross_entropy(pix, np.zeros((1, 4, 4), dtype=np.int64), axis=1).mean())
    return [x, w, b, gain, bias, img, kern], loss


def test_backward_releases_the_tape():
    leaves, loss = small_net(np.random.default_rng(20))
    interior = [n for n in tape_nodes(loss) if n._backward is not None]
    assert len(interior) > 10
    want = replay_grads(loss)
    loss.backward()
    for node in interior:
        assert node._parents == () and node._backward is None, node._op
    for leaf in leaves:
        assert np.array_equal(leaf.grad, want[id(leaf)])
    with pytest.raises(RuntimeError, match="released"):
        loss.backward()


def test_backward_through_a_shared_released_node_raises():
    a = Tensor(np.array([2.0]), requires_grad=True)
    h = ad.exp(a)
    (h * 3.0).sum().backward()
    with pytest.raises(RuntimeError, match="exp node whose tape was released"):
        (h * h).sum().backward()


def test_no_grad_records_no_tape():
    leaves, loss = small_net(np.random.default_rng(21))
    with ad.no_grad():
        _, quiet = small_net(np.random.default_rng(21))
        assert ad.gelu(leaves[0]).requires_grad is False
    assert quiet.data.tobytes() == loss.data.tobytes()
    assert quiet._parents == () and quiet._backward is None and not quiet.requires_grad
    quiet.backward()    # a value, not a graph: nothing to propagate
    assert all(leaf.grad is None for leaf in leaves)


def test_no_grad_gelu_matches_the_recorded_output():
    x = Tensor(np.random.default_rng(22).standard_normal((4, 7)).astype(np.float32),
               requires_grad=True)
    with ad.no_grad():
        quiet = ad.gelu(x)
    assert quiet.data.tobytes() == ad.gelu(x).data.tobytes()


def test_no_grad_restores_the_flag_after_an_exception():
    a = Tensor(np.ones(3), requires_grad=True)
    with pytest.raises(ZeroDivisionError):
        with ad.no_grad():
            with ad.no_grad():
                pass
            assert not (a * 2.0).requires_grad
            raise ZeroDivisionError
    assert (a * 2.0)._parents and ad._grad_enabled


# -- cross_entropy against the composite --------------------------------------

def composite_ce(logits, targets, axis, weights):
    """The composite formulation: classes moved last, flattened to rows."""
    x = logits
    if axis % logits.ndim != logits.ndim - 1:
        x = logits.transpose(tuple(i for i in range(logits.ndim) if i != axis % logits.ndim)
                             + (axis % logits.ndim,))
    rows = x.reshape(-1, x.shape[-1])
    ce = cross_entropy_from_logits(rows, np.asarray(targets).reshape(-1))
    if weights is not None:
        ce = ce * Tensor(np.asarray(weights, dtype=logits.dtype).reshape(-1))
    return ce.reshape(np.shape(targets))


def run_ce(fn, x, targets, axis, weights, reduce):
    logits = Tensor(x.copy(), requires_grad=True)
    out = fn(logits, targets, axis, weights)
    loss = out.sum() if reduce == "sum" else out.mean()
    loss.backward()
    return out.data, loss.data, logits.grad


def assert_ce_matches_composite(x, targets, axis, weights, reduce):
    got = run_ce(lambda *a: ad.cross_entropy(*a), x, targets, axis, weights, reduce)
    want = run_ce(composite_ce, x, targets, axis, weights, reduce)
    for g, w in zip(got, want):
        assert g.dtype == w.dtype and np.array_equal(g, w)
    return got[2], want[2]


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_cross_entropy_matches_composite_on_weighted_rows(dtype):
    rng = np.random.default_rng(23)
    x = (rng.standard_normal((300, 64)) * 4).astype(dtype)
    targets, weights = rng.integers(0, 64, 300), rng.random(300)
    assert_ce_matches_composite(x, targets, -1, weights, "sum")


def test_cross_entropy_matches_composite_on_nchw():
    rng = np.random.default_rng(24)
    x = (rng.standard_normal((8, 2, 64, 64)) * 4).astype(np.float32)
    got, want = assert_ce_matches_composite(x, rng.integers(0, 2, (8, 64, 64)), 1, None, "mean")
    # classes innermost in memory, as the composite's transpose leaves the
    # gradient, so the decoder's bias gradient sums in the same order
    assert got.strides == want.strides == (2 * 64 * 64 * 4, 4, 64 * 2 * 4, 2 * 4)


@settings(max_examples=60)
@given(dtype=st.sampled_from([np.float64, np.float32]), k=st.integers(1, 7),
       lead=st.lists(st.integers(1, 5), min_size=1, max_size=3), data=st.data(),
       weighted=st.booleans(), reduce=st.sampled_from(["sum", "mean"]),
       seed=st.integers(0, 2 ** 32 - 1))
def test_cross_entropy_matches_composite(dtype, k, lead, data, weighted, reduce, seed):
    rng = np.random.default_rng(seed)
    axis = data.draw(st.integers(-len(lead) - 1, len(lead)))
    shape = list(lead)
    shape.insert(axis % (len(lead) + 1), k)
    x = (rng.standard_normal(shape) * 5).astype(dtype)
    targets = rng.integers(0, k, tuple(lead))
    weights = rng.random(tuple(lead)) if weighted else None
    assert_ce_matches_composite(x, targets, axis, weights, reduce)


def test_cross_entropy_rejects_bad_targets():
    x = Tensor(np.zeros((3, 4)))
    with pytest.raises(ad.ShapeError, match="targets"):
        ad.cross_entropy(x, np.zeros(4, dtype=np.int64))
    with pytest.raises(IndexError, match="4 classes"):
        ad.cross_entropy(x, np.array([0, 4, 1]))


# -- fused layernorm / attention / gelu against the composite formulas --------

def layernorm_oracle(x, gain, bias, eps=1e-6):
    mu = x.mean(axis=-1, keepdims=True)
    xc = x - mu
    var = (xc * xc).mean(axis=-1, keepdims=True)
    return xc / ad.sqrt(var + eps) * gain + bias


def attention_oracle(q, k, v, heads, bias):
    def split(x):
        n, w = x.shape[-2:]
        return x.reshape(x.shape[:-2] + (n, heads, w // heads)).swapaxes(-2, -3)

    dh = q.shape[-1] // heads
    scores = (split(q) @ split(k).swapaxes(-1, -2)) * (1.0 / float(np.sqrt(dh)))
    if bias is not None:
        scores = scores + Tensor(bias[..., None, :, :].astype(scores.dtype))
    out = ad.softmax_lastdim(scores) @ split(v)
    return out.swapaxes(-2, -3).reshape(out.shape[:-3] + (out.shape[-2], v.shape[-1]))


def erf_oracle(x):
    """A&S 7.1.26 as the textbook writes it: sign(x)·(1 − Σ a_k t^k e^(−x²))."""
    t = 1.0 / (1.0 + ad._ERF_P * np.abs(x))
    poly = sum(a * t ** k for k, a in enumerate(reversed(ad._ERF_A), start=1))
    return np.sign(x) * (1.0 - poly * np.exp(-x * x))


def gelu_oracle(x):
    xd = x.data
    e = erf_oracle(xd * ad._INV_SQRT2)

    def bwd(g):
        return (g * (0.5 * (1.0 + e) + xd * np.exp(-0.5 * xd * xd) * ad._INV_SQRT2PI),)

    return Tensor(0.5 * xd * (1.0 + e), parents=(x,), op="gelu", backward=bwd)


def run_op(fn, arrays, weight):
    leaves = [Tensor(a.copy(), requires_grad=True) for a in arrays]
    out = fn(*leaves)
    (out * Tensor(weight)).sum().backward()
    return [out.data] + [t.grad for t in leaves]


def assert_rel_close(got, want, bound):
    for g, w in zip(got, want):
        assert g.shape == w.shape and g.dtype == w.dtype
        scale = max(float(np.abs(w).max(initial=0.0)), 1e-30)
        assert float(np.abs(g - w).max(initial=0.0)) / scale <= bound


@settings(max_examples=60)
@given(dtype=st.sampled_from([np.float64, np.float32]), lead=st.integers(1, 3),
       nq=st.integers(1, 6), nk=st.integers(1, 6), heads=st.integers(1, 3),
       dh=st.integers(1, 4), dvh=st.integers(1, 3), shared_kv=st.booleans(),
       with_bias=st.booleans(), seed=st.integers(0, 2 ** 32 - 1))
def test_fused_ops_match_composite(dtype, lead, nq, nk, heads, dh, dvh, shared_kv,
                                   with_bias, seed):
    rng = np.random.default_rng(seed)
    bound = 1e-12 if dtype == np.float64 else 2e-6

    def r(*shape):
        return rng.standard_normal(shape).astype(dtype)

    x, gain, bias, w = r(lead, nq, 5), r(5), r(5), r(lead, nq, 5)
    assert_rel_close(run_op(ad.layernorm, (x, gain, bias), w),
                     run_op(layernorm_oracle, (x, gain, bias), w), bound)
    assert_rel_close(run_op(ad.gelu, (x * 3,), w), run_op(gelu_oracle, (x * 3,), w), bound)

    kv_lead = 1 if shared_kv else lead      # the cross block shares keys over queries
    q, k, v = r(lead, nq, heads * dh), r(kv_lead, nk, heads * dh), r(kv_lead, nk, heads * dvh)
    logit_bias = None
    if with_bias:
        groups = rng.integers(0, 3, size=(lead, nq + nk))
        logit_bias = attention_mask_bias(groups[:, :nq], groups[:, nq:])
    w = r(lead, nq, heads * dvh)
    assert_rel_close(run_op(lambda q, k, v: ad.attention(q, k, v, heads, logit_bias), (q, k, v), w),
                     run_op(lambda q, k, v: attention_oracle(q, k, v, heads, logit_bias),
                            (q, k, v), w), bound)


def test_attention_shape_errors():
    q = Tensor(np.zeros((3, 4)))
    with pytest.raises(ad.ShapeError, match="attention"):
        ad.attention(q, Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 4))), 2)
    with pytest.raises(ad.ShapeError, match="attention"):
        ad.attention(q, Tensor(np.zeros((2, 4))), Tensor(np.zeros((3, 4))), 2)
    with pytest.raises(ad.ShapeError, match="attention"):
        ad.attention(q, q, Tensor(np.zeros((3, 3))), 2)


def test_attention_large_logits_stay_finite():
    # Logits far beyond float32's exp range: the max shift keeps softmax finite.
    rng = np.random.default_rng(19)
    q = Tensor(rng.standard_normal((2, 3, 8)).astype(np.float32) * 100, requires_grad=True)
    k, v = (Tensor(rng.standard_normal((2, 4, 8)).astype(np.float32)) for _ in range(2))
    out = ad.attention(q, k, v, 2)
    out.sum().backward()
    assert np.isfinite(q.grad).all()
    assert np.allclose(out.data, attention_oracle(q, k, v, 2, None).data, rtol=1e-5, atol=1e-6)


# -- bias + GELU epilogues against the composite ops -------------------------

def channel_bias(b):
    return b.reshape(1, b.shape[0], 1, 1)


def shuffle_composite(x, k, s):
    """conv_transpose2d as tape ops: one matmul, then a pixel shuffle."""
    B, cin, H, W = x.shape
    cout = k.shape[1]
    cols = x.transpose((0, 2, 3, 1)).reshape(B * H * W, cin) @ k.reshape(cin, cout * s * s)
    out = cols.reshape(B, H, W, cout, s, s).transpose((0, 3, 1, 4, 2, 5))
    return out.reshape(B, cout, H * s, W * s)


def maybe_gelu(x, gelu):
    return ad.gelu(x) if gelu else x


# name: (shapes of x, weight, bias; fused form; composite form)
EPILOGUES = {
    "linear": ([(2, 5, 8), (8, 6), (6,)],
               lambda x, w, b, gelu: ad.linear(x, w, b, gelu=gelu),
               lambda x, w, b, gelu: maybe_gelu(ad.linear(x, w, b), gelu)),
    "conv2d_3x3": ([(2, 3, 5, 4), (4, 3, 3, 3), (4,)],
                   lambda x, w, b, gelu: ad.conv2d(x, w, 1, 1, bias=b, gelu=gelu),
                   lambda x, w, b, gelu: maybe_gelu(ad.conv2d(x, w, 1, 1) + channel_bias(b), gelu)),
    "conv2d_1x1": ([(2, 3, 4, 5), (2, 3, 1, 1), (2,)],
                   lambda x, w, b, gelu: ad.conv2d(x, w, 1, 0, bias=b, gelu=gelu),
                   lambda x, w, b, gelu: maybe_gelu(ad.conv2d(x, w, 1, 0) + channel_bias(b), gelu)),
    "conv_transpose2d": ([(2, 4, 3, 2), (4, 3, 2, 2), (3,)],
                         lambda x, w, b, gelu: ad.conv_transpose2d(x, w, 2, bias=b, gelu=gelu),
                         lambda x, w, b, gelu: maybe_gelu(shuffle_composite(x, w, 2)
                                                          + channel_bias(b), gelu)),
}


def forward_backward(fn, arrays, seed):
    leaves = [Tensor(a.copy(), requires_grad=True) for a in arrays]
    out = fn(*leaves)
    weight = np.random.default_rng(seed).standard_normal(out.shape).astype(out.dtype)
    (out * Tensor(weight)).sum().backward()
    return [out.data] + [t.grad for t in leaves]


def assert_bit_equal(got, want):
    for g, w in zip(got, want):
        assert g.shape == w.shape and g.dtype == w.dtype and np.array_equal(g, w)


@pytest.mark.parametrize("name", sorted(EPILOGUES))
@pytest.mark.parametrize("gelu", [False, True])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_epilogue_matches_composite_bit_for_bit(name, gelu, dtype):
    shapes, fused, composite = EPILOGUES[name]
    rng = np.random.default_rng(30)
    arrays = [rng.standard_normal(s).astype(dtype) for s in shapes]
    got = forward_backward(lambda *t: fused(*t, gelu), arrays, 31)
    assert_bit_equal(got, forward_backward(lambda *t: composite(*t, gelu), arrays, 31))
    with ad.no_grad():
        quiet = fused(*(Tensor(a) for a in arrays), gelu)
        assert not quiet.requires_grad
        assert quiet.data.tobytes() == composite(*(Tensor(a) for a in arrays), gelu).data.tobytes()
    assert quiet.data.tobytes() == got[0].tobytes()


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_linear_epilogue_on_zero_rows(dtype):
    rng = np.random.default_rng(32)
    arrays = [np.zeros((0, 8), dtype), rng.standard_normal((8, 6)).astype(dtype),
              rng.standard_normal(6).astype(dtype)]
    got = forward_backward(lambda x, w, b: ad.linear(x, w, b, gelu=True), arrays, 33)
    assert got[0].shape == (0, 6) and not got[2].any() and not got[3].any()
    assert_bit_equal(got, forward_backward(lambda x, w, b: ad.gelu(ad.linear(x, w, b)),
                                           arrays, 33))


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_gelu_on_a_0d_tensor_matches_under_no_grad(dtype):
    for v in [0.3, -1.7, 0.0, 6.0]:
        recorded = ad.gelu(Tensor(dtype(v), requires_grad=True))
        with ad.no_grad():
            quiet = ad.gelu(Tensor(dtype(v)))
        assert quiet.shape == () and quiet.data.tobytes() == recorded.data.tobytes()


@pytest.mark.parametrize("name", sorted(EPILOGUES))
@pytest.mark.parametrize("gelu", [False, True])
def test_epilogue_gradients(name, gelu):
    shapes, fused, _ = EPILOGUES[name]
    rng = np.random.default_rng(34)
    leaves = [t64(rng, *s) for s in shapes]
    weight = Tensor(rng.standard_normal(fused(*leaves, gelu).shape))
    check(lambda x, w, b: (fused(x, w, b, gelu) * weight).sum(), *leaves)
