"""Finite-difference gradient checks and shape handling for the tensor engine."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from patchpos import autodiff as ad
from patchpos.autodiff import Tensor
from patchpos.encoder import attention_mask_bias

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
    from scipy.special import erf
    x = np.linspace(-10.0, 10.0, 200_001).astype(dtype)
    got, gauss = ad._erf(x)
    assert got.dtype == gauss.dtype == dtype
    assert np.abs(got - erf(x.astype(np.float64))).max() <= bound
    assert np.abs(gauss - np.exp(-np.square(x.astype(np.float64)))).max() <= bound
    assert np.array_equal(ad._erf(-x)[0], -got)     # odd


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


def test_gather_rows():
    rng = np.random.default_rng(6)
    a = t64(rng, 5, 3)
    idx = np.array([0, 2, 2, 4])
    check(lambda a: (ad.gather_rows(a, idx) ** 2).sum(), a)
    with pytest.raises(IndexError):
        ad.gather_rows(a, np.array([5]))


def test_gather_seq():
    rng = np.random.default_rng(7)
    a = t64(rng, 2, 6, 3)
    idx = np.array([[0, 5, 2], [1, 1, 3]])
    check(lambda a: (ad.gather_seq(a, idx) * 1.5).sum(), a)
    out = ad.gather_seq(a, idx)
    assert np.array_equal(out.data[1, 0], a.data[1, 1])


@pytest.mark.parametrize("idx", [[4, 0, 2], [0, 2, 2, 4], [[3, 1], [0, 4]], [[1, 1], [1, 0]]])
def test_gather_rows_backward_matches_add_at(idx):
    # unique rows take the indexed-assignment path, repeated ones np.add.at
    rng = np.random.default_rng(9)
    idx = np.array(idx)
    x = Tensor(rng.standard_normal((5, 3)).astype(np.float32), requires_grad=True)
    g = rng.standard_normal(idx.shape + (3,)).astype(np.float32)
    (ad.gather_rows(x, idx) * Tensor(g)).sum().backward()
    want = np.zeros_like(x.data)
    np.add.at(want, idx, g)
    assert np.array_equal(x.grad, want)


@pytest.mark.parametrize("idx", [[[0, 5, 2], [1, 4, 3]], [[0, 5, 2], [1, 1, 3]], [[-1, 0, 1], [2, 3, 4]]])
def test_gather_seq_backward_matches_add_at(idx):
    rng = np.random.default_rng(10)
    idx = np.array(idx)
    x = Tensor(rng.standard_normal((2, 6, 3)).astype(np.float32), requires_grad=True)
    g = rng.standard_normal(idx.shape + (3,)).astype(np.float32)
    (ad.gather_seq(x, idx) * Tensor(g)).sum().backward()
    want = np.zeros_like(x.data)
    np.add.at(want, (np.arange(2)[:, None], idx), g)
    assert np.array_equal(x.grad, want)


def test_take_lastdim():
    rng = np.random.default_rng(8)
    a = t64(rng, 4, 6)
    idx = np.array([0, 5, 3, 3])
    check(lambda a: ad.take_lastdim(a, idx).sum(), a)


def test_concat():
    rng = np.random.default_rng(9)
    a, b = t64(rng, 2, 3), t64(rng, 2, 2)
    check(lambda a, b: (ad.concat([a, b], axis=1) ** 2).sum(), a, b)


def test_softmax_losses():
    rng = np.random.default_rng(10)
    a = t64(rng, 3, 5)
    check(lambda a: (ad.softmax_lastdim(a) * np.arange(5.0)).sum(), a)
    check(lambda a: ad.logsumexp_lastdim(a).sum(), a)
    check(lambda a: (ad.log_softmax_lastdim(a) ** 2).sum(), a)
    tgt = np.array([1, 0, 4])
    check(lambda a: ad.cross_entropy_from_logits(a, tgt).sum(), a)


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


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
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


def test_dropout():
    rng = np.random.default_rng(17)
    x = Tensor(np.ones((1000,)), requires_grad=True)
    out = ad.dropout(x, 0.5, np.random.default_rng(0))
    kept = out.data != 0
    assert 0.4 < kept.mean() < 0.6
    assert np.allclose(out.data[kept], 2.0)
    assert ad.dropout(x, 0.0, rng) is x


def test_grad_accumulates_over_reuse():
    a = Tensor(np.array([2.0]), requires_grad=True)
    ((a * a) + a * 3.0).sum().backward()
    assert np.allclose(a.grad, 2 * 2.0 + 3.0)


def test_backward_requires_scalar():
    a = Tensor(np.zeros((2, 2)), requires_grad=True)
    with pytest.raises(ValueError):
        (a + 1.0).backward()


def test_detach_blocks_gradient():
    a = Tensor(np.array([3.0]), requires_grad=True)
    (a.detach() * a).sum().backward()
    assert np.allclose(a.grad, 3.0)


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


def gelu_oracle(x):
    xd = x.data
    e = ad._erf(xd * ad._INV_SQRT2)[0]

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


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
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
