"""AdamW update math and the warmup/cosine schedule."""
import math

import numpy as np
import pytest

from patchpos.autodiff import Tensor
from patchpos.optim import AdamW, GradientError, cosine_lr


def test_first_step_matches_hand_derivation():
    # With zero state, one step moves by lr * (g/(|g|+eps) + wd*p).
    p = Tensor(np.array([1.0, -2.0], dtype=np.float64), requires_grad=True)
    p.grad = np.array([0.5, -0.25])
    opt = AdamW({"p": p}, lr=0.1, weight_decay=0.01)
    opt.step()
    expected = np.array([1.0, -2.0]) - 0.1 * (
        np.array([0.5, -0.25]) / (np.abs([0.5, -0.25]) + 1e-8)
        + 0.01 * np.array([1.0, -2.0]))
    assert np.allclose(p.data, expected, atol=1e-10)


def test_two_steps_match_reference_formula():
    rng = np.random.default_rng(0)
    p0 = rng.standard_normal(4)
    g1, g2 = rng.standard_normal(4), rng.standard_normal(4)
    p = Tensor(p0.copy(), requires_grad=True)
    opt = AdamW({"p": p}, lr=0.05, weight_decay=0.1)
    p.grad = g1.copy()
    opt.step()
    p.grad = g2.copy()
    opt.step()

    # independent scalar re-derivation
    ref = p0.copy()
    m = np.zeros(4)
    v = np.zeros(4)
    for t, g in [(1, g1), (2, g2)]:
        m = 0.9 * m + 0.1 * g
        v = 0.999 * v + 0.001 * g * g
        mhat = m / (1 - 0.9 ** t)
        vhat = v / (1 - 0.999 ** t)
        ref = ref - 0.05 * (mhat / (np.sqrt(vhat) + 1e-8) + 0.1 * ref)
    assert np.allclose(p.data, ref, atol=1e-9)


def test_weight_decay_is_decoupled():
    # Zero gradient: the only movement is the decay term, untouched by Adam.
    p = Tensor(np.array([4.0]), requires_grad=True)
    p.grad = np.zeros(1)
    opt = AdamW({"p": p}, lr=0.5, weight_decay=0.2)
    opt.step()
    assert np.allclose(p.data, 4.0 - 0.5 * 0.2 * 4.0)


def test_missing_grad_treated_as_zero():
    p = Tensor(np.array([1.0]), requires_grad=True)
    opt = AdamW({"p": p}, lr=0.1, weight_decay=0.0)
    opt.step()
    assert np.allclose(p.data, 1.0)


def test_nonfinite_gradient_raises():
    p = Tensor(np.array([1.0]), requires_grad=True)
    p.grad = np.array([np.nan])
    opt = AdamW({"p": p}, lr=0.1)
    with pytest.raises(GradientError, match="'p'"):
        opt.step()


def test_state_dict_roundtrip():
    rng = np.random.default_rng(1)
    p = Tensor(rng.standard_normal(3), requires_grad=True)
    opt = AdamW({"p": p}, lr=0.1)
    p.grad = rng.standard_normal(3)
    opt.step()
    state = opt.state_dict()
    opt2 = AdamW({"p": p}, lr=0.1)
    opt2.load_state_dict(state)
    assert opt2.step_count == 1
    assert np.array_equal(opt2.m["p"], opt.m["p"])
    assert np.array_equal(opt2.v["p"], opt.v["p"])


def test_cosine_schedule_endpoints():
    assert cosine_lr(0, 100, 1.0, warmup_steps=10) == 0.0
    assert math.isclose(cosine_lr(5, 100, 1.0, warmup_steps=10), 0.5)
    assert math.isclose(cosine_lr(10, 100, 1.0, warmup_steps=10), 1.0)
    mid = 10 + (100 - 10) // 2
    assert math.isclose(cosine_lr(mid, 100, 1.0, warmup_steps=10), 0.5)
    assert math.isclose(cosine_lr(100, 100, 1.0, warmup_steps=10), 0.0, abs_tol=1e-12)


def test_cosine_schedule_no_warmup():
    assert math.isclose(cosine_lr(0, 10, 2.0), 2.0)
    assert math.isclose(cosine_lr(5, 10, 2.0), 1.0)


def test_cosine_schedule_rejects_out_of_range():
    with pytest.raises(ValueError):
        cosine_lr(-1, 10, 1.0)
    with pytest.raises(ValueError):
        cosine_lr(11, 10, 1.0)
