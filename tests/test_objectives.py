"""Position loss, Sinkhorn-Knopp pseudo-labels, cluster loss, entropy
regularizer — closed-form cases plus gradient checks of the loss heads."""
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from patchpos import autodiff as ad
from patchpos.autodiff import Tensor, finite_difference_check, no_grad
from patchpos.nn import Linear
from patchpos.objectives import (ClusterHead, LossReport, cluster_objective, cluster_tail,
                                 flatten_correspondences, position_loss, pseudo_labels,
                                 sinkhorn_knopp)

from reference import cluster_tail as composite_tail
from reference import (cross_entropy_from_logits, flatten_correspondences_per_view,
                       mean_entropy_regularizer, soft_cross_entropy)


def position_head(rng, width, n_ref, dtype=np.float32):
    """The model's position head: a linear map to the reference grid."""
    return Linear(rng, width, n_ref, dtype=dtype, std=0.01)


# -- position loss -----------------------------------------------------------

def test_uniform_logits_give_ln_nref():
    # Zero head weights -> uniform softmax -> loss = ln(N_ref) exactly.
    rng = np.random.default_rng(0)
    head = position_head(rng, width=8, n_ref=196)
    head.w.data[:] = 0
    head.b.data[:] = 0
    u = Tensor(rng.standard_normal((3, 4, 8)).astype(np.float32))
    h = rng.integers(0, 196, size=(3, 4))
    loss, acc, omega = position_loss(u, head, h)
    assert np.isclose(float(loss.data), np.log(196.0), atol=1e-5)
    assert omega == 12


def test_position_loss_respects_omega():
    # Patches with h = -1 contribute nothing.
    rng = np.random.default_rng(1)
    head = position_head(rng, width=4, n_ref=10)
    u = Tensor(rng.standard_normal((1, 3, 4)).astype(np.float32))
    full = position_loss(u, head, np.array([[2, 5, 7]]))
    partial = position_loss(u, head, np.array([[2, -1, 7]]))
    assert partial[2] == 2
    # recompute by hand: mean of the two remaining cross-entropies
    logits = head(u).data[0]
    lse = np.log(np.exp(logits - logits.max(1, keepdims=True)).sum(1)) + logits.max(1)
    ces = lse - logits[np.arange(3), [2, 5, 7]]
    assert np.isclose(float(partial[0].data), (ces[0] + ces[2]) / 2, atol=1e-5)
    assert not np.isclose(float(full[0].data), float(partial[0].data))


def test_position_loss_empty_omega():
    rng = np.random.default_rng(2)
    head = position_head(rng, width=4, n_ref=10)
    u = Tensor(np.zeros((1, 2, 4), dtype=np.float32))
    loss, acc, omega = position_loss(u, head, np.array([[-1, -1]]))
    assert float(loss.data) == 0.0 and acc is None and omega == 0


def test_position_loss_view_count_mismatch():
    rng = np.random.default_rng(3)
    head = position_head(rng, width=4, n_ref=10)
    u = Tensor(np.zeros((2, 2, 4), dtype=np.float32))
    for h in (np.array([[0, 1]]), np.array([[0, 1, 2], [0, 1, 2]]), np.array([0, 1])):
        with pytest.raises(ValueError, match=re.escape(f"targets of shape {h.shape}")):
            position_loss(u, head, h)


def test_flatten_correspondences_weights():
    # Two views, 3 and 1 valid patches: per-view mean then average over views.
    rows, targets, weights = flatten_correspondences(np.array([[1, 2, 3, -1], [-1, -1, -1, 5]]))
    assert np.array_equal(rows, [0, 1, 2, 7])
    assert np.array_equal(targets, [1, 2, 3, 5])
    assert np.allclose(weights, [1 / 6, 1 / 6, 1 / 6, 1 / 2])
    assert np.isclose(weights.sum(), 1.0)


@settings(max_examples=200)
@given(data=st.data(), views=st.integers(1, 12), n_q=st.integers(1, 20))
def test_flatten_correspondences_matches_the_per_view_loop(data, views, n_q):
    # rows of -1 (views with no valid patch) and all -1 arrays included
    row = st.one_of(st.just([-1] * n_q),
                    st.lists(st.integers(-1, 63), min_size=n_q, max_size=n_q))
    h = np.array(data.draw(st.lists(row, min_size=views, max_size=views)), dtype=np.int64)
    if data.draw(st.booleans()):
        h[:] = -1
    got = flatten_correspondences(h)
    want = flatten_correspondences_per_view(h)
    assert np.array_equal(got[0], want[0]) and got[0].dtype == want[0].dtype
    assert np.array_equal(got[1], want[1]) and got[1].dtype == want[1].dtype
    assert got[2].dtype == want[2].dtype and got[2].tobytes() == want[2].tobytes()


def test_position_loss_gradients():
    rng = np.random.default_rng(4)
    head = position_head(rng, width=3, n_ref=5, dtype=np.float64)
    u = Tensor(np.random.default_rng(5).standard_normal((2, 2, 3)), requires_grad=True)
    h = np.array([[1, -1], [4, 0]])
    params = [u, head.w, head.b]
    err = finite_difference_check(lambda *p: position_loss(p[0], head, h)[0], params)
    assert err < 1e-4


def test_position_loss_matches_the_composite_bit_for_bit():
    # the one cross_entropy node against the composite it replaced
    rng = np.random.default_rng(7)
    head = position_head(rng, width=16, n_ref=64)
    h = rng.integers(-1, 64, size=(6, 20))
    x = rng.standard_normal((6, 20, 16)).astype(np.float32)
    u = Tensor(x, requires_grad=True)
    loss = position_loss(u, head, h)[0]
    loss.backward()
    got = (loss.data, u.grad, head.w.grad)
    head.w.grad = None
    ref_u = Tensor(x, requires_grad=True)
    rows, targets, weights = flatten_correspondences(h)
    picked = head(ref_u).reshape(120, 64)[rows]
    ref = (cross_entropy_from_logits(picked, targets)
           * Tensor(weights.astype(np.float32))).sum()
    ref.backward()
    for g, w in zip(got, (ref.data, ref_u.grad, head.w.grad)):
        assert g.tobytes() == w.tobytes()


def test_acc_at_1():
    head = position_head(np.random.default_rng(6), width=2, n_ref=3)
    head.w.data[:] = 0
    head.b.data = np.array([0.0, 1.0, 0.0], dtype=np.float32)  # always picks 1
    u = Tensor(np.ones((1, 4, 2), dtype=np.float32))
    _, acc, _ = position_loss(u, head, np.array([[1, 1, 0, 1]]))
    assert np.isclose(acc, 0.75)


# -- sinkhorn ----------------------------------------------------------------

def test_sinkhorn_row_sums():
    rng = np.random.default_rng(7)
    for it in [0, 1, 3, 10]:
        p = sinkhorn_knopp(rng.standard_normal((8, 4)), iterations=it)
        assert np.allclose(p.sum(axis=1), 1.0, atol=1e-6)
        assert np.all(p >= 0)


def test_sinkhorn_column_balance_at_convergence():
    rng = np.random.default_rng(8)
    p = sinkhorn_knopp(rng.standard_normal((8, 4)), iterations=100)
    assert np.allclose(p.sum(axis=0), 8 / 4, atol=1e-3)


def test_sinkhorn_uniform_fixed_point():
    p = sinkhorn_knopp(np.full((6, 3), 0.37), iterations=5)
    assert np.allclose(p, 1.0 / 3.0, atol=1e-12)


def test_sinkhorn_single_prototype():
    p = sinkhorn_knopp(np.random.default_rng(9).standard_normal((4, 1)), iterations=3)
    assert np.allclose(p, 1.0)


def test_sinkhorn_temperature_sharpens():
    s = np.array([[1.0, 0.0]])
    sharp = sinkhorn_knopp(s, iterations=0, tau=0.1)
    soft = sinkhorn_knopp(s, iterations=0, tau=10.0)
    assert sharp[0, 0] > soft[0, 0]
    # tau=1, no iterations: plain softmax
    assert np.allclose(sinkhorn_knopp(s, iterations=0)[0, 0],
                       np.exp(1) / (np.exp(1) + 1), atol=1e-12)


def test_sinkhorn_input_validation():
    with pytest.raises(ValueError):
        sinkhorn_knopp(np.zeros(3))
    with pytest.raises(ValueError):
        sinkhorn_knopp(np.array([[np.inf, 0.0]]))
    with pytest.raises(ValueError, match="counts of shape"):
        sinkhorn_knopp(np.zeros((3, 2)), counts=np.ones(2))


@pytest.mark.parametrize("iterations", [0, 1, 3, 20])
def test_sinkhorn_counts_balance_the_repeated_rows(iterations):
    # the distinct rows weighted by their counts, expanded, are the balancing
    # of the matrix with every row repeated
    rng = np.random.default_rng(23)
    s_u = rng.standard_normal((30, 16)) * 3
    inverse = rng.permutation(np.repeat(np.arange(30), rng.integers(1, 6, size=30)))
    c = np.bincount(inverse, minlength=30)
    got = sinkhorn_knopp(s_u, iterations, tau=0.5, counts=c)[inverse]
    want = sinkhorn_knopp(s_u[inverse], iterations, tau=0.5)
    assert got.dtype == want.dtype == np.float64
    assert np.abs(got - want).max() <= 1e-12


def test_sinkhorn_keeps_float32_and_widens_the_rest():
    s = np.random.default_rng(24).standard_normal((12, 5))
    single = sinkhorn_knopp(s.astype(np.float32), tau=0.05)
    assert single.dtype == np.float32
    assert np.allclose(single, sinkhorn_knopp(s, tau=0.05), rtol=1e-4, atol=1e-6)
    assert sinkhorn_knopp(s.astype(np.float16)).dtype == np.float64
    assert sinkhorn_knopp(np.ones((3, 2), dtype=np.int64)).dtype == np.float64
    c = np.array([1, 2, 3] * 4)
    assert sinkhorn_knopp(s.astype(np.float32), counts=c).dtype == np.float32


# -- cluster head ------------------------------------------------------------

def test_prototypes_unit_norm():
    head = ClusterHead(np.random.default_rng(10), width=8, num_prototypes=16)
    assert np.allclose(np.linalg.norm(head.prototypes.data, axis=1), 1.0, atol=1e-6)
    head.prototypes.data = head.prototypes.data * 3.0
    head.renormalize_prototypes()
    assert np.allclose(np.linalg.norm(head.prototypes.data, axis=1), 1.0, atol=1e-6)


def test_project_under_no_grad_is_bit_identical_and_records_no_tape():
    head = ClusterHead(np.random.default_rng(13), width=8, num_prototypes=16)
    z = Tensor(np.random.default_rng(14).standard_normal((5, 8)).astype(np.float32),
               requires_grad=True)
    with no_grad():
        quiet = head.project(z)
    recorded = head.project(z)
    assert quiet.data.tobytes() == recorded.data.tobytes()
    assert quiet._parents == () and not quiet.requires_grad and recorded._parents


def test_cluster_logits_temperature():
    # Projected vectors are unit-norm, so |logits| <= 1/tau.
    head = ClusterHead(np.random.default_rng(11), width=8, num_prototypes=16, tau=0.05)
    z = Tensor(np.random.default_rng(12).standard_normal((5, 8)).astype(np.float32))
    logits = head.logits(z).data
    assert logits.shape == (5, 16)
    assert np.all(np.abs(logits) <= 1.0 / 0.05 + 1e-4)
    proj = head.project(z).data
    assert np.allclose(np.linalg.norm(proj, axis=1), 1.0, atol=1e-5)


def test_pseudo_labels_stop_gradient():
    # Labels are plain arrays taken from the projection's values: no Tensor in
    # the result, and the cluster loss gradient w.r.t. the reference encoding
    # is structurally zero.
    head = ClusterHead(np.random.default_rng(15), width=6, num_prototypes=4)
    z_ref = np.random.default_rng(16).standard_normal((10, 6)).astype(np.float32)
    projected = []
    real = head.project
    head.project = lambda z: projected.append(real(z)) or projected[-1]
    labels = pseudo_labels(z_ref, head, np.array([0, 3, 3, 9]))
    assert projected[0]._parents == () and not projected[0].requires_grad    # no tape
    assert isinstance(labels, np.ndarray)
    assert labels.shape == (4, 4)
    assert np.allclose(labels.sum(axis=1), 1.0, atol=1e-6)


def test_pseudo_labels_project_each_row_once():
    # projecting and balancing only the distinct rows, then indexing, matches
    # projecting and balancing every (repeated) row up to rounding
    head = ClusterHead(np.random.default_rng(17), width=8, num_prototypes=5)
    z_ref = np.random.default_rng(18).standard_normal((12, 8)).astype(np.float32)
    positions = np.random.default_rng(19).integers(0, 12, size=40)
    calls = []
    real = head.project
    head.project = lambda z: calls.append(z.shape[0]) or real(z)
    labels = pseudo_labels(z_ref, head, positions)
    assert calls == [np.unique(positions).size]
    every = real(Tensor(z_ref[positions])).data @ head.prototypes.data.T
    want = sinkhorn_knopp(every, iterations=3, tau=head.tau)
    assert labels.shape == (40, 5)
    assert np.allclose(labels, want, rtol=1e-5, atol=1e-7)


def test_soft_cross_entropy_hand_case():
    # the composite reference and the node's first output
    logits = Tensor(np.log(np.array([[0.5, 0.25, 0.25]], dtype=np.float32)))
    targets = np.array([[0.5, 0.25, 0.25]])
    loss = soft_cross_entropy(logits, targets, np.array([1.0]))
    want = -(0.5 * np.log(0.5) + 2 * 0.25 * np.log(0.25))
    assert np.isclose(float(loss.data), want, atol=1e-6)
    assert np.isclose(float(cluster_tail(logits, targets, np.array([1.0])).data[0]), want,
                      atol=1e-6)


def test_mean_entropy_regularizer_hand_case():
    # the composite reference on probabilities, the node's second output on
    # logits whose softmax they are (exp(-200) is 0 in float32)
    probs = Tensor(np.array([[1.0, 0.0], [0.5, 0.5]], dtype=np.float32))
    # mean distribution (0.75, 0.25): H = 0.5623...
    want = -(0.75 * np.log(0.75) + 0.25 * np.log(0.25))
    assert np.isclose(float(mean_entropy_regularizer(probs).data), want, atol=1e-4)
    logits = Tensor(np.array([[0.0, -200.0], [0.0, 0.0]], dtype=np.float32))
    reg = cluster_tail(logits, np.zeros((2, 2)), np.ones(2)).data[1]
    assert np.isclose(float(reg), want, atol=1e-4)
    uniform = Tensor(np.full((4, 8), 1 / 8, dtype=np.float32))
    assert np.isclose(float(mean_entropy_regularizer(uniform).data), np.log(8), atol=1e-4)
    reg = cluster_tail(Tensor(np.zeros((4, 8), dtype=np.float32)), np.zeros((4, 8)),
                       np.ones(4)).data[1]
    assert np.isclose(float(reg), np.log(8), atol=1e-4)


def run_tail(fn, x, targets, weights, upstream):
    """Values of ``fn``'s two outputs and the logit gradient of
    upstream[0]·out[0] + upstream[1]·out[1]."""
    logits = Tensor(x.copy(), requires_grad=True)
    closs, reg = fn(logits, targets, weights)
    dt = x.dtype.type
    (closs * dt(upstream[0]) + reg * dt(upstream[1])).backward()
    return np.array([closs.data, reg.data]), logits.grad


def node_tail(logits, targets, weights):
    tail = cluster_tail(logits, targets, weights)
    return tail[0], tail[1]


@settings(max_examples=60)
@given(n=st.integers(1, 12), k=st.integers(1, 10), seed=st.integers(0, 2 ** 32 - 1),
       scale=st.sampled_from([0.1, 1.0, 20.0]), dtype=st.sampled_from([np.float64, np.float32]),
       zero_weights=st.booleans(), target_sum=st.sampled_from([None, 0.0, 0.3, 2.5]))
def test_cluster_tail_matches_the_composite(n, k, seed, scale, dtype, zero_weights,
                                            target_sum):
    rng = np.random.default_rng(seed)
    x = (rng.standard_normal((n, k)) * scale).astype(dtype)
    targets = rng.random((n, k))
    if target_sum is not None:      # rows summing to something other than 1
        targets *= target_sum / np.maximum(targets.sum(axis=1, keepdims=True), 1e-12)
    weights = np.zeros(n) if zero_weights else rng.random(n)
    upstream = rng.standard_normal(2)
    got_val, got_grad = run_tail(node_tail, x, targets, weights, upstream)
    want_val, want_grad = run_tail(composite_tail, x, targets, weights, upstream)
    assert got_val.dtype == got_grad.dtype == want_grad.dtype == dtype
    bound = 1e-12 if dtype == np.float64 else 1e-5
    assert np.all(np.abs(got_val - want_val) <= bound * np.maximum(np.abs(want_val), 1.0))
    # relative to the largest entry, or to the upstream scale per row when
    # the gradient is the small difference of the regularizer's terms
    scale = max(np.abs(want_grad).max(), np.abs(upstream).max() / n)
    assert np.abs(got_grad - want_grad).max() <= bound * scale


def test_cluster_tail_rejects_mismatched_shapes():
    x = Tensor(np.zeros((3, 4)))
    with pytest.raises(ad.ShapeError):
        cluster_tail(x, np.zeros((3, 5)), np.ones(3))
    with pytest.raises(ad.ShapeError):
        cluster_tail(x, np.zeros((3, 4)), np.ones(2))
    with pytest.raises(ad.ShapeError):
        cluster_tail(Tensor(np.zeros((0, 4))), np.zeros((0, 4)), np.ones(0))


def test_cluster_objective_gradients():
    head = ClusterHead(np.random.default_rng(17), width=4, num_prototypes=3,
                       dtype=np.float64)
    z_q = Tensor(np.random.default_rng(18).standard_normal((6, 4)), requires_grad=True)
    z_ref = np.random.default_rng(19).standard_normal((8, 4))
    rows = np.array([0, 2, 5])
    targets = np.array([1, 4, 7])
    weights = np.full(3, 1 / 3)

    # w.r.t. z_q the pseudo-labels are constants, so the full objective checks
    def fn(z):
        loss, reg = cluster_objective(z, z_ref, head, rows, targets, weights)
        return loss - 0.5 * reg

    assert finite_difference_check(fn, [z_q]) < 1e-4

    # head parameters also feed the (stop-gradient) label branch, which finite
    # differences would see but the analytic gradient deliberately ignores;
    # check them against the objective with the labels frozen
    labels = pseudo_labels(z_ref, head, targets)

    def fn_frozen(*_):
        return (cluster_tail(head.logits(z_q[rows]), labels, weights)
                * np.array([1.0, -0.5])).sum()

    params = [head.fc1.w, head.fc1.b, head.fc2.w, head.fc2.b, head.prototypes]
    assert finite_difference_check(fn_frozen, params) < 1e-4


def test_cluster_objective_weighting():
    # Doubling a row's weight doubles its contribution.
    head = ClusterHead(np.random.default_rng(20), width=4, num_prototypes=3)
    z_q = Tensor(np.random.default_rng(21).standard_normal((2, 4)).astype(np.float32))
    z_ref = np.random.default_rng(22).standard_normal((2, 4))
    one, _ = cluster_objective(z_q, z_ref, head, np.array([0]), np.array([0]),
                               np.array([1.0]))
    two, _ = cluster_objective(z_q, z_ref, head, np.array([0]), np.array([0]),
                               np.array([2.0]))
    assert np.isclose(float(two.data), 2 * float(one.data), rtol=1e-5)


def test_loss_report_log_line():
    line = LossReport(1.5, 2.0, 0.5, 3.0, 0.1234, 42).log_line(7, 1e-4)
    assert line == ("step=7 position_loss=1.500000 cluster_loss=2.000000 "
                    "entropy_reg=0.500000 combined=3.000000 acc_at_1=0.1234 "
                    "omega=42 lr=0.00010000")
    none_line = LossReport(1.0, 0.0, 0.0, 1.0, None, 0).log_line(0, 0.0)
    assert "acc_at_1=none" in none_line
