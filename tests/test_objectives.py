"""Position loss, Sinkhorn-Knopp pseudo-labels, cluster loss, entropy
regularizer — closed-form cases plus gradient checks of the loss heads."""
import numpy as np
import pytest

from patchpos.autodiff import Tensor, finite_difference_check, softmax_lastdim
from patchpos.objectives import (ClusterHead, LossReport, PositionHead,
                                 cluster_objective, flatten_correspondences,
                                 mean_entropy_regularizer, position_loss,
                                 pseudo_labels, sinkhorn_knopp,
                                 soft_cross_entropy)
from patchpos.views import Correspondence


# -- position loss -----------------------------------------------------------

def test_uniform_logits_give_ln_nref():
    # Zero head weights -> uniform softmax -> loss = ln(N_ref) exactly.
    rng = np.random.default_rng(0)
    head = PositionHead(rng, width=8, n_ref=196)
    head.linear.w.data[:] = 0
    head.linear.b.data[:] = 0
    u = Tensor(rng.standard_normal((3, 4, 8)).astype(np.float32))
    corrs = [Correspondence(rng.integers(0, 196, size=4)) for _ in range(3)]
    loss, acc, omega = position_loss(u, head, corrs)
    assert np.isclose(float(loss.data), np.log(196.0), atol=1e-5)
    assert omega == 12


def test_position_loss_respects_omega():
    # Patches with h = -1 contribute nothing.
    rng = np.random.default_rng(1)
    head = PositionHead(rng, width=4, n_ref=10)
    u = Tensor(rng.standard_normal((1, 3, 4)).astype(np.float32))
    full = position_loss(u, head, [Correspondence([2, 5, 7])])
    partial = position_loss(u, head, [Correspondence([2, -1, 7])])
    assert partial[2] == 2
    # recompute by hand: mean of the two remaining cross-entropies
    logits = head(u).data[0]
    lse = np.log(np.exp(logits - logits.max(1, keepdims=True)).sum(1)) + logits.max(1)
    ces = lse - logits[np.arange(3), [2, 5, 7]]
    assert np.isclose(float(partial[0].data), (ces[0] + ces[2]) / 2, atol=1e-5)
    assert not np.isclose(float(full[0].data), float(partial[0].data))


def test_position_loss_empty_omega():
    rng = np.random.default_rng(2)
    head = PositionHead(rng, width=4, n_ref=10)
    u = Tensor(np.zeros((1, 2, 4), dtype=np.float32))
    loss, acc, omega = position_loss(u, head, [Correspondence([-1, -1])])
    assert float(loss.data) == 0.0 and acc is None and omega == 0


def test_position_loss_view_count_mismatch():
    rng = np.random.default_rng(3)
    head = PositionHead(rng, width=4, n_ref=10)
    with pytest.raises(ValueError):
        position_loss(Tensor(np.zeros((2, 2, 4), dtype=np.float32)), head,
                      [Correspondence([0, 1])])


def test_flatten_correspondences_weights():
    # Two views, 3 and 1 valid patches: per-view mean then average over views.
    rows, targets, weights = flatten_correspondences(
        [Correspondence([1, 2, 3, -1]), Correspondence([-1, -1, -1, 5])], n_q=4)
    assert np.array_equal(rows, [0, 1, 2, 7])
    assert np.array_equal(targets, [1, 2, 3, 5])
    assert np.allclose(weights, [1 / 6, 1 / 6, 1 / 6, 1 / 2])
    assert np.isclose(weights.sum(), 1.0)


def test_position_loss_gradients():
    rng = np.random.default_rng(4)
    head = PositionHead(rng, width=3, n_ref=5, dtype=np.float64)
    u = Tensor(np.random.default_rng(5).standard_normal((2, 2, 3)), requires_grad=True)
    corrs = [Correspondence([1, -1]), Correspondence([4, 0])]
    params = [u, head.linear.w, head.linear.b]
    err = finite_difference_check(lambda *p: position_loss(p[0], head, corrs)[0], params)
    assert err < 1e-4


def test_acc_at_1():
    head = PositionHead(np.random.default_rng(6), width=2, n_ref=3)
    head.linear.w.data[:] = 0
    head.linear.b.data = np.array([0.0, 1.0, 0.0], dtype=np.float32)  # always picks 1
    u = Tensor(np.ones((1, 4, 2), dtype=np.float32))
    _, acc, _ = position_loss(u, head, [Correspondence([1, 1, 0, 1])])
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


# -- cluster head ------------------------------------------------------------

def test_prototypes_unit_norm():
    head = ClusterHead(np.random.default_rng(10), width=8, num_prototypes=16)
    assert np.allclose(np.linalg.norm(head.prototypes.data, axis=1), 1.0, atol=1e-6)
    head.prototypes.data = head.prototypes.data * 3.0
    head.renormalize_prototypes()
    assert np.allclose(np.linalg.norm(head.prototypes.data, axis=1), 1.0, atol=1e-6)


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
    labels = pseudo_labels(z_ref, head, np.array([0, 3, 3, 9]))
    assert isinstance(labels, np.ndarray)
    assert labels.shape == (4, 4)
    assert np.allclose(labels.sum(axis=1), 1.0, atol=1e-6)


def test_pseudo_labels_project_each_row_once():
    # projecting only the distinct rows, then indexing, matches projecting
    # every (repeated) row up to GEMM rounding; Sinkhorn sees every row
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
    logits = Tensor(np.log(np.array([[0.5, 0.25, 0.25]], dtype=np.float32)))
    targets = np.array([[0.5, 0.25, 0.25]])
    loss = soft_cross_entropy(logits, targets, np.array([1.0]))
    want = -(0.5 * np.log(0.5) + 2 * 0.25 * np.log(0.25))
    assert np.isclose(float(loss.data), want, atol=1e-6)


def test_mean_entropy_regularizer_hand_case():
    probs = Tensor(np.array([[1.0, 0.0], [0.5, 0.5]], dtype=np.float32))
    # mean distribution (0.75, 0.25): H = 0.5623...
    want = -(0.75 * np.log(0.75) + 0.25 * np.log(0.25))
    assert np.isclose(float(mean_entropy_regularizer(probs).data), want, atol=1e-4)
    uniform = Tensor(np.full((4, 8), 1 / 8, dtype=np.float32))
    assert np.isclose(float(mean_entropy_regularizer(uniform).data), np.log(8), atol=1e-4)


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
        from patchpos.autodiff import gather_rows
        logits = head.logits(gather_rows(z_q, rows))
        loss = soft_cross_entropy(logits, labels, weights)
        return loss - 0.5 * mean_entropy_regularizer(softmax_lastdim(logits))

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
