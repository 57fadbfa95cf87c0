"""Pretrain model wiring: view batching, token targets, eta invariants."""
import numpy as np
import pytest

from patchpos import model as model_module
from patchpos.checkpoint import CheckpointError, load_params
from patchpos.config import PretrainConfig
from patchpos.data import ALL_BANDS, DatasetReader, generate_synthetic_dataset
from patchpos.model import PretrainModel
from patchpos.views import RasterImage


@pytest.fixture(scope="module")
def reader(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "d.mmr"
    generate_synthetic_dataset(path, 4, 128, 128, ALL_BANDS, seed=0)
    return DatasetReader(path)


@pytest.fixture(scope="module")
def images(reader):
    return [reader.sample(i) for i in range(4)]


def cfg(**overrides):
    base = dict(dataset="unused", depth=1, width=16, heads=2, queries_per_ref=2,
                num_prototypes=8, h_ref=32, h_q=16)
    base.update(overrides)
    return PretrainConfig(**base)


def test_sample_batch_views_shapes(images):
    m = PretrainModel(cfg(), ALL_BANDS)
    refs, queries, h = m.sample_batch_views(images, np.random.default_rng(0))
    assert refs.shape == (4, 16, 22, 8, 8)       # (B, N_ref, C, P, P)
    assert queries.shape == (4, 2, 4, 22, 8, 8)  # (B, Q, N_q, C, P, P)
    assert h.shape == (8, 4) and h.dtype == np.int64     # (B·Q, N_q)
    assert np.all((h >= -1) & (h < 16))


def test_forward_step_report(images):
    m = PretrainModel(cfg(), ALL_BANDS)
    loss, report = m.forward_step(images, np.random.default_rng(1))
    assert np.isfinite(report.combined)
    assert report.combined == pytest.approx(
        report.position_loss + report.cluster_loss - report.entropy_reg, abs=1e-5)
    loss.backward()
    grads = [p.grad for p in m.params().values()]
    assert all(g is None or np.all(np.isfinite(g)) for g in grads)
    # the position head must receive gradient
    assert m.pos_head.w.grad is not None


def test_eta_one_skips_reference_encoding(images):
    m = PretrainModel(cfg(eta=1.0, cluster_loss=False), ALL_BANDS)
    rng_a = np.random.default_rng(2)
    rng_b = np.random.default_rng(2)
    _, rep_plain = m.forward_step(images, rng_a)
    # replacing the reference pixels with noise cannot change anything
    _, rep_noise = m.forward_step(images, rng_b, noise_rng=np.random.default_rng(99))
    assert rep_plain.combined == rep_noise.combined
    assert rep_plain.position_loss == rep_noise.position_loss
    assert rep_plain.acc_at_1 == rep_noise.acc_at_1


def test_eta_below_one_uses_reference(images):
    m = PretrainModel(cfg(eta=0.5, cluster_loss=False), ALL_BANDS)
    _, rep_plain = m.forward_step(images, np.random.default_rng(3))
    _, rep_noise = m.forward_step(images, np.random.default_rng(3),
                                  noise_rng=np.random.default_rng(99))
    assert rep_plain.combined != rep_noise.combined


def test_cluster_loss_sees_reference(images):
    # even at eta=1, the cluster objective reads the reference encoding
    m = PretrainModel(cfg(eta=1.0, cluster_loss=True), ALL_BANDS)
    _, rep_plain = m.forward_step(images, np.random.default_rng(4))
    _, rep_noise = m.forward_step(images, np.random.default_rng(4),
                                  noise_rng=np.random.default_rng(99))
    assert rep_plain.position_loss == rep_noise.position_loss  # queries untouched
    assert rep_plain.cluster_loss != rep_noise.cluster_loss


def test_forward_deterministic_given_rng(images):
    m = PretrainModel(cfg(), ALL_BANDS)
    _, a = m.forward_step(images, np.random.default_rng(5))
    _, b = m.forward_step(images, np.random.default_rng(5))
    assert a.combined == b.combined


def test_group_sampling_toggle_changes_losses(images):
    base = cfg(group_setting="s2-similarity", seed=3)
    m_on = PretrainModel(base, ALL_BANDS)
    _, rep_on = m_on.forward_step(images, np.random.default_rng(6))
    m_off = PretrainModel(cfg(group_setting="s2-similarity", seed=3,
                              group_sampling=False), ALL_BANDS)
    _, rep_off = m_off.forward_step(images, np.random.default_rng(6))
    assert rep_on.combined != rep_off.combined


def test_export_load_roundtrip(images):
    m = PretrainModel(cfg(seed=1), ALL_BANDS)
    arrays = {f"param/{k}": v for k, v in m.export_arrays().items()}
    m2 = PretrainModel(cfg(seed=2), ALL_BANDS)
    load_params(m2.params(), arrays, "m.ckpt")
    for name, p in m2.params().items():
        assert np.array_equal(p.data, arrays[f"param/{name}"]), name
    with pytest.raises(CheckpointError, match="m.ckpt.*'embed.group0.b' is missing"):
        load_params(m2.params(), {"param/embed.group0.w": arrays["param/embed.group0.w"]},
                    "m.ckpt")
    # the same number of values in another shape is not reshaped
    name = "encoder.block0.attn.wq.w"
    flipped = {**arrays, f"param/{name}": arrays[f"param/{name}"].reshape(8, 32)}
    before = m2.export_arrays()
    with pytest.raises(CheckpointError, match=f"m.ckpt.*'{name}'.*shape \\(8, 32\\)"):
        load_params(m2.params(), flipped, "m.ckpt")
    assert all(np.array_equal(p.data, before[k]) for k, p in m2.params().items())


def test_cross_attend_keep_counts(images, monkeypatch):
    # eta keeps ceil((1 - eta) * N_ref) sorted distinct reference rows per
    # image; eta = 1 bypasses the cross-attention block
    n_ref = (32 // 8) ** 2
    for eta, keep in [(0.8, 4), (0.5, 8), (0.0, n_ref)]:
        assert keep == int(np.ceil((1 - eta) * n_ref))
        m = PretrainModel(cfg(eta=eta, cluster_loss=False), ALL_BANDS)
        encoded, crossed = [], []
        encode, cross = m._encode, m.cross
        monkeypatch.setattr(m, "_encode", lambda *a: encoded.append(encode(*a)) or encoded[-1])
        monkeypatch.setattr(m, "cross", lambda *a: crossed.append(a) or cross(*a))
        m.forward_step(images, np.random.default_rng(2))
        z = encoded[1].tokens.data                  # the reference tokens
        (_, visible, _, vis_groups, _), = crossed
        assert visible.shape == (len(images), 1, keep, z.shape[-1])
        # each visible row is the reference row it equals, in sorted order
        idx = np.array([[np.flatnonzero((zi == row).all(axis=1))[0] for row in vi[0]]
                        for zi, vi in zip(z, visible.data)])
        assert all(np.array_equal(row, np.unique(row)) for row in idx)
        groups = np.broadcast_to(encoded[1].group_ids, z.shape[:2])
        assert np.array_equal(vis_groups[:, 0], np.take_along_axis(groups, idx, axis=1))
    m = PretrainModel(cfg(eta=1.0), ALL_BANDS)
    monkeypatch.setattr(m, "cross", None)       # calling it would fail
    _, rep = m.forward_step(images, np.random.default_rng(2))
    assert np.isfinite(rep.combined)


@pytest.mark.parametrize("setting", ["best", "s2+s1-mixed", "B2,B3|B11,B12", "all"])
def test_forward_step_same_on_full_and_pruned_images(reader, images, setting):
    # the reader's pruned images and the full ones resolve to the same bands
    m = PretrainModel(cfg(group_setting=setting, eta=0.5, queries_per_ref=3), ALL_BANDS)
    pruned = [reader.sample(i, m.backbone.setting.channels) for i in range(4)]
    assert len(pruned[0].channel_tags) == len(m.backbone.setting.channels)
    _, full_rep = m.forward_step(images, np.random.default_rng(12))
    _, pruned_rep = m.forward_step(pruned, np.random.default_rng(12))
    assert np.isfinite(full_rep.combined)
    assert full_rep == pruned_rep
    # a reordered image is resolved by tag, not by position
    flipped = [RasterImage(im.data[::-1], im.channel_tags[::-1]) for im in images]
    _, flipped_rep = m.forward_step(flipped, np.random.default_rng(12))
    assert flipped_rep == full_rep


def test_forward_step_rejects_image_without_a_group_band(images):
    m = PretrainModel(cfg(group_setting="B2,B3|B11,B12"), ALL_BANDS)
    rgb = [RasterImage(im.data[1:4], im.channel_tags[1:4]) for im in images]
    with pytest.raises(ValueError, match="B11"):
        m.forward_step(rgb, np.random.default_rng(0))


def test_cluster_targets_read_the_query_rows_group(images, monkeypatch):
    # G = 2 without group sampling: both sequences are group-major, G*N long,
    # and a query row of group g must take its label from group g's
    # reference token at the corresponding position
    seen = {}
    real = model_module.cluster_objective

    def spy(zq_flat, zr_flat, head, rows, targets, weights, **kw):
        seen.update(rows=rows, targets=targets, l_ref=zr_flat.shape[0] // len(images))
        return real(zq_flat, zr_flat, head, rows, targets, weights, **kw)

    monkeypatch.setattr(model_module, "cluster_objective", spy)
    c = cfg(group_setting="B2,B3|B4,B8", group_sampling=False, eta=1.0, queries_per_ref=3)
    m = PretrainModel(c, ALL_BANDS)
    _, rep = m.forward_step(images, np.random.default_rng(13))
    assert rep.omega_size > 0
    n_q, n_ref = (c.h_q // c.patch_size) ** 2, (c.h_ref // c.patch_size) ** 2
    l_q, l_ref = 2 * n_q, seen["l_ref"]
    assert l_ref == 2 * n_ref
    rows, targets = seen["rows"], seen["targets"]
    q_group = (rows % l_q) // n_q
    assert set(q_group) == {0, 1}
    assert np.array_equal((targets % l_ref) // n_ref, q_group)
    # the same image, and a group-1 row's target is its group-0 twin's plus N_ref
    assert np.array_equal(targets // l_ref, rows // (c.queries_per_ref * l_q))
    twin = dict(zip(rows, targets))
    for r, t in zip(rows, targets):
        if (r % l_q) // n_q == 1:
            assert t == twin[r - n_q] + n_ref
