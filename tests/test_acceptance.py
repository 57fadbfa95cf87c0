"""Acceptance suite.

Each test prints one PASS/FAIL line for its criterion. Criteria follow the
project acceptance list; tolerances are pinned in the assertions.
"""
import os
import time

import numpy as np
import pytest
from scipy.stats import chisquare

from patchpos import autodiff as ad
from patchpos.autodiff import Tensor, finite_difference_check
from patchpos.config import FinetuneConfig, PretrainConfig
from patchpos.data import (ALL_BANDS, DatasetReader, generate_synthetic_dataset,
                           generate_synthetic_segmentation)
from patchpos.encoder import attention_mask_bias
from patchpos.groups import GroupedTokens, sample_groups
from patchpos.model import PretrainModel
from patchpos.objectives import sinkhorn_knopp
from patchpos.segmenter import finetune
from patchpos.train import pretrain
from patchpos.views import RasterImage, compute_correspondence, sample_query_views, sample_reference_view

from test_views import oracle_h, oracle_overlap, random_pair


def report(criterion, ok, detail=""):
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {criterion}: {detail}"
    print(line)
    assert ok, line


# -- 1: correspondence oracle equivalence ------------------------------------

def test_criterion_1_correspondence_oracle():
    rng = np.random.default_rng(0)
    t0 = time.time()
    mismatches = 0
    n_pairs = 1000
    from patchpos.views import overlap_matrix
    for _ in range(n_pairs):
        q, ref, src = random_pair(rng)
        if not np.array_equal(overlap_matrix(q, ref), oracle_overlap(q, ref, src, src)):
            mismatches += 1
        elif not np.array_equal(compute_correspondence(q, ref).h, oracle_h(q, ref, src, src)):
            mismatches += 1
    elapsed = time.time() - t0
    report(1, mismatches == 0 and elapsed < 60,
           f"{n_pairs} pairs, {mismatches} mismatches, {elapsed:.1f}s (< 60s)")


# -- 2: gradient suite -------------------------------------------------------

def test_criterion_2_gradient_suite():
    from patchpos.nn import Linear
    from patchpos.objectives import ClusterHead, cluster_tail, position_loss
    from reference import (cross_entropy_from_logits, log_softmax_lastdim,
                           mean_entropy_regularizer, soft_cross_entropy)

    t0 = time.time()
    rng = np.random.default_rng(1)

    def t(*shape):
        return Tensor(rng.standard_normal(shape), requires_grad=True)

    checks = {}

    def add(name, fn, *tensors):
        checks[name] = finite_difference_check(fn, tensors)

    a, b = t(3, 4), t(4)
    add("add/mul/sub", lambda a, b: ((a + b) * (a - b * 0.5)).sum(), a, b)
    c = t(2, 3)
    d = Tensor(np.abs(rng.standard_normal((2, 3))) + 0.5, requires_grad=True)
    add("div/pow", lambda c, d: (c / d + c ** 2).sum(), c, d)
    add("exp/log/sqrt", lambda d: (ad.exp(d * 0.1) + ad.log(d) + ad.sqrt(d)).sum(), d)
    add("gelu", lambda c: ad.gelu(c).sum(), c)
    m1, m2 = t(2, 3, 4), t(4, 5)
    add("matmul", lambda m1, m2: ((m1 @ m2) ** 2).sum(), m1, m2)
    e = t(4, 6)
    add("getitem/reshape/transpose",
        lambda e: (e[1:3, ::2] * e.reshape(6, 4).transpose((1, 0))[:2, ::2]).sum(), e)
    add("sum/mean", lambda e: (e.sum(axis=0) * e.mean(axis=1).sum()).sum(), e)
    add("getitem rows", lambda e: (e[np.array([0, 3, 3])] ** 2).sum(), e)
    f = t(2, 5, 3)
    add("getitem seq", lambda f: f[np.arange(2)[:, None], np.array([[0, 4], [2, 2]])].sum(), f)
    add("getitem lastdim", lambda e: e[np.arange(4), np.array([1, 0, 5, 2])].sum(), e)
    g1, g2 = t(2, 3), t(2, 2)
    add("concat", lambda g1, g2: (ad.concat([g1, g2], axis=1) ** 2).sum(), g1, g2)
    h = t(3, 5)
    add("softmax", lambda h: (ad.softmax_lastdim(h) * np.arange(5.0)).sum(), h)
    add("log_softmax", lambda h: (log_softmax_lastdim(h) ** 2).sum(), h)
    add("cross_entropy", lambda h: cross_entropy_from_logits(h, np.array([1, 0, 4])).sum(), h)
    x, gn, bn = t(2, 3, 6), t(6), t(6)
    add("layernorm", lambda x, gn, bn: (ad.layernorm(x, gn, bn) * 0.3).sum(), x, gn, bn)
    cx, ck = t(1, 2, 5, 5), t(3, 2, 3, 3)
    add("conv2d", lambda cx, ck: (ad.conv2d(cx, ck, stride=2, padding=1) ** 2).sum(), cx, ck)
    tx, tk = t(1, 2, 3, 3), t(2, 3, 2, 2)
    add("conv_transpose2d",
        lambda tx, tk: (ad.conv_transpose2d(tx, tk, stride=2) ** 2).sum(), tx, tk)

    # attention block (softmax @ v through multi-head projections)
    from patchpos.encoder import Block
    blk = Block(np.random.default_rng(2), width=8, heads=2, mlp_ratio=4, dtype=np.float64)
    bx = t(3, 8)
    bias = attention_mask_bias(np.array([0, 0, 1]), np.array([0, 0, 1]))
    blk_params = [bx] + list(blk.params("b").values())
    add("attention_block", lambda *p: (blk(p[0], bias) ** 2).sum(), *blk_params)

    # position loss head
    head = Linear(np.random.default_rng(3), 3, 6, dtype=np.float64, std=0.01)
    u = t(2, 2, 3)
    h = np.array([[1, -1], [5, 0]])
    add("position_loss", lambda *p: position_loss(p[0], head, h)[0], u, head.w, head.b)

    # cluster loss head (fixed soft labels: the label branch is stop-gradient)
    chead = ClusterHead(np.random.default_rng(4), width=4, num_prototypes=3,
                        dtype=np.float64)
    zq = t(4, 4)
    labels = np.random.default_rng(5).dirichlet(np.ones(3), size=2)
    w = np.array([0.5, 0.5])

    def cluster_fn(*p):
        logits = chead.logits(p[0][np.array([0, 2])])
        return (soft_cross_entropy(logits, labels, w)
                - 0.5 * mean_entropy_regularizer(ad.softmax_lastdim(logits)))

    add("cluster_loss", cluster_fn, zq, chead.fc1.w, chead.fc1.b, chead.fc2.w,
        chead.fc2.b, chead.prototypes)

    lx, lw, lb = t(2, 3, 4), t(4, 5), t(5)
    add("linear", lambda lx, lw, lb: (ad.linear(lx, lw, lb) ** 2).sum(), lx, lw, lb)

    # two heads, keys/values shared over the queries' leading dim as in the
    # cross block, same-group bias
    aq, ak, av = t(2, 3, 4), t(1, 5, 4), t(1, 5, 6)
    abias = attention_mask_bias(np.array([[0, 1, 2], [2, 2, 0]]), np.array([[0, 0, 1, 2, 2]]))
    add("attention", lambda aq, ak, av: (ad.attention(aq, ak, av, 2, abias) ** 2).sum(),
        aq, ak, av)

    # the one-node cross-entropy over a middle class axis, weighted
    cl, cw = t(2, 3, 4), rng.random((2, 4))
    add("cross_entropy_node", lambda cl: ad.cross_entropy(
        cl, np.array([[0, 2, 1, 1], [2, 0, 0, 1]]), axis=1, weights=cw).sum(), cl)

    # the one-node cluster tail through both of its outputs, against soft
    # targets whose rows do not sum to 1
    tl, tt, tw = t(3, 4), rng.random((3, 4)), rng.random(3)
    add("cluster_tail", lambda tl: (cluster_tail(tl, tt, tw) * np.array([0.7, -0.5])).sum(), tl)

    elapsed = time.time() - t0
    worst = max(checks.values())
    worst_name = max(checks, key=checks.get)
    report(2, worst < 1e-4 and elapsed < 300,
           f"{len(checks)} op checks, worst rel err {worst:.2e} ({worst_name}), "
           f"{elapsed:.1f}s (< 300s)")


# -- 3: masking invariants ---------------------------------------------------

def test_criterion_3_masking_invariants(tmp_path):
    # (a) same-group attention weights exactly zero
    rng = np.random.default_rng(6)
    qg = np.array([0, 0, 1, 1, 2])
    kg = np.array([0, 1, 1, 2, 2, 0])
    bias = attention_mask_bias(qg, kg)
    logits = Tensor(rng.standard_normal((5, 6)).astype(np.float32) * 5) + Tensor(bias)
    weights = ad.softmax_lastdim(logits).data
    same = qg[:, None] == kg[None, :]
    zero_ok = bool(np.all(weights[same] == 0.0))

    # (b) eta = 1.0: replacing the reference image with noise leaves every
    # loss bit-identical (the cross-attention branch is bypassed; the cluster
    # objective is off because it reads the reference encoding by design)
    ds = tmp_path / "d.mmr"
    generate_synthetic_dataset(ds, 4, 128, 128, ALL_BANDS, seed=0)
    reader = DatasetReader(ds)
    images = [reader.sample(i) for i in range(4)]
    cfg = PretrainConfig(dataset=str(ds), eta=1.0, cluster_loss=False, depth=2,
                         width=32, heads=2, queries_per_ref=2)
    model = PretrainModel(cfg, ALL_BANDS)
    _, plain = model.forward_step(images, np.random.default_rng(7))
    _, noisy = model.forward_step(images, np.random.default_rng(7),
                                  noise_rng=np.random.default_rng(1234))
    bit_ok = (plain.combined == noisy.combined
              and plain.position_loss == noisy.position_loss
              and plain.acc_at_1 == noisy.acc_at_1)
    report(3, zero_ok and bit_ok,
           f"masked weights exactly zero: {zero_ok}; eta=1 noise-reference "
           f"bit-identical losses: {bit_ok}")


# -- 4: sinkhorn properties --------------------------------------------------

def test_criterion_4_sinkhorn():
    rng = np.random.default_rng(8)
    scores = rng.standard_normal((8, 4))
    row_ok = True
    for it in [0, 1, 2, 5, 17]:
        p = sinkhorn_knopp(scores, iterations=it)
        row_ok &= bool(np.allclose(p.sum(axis=1), 1.0, atol=1e-6))
    p100 = sinkhorn_knopp(scores, iterations=100)
    col_err = float(np.abs(p100.sum(axis=0) - 8 / 4).max())
    uniform = sinkhorn_knopp(np.full((6, 3), 1.7), iterations=4)
    fixed_ok = bool(np.allclose(uniform, 1 / 3, atol=1e-12))
    report(4, row_ok and col_err < 1e-3 and fixed_ok,
           f"row sums ok: {row_ok}; col-sum err at 100 iters {col_err:.1e} "
           f"(< 1e-3); uniform fixed point: {fixed_ok}")


# -- 5: position-loss calibration --------------------------------------------

def test_criterion_5_calibration(tmp_path):
    # N_ref = 196 (112/8 grid), random init, one forward pass over 64 samples
    ds = tmp_path / "d.mmr"
    generate_synthetic_dataset(ds, 64, 160, 160, ["B2", "B3", "B4", "B8"], seed=0)
    reader = DatasetReader(ds)
    images = [reader.sample(i) for i in range(64)]
    cfg = PretrainConfig(dataset=str(ds), h_ref=112, h_q=32, patch_size=8,
                         queries_per_ref=1, eta=1.0, cluster_loss=False,
                         depth=2, width=64, heads=4)
    assert cfg.n_ref == 196
    model = PretrainModel(cfg, ["B2", "B3", "B4", "B8"])
    _, rep = model.forward_step(images, np.random.default_rng(9))
    target = float(np.log(196.0))
    loss_ok = abs(rep.position_loss - target) < 0.1
    chance = 1.0 / 196.0
    acc_ok = chance / 3 <= rep.acc_at_1 <= chance * 3
    report(5, loss_ok and acc_ok,
           f"position loss {rep.position_loss:.4f} vs ln(196)={target:.4f} "
           f"(tol 0.1); acc@1 {rep.acc_at_1:.5f} within 3x of {chance:.5f}")


# -- 6: learnability ---------------------------------------------------------

def test_criterion_6_learnability(tmp_path):
    null = open(os.devnull, "w")
    # (a) easy-mode data, desk geometry, G = 1, eta = 0.8: acc@1 > 0.9
    # within 2000 steps. The fixed-size reference crop and disabled flips are
    # augmentation knobs, not part of the pinned setting.
    easy = tmp_path / "easy.mmr"
    generate_synthetic_dataset(easy, 32, 128, 128, ["B2", "B3", "B4", "B8"],
                               seed=0, mode="easy")
    cfg = PretrainConfig(dataset=str(easy), seed=0, epochs=500, batch_size=8,
                         queries_per_ref=4, h_ref=64, h_q=32,
                         ref_scale_min=1.0, ref_scale_max=1.0, flip_prob=0.0,
                         group_setting="all", eta=0.8, cluster_loss=False,
                         depth=2, width=64, heads=4, lr=1e-3, warmup_frac=0.02,
                         log_every=100)
    res = pretrain(cfg, tmp_path / "a", max_steps=1500, log_stream=null)
    accs = [m["acc_at_1"] for m in res["metrics"]]
    best = max(accs)
    best_step = int(np.argmax(accs)) + 1
    learn_ok = best > 0.9 and best_step <= 2000

    # (b) G = 3 same-group masking lowers acc@1 vs no masking at matched
    # steps (direction only). Needs content-matching pressure, so this runs
    # on default-mode data where position is only recoverable by comparing
    # textures against the reference.
    hard = tmp_path / "hard.mmr"
    bands = ["B2", "B3", "B4", "B8", "B5", "B6", "B7", "B8A", "B11", "B12"]
    generate_synthetic_dataset(hard, 32, 128, 128, bands, seed=0, mode="default")
    tails = {}
    for masking in [False, True]:
        mcfg = PretrainConfig(dataset=str(hard), seed=0, epochs=500, batch_size=8,
                              queries_per_ref=4, h_ref=64, h_q=32,
                              ref_scale_min=1.0, ref_scale_max=1.0, flip_prob=0.0,
                              group_setting="s2-similarity",
                              same_group_masking=masking, eta=0.8,
                              cluster_loss=False, depth=2, width=64, heads=4,
                              lr=1e-3, warmup_frac=0.02, log_every=100)
        mres = pretrain(mcfg, tmp_path / f"m{int(masking)}", max_steps=500,
                        log_stream=null)
        tails[masking] = float(np.mean([m["acc_at_1"]
                                        for m in mres["metrics"][-100:]]))
    direction_ok = tails[True] < tails[False]
    report(6, learn_ok and direction_ok,
           f"easy-mode acc@1 {best:.3f} at step {best_step} (> 0.9 within 2000); "
           f"G=3 masked tail acc {tails[True]:.3f} < unmasked {tails[False]:.3f}: "
           f"{direction_ok}")


# -- 7: group-sampling accounting --------------------------------------------

def test_criterion_7_group_sampling():
    rng = np.random.default_rng(10)
    length_ok = True
    shrink_ok = True
    for g in [2, 3, 5, 6]:
        n = 16
        tokens = GroupedTokens(Tensor(np.zeros((g * n, 4), dtype=np.float32)),
                               np.repeat(np.arange(g), n), np.tile(np.arange(n), g))
        out = sample_groups(tokens, rng)
        length_ok &= out.tokens.shape[-2] == n
        # self-attention scores: (G*N)^2 before sampling vs N^2 after
        shrink_ok &= (g * n) ** 2 == (g ** 2) * out.tokens.shape[-2] ** 2

    g, n = 4, 5
    tokens = GroupedTokens(Tensor(np.zeros((g * n, 2), dtype=np.float32)),
                           np.repeat(np.arange(g), n), np.tile(np.arange(n), g))
    draws = np.concatenate([sample_groups(tokens, rng).group_ids
                            for _ in range(2000)])
    counts = np.bincount(draws, minlength=g)
    _, p_value = chisquare(counts)
    report(7, length_ok and shrink_ok and p_value > 0.01 and draws.size == 10000,
           f"length==N for G in 2,3,5,6: {length_ok}; score shrink G^2: {shrink_ok}; "
           f"chi-square p={p_value:.3f} over {draws.size} draws (> 0.01)")


# -- 8: transfer sanity ------------------------------------------------------

def test_criterion_8_transfer(tmp_path):
    null = open(os.devnull, "w")
    bands = ["B2", "B3", "B4", "B8"]

    # shared pretraining on the content-driven (default-mode) 32-sample set
    img, lbl = tmp_path / "seg.mmr", tmp_path / "seg.lbl"
    generate_synthetic_segmentation(img, lbl, 32, 64, 64, bands, seed=0,
                                    mode="default")
    pcfg = PretrainConfig(dataset=str(img), seed=0, epochs=250, batch_size=8,
                          queries_per_ref=4, h_ref=64, h_q=32,
                          ref_scale_min=1.0, ref_scale_max=1.0, flip_prob=0.0,
                          group_setting="all", eta=0.8, cluster_loss=False,
                          depth=2, width=64, heads=4, lr=1e-3, warmup_frac=0.02,
                          log_every=100)
    pre = pretrain(pcfg, tmp_path / "pre", max_steps=600, log_stream=null)

    # (a) pretrained init fits the 32 labeled samples: train mIoU > 0.95
    # within 300 steps. Easy-mode labels are the position-thresholded task.
    eimg, elbl = tmp_path / "easyseg.mmr", tmp_path / "easyseg.lbl"
    generate_synthetic_segmentation(eimg, elbl, 32, 64, 64, bands, seed=0,
                                    mode="easy")
    epcfg = PretrainConfig(**{**pcfg.to_dict(), "dataset": str(eimg),
                              "epochs": 200})
    epre = pretrain(epcfg, tmp_path / "epre", max_steps=600, log_stream=null)
    facfg = FinetuneConfig(dataset=str(eimg), labels=str(elbl),
                           checkpoint=epre["checkpoint"], steps=300,
                           batch_size=8, lr=1e-3, val_fraction=0.0,
                           eval_every=100, seed=0)
    fit = finetune(facfg, pretrain_cfg=epcfg, seed=0)
    fit_ok = fit.train_miou is not None and fit.train_miou > 0.95

    # (b) paired-seed comparison, 3 seeds: pretrained init reaches a fixed
    # val-mIoU threshold in fewer steps than random init (mean over pairs)
    threshold = 0.75
    steps = {"pre": [], "rand": []}
    for seed in [0, 1, 2]:
        for name, ck in [("pre", pre["checkpoint"]), ("rand", "")]:
            fcfg = FinetuneConfig(dataset=str(img), labels=str(lbl),
                                  checkpoint=ck, steps=300, batch_size=8,
                                  lr=3e-4, val_fraction=0.25, eval_every=10,
                                  seed=seed)
            res = finetune(fcfg, pretrain_cfg=pcfg, seed=seed,
                           miou_threshold=threshold)
            steps[name].append(res.steps_to_threshold
                               if res.steps_to_threshold is not None else 301)
    mean_pre = float(np.mean(steps["pre"]))
    mean_rand = float(np.mean(steps["rand"]))
    transfer_ok = mean_pre < mean_rand
    report(8, fit_ok and transfer_ok,
           f"train mIoU {fit.train_miou:.3f} (> 0.95 within 300 steps); "
           f"steps to val mIoU {threshold}: pretrained {steps['pre']} "
           f"(mean {mean_pre:.0f}) vs random {steps['rand']} (mean {mean_rand:.0f})")


# -- 9: determinism and resume -----------------------------------------------

def test_criterion_9_determinism(tmp_path):
    ds = tmp_path / "d.mmr"
    generate_synthetic_dataset(ds, 16, 64, 64, ["B2", "B3", "B4"], seed=0)
    cfg = PretrainConfig(dataset=str(ds), epochs=3, batch_size=4, queries_per_ref=2,
                         h_ref=32, h_q=16, depth=1, width=16, heads=2,
                         num_prototypes=8)
    null = open(os.devnull, "w")
    a = pretrain(cfg, tmp_path / "a", log_stream=null)
    b = pretrain(cfg, tmp_path / "b", log_stream=null)
    logs_ok = ((tmp_path / "a" / "metrics.log").read_bytes()
               == (tmp_path / "b" / "metrics.log").read_bytes())

    part = pretrain(cfg, tmp_path / "part", max_steps=7, log_stream=null)
    resumed = pretrain(cfg, tmp_path / "part", resume=part["checkpoint"],
                       log_stream=null)
    full_losses = [m["combined"] for m in a["metrics"]]
    resumed_losses = [m["combined"] for m in resumed["metrics"]]
    diffs = np.abs(np.array(resumed_losses[:5]) - np.array(full_losses[7:12]))
    resume_ok = bool(np.all(diffs < 1e-6))
    report(9, logs_ok and resume_ok,
           f"identical metric logs: {logs_ok}; resume loss diff over 5 steps "
           f"max {diffs.max():.2e} (< 1e-6)")


# -- 10: ablation-knob coverage ----------------------------------------------

def test_criterion_10_knob_coverage(tmp_path):
    ds = tmp_path / "d.mmr"
    generate_synthetic_dataset(ds, 4, 64, 64, ALL_BANDS, seed=0)
    base = dict(epochs=1, batch_size=4, queries_per_ref=2, h_ref=32, h_q=16,
                depth=1, width=16, heads=2, num_prototypes=8)
    rows = []
    for preset in ["all", "s2-similarity", "s2+s1-separate", "rgbn+s1-separate",
                   "s2+s1-mixed", "s2+s1+dem-separate", "best"]:
        rows.append({"group_setting": preset})
    for eta in [0.6, 0.8, 1.0]:
        rows.append({"eta": eta})
    for masking in [False, True]:
        rows.append({"same_group_masking": masking, "group_setting": "s2-similarity"})
    for cluster in [False, True]:
        rows.append({"cluster_loss": cluster})
    for sampling in [False, True]:
        rows.append({"group_sampling": sampling, "group_setting": "best"})

    t0 = time.time()
    null = open(os.devnull, "w")
    for i, row in enumerate(rows):
        # every knob must round-trip through a config file
        lines = [f"dataset = {ds}"]
        lines += [f"{k} = {v}" for k, v in {**base, **row}.items()]
        cfg_path = tmp_path / f"row{i}.cfg"
        cfg_path.write_text("\n".join(lines) + "\n")
        cfg = PretrainConfig.from_file(cfg_path)
        result = pretrain(cfg, tmp_path / f"run{i}", max_steps=1, log_stream=null)
        assert result["steps"] == 1, row
        assert np.isfinite(result["metrics"][0]["combined"]), row
    elapsed = time.time() - t0
    report(10, elapsed < 600,
           f"{len(rows)} knob rows ran end-to-end from config files, "
           f"{elapsed:.1f}s (< 600s)")
