"""The benchmark's workloads: inputs, timed rounds and checks.

Every workload is a closed loop with one trainer: each step starts when the
previous one ends. A run repeats fixed-length *rounds* until its time is
up; a round is one call of the public entry point (``train.pretrain`` or
``segmenter.finetune``) with the same config and seed, so every round
computes the same losses and a run's quality figures do not depend on how
many rounds fit in its time. A round's first step is its warm-up: the time
up to its end is set-up, and step timings start after it.
"""
from __future__ import annotations

import hashlib
import json
import math
import os
import resource
import statistics
import traceback

import numpy as np

from patchpos.checkpoint import load_checkpoint
from patchpos.config import FinetuneConfig, PretrainConfig
from patchpos.data import (ALL_BANDS, DatasetReader, generate_synthetic_dataset,
                           generate_synthetic_segmentation)
from patchpos.segmenter import finetune, load_finetuned, save_finetuned
from patchpos.train import pretrain
from patchpos.views import compute_correspondence, sample_query_views, sample_reference_view

from checks import all_finite, logged_losses, oracle_correspondence, same_arrays
from probes import Patches, StepClock, Tracer, install_tracer, now
from summarize import layer_metrics

DESK_BANDS = ["B2", "B3", "B4", "B8"]
IMAGES = 32            # with batch 8: 4 steps per epoch, a checkpoint every 4 steps
HELD_OUT = 8           # held-out images; pretraining passes over them once per epoch
ORACLE_PAIRS = 4


def paper_config(dataset: str, seed: int) -> PretrainConfig:
    """pretrain-paper: 22 bands, best grouping (G=6) with group sampling,
    cluster loss (256 prototypes, 3 Sinkhorn iterations), depth 4."""
    return PretrainConfig(dataset=dataset, seed=seed, epochs=4, batch_size=8,
                          queries_per_ref=10, group_setting="best", group_sampling=True,
                          cluster_loss=True, num_prototypes=256, sinkhorn_iters=3,
                          depth=4, width=64, eta=0.8, log_every=1)


def desk_config(dataset: str, seed: int) -> PretrainConfig:
    """The acceptance-scale pretraining of criteria 6 and 8, whose checkpoint
    finetune-seg starts from."""
    return PretrainConfig(dataset=dataset, seed=seed, epochs=4, batch_size=8,
                          queries_per_ref=4, h_ref=64, h_q=32, ref_scale_min=1.0,
                          ref_scale_max=1.0, flip_prob=0.0, group_setting="all", eta=0.8,
                          cluster_loss=False, depth=2, width=64, heads=4, lr=1e-3,
                          warmup_frac=0.02, log_every=1)


def finetune_config(work: str, seed: int) -> FinetuneConfig:
    # criterion 8(b)'s recipe: lr 3e-4 and a quarter held out; 40 steps stay
    # in the early phase, where the loss of different seeds' data agrees closely
    return FinetuneConfig(dataset=os.path.join(work, "seg.mmr"),
                          labels=os.path.join(work, "seg.lbl"),
                          checkpoint=os.path.join(work, "pre", "checkpoint.ckpt"),
                          steps=40, batch_size=8, lr=3e-4, val_fraction=0.25,
                          eval_every=5, seed=seed)


def config_dict(cfg) -> dict:
    """The config with its file paths reduced to file names, which do not
    depend on where a run keeps its inputs."""
    return {k: os.path.basename(v) if k in ("dataset", "labels", "checkpoint") else v
            for k, v in cfg.to_dict().items()}


def config_hash(cfg) -> str:
    return hashlib.sha256(json.dumps(config_dict(cfg), sort_keys=True).encode()).hexdigest()[:16]


def prepare(workload: str, seed: int, work: str) -> None:
    """Write the workload's inputs into ``work``; all of them follow from ``seed``."""
    os.makedirs(work, exist_ok=True)
    if workload == "finetune-seg":
        seg = os.path.join(work, "seg.mmr")
        generate_synthetic_segmentation(seg, os.path.join(work, "seg.lbl"), IMAGES, 64, 64,
                                        DESK_BANDS, seed=seed)
        with open(os.devnull, "w") as null:
            pretrain(desk_config(seg, seed), os.path.join(work, "pre"), log_stream=null)
        return
    generate_synthetic_dataset(os.path.join(work, "train.mmr"), IMAGES, 128, 128, ALL_BANDS,
                               seed=seed)
    # held-out images come from another generator stream of the same seed
    generate_synthetic_dataset(os.path.join(work, "val.mmr"), HELD_OUT, 128, 128, ALL_BANDS,
                               seed=seed + 1_000_003)


class Run:
    """Rounds of one workload, their timings and the checks on their outputs."""

    def __init__(self, workload: str, seed: int, work: str, tracer: Tracer | None):
        self.workload = workload
        self.seed = seed
        self.work = work
        self.tracer = tracer
        self.untraced: list[StepClock] = []
        self.traced: list[StepClock] = []
        self.eval_s: list[float] = []
        self.first: tuple | None = None      # (losses, held-out outputs) of round 1
        self.checks: dict[str, bool] = {}
        self.attempted = 0
        self.failed = 0
        self.val_miou: float | None = None
        if workload == "finetune-seg":
            self.cfg = finetune_config(work, seed)
            self.geometry = PretrainConfig(**load_checkpoint(self.cfg.checkpoint)[1]["config"])
        else:
            self.cfg = paper_config(os.path.join(work, "train.mmr"), seed)
            self.geometry = self.cfg
            reader = DatasetReader(os.path.join(work, "val.mmr"))
            self.val_images = [reader.sample(i) for i in range(len(reader))]

    # -- rounds ----------------------------------------------------------------

    def check(self, name: str, ok: bool) -> None:
        self.checks[name] = self.checks.get(name, True) and bool(ok)

    def round(self, traced: bool) -> bool:
        """One round; False when a step raised."""
        clock = StepClock(self.tracer if traced else None)
        finetuning = self.workload == "finetune-seg"
        try:
            with Patches() as p:
                if traced:
                    install_tracer(p, self.tracer, HELD_OUT if finetuning else None)
                    self.tracer.rounds += 1
                clock.install(p, HELD_OUT if finetuning else None)
                if not finetuning and not traced:
                    clock.install_held_out(p, self._held_out_loss)
                if finetuning:
                    res = finetune(self.cfg, seed=self.seed, miou_threshold=math.inf,
                                   log_stream=clock.log)
                else:
                    res = pretrain(self.cfg, os.path.join(self.work, "out"),
                                   log_stream=clock.log)
            outputs = self._finetuned(res, clock) if finetuning else self._pretrained(res, clock)
        except Exception:   # a failing step ends the run and is reported, not raised
            traceback.print_exc()
            self.attempted += len(clock.ends) + 1
            self.failed += 1
            return False
        self.attempted += len(clock.ends)
        (self.traced if traced else self.untraced).append(clock)
        self.check("losses finite", all_finite(clock.losses))
        if self.first is None:
            self.first = (clock.losses, outputs)
        self.check("rounds repeat the first round's losses", clock.losses == self.first[0]
                   and outputs in (None, self.first[1]))
        return True

    def _pretrained(self, res: dict, clock: StepClock) -> list[float] | None:
        """Checks on a pretraining round; returns the held-out losses, or
        None on a traced round, which makes no held-out passes."""
        logged = logged_losses(clock.log.getvalue().splitlines(),
                               {"position_loss", "cluster_loss", "entropy_reg", "combined"})
        self.check("logged losses finite", len(logged) == 4 * res["steps"] and all_finite(logged))
        clock.losses = [m["combined"] for m in res["metrics"]]
        held_out = None
        if clock.tracer is None:
            held_out = clock.held_out
            self.check("held-out losses finite", len(held_out) == self.cfg.epochs
                       and all_finite(held_out))
            self.eval_s.extend(clock.eval_s)
        arrays, _ = load_checkpoint(res["checkpoint"])
        self.check("final checkpoint loads back equal", same_arrays(
            {k[len("param/"):]: v for k, v in arrays.items() if k.startswith("param/")},
            res["model"].export_arrays()))
        return held_out

    def _held_out_loss(self, model, k: int) -> float:
        rng = np.random.default_rng([self.seed, 0xE7A1, k])
        _, report = model.forward_step(self.val_images, rng)
        return report.combined

    def _finetuned(self, res, clock: StepClock) -> list[float]:
        """Checks on a finetuning round; returns the held-out mIoUs."""
        lines = clock.log.getvalue().splitlines()
        self.check("logged losses finite", all_finite(logged_losses(lines, {"train_loss"})))
        mious = clock.eval_miou + [res.miou]
        self.check("val_miou in [0, 1]", all(m is not None and 0.0 <= m <= 1.0 for m in mious))
        self.val_miou = res.miou
        self.eval_s.extend(clock.eval_s)
        path = os.path.join(self.work, "finetuned.ckpt")
        save_finetuned(path, res.model, self.cfg)
        loaded = load_finetuned(path, DatasetReader(self.cfg.dataset).channel_tags)
        self.check("final checkpoint loads back equal", same_arrays(
            {k: v.data for k, v in res.model.params().items()},
            {k: v.data for k, v in loaded.params().items()}))
        return mious

    def check_correspondence(self) -> None:
        """``compute_correspondence`` against the brute-force oracle on a few
        view pairs drawn with the workload's geometry."""
        g = self.geometry
        image = DatasetReader(self.cfg.dataset).sample(0)
        rng = np.random.default_rng([self.seed, 0x0AC1])
        ok = True
        for _ in range(ORACLE_PAIRS):
            ref = sample_reference_view(image, rng, (g.ref_scale_min, g.ref_scale_max),
                                        g.h_ref, g.patch_size, g.flip_prob)
            (q,) = sample_query_views(image, ref, 1, rng, (g.q_scale_min, g.q_scale_max),
                                      g.h_q, g.patch_size, g.flip_prob)
            got = compute_correspondence(q, ref).h
            ok &= np.array_equal(got, oracle_correspondence(q, ref, image.height, image.width))
        self.check("correspondence matches the oracle", ok)

    # -- results ---------------------------------------------------------------

    def end_to_end(self, import_s: float) -> dict[str, float]:
        """Step times pool every timed step of the run's untraced rounds.
        Throughput runs from the end of a round's warm-up step to the end of
        its last step, so it holds the checkpoint writes, logging and
        ``finetune``'s own evaluations but not the work after it; the
        held-out passes the benchmark adds to pretraining are left out."""
        steps = [d for c in self.untraced for d in c.durations]
        looped = sum(c.ends[-1] - c.ends[0] for c in self.untraced)
        if self.workload != "finetune-seg":
            looped -= sum(dt for c in self.untraced for t, dt in zip(c.eval_at, c.eval_s)
                          if c.ends[0] <= t < c.ends[-1])
        return {
            "step_s_p50": float(np.percentile(steps, 50)),
            "step_s_p90": float(np.percentile(steps, 90)),
            "samples_per_s": len(steps) * self.cfg.batch_size / looped,
            "setup_s": import_s + statistics.median(c.ends[0] - c.start for c in self.untraced),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "loss_last": float(np.mean(self.first[0][-max(1, len(self.first[0]) // 10):])),
            "eval_s_p50": statistics.median(self.eval_s),
        }

    def per_layer(self) -> dict[str, float]:
        t = self.tracer
        out = layer_metrics(t.spans, t.counts, t.timed_steps, t.rounds)
        traced = statistics.median(d for c in self.traced for d in c.durations)
        untraced = statistics.median(d for c in self.untraced for d in c.durations)
        out["trace_overhead_frac"] = traced / untraced - 1
        out["segmenter.val_miou"] = self.val_miou or 0.0
        return out

    def sample_counts(self) -> dict[str, int]:
        return {"steps": sum(len(c.durations) for c in self.untraced),
                "rounds": len(self.untraced), "eval_passes": len(self.eval_s)}


def run(workload: str, seed: int, seconds: float, trace: bool, work: str) -> Run:
    """Rounds until ``seconds`` have passed. A traced run alternates untraced
    and traced rounds, so the overhead of tracing is measured under the same
    conditions, and it runs at least one of each."""
    r = Run(workload, seed, work, Tracer() if trace else None)
    deadline = now() + seconds
    k = 0
    while r.round(traced=trace and k % 2 == 1):
        k += 1
        if now() >= deadline and (not trace or k >= 2):
            break
    r.check_correspondence()
    return r
