"""Pretraining loop: data feeding, schedule, logging, checkpointing."""
from __future__ import annotations

import logging
import math
import os
import re

import numpy as np

from .checkpoint import check_config_hash, load_checkpoint, save_checkpoint
from .config import PretrainConfig
from .data import DatasetReader
from .model import PretrainModel
from .optim import AdamW, GradientError, cosine_lr

log = logging.getLogger(__name__)


class TrainingAborted(RuntimeError):
    pass


def step_rng(seed: int, global_step: int) -> np.random.Generator:
    """Per-step RNG stream; resuming at step t reproduces the exact draws."""
    return np.random.default_rng([seed, 0x57E9, global_step])


def clip_gradients(params, max_norm: float):
    if max_norm <= 0:
        return
    total = 0.0
    for p in params.values():
        if p.grad is not None:
            total += float((p.grad.astype(np.float64) ** 2).sum())
    norm = math.sqrt(total)
    if norm > max_norm:
        scale = max_norm / (norm + 1e-12)
        for p in params.values():
            if p.grad is not None:
                p.grad = p.grad * scale


def _optimizer_arrays(opt: AdamW) -> dict[str, np.ndarray]:
    out = {}
    for k, v in opt.m.items():
        out[f"adam_m/{k}"] = v.copy()
    for k, v in opt.v.items():
        out[f"adam_v/{k}"] = v.copy()
    return out


def save_run_checkpoint(path, model: PretrainModel, opt: AdamW, global_step: int,
                        epoch: int) -> None:
    arrays = {f"param/{k}": v for k, v in model.export_arrays().items()}
    arrays.update(_optimizer_arrays(opt))
    meta = {
        "step": global_step,
        "epoch": epoch,
        "adam_step_count": opt.step_count,
        "config": model.cfg.to_dict(),
        "config_hash": model.cfg.hash(),
        "channel_tags": model.channel_tags,
    }
    save_checkpoint(path, arrays, meta)


def restore_run_checkpoint(path, model: PretrainModel, opt: AdamW) -> tuple[int, int]:
    arrays, meta = load_checkpoint(path)
    check_config_hash(meta, model.cfg.hash(), path)
    model.load_arrays({k[len("param/"):]: v for k, v in arrays.items()
                       if k.startswith("param/")})
    opt.load_state_dict({
        "step_count": meta["adam_step_count"],
        "m": {k[len("adam_m/"):]: v for k, v in arrays.items() if k.startswith("adam_m/")},
        "v": {k[len("adam_v/"):]: v for k, v in arrays.items() if k.startswith("adam_v/")},
    })
    return int(meta["step"]), int(meta["epoch"])


_LOGGED_STEP = re.compile(r"step=(\d+) ")


def _logged_through(path, step: int) -> list[str]:
    """The complete lines of the metrics log at ``path`` for steps up to
    ``step``: a run resumed from that step logs the later ones again."""
    if not os.path.exists(path):
        return []
    with open(path, "r", encoding="utf-8") as f:
        return [line for line in f if line.endswith("\n")
                and (m := _LOGGED_STEP.match(line)) and int(m[1]) <= step]


def pretrain(cfg: PretrainConfig, out_dir: str, resume: str | None = None,
             max_steps: int | None = None, log_stream=None) -> dict:
    """Run pretraining; returns a summary with checkpoint path and metrics."""
    os.makedirs(out_dir, exist_ok=True)
    reader = DatasetReader(cfg.dataset)
    if len(reader) == 0:
        raise ValueError(f"dataset '{cfg.dataset}' holds no samples")
    model = PretrainModel(cfg, reader.channel_tags)
    steps_per_epoch = max(1, len(reader) // cfg.batch_size)
    total_steps = cfg.epochs * steps_per_epoch
    # max_steps caps execution only; the lr schedule always spans total_steps
    # so an interrupted-then-resumed run matches an uninterrupted one.
    stop_step = total_steps if max_steps is None else min(total_steps, max_steps)
    warmup = int(round(cfg.warmup_frac * total_steps))
    opt = AdamW(model.params(), lr=cfg.lr, weight_decay=cfg.weight_decay,
                betas=(cfg.beta1, cfg.beta2))

    start_step = 0
    if resume:
        start_step, _ = restore_run_checkpoint(resume, model, opt)
    start_epoch = start_step // steps_per_epoch

    ckpt_path = os.path.join(out_dir, "checkpoint.ckpt")
    metrics_path = os.path.join(out_dir, "metrics.log")
    metrics: list[dict] = []
    global_step = start_step
    kept = _logged_through(metrics_path, start_step) if resume else []
    with open(metrics_path, "w", encoding="utf-8") as metrics_file:
        metrics_file.writelines(kept)
        for epoch in range(start_epoch, cfg.epochs):
            order = reader.epoch_order(cfg.seed, epoch)
            first_i = global_step - epoch * steps_per_epoch  # mid-epoch resume point
            for i in range(max(first_i, 0), steps_per_epoch):
                if global_step >= stop_step:
                    break
                batch_ids = order[i * cfg.batch_size:(i + 1) * cfg.batch_size]
                images = [reader.sample(int(j), model.setting.channels) for j in batch_ids]
                rng = step_rng(cfg.seed, global_step)
                noise_rng = (np.random.default_rng([cfg.seed, 0xBAD, global_step])
                             if cfg.noise_reference else None)
                loss, report = model.forward_step(images, rng, noise_rng)
                if not math.isfinite(report.combined):
                    raise TrainingAborted(
                        f"non-finite loss at step {global_step}; last good checkpoint: "
                        f"{ckpt_path if os.path.exists(ckpt_path) else 'none'}")
                opt.zero_grad()
                loss.backward()
                clip_gradients(opt.params, cfg.grad_clip)
                lr = cosine_lr(global_step, total_steps, cfg.lr, warmup)
                try:
                    opt.step(lr=lr)
                except GradientError as e:
                    raise TrainingAborted(
                        f"{e}; last good checkpoint: "
                        f"{ckpt_path if os.path.exists(ckpt_path) else 'none'}") from e
                if model.cluster is not None:
                    model.cluster.renormalize_prototypes()
                global_step += 1
                if global_step % cfg.log_every == 0:
                    line = report.log_line(global_step, lr)
                    print(line, file=log_stream) if log_stream is not None else print(line)
                    metrics_file.write(line + "\n")
                    metrics_file.flush()
                metrics.append({"step": global_step, **report.__dict__})
            if (epoch + 1) % cfg.checkpoint_every_epochs == 0 or epoch == cfg.epochs - 1:
                save_run_checkpoint(ckpt_path, model, opt, global_step,
                                    global_step // steps_per_epoch)
            if global_step >= stop_step:
                break
        save_run_checkpoint(ckpt_path, model, opt, global_step,
                            global_step // steps_per_epoch)
    return {"checkpoint": ckpt_path, "metrics": metrics, "metrics_log": metrics_path,
            "model": model, "steps": global_step}
