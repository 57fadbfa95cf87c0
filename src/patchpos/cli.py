"""Command-line entry points: gen-data, pretrain, finetune, eval,
inspect-correspondence."""
from __future__ import annotations

import argparse
import dataclasses
import os
import sys

import numpy as np

from . import data
from .config import ConfigFileError, FinetuneConfig, PretrainConfig
from .segmenter import (check_image_size, check_labels, finetune_runs, iou_miou, load_finetuned,
                        predict, read_images, save_finetuned, write_pgm)
from .train import pretrain
from .views import (RasterImage, compute_correspondence, sample_query_views,
                    sample_reference_view)

_CHANNEL_PRESETS = {
    "s2": data.S2_BANDS,
    "s2+s1": data.S2_BANDS + data.S1_BANDS,
    "s2+s1+dem": data.ALL_BANDS,
    "rgbn": ["B2", "B3", "B4", "B8"],
}


def _parse_channels(spec: str) -> list[str]:
    if spec.lower() in _CHANNEL_PRESETS:
        return list(_CHANNEL_PRESETS[spec.lower()])
    return [c.strip() for c in spec.split(",") if c.strip()]


def _override(cfg, **flags):
    """``cfg`` with the command-line flags that were given, checked like the file."""
    return dataclasses.replace(cfg, **{k: v for k, v in flags.items() if v is not None})


def cmd_gen_data(args):
    tags = _parse_channels(args.channels)
    if args.labels:
        data.generate_synthetic_segmentation(args.out, args.labels, args.count,
                                             args.size, args.size, tags, args.seed,
                                             mode=args.mode)
        print(f"wrote {args.count} samples to {args.out} and labels to {args.labels}")
    else:
        data.generate_synthetic_dataset(args.out, args.count, args.size, args.size,
                                        tags, args.seed, mode=args.mode)
        print(f"wrote {args.count} samples ({len(tags)} channels) to {args.out}")


def cmd_pretrain(args):
    cfg = _override(PretrainConfig.from_file(args.config), seed=args.seed)
    result = pretrain(cfg, args.out, resume=args.resume)
    print(f"done: {result['steps']} steps, checkpoint at {result['checkpoint']}")


def cmd_finetune(args):
    cfg = _override(FinetuneConfig.from_file(args.config), seed=args.seed, runs=args.runs)
    os.makedirs(args.out, exist_ok=True)
    results, mean_miou = finetune_runs(cfg, log_stream=sys.stdout)
    for r, res in enumerate(results):
        for c, iou in enumerate(res.per_class_iou):
            if not np.isnan(iou):
                print(f"run={r} iou_class{c}={iou:.4f}")
        print(f"run={r} miou={'none' if res.miou is None else f'{res.miou:.4f}'}")
    print(f"runs={len(results)} mean_miou={'none' if mean_miou is None else f'{mean_miou:.4f}'}")
    ckpt = os.path.join(args.out, "finetuned.ckpt")
    save_finetuned(ckpt, results[-1].model, cfg)
    print(f"saved finetuned model to {ckpt}")


def cmd_eval(args):
    reader = data.DatasetReader(args.dataset)
    try:
        model = load_finetuned(args.checkpoint, reader.channel_tags)
    except ConfigFileError as e:
        raise ConfigFileError(f"{e} (evaluating on dataset '{args.dataset}')") from e
    check_image_size(reader, model.cfg.patch_size)
    labels = data.read_labels(args.labels)
    check_labels(labels, model.classes, args.labels, reader)
    images = read_images(reader, range(len(reader)), model)
    masks = predict(model, images)
    per_class, miou = iou_miou(masks, labels, model.classes)
    for c, iou in enumerate(per_class):
        if not np.isnan(iou):
            print(f"iou_class{c}={iou:.4f}")
    print(f"miou={'none' if miou is None else f'{miou:.4f}'}")
    if args.dump_pgm:
        os.makedirs(args.dump_pgm, exist_ok=True)
        for i, mask in enumerate(masks):
            write_pgm(os.path.join(args.dump_pgm, f"pred{i:04d}.pgm"), mask, model.classes)
        print(f"wrote {len(masks)} masks to {args.dump_pgm}")


def cmd_inspect_correspondence(args):
    rng = np.random.default_rng(args.seed)
    size = args.source_size
    img = RasterImage(rng.standard_normal((1, size, size)).astype(np.float32), ["B2"])
    ref = sample_reference_view(img, rng, out_size=args.h_ref, patch=args.patch)
    (query,) = sample_query_views(img, ref, 1, rng, out_size=args.h_q, patch=args.patch)
    corr = compute_correspondence(query, ref)
    gw = query.grid_w
    print(f"reference crop: top={ref.top} left={ref.left} {ref.height}x{ref.width} "
          f"flip={ref.hflip} grid={ref.grid_h}x{ref.grid_w}")
    print(f"query crop:     top={query.top} left={query.left} {query.height}x{query.width} "
          f"flip={query.hflip} grid={query.grid_h}x{query.grid_w}")
    print("h (query grid, -1 = no overlap):")
    for r in range(query.grid_h):
        print("  " + " ".join(f"{corr.h[r * gw + c]:4d}" for c in range(gw)))
    print(f"omega ({corr.omega.size} of {query.n_patches}): {corr.omega.tolist()}")


def main(argv=None):
    parser = argparse.ArgumentParser(prog="patchpos",
                                     description="Patch-position self-supervised "
                                                 "pretraining for multimodal rasters")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-data", help="generate a synthetic raster dataset")
    p.add_argument("--out", required=True)
    p.add_argument("--labels", default=None, help="also write segmentation labels here")
    p.add_argument("--count", type=int, default=64)
    p.add_argument("--size", type=int, default=128)
    p.add_argument("--channels", default="s2+s1+dem",
                   help="preset (s2, s2+s1, s2+s1+dem, rgbn) or comma-separated band codes")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--mode", choices=["default", "easy"], default="default")
    p.set_defaults(func=cmd_gen_data)

    p = sub.add_parser("pretrain", help="run self-supervised pretraining")
    p.add_argument("--config", required=True)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", required=True)
    p.add_argument("--resume", default=None)
    p.set_defaults(func=cmd_pretrain)

    p = sub.add_parser("finetune", help="finetune for segmentation")
    p.add_argument("--config", required=True)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", required=True)
    p.add_argument("--runs", type=int, default=None)
    p.set_defaults(func=cmd_finetune)

    p = sub.add_parser("eval", help="evaluate a finetuned model")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--dataset", required=True)
    p.add_argument("--labels", required=True)
    p.add_argument("--dump-pgm", default=None, help="directory for predicted-mask PGMs")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("inspect-correspondence",
                       help="print the patch mapping h and valid set for a random view pair")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--source-size", type=int, default=128)
    p.add_argument("--h-ref", type=int, default=64)
    p.add_argument("--h-q", type=int, default=32)
    p.add_argument("--patch", type=int, default=8)
    p.set_defaults(func=cmd_inspect_correspondence)

    args = parser.parse_args(argv)
    args.func(args)


if __name__ == "__main__":
    main()
