"""Pretrain briefly, finetune the light decoder for segmentation, report IoU.

Run: python3 demos/04_finetune_eval.py
"""
import os
import sys
import tempfile

import numpy as np

from patchpos.config import FinetuneConfig, PretrainConfig
from patchpos.data import DatasetReader, generate_synthetic_segmentation, read_labels
from patchpos.segmenter import evaluate, finetune
from patchpos.train import pretrain

with tempfile.TemporaryDirectory(prefix="patchpos-demo-") as workdir:     # removed on exit
    images = os.path.join(workdir, "seg.mmr")
    labels_path = os.path.join(workdir, "seg.lbl")
    generate_synthetic_segmentation(images, labels_path, 16, 64, 64,
                                    ["B2", "B3", "B4", "B8"], seed=0)

    pcfg = PretrainConfig(dataset=images, epochs=4, batch_size=4, queries_per_ref=4,
                          depth=2, width=64, heads=4, num_prototypes=32, log_every=4)
    pre = pretrain(pcfg, os.path.join(workdir, "pre"), log_stream=open(os.devnull, "w"))
    print(f"pretrained for {pre['steps']} steps")

    fcfg = FinetuneConfig(dataset=images, labels=labels_path,
                          checkpoint=pre["checkpoint"], steps=100, batch_size=8,
                          lr=5e-4, val_fraction=0.25, eval_every=20)
    result = finetune(fcfg, seed=0, log_stream=sys.stdout)
    print(f"\nheld-out per-class IoU: {np.round(result.per_class_iou, 3)}")
    print(f"held-out mIoU: {result.miou:.3f}  (train mIoU {result.train_miou:.3f})")

    reader = DatasetReader(images)
    labels = read_labels(labels_path)
    x = np.stack([reader.sample(i).data for i in range(4)])
    per_class, miou = evaluate(result.model, x, labels[:4])
    print(f"re-evaluated on 4 samples: mIoU {miou:.3f}")
