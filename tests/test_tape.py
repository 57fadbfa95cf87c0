"""The tape one training step records, pinned op by op.

Tape nodes per step is a tracked size of the program; a change to any op's
count shows up here as a diff of the histogram.
"""
from collections import Counter

import numpy as np
import pytest

from patchpos.config import PretrainConfig
from patchpos.data import (ALL_BANDS, DatasetReader, generate_synthetic_dataset,
                           generate_synthetic_segmentation, read_labels)
from patchpos.model import PretrainModel
from patchpos.segmenter import SegmentationModel, pixel_cross_entropy, read_images
from patchpos.train import step_rng


def tape_histogram(root) -> dict:
    """Op label counts of every node reachable from ``root``, leaves and
    constants included."""
    ops, seen, stack = Counter(), {id(root)}, [root]
    while stack:
        node = stack.pop()
        ops[node._op] += 1
        for p in node._parents:
            if id(p) not in seen:
                seen.add(id(p))
                stack.append(p)
    return dict(ops)


@pytest.fixture(scope="module")
def cfg(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "d.mmr"
    generate_synthetic_dataset(path, 4, 48, 48, ALL_BANDS, seed=0)
    return PretrainConfig(dataset=str(path), batch_size=2, queries_per_ref=2, h_ref=32, h_q=16,
                          depth=2, width=32, heads=2, num_prototypes=16, group_setting="best",
                          group_sampling=True, cluster_loss=True)


def test_step_tape_histograms(cfg, tmp_path):
    reader = DatasetReader(cfg.dataset)
    model = PretrainModel(cfg, reader.channel_tags)
    images = [reader.sample(i, model.backbone.setting.channels) for i in range(cfg.batch_size)]
    loss, _ = model.forward_step(images, step_rng(cfg.seed, 0))
    assert tape_histogram(loss) == {
        "leaf": 96, "linear": 45, "add": 20, "layernorm": 13, "getitem": 7, "mul": 7,
        "sum": 8, "gelu": 6, "neg": 6, "reshape": 6, "attention": 5, "concat": 4,
        "div": 2, "exp": 2, "log": 2, "cross_entropy": 1, "matmul": 1, "sqrt": 1,
        "swapaxes": 1}

    images, labels = tmp_path / "s.mmr", tmp_path / "s.lbl"
    generate_synthetic_segmentation(images, labels, 2, 32, 32, ALL_BANDS, seed=1)
    seg = SegmentationModel(cfg, reader.channel_tags, classes=2)
    x = read_images(DatasetReader(images), range(2), seg)
    loss = pixel_cross_entropy(seg.forward(x), read_labels(labels))
    assert tape_histogram(loss) == {
        "leaf": 66, "reshape": 20, "linear": 18, "add": 10, "transpose": 7, "gelu": 6,
        "layernorm": 5, "matmul": 3, "attention": 2, "concat": 2, "conv2d": 2,
        "getitem": 2, "mul": 2, "sum": 2, "cross_entropy": 1}
