"""The tape one training step records, pinned op by op, and the bytes it
keeps alive.

Tape nodes per step is a tracked size of the program; a change to any op's
count shows up here as a diff of the histogram.
"""
import gc
import tracemalloc
from collections import Counter

import numpy as np
import pytest

from patchpos import autodiff as ad
from patchpos.config import PretrainConfig
from patchpos.data import (ALL_BANDS, DatasetReader, generate_synthetic_dataset,
                           generate_synthetic_segmentation, read_labels)
from patchpos.model import PretrainModel
from patchpos.nn import Mlp
from patchpos.segmenter import LightDecoder, SegmentationModel, pixel_cross_entropy, read_images
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
        "leaf": 88, "linear": 45, "add": 15, "layernorm": 13, "getitem": 9, "mul": 2,
        "sum": 2, "neg": 1, "reshape": 6, "attention": 5, "concat": 4, "div": 1,
        "cluster_tail": 1, "cross_entropy": 1, "matmul": 1, "sqrt": 1, "swapaxes": 1}

    images, labels = tmp_path / "s.mmr", tmp_path / "s.lbl"
    generate_synthetic_segmentation(images, labels, 2, 32, 32, ALL_BANDS, seed=1)
    seg = SegmentationModel(cfg, reader.channel_tags, classes=2)
    x = read_images(DatasetReader(images), range(2), seg)
    loss = pixel_cross_entropy(seg.forward(x), read_labels(labels))
    assert tape_histogram(loss) == {
        "leaf": 66, "reshape": 3, "linear": 18, "add": 5, "transpose": 1, "layernorm": 5,
        "conv_transpose2d": 3, "attention": 2, "concat": 2, "conv2d": 2, "getitem": 2,
        "mul": 2, "sum": 2, "cross_entropy": 1}


def tape_live_bytes(fn) -> int:
    """Bytes that ``fn()`` allocated and that are still live when it returns,
    by tracemalloc: its result and the tape the result keeps for backward."""
    gc.collect()
    tracemalloc.start()
    try:
        out = fn()      # noqa: F841 -- alive while the bytes are read
        return tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()


def composite_decoder(pre_bytes: list):
    """``LightDecoder.__call__`` with each layer's bias add and GELU as their
    own tape nodes; appends each layer's pre-activation bytes to ``pre_bytes``."""
    def call(dec, grid):
        x = grid
        for kind, w, b in dec.layers:
            if kind == "up":
                x = ad.conv_transpose2d(x, w, stride=2)
            else:
                x = ad.conv2d(x, w, stride=1, padding=1)
            x = x + b.reshape(1, b.shape[0], 1, 1)
            pre_bytes.append(x.data.nbytes)
            x = ad.gelu(x)
        w, b = dec.final
        return ad.conv2d(x, w, stride=1, padding=0) + b.reshape(1, b.shape[0], 1, 1)
    return call


def test_segmentation_forward_keeps_no_pre_activations(monkeypatch):
    cfg = PretrainConfig(depth=1, width=32, heads=2, group_setting="all")
    model = SegmentationModel(cfg, ["B2", "B3"], classes=3)
    x = np.random.default_rng(40).standard_normal((4, 2, 64, 64)).astype(np.float32)
    fused_out = model.forward(x).data
    fused = tape_live_bytes(lambda: model.forward(x))
    pre_bytes = []
    monkeypatch.setattr(LightDecoder, "__call__", composite_decoder(pre_bytes))
    assert model.forward(x).data.tobytes() == fused_out.tobytes()
    composite = tape_live_bytes(lambda: model.forward(x))
    assert len(pre_bytes) == 8      # four layers, two forwards
    assert composite - fused >= sum(pre_bytes[4:])


def test_mlp_keeps_one_hidden_array_less():
    rng = np.random.default_rng(41)
    mlp = Mlp(rng, width=16, hidden=64)
    x = ad.Tensor(rng.standard_normal((50, 16)).astype(np.float32))
    assert mlp(x).data.tobytes() == mlp.fc2(ad.gelu(mlp.fc1(x))).data.tobytes()
    fused = tape_live_bytes(lambda: mlp(x))
    composite = tape_live_bytes(lambda: mlp.fc2(ad.gelu(mlp.fc1(x))))
    assert composite - fused >= 50 * 64 * 4
