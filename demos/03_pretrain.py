"""Small end-to-end pretraining run on synthetic multimodal data.

Generates a 16-sample MSI+SAR+DEM dataset, pretrains for one epoch with the
"best" channel grouping, and prints the loss trajectory.
Run: python3 demos/03_pretrain.py
"""
import os
import tempfile

from patchpos.config import PretrainConfig
from patchpos.data import ALL_BANDS, generate_synthetic_dataset
from patchpos.train import pretrain

with tempfile.TemporaryDirectory(prefix="patchpos-demo-") as workdir:     # removed on exit
    dataset = os.path.join(workdir, "train.mmr")
    generate_synthetic_dataset(dataset, 16, 128, 128, ALL_BANDS, seed=0)
    print(f"generated 16 samples x {len(ALL_BANDS)} channels at {dataset}")

    cfg = PretrainConfig(
        dataset=dataset,
        epochs=2,
        batch_size=4,
        queries_per_ref=4,
        group_setting="best",       # 6 groups over MSI + SAR + DEM
        group_sampling=True,
        same_group_masking=True,
        eta=0.8,
        cluster_loss=True,
        num_prototypes=32,
        depth=2,
        width=64,
        heads=4,
        log_every=1,
    )
    result = pretrain(cfg, os.path.join(workdir, "run"))
    print(f"\ncheckpoint: {result['checkpoint']}")
    print(f"steps: {result['steps']}")
