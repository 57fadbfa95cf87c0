"""Patch-position self-supervised pretraining for multimodal rasters.

A numpy-backed research library: a small reverse-mode autodiff engine, a
grouped-channel transformer encoder, exact query/reference patch
correspondence, the position + cluster pretraining objectives, and a light
segmentation decoder for transfer evaluation.
"""
from .autodiff import Tensor, finite_difference_check
from .checkpoint import load_checkpoint, save_checkpoint
from .config import FinetuneConfig, PretrainConfig
from .data import DatasetReader, generate_synthetic_dataset, write_dataset
from .encoder import Encoder
from .groups import GROUP_PRESETS, GroupedTokens, build_group_setting, sample_groups
from .model import PretrainModel
from .objectives import position_loss, sinkhorn_knopp
from .segmenter import SegmentationModel, finetune, iou_miou
from .train import pretrain
from .views import (Correspondence, RasterImage, ViewSpec, compute_correspondence,
                    materialize_view, overlap_matrix, sample_query_views,
                    sample_reference_view)

__version__ = "0.1.0"

__all__ = [
    "Tensor", "finite_difference_check", "load_checkpoint", "save_checkpoint",
    "FinetuneConfig", "PretrainConfig", "DatasetReader",
    "generate_synthetic_dataset", "write_dataset", "Encoder",
    "GROUP_PRESETS", "GroupedTokens", "build_group_setting", "sample_groups",
    "PretrainModel", "position_loss", "sinkhorn_knopp", "SegmentationModel",
    "finetune", "iou_miou", "pretrain", "Correspondence", "RasterImage", "ViewSpec",
    "compute_correspondence", "materialize_view", "overlap_matrix",
    "sample_query_views", "sample_reference_view",
]
