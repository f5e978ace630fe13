"""Desk-scale laboratory for progressive self-distillation in cross-modal
contrastive learning: loss stack with analytic gradients, MLP dual encoders,
noise-controllable synthetic paired data, training loop, and evaluation
protocols."""

from .data import PairedDataset, SyntheticSpec, generate, load_pairs, save_pairs, select_captions
from .evaluation import linear_probe, retrieval_eval, score_eval, similarity_stats, zero_shot_top1
from .model import EncoderSpec, ParamSet, encode, encode_backward, init_params
from .numkit import RngState, SoftTargets, normalize_rows_l2
from .objective import (
    EmbeddingBatch,
    LossGrad,
    PartitionPlan,
    TemperatureParam,
    clamp_scale,
    info_nce,
    psd_loss,
    soft_targets_bootstrap,
    soft_targets_swapped,
)
from .trainer import AlphaSchedule, OptState, TrainConfig, adamw_step, alpha_at, make_partition, train

__version__ = "0.1.0"

__all__ = [
    "AlphaSchedule", "EmbeddingBatch", "EncoderSpec", "LossGrad", "OptState",
    "PairedDataset", "ParamSet", "PartitionPlan", "RngState", "SoftTargets",
    "SyntheticSpec", "TemperatureParam", "TrainConfig", "adamw_step", "alpha_at",
    "clamp_scale", "encode", "encode_backward", "generate",
    "info_nce", "init_params", "linear_probe", "load_pairs", "make_partition",
    "normalize_rows_l2", "psd_loss", "retrieval_eval", "save_pairs", "score_eval",
    "select_captions", "similarity_stats", "soft_targets_bootstrap",
    "soft_targets_swapped", "train", "zero_shot_top1",
]
