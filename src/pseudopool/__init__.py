"""Long-tailed semi-supervised learning with controllable pseudo-labels.

A labeled pool grows with reliably filtered, majority-voted pseudo-labels;
a logit-adjusted classifier is fit to the pool's evolving class distribution;
minority classes are reinforced with synthesized representations. Baselines,
metrics, and a config-driven experiment harness come along.
"""

from .augment import ClassStats, minority_classes, plan_synthesis, synthesize, update_class_stats
from .cycle import (
    LabeledPool,
    PseudoRegistry,
    class_distribution,
    reliability_mask_batch,
    update_pool,
)
from .datasets import (
    AugmentationPolicy,
    DatasetSpec,
    SplitBundle,
    generate_splits,
    load_csv,
    long_tailed_counts,
    shape_counts,
    strong_view_batch,
    weak_view_batch,
)
from .metrics import (
    PseudoLabelAudit,
    accuracy,
    kl_divergence,
    macro_f1,
    per_class_accuracy,
    pseudo_audit,
    welch_t_test,
)
from .network import (
    ModelConfig,
    ModelState,
    OptimizerConfig,
    cosine_lr,
    encode,
    head_logits,
    init,
    sgd_step,
)
from .training import RunHistory, TrainConfig, predict_views, run_baseline, train

__version__ = "0.1.0"

__all__ = [
    "AugmentationPolicy",
    "ClassStats",
    "DatasetSpec",
    "LabeledPool",
    "ModelConfig",
    "ModelState",
    "OptimizerConfig",
    "PseudoLabelAudit",
    "PseudoRegistry",
    "RunHistory",
    "SplitBundle",
    "TrainConfig",
    "accuracy",
    "class_distribution",
    "cosine_lr",
    "encode",
    "generate_splits",
    "head_logits",
    "init",
    "kl_divergence",
    "load_csv",
    "long_tailed_counts",
    "macro_f1",
    "minority_classes",
    "per_class_accuracy",
    "plan_synthesis",
    "predict_views",
    "pseudo_audit",
    "reliability_mask_batch",
    "run_baseline",
    "sgd_step",
    "shape_counts",
    "strong_view_batch",
    "synthesize",
    "train",
    "update_class_stats",
    "update_pool",
    "weak_view_batch",
    "welch_t_test",
]
