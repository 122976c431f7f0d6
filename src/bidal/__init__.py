"""Bi-domain active learning toolkit for detector-style frame records."""

from .core import (
    BudgetSchedule,
    Domain,
    FrameRecord,
    Score,
    SyntheticConfig,
    validate_frame,
)
from .discriminator import (
    DiscriminatorModel,
    NumericalError,
    TrainConfig,
    domainness,
    loss_and_grads,
    train,
)
from .io import (
    BUDGET_PRESETS,
    ConfigError,
    FrameFormatError,
    load_config,
    load_frames,
    parse_schedule,
    parse_source_mode,
    save_frames,
)
from .pipeline import (
    PipelineConfig,
    run_bidomain,
    serialize_report,
)
from .scoring import enhance, entropy_map, pool, scene_vector
from .simulator import ProxyDetector, benchmark, generate, run_strategy
from .source_sampler import Proportion, Threshold, TopK, score_source, select_source
from .target_sampler import (
    BankConfig,
    ReweightedROI,
    SimilarityBank,
    build_banks,
    reweight,
    sample_round,
    select_targets,
)

__version__ = "0.1.0"

__all__ = [
    "BUDGET_PRESETS",
    "BankConfig",
    "BudgetSchedule",
    "ConfigError",
    "DiscriminatorModel",
    "Domain",
    "FrameFormatError",
    "FrameRecord",
    "NumericalError",
    "PipelineConfig",
    "Proportion",
    "ProxyDetector",
    "ReweightedROI",
    "Score",
    "SimilarityBank",
    "SyntheticConfig",
    "Threshold",
    "TopK",
    "TrainConfig",
    "benchmark",
    "build_banks",
    "domainness",
    "enhance",
    "entropy_map",
    "generate",
    "load_config",
    "load_frames",
    "loss_and_grads",
    "parse_schedule",
    "parse_source_mode",
    "pool",
    "reweight",
    "run_bidomain",
    "run_strategy",
    "sample_round",
    "save_frames",
    "scene_vector",
    "score_source",
    "select_source",
    "select_targets",
    "serialize_report",
    "train",
    "validate_frame",
]
