"""Discrete-time survival modeling with likelihood, ranking, and calibration
objectives on a shared time grid."""

from .config import ConfigError, ExperimentConfig, build_config, parse_config_file
from .data import (
    BinnedBatch, CsvFormatError, DegenerateGridError, FeatureScaler,
    SurvivalDataset, apply_scaler, assign_bin, bin_dataset, bin_midpoints,
    build_time_grid, load_csv, load_grid, normalize_time, save_grid,
    split_dataset, write_csv,
)
from .losses import (
    LossWeights, calibration_loss, combined_loss, likelihood_loss, rank_loss,
    time_rank_loss,
)
from .metrics import (
    UndefinedMetricError, brier_score_t, c_index, evaluate_model,
    hazard_ratio, ibs, kaplan_meier, log_rank, m_tdauc, select_cutoff, tdauc,
)
from .model import (
    ModelConfig, ModelParams, TrainedModel, apply_head, backward, forward,
    head_backward, init_params, load_checkpoint, predict_risk, predict_survival,
    save_checkpoint,
)
from .synth import SynthConfig, generate
from .training import TrainConfig, cosine_lr, fit, sgd_step, write_history_csv

__version__ = "0.1.0"
