"""Discrete-time survival modeling with likelihood, ranking, and calibration
objectives on a shared time grid.

The package exports the names README's Python examples import; every other
function is imported from its module (``binsurv.data``, ``binsurv.metrics``,
``binsurv.model``, ...)."""

from .config import ExperimentConfig
from .data import (FeatureScaler, apply_scaler, bin_dataset, build_time_grid,
                   load_csv, load_grid, split_dataset)
from .metrics import evaluate_model
from .model import load_checkpoint
from .synth import SynthConfig, generate
from .training import fit

__version__ = "0.1.0"
