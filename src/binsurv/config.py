"""Flat key=value experiment configuration with CLI overrides."""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, fields

from .losses import LossWeights
from .model import ModelConfig
from .training import TrainConfig


class ConfigError(ValueError):
    """A configuration file or override failed validation."""


@contextmanager
def config_errors():
    """Re-raise a ValueError from validating a setting as a ConfigError."""
    try:
        yield
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


@dataclass
class ExperimentConfig:
    # data
    data: str = ""
    train_csv: str = ""
    val_csv: str = ""
    test_csv: str = ""
    time_col: str = "time"
    event_col: str = "event"
    split: tuple = (0.6, 0.2, 0.2)
    seed: int = 0
    out: str = "run"
    # discretization and model
    k_bins: int = 10
    hidden_dim: int = 32
    n_blocks: int = 2
    dropout: float = 0.2
    # loss
    alpha: float = 1.0
    beta: float = 0.05
    gamma: float = 1.0
    sigma: float = 1.0
    rho: float = 1.0
    calib_bins: int = 10
    pairwise_kind: str = "time_rank"
    # optimization
    epochs: int = 150
    batch_size: int = 256
    lr_init: float = 0.01

    def model_config(self, input_dim: int) -> ModelConfig:
        with config_errors():
            return ModelConfig(
                input_dim=input_dim, hidden_dim=self.hidden_dim,
                n_blocks=self.n_blocks, dropout_rate=self.dropout,
                k_bins=self.k_bins,
            )

    def loss_weights(self) -> LossWeights:
        with config_errors():
            return LossWeights(
                alpha=self.alpha, beta=self.beta, gamma=self.gamma,
                sigma=self.sigma, rho=self.rho, calib_bins=self.calib_bins,
                pairwise_kind=self.pairwise_kind,
            )

    def train_config(self) -> TrainConfig:
        with config_errors():
            return TrainConfig(
                epochs=self.epochs, batch_size=self.batch_size,
                lr_init=self.lr_init, seed=self.seed,
            )

    def resolved_lines(self) -> list[str]:
        """Deterministic key=value dump of every setting, field order."""
        lines = []
        for f in fields(self):
            value = getattr(self, f.name)
            if f.name == "split":
                value = ",".join(repr(float(r)) for r in value)
            lines.append(f"{f.name}={value}")
        return lines


def parse_config_file(path) -> dict[str, str]:
    """Read '#'-commented key=value lines."""
    values: dict[str, str] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for line_no, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"{path}: line {line_no}: expected key=value")
            key, value = line.split("=", 1)
            values[key.strip()] = value.strip()
    return values


def _parse_split(text: str) -> tuple:
    parts = text.split(",")
    if len(parts) != 3:
        raise ConfigError(f"split must be three comma-separated ratios, got {text!r}")
    try:
        return tuple(float(p) for p in parts)
    except ValueError:
        raise ConfigError(f"split must be numeric, got {text!r}") from None


def build_config(values: dict[str, str]) -> ExperimentConfig:
    """Typed construction with unknown-key and bad-value diagnostics."""
    cfg = ExperimentConfig()
    known = {f.name: f for f in fields(ExperimentConfig)}
    for key, text in values.items():
        if key not in known:
            raise ConfigError(f"unknown config key '{key}'")
        current = getattr(cfg, key)
        try:
            if key == "split":
                value = _parse_split(text)
            elif isinstance(current, int):
                value = int(text)
            elif isinstance(current, float):
                value = float(text)
            else:
                value = text
        except ValueError:
            raise ConfigError(f"bad value for '{key}': {text!r}") from None
        setattr(cfg, key, value)
    if cfg.seed < 0:  # numpy's generators reject it with a message naming no key
        raise ConfigError(f"seed must be non-negative, got {cfg.seed}")
    return cfg
