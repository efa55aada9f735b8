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
    """Re-raise a ValueError from validating a setting or an input file as a
    ConfigError."""
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
    seed: int = TrainConfig.seed
    out: str = "run"
    # discretization and model; every default below is the sub-config's own
    k_bins: int = ModelConfig.k_bins
    hidden_dim: int = ModelConfig.hidden_dim
    n_blocks: int = ModelConfig.n_blocks
    dropout: float = ModelConfig.dropout_rate
    # loss
    alpha: float = LossWeights.alpha
    beta: float = LossWeights.beta
    gamma: float = LossWeights.gamma
    sigma: float = LossWeights.sigma
    rho: float = LossWeights.rho
    pairwise_kind: str = LossWeights.pairwise_kind
    # optimization
    epochs: int = TrainConfig.epochs
    batch_size: int = TrainConfig.batch_size
    lr_init: float = TrainConfig.lr_init

    def model_config(self, input_dim: int) -> ModelConfig:
        return self._sub_config(ModelConfig, input_dim=input_dim,
                                dropout_rate=self.dropout)

    def loss_weights(self) -> LossWeights:
        return self._sub_config(LossWeights)

    def train_config(self) -> TrainConfig:
        return self._sub_config(TrainConfig)

    def _sub_config(self, cls, **given):
        """``cls`` with each field not in ``given`` taken from the setting of
        the same name; a rejected value raises ConfigError."""
        values = {f.name: getattr(self, f.name) for f in fields(cls)
                  if f.name not in given}
        with config_errors():
            return cls(**values, **given)

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
    """Read '#'-commented key=value lines of UTF-8 text (a BOM is skipped)."""
    try:
        with open(path, "r", encoding="utf-8-sig") as fh:
            lines = fh.readlines()
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not UTF-8 text ({exc.reason})") from None
    values: dict[str, str] = {}
    for line_no, raw in enumerate(lines, start=1):
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
    known = {f.name for f in fields(ExperimentConfig)}
    for key, text in values.items():
        if key not in known:
            raise ConfigError(f"unknown config key '{key}'")
        if key == "split":
            value = _parse_split(text)
        else:
            try:  # int, float or str, as the default is
                value = type(getattr(cfg, key))(text)
            except ValueError:
                raise ConfigError(f"bad value for '{key}': {text!r}") from None
        setattr(cfg, key, value)
    if cfg.seed < 0:  # numpy's generators reject it with a message naming no key
        raise ConfigError(f"seed must be non-negative, got {cfg.seed}")
    return cfg
