"""Minibatch SGD with cosine-annealed learning rate and C-index model selection."""

from __future__ import annotations

import logging
import math
from dataclasses import astuple, dataclass, fields

import numpy as np

from .data import BinnedBatch, SurvivalDataset, write_table
from .losses import LossWeights, combined_loss
from .metrics import c_index
from .model import (
    ModelConfig, ModelParams, apply_head, backward, forward, head_backward,
    init_params, predict_risk,
)

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 150
    batch_size: int = 256
    lr_init: float = 0.01
    seed: int = 0

    def __post_init__(self):
        if self.epochs < 1:
            raise ValueError("epochs must be at least 1")
        if self.batch_size < 2:
            raise ValueError("batch_size must be at least 2")
        if not 0.0 < self.lr_init < np.inf:
            raise ValueError("lr_init must be finite and positive")


@dataclass
class EpochRecord:
    epoch: int               # 1-based
    lr: float
    loss: float
    likelihood: float
    pairwise: float
    calibration: float
    val_c_index: float


def cosine_lr(epoch: int, total_epochs: int, lr_init: float) -> float:
    """Half-cosine schedule from lr_init at epoch 0 down to 0 at total_epochs."""
    if total_epochs < 1:
        raise ValueError("total_epochs must be positive")
    if not 0 <= epoch <= total_epochs:
        raise ValueError("epoch must lie in [0, total_epochs]")
    return lr_init * (1.0 + math.cos(math.pi * epoch / total_epochs)) / 2.0


def sgd_step(params: ModelParams, grads: dict[str, np.ndarray],
             lr: float) -> ModelParams:
    """In-place plain SGD update w <- w - lr*g of exactly the tensors that
    ``grads`` (from :func:`backward`) names, so the running BatchNorm
    statistics are untouched.  Tensors are visited in storage order; the
    first non-finite gradient aborts with its tensor named."""
    for name in filter(grads.__contains__, params.tensors):
        g = grads[name]
        if not np.all(np.isfinite(g)):
            raise FloatingPointError(f"non-finite gradient in tensor '{name}'")
        params.tensors[name] -= lr * g
    return params


def _dropout_seed(seed: int, epoch: int, batch_index: int) -> list[int]:
    return [seed, epoch, batch_index, 0x5F]


def train_epoch(params: ModelParams, train: BinnedBatch, weights: LossWeights,
                config: TrainConfig, epoch: int):
    """One pass over the training data in a seeded, epoch-dependent order.

    ``epoch`` is 0-based.  Returns (lr, loss, likelihood, pairwise,
    calibration), the loss parts averaged over the batches.  A trailing batch
    of size 1 is dropped (BatchNorm needs batch statistics).
    """
    n = len(train)
    order = np.random.default_rng([config.seed, epoch]).permutation(n)
    lr = cosine_lr(epoch, config.epochs, config.lr_init)
    totals = np.zeros(4)
    n_batches = 0
    for batch_index, start in enumerate(range(0, n, config.batch_size)):
        idx = order[start:start + config.batch_size]
        if idx.size == 1:
            log.info("epoch %d: dropping trailing batch of size 1", epoch + 1)
            continue
        sub = train.take(idx)
        logits, cache = forward(
            params, sub.features, mode="train",
            seed=_dropout_seed(config.seed, epoch, batch_index),
        )
        pmfs = apply_head(logits)
        value, grad_pmf, parts = combined_loss(pmfs, sub, weights)
        grad_logits = head_backward(pmfs, grad_pmf)
        grads = backward(params, cache, grad_logits)
        sgd_step(params, grads, lr)
        totals += (value, parts["likelihood"], parts["pairwise"], parts["calibration"])
        n_batches += 1
    if n_batches == 0:
        raise ValueError("training data produced no usable batches")
    return (lr, *(float(m) for m in totals / n_batches))


def validation_c_index(params: ModelParams, val: SurvivalDataset) -> float:
    """C-index of eval-mode risk scores against the raw validation times."""
    logits, _ = forward(params, val.features, mode="eval")
    risks = predict_risk(apply_head(logits))
    return c_index(risks, val.times, val.events)


def fit(train: BinnedBatch, val: SurvivalDataset, model_config: ModelConfig,
        weights: LossWeights, config: TrainConfig):
    """Train on the binned training rows and return (best_params, history).

    The raw validation rows are scored after every epoch, and the snapshot
    with the highest validation C-index wins; ties keep the earlier epoch.
    """
    params = init_params(model_config, config.seed)
    best, best_score, history = None, -math.inf, []
    for epoch in range(config.epochs):
        stats = train_epoch(params, train, weights, config, epoch)
        score = validation_c_index(params, val)
        history.append(EpochRecord(epoch + 1, *stats, val_c_index=score))
        if score > best_score:
            best, best_score = params.copy(), score
    return best, history


def write_history_csv(records, path) -> None:
    """Epoch log, one row per :class:`EpochRecord`, in field order."""
    write_table(path, [f.name for f in fields(EpochRecord)], map(astuple, records))
