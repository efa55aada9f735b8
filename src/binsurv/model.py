"""Residual MLP over time bins with hand-written forward/backward passes.

The network is: input projection -> n residual blocks -> output layer, where
each block is Linear -> BatchNorm -> ReLU -> Dropout wrapped in an identity
skip.  Everything runs in float64 and gradients are computed analytically,
including the flow through train-mode batch statistics and dropout masks, so
they can be checked against central finite differences.

A :class:`TrainedModel` owns the step from raw held-out rows to scored ones:
it matches the feature columns by name and applies its stored scaler.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field, fields, replace

import numpy as np

from .data import (
    MIN_K_BINS, FeatureScaler, SurvivalDataset, apply_scaler, bin_midpoints,
    read_json_object, require_json_number, write_json_object,
)

BN_EPS = 1e-5
BN_MOMENTUM = 0.1


@dataclass(frozen=True)
class ModelConfig:
    input_dim: int
    hidden_dim: int = 32
    n_blocks: int = 2
    dropout_rate: float = 0.2
    k_bins: int = 10

    def __post_init__(self):
        for name in ("input_dim", "hidden_dim"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be at least 1")
        if self.n_blocks < 0:
            raise ValueError("n_blocks must be non-negative")
        if not 0.0 <= self.dropout_rate < 1.0:
            # the config key; checkpoint.json keeps the field name
            raise ValueError("dropout must lie in [0, 1)")
        if self.k_bins < MIN_K_BINS:
            raise ValueError(f"k_bins must be at least {MIN_K_BINS}")


@dataclass(eq=False)
class ModelParams:
    """Named tensor store; :func:`backward` names the trainable tensors."""

    config: ModelConfig
    tensors: dict[str, np.ndarray]

    def copy(self) -> "ModelParams":
        return ModelParams(self.config, {k: v.copy() for k, v in self.tensors.items()})


def _tensor_shapes(config: ModelConfig) -> dict[str, tuple[int, ...]]:
    """Name and shape of every tensor of the model, in storage order."""
    h, k = config.hidden_dim, config.k_bins
    shapes = {"input.w": (config.input_dim, h), "input.b": (h,)}
    for b in range(config.n_blocks):  # no linear bias: batch norm would cancel it
        shapes[f"block{b}.linear.w"] = (h, h)
        for part in ("bn.scale", "bn.shift", "bn.mean", "bn.var"):
            shapes[f"block{b}.{part}"] = (h,)
    return {**shapes, "output.w": (h, k), "output.b": (k,)}


def init_params(config: ModelConfig, seed: int) -> ModelParams:
    """Scaled-uniform weight init (bound 1/sqrt(fan_in)), zero biases."""
    rng = np.random.default_rng(seed)
    tensors: dict[str, np.ndarray] = {}
    for name, shape in _tensor_shapes(config).items():
        if name.endswith(".w"):
            bound = 1.0 / math.sqrt(shape[0])
            tensors[name] = rng.uniform(-bound, bound, size=shape)
        else:
            tensors[name] = np.full(shape, float(name.endswith((".scale", ".var"))))
    return ModelParams(config=config, tensors=tensors)


@dataclass(eq=False)
class _BlockCache:
    x: np.ndarray          # block input
    xhat: np.ndarray       # normalized pre-activation
    inv_std: np.ndarray    # 1/sqrt(batch var + eps)
    mask: np.ndarray       # relu gate (scale*xhat + shift > 0) and dropout keep


@dataclass(eq=False)
class ForwardCache:
    x0: np.ndarray
    blocks: list[_BlockCache] = field(default_factory=list)
    h_final: np.ndarray | None = None


def forward(params: ModelParams, x: np.ndarray, mode: str = "train",
            seed: int | None = None):
    """Run the network; returns (logits, cache) in train mode, (logits, None) in eval.

    Train mode uses batch statistics (batch size >= 2 required), draws
    dropout masks from ``seed`` and updates the running statistics in place.
    Eval mode is a pure function of (params, x).

    Every elementwise step writes into an array this call allocated, and
    ``x`` is never written.  An eval pass over n rows holds at most two
    n x hidden_dim arrays at once (plus the n x k_bins logits at the end).
    Train mode keeps each block's input, normalized pre-activation and one
    combined ReLU-and-dropout mask for :func:`backward`.
    """
    if mode not in ("train", "eval"):
        raise ValueError("mode must be 'train' or 'eval'")
    cfg = params.config
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != cfg.input_dim:
        raise ValueError(f"expected input of shape (n, {cfg.input_dim})")
    train = mode == "train"
    if train and x.shape[0] < 2:
        raise ValueError("train-mode forward needs batch size >= 2 for batch statistics")
    dropout_keep = None
    if train and cfg.dropout_rate > 0.0:
        if seed is None:
            raise ValueError("train-mode forward with dropout needs a seed")
        # one draw for all blocks: the same stream as one draw per block
        dropout_keep = np.random.default_rng(seed).random(
            (cfg.n_blocks, x.shape[0], cfg.hidden_dim)) >= cfg.dropout_rate

    t = params.tensors
    h = x @ t["input.w"]
    h += t["input.b"]
    cache = ForwardCache(x0=x) if train else None
    keep = 1.0 - cfg.dropout_rate

    for b in range(cfg.n_blocks):
        z = h @ t[f"block{b}.linear.w"]
        if train:
            mean = z.mean(axis=0)
            z -= mean
            # the square of the centered rows, so the mean is taken once;
            # the buffer is reused for the block output below
            y = np.square(z)
            var = y.mean(axis=0)
            t[f"block{b}.bn.mean"] *= 1.0 - BN_MOMENTUM
            t[f"block{b}.bn.mean"] += BN_MOMENTUM * mean
            t[f"block{b}.bn.var"] *= 1.0 - BN_MOMENTUM
            t[f"block{b}.bn.var"] += BN_MOMENTUM * var
        else:
            z -= t[f"block{b}.bn.mean"]
            var = t[f"block{b}.bn.var"]
            y = z  # eval keeps no normalized copy, so the block works in z
        inv_std = 1.0 / np.sqrt(var + BN_EPS)
        z *= inv_std                       # z is now xhat
        np.multiply(z, t[f"block{b}.bn.scale"], out=y)
        y += t[f"block{b}.bn.shift"]
        np.maximum(y, 0.0, out=y)
        if train:
            mask = y > 0.0
            if dropout_keep is not None:
                mask &= dropout_keep[b]
                y *= mask
                y /= keep
            cache.blocks.append(_BlockCache(x=h, xhat=z, inv_std=inv_std, mask=mask))
            # h is cached for backward, so the residual sum goes into y
            y += h
            h = y
        else:
            h += y
        del z, y  # freed before the next block's matmul allocates

    logits = h @ t["output.w"]
    logits += t["output.b"]
    if train:
        cache.h_final = h
        return logits, cache
    return logits, None


def backward(params: ModelParams, cache: ForwardCache,
             grad_logits: np.ndarray) -> dict[str, np.ndarray]:
    """Exact gradients of sum(grad_logits * logits) w.r.t. every trainable
    tensor, that is all but the running BatchNorm statistics.

    Per block, one n x hidden_dim buffer carries the gradient from the
    dropout output down to the block's pre-activation, and the residual
    gradient accumulates in place; ``grad_logits`` is never written.
    """
    cfg = params.config
    t = params.tensors
    g = np.asarray(grad_logits, dtype=np.float64)
    n = cache.x0.shape[0]
    if g.shape != (n, cfg.k_bins):
        raise ValueError(f"grad_logits must have shape ({n}, {cfg.k_bins})")

    grads: dict[str, np.ndarray] = {}
    grads["output.w"] = cache.h_final.T @ g
    grads["output.b"] = g.sum(axis=0)
    dh = g @ t["output.w"].T
    keep = 1.0 - cfg.dropout_rate

    for b in range(cfg.n_blocks - 1, -1, -1):
        blk = cache.blocks[b]
        # gradient reaching the residual branch, through dropout and ReLU
        dz = dh * blk.mask
        if keep < 1.0:
            dz /= keep
        tmp = dz * blk.xhat
        grads[f"block{b}.bn.scale"] = tmp.sum(axis=0)
        grads[f"block{b}.bn.shift"] = dz.sum(axis=0)
        dz *= t[f"block{b}.bn.scale"]      # dz is now the xhat gradient
        # batch-statistics backward: mean and variance both depend on z
        m = dz.shape[0]
        dxhat_sum = dz.sum(axis=0)
        np.multiply(dz, blk.xhat, out=tmp)
        dxhat_xhat_sum = tmp.sum(axis=0)
        dz *= m
        dz -= dxhat_sum
        np.multiply(blk.xhat, dxhat_xhat_sum, out=tmp)
        dz -= tmp
        dz *= blk.inv_std / m
        del tmp  # freed before the matmuls below allocate
        grads[f"block{b}.linear.w"] = blk.x.T @ dz
        dh += dz @ t[f"block{b}.linear.w"].T

    grads["input.w"] = cache.x0.T @ dh
    grads["input.b"] = dh.sum(axis=0)
    return grads


def apply_head(logits: np.ndarray) -> np.ndarray:
    """Stable softmax over k bin logits.

    The result is one fresh array, shifted, exponentiated and normalized in
    place; ``logits`` is never written.
    """
    z = np.asarray(logits, dtype=np.float64)
    if not np.all(np.isfinite(z)):
        raise ValueError("non-finite logits")
    p = z - z.max(axis=-1, keepdims=True)
    np.exp(p, out=p)
    p /= p.sum(axis=-1, keepdims=True)
    return p


def head_backward(pmf: np.ndarray, grad_pmf: np.ndarray) -> np.ndarray:
    """Chain a pmf gradient through the softmax head back to the logits."""
    p = np.asarray(pmf, dtype=np.float64)
    g = np.asarray(grad_pmf, dtype=np.float64)
    inner = (p * g).sum(axis=-1, keepdims=True)
    return p * (g - inner)


def predict_risk(pmf: np.ndarray):
    """Risk score 1 - sum_k p_k * midpoint_k over the last axis, confined to
    [1/2k, (2k-1)/2k]."""
    p = np.asarray(pmf, dtype=np.float64)
    return 1.0 - p @ bin_midpoints(p.shape[-1])


def predict_survival(pmf: np.ndarray, k: int):
    """Probability of surviving past bin ``k``: 1 - cdf(k) over the last
    axis, clamped to [0, 1]."""
    p = np.asarray(pmf, dtype=np.float64)
    if not 1 <= k <= p.shape[-1]:
        raise ValueError(f"bin index {k} outside 1..{p.shape[-1]}")
    return np.clip(1.0 - p[..., :k].sum(axis=-1), 0.0, 1.0)


CHECKPOINT_FORMAT = "binsurv-checkpoint"
CHECKPOINT_VERSION = 2


@dataclass(frozen=True, eq=False)
class TrainedModel:
    """A trained network with what was fitted on its training rows: all that
    a checkpoint holds and all that scoring held-out rows needs."""

    params: ModelParams
    scaler: FeatureScaler       # fitted on the raw training split
    feature_names: list[str]    # the column of each network input
    time_col: str
    event_col: str
    cutoff: float | None        # log-rank cutoff on the training risks, if defined

    def prepare(self, raw: SurvivalDataset) -> SurvivalDataset:
        """``raw`` (not written) with its feature columns put in this model's
        order by name and scaled by the stored scaler; ValueError names every
        missing and every extra column."""
        names = self.feature_names
        missing = [n for n in names if n not in raw.feature_names]
        extra = [n for n in raw.feature_names if n not in names]
        if missing or extra:
            parts = [f"{label} {', '.join(repr(n) for n in cols)}"
                     for label, cols in (("missing", missing), ("extra", extra)) if cols]
            raise ValueError("test data columns do not match the checkpoint's "
                             "features: " + "; ".join(parts))
        if list(raw.feature_names) != names:
            order = [raw.feature_names.index(n) for n in names]
            raw = SurvivalDataset(np.ascontiguousarray(raw.features[:, order]),
                                  raw.times, raw.events, names)
        return apply_scaler(raw, self.scaler)


def save_checkpoint(path, model: TrainedModel) -> None:
    """Serialize the model as JSON: version tag, config, shapes, row-major
    values and, under ``meta``, what was fitted on the training rows.

    repr-based float encoding makes the file byte-identical across reruns of
    the same training job.
    """
    params = model.params
    write_json_object(path, CHECKPOINT_FORMAT, CHECKPOINT_VERSION, {
        "config": asdict(params.config),
        "tensors": {
            name: {"shape": list(arr.shape), "data": arr.ravel().tolist()}
            for name, arr in params.tensors.items()
        },
        "meta": {
            "scaler_mean": model.scaler.mean.tolist(),
            "scaler_std": model.scaler.std.tolist(),
            "feature_names": list(model.feature_names),
            "time_col": model.time_col,
            "event_col": model.event_col,
            "cutoff": model.cutoff,
        },
    })


def load_checkpoint(path) -> TrainedModel:
    """Inverse of :func:`save_checkpoint`; unknown top-level and ``meta`` keys
    are ignored, and an unknown ``config`` key is rejected.

    A body that format v2 does not write raises ValueError naming the file
    and the key: the tensors must have exactly the names and shapes
    :func:`_tensor_shapes` lays out for the stored config, and finite values.
    Format v1, which stored a bias before each batch norm, is rejected.
    """
    payload = read_json_object(path, CHECKPOINT_FORMAT, "checkpoint", CHECKPOINT_VERSION)
    try:
        config, entries, meta = payload["config"], payload["tensors"], payload["meta"]
        for key, value in (("config", config), ("tensors", entries), ("meta", meta)):
            if not isinstance(value, dict):
                raise ValueError(f"{path}: {key} must be an object")
        names = [f.name for f in fields(ModelConfig)]
        unknown = [key for key in config if key not in names]
        if unknown:
            raise ValueError(f"{path}: unknown config key {unknown[0]!r}")
        values = {name: config[name] for name in names}
        for name, value in values.items():
            require_json_number(path, name, value, integer=name != "dropout_rate")
        cfg = ModelConfig(**values)
        # laid out only as far as the stored tensors reach, so a huge n_blocks
        # costs no memory: its first len(entries) + 1 names already miss one
        layout = _tensor_shapes(replace(cfg, n_blocks=min(cfg.n_blocks, len(entries))))
        for name in (*layout, *entries):
            if (name in layout) != (name in entries):
                state = "missing" if name in layout else "unexpected"
                raise ValueError(f"{path}: {state} tensor {name!r} (n_blocks "
                                 f"{cfg.n_blocks} lays out {4 + 5 * cfg.n_blocks} "
                                 f"tensors, the file stores {len(entries)})")
        tensors = {name: _stored_tensor(path, name, entry, layout[name])
                   for name, entry in entries.items()}
    except KeyError as exc:
        raise ValueError(f"{path}: missing key {exc.args[0]!r}") from None
    return _trained_model(path, ModelParams(config=cfg, tensors=tensors), meta)


def _stored_tensor(path, name: str, entry: dict, shape: tuple) -> np.ndarray:
    """One checkpoint tensor as an array of ``shape``, finite throughout."""
    try:
        arr = np.asarray(entry["data"], dtype=np.float64).reshape(entry["shape"])
    except OverflowError:  # a JSON integer beyond float64
        raise ValueError(f"{path}: tensor {name!r} is too large for float64") from None
    except (TypeError, ValueError):
        arr = None
    if arr is None or arr.shape != shape:
        raise ValueError(f"{path}: tensor {name!r} must be a {list(shape)} array")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{path}: tensor {name!r} has a non-finite value")
    return arr


def _trained_model(path, params: ModelParams, meta: dict) -> TrainedModel:
    """``params`` with checkpoint ``meta`` holding every key save_checkpoint
    writes: ``input_dim`` distinct feature names, as many finite scaler means
    and positive finite stds, string column names, a finite cutoff or null."""
    input_dim = params.config.input_dim
    for key in ("feature_names", "scaler_mean", "scaler_std", "time_col",
                "event_col", "cutoff"):
        if key not in meta:
            # a scaler fitted at evaluation would use statistics of the held-out rows
            raise ValueError(f"{path}: checkpoint meta has no '{key}'")
    names = meta["feature_names"]
    if (not isinstance(names, list) or len(names) != input_dim
            or not all(isinstance(name, str) for name in names)
            or len(set(names)) != input_dim):
        raise ValueError(f"{path}: feature_names must be a list of "
                         f"{input_dim} distinct strings")
    for key, low, kind in (("scaler_mean", -np.inf, "finite"),
                           ("scaler_std", 0.0, "finite and positive")):
        values = meta[key]
        if not isinstance(values, list) or len(values) != input_dim:
            raise ValueError(f"{path}: {key} must be a list of {input_dim} numbers")
        for i, value in enumerate(values):
            require_json_number(path, f"{key}[{i}]", value)
            if not low < value < np.inf:
                raise ValueError(f"{path}: {key}[{i}] must be {kind}, got {value!r}")
    cutoff = meta["cutoff"]
    if cutoff is not None:
        require_json_number(path, "cutoff", cutoff)
        if not -np.inf < cutoff < np.inf:
            raise ValueError(f"{path}: cutoff must be finite or null, got {cutoff!r}")
    for key in ("time_col", "event_col"):
        if not isinstance(meta[key], str):
            raise ValueError(f"{path}: {key} must be a string, got {meta[key]!r}")
    scaler = FeatureScaler(mean=np.asarray(meta["scaler_mean"], dtype=np.float64),
                           std=np.asarray(meta["scaler_std"], dtype=np.float64))
    return TrainedModel(params, scaler, names, meta["time_col"], meta["event_col"],
                        cutoff)
