"""Synthetic right-censored survival data with a known ground-truth ordering."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .data import SurvivalDataset

RISK_MODELS = ("linear", "quadratic")
BASELINES = ("exponential", "weibull")

CENSOR_RATE_TOL = 0.02


@dataclass(frozen=True)
class SynthConfig:
    n_samples: int = 1000
    n_features: int = 10
    risk_model: str = "linear"
    baseline: str = "exponential"
    weibull_shape: float = 1.5
    target_censor_rate: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if self.n_samples < 2 or self.n_features < 1:
            raise ValueError("need at least two samples and one feature")
        if self.risk_model not in RISK_MODELS:
            raise ValueError(f"risk_model must be one of {RISK_MODELS}")
        if self.baseline not in BASELINES:
            raise ValueError(f"baseline must be one of {BASELINES}")
        if not 0.0 < self.weibull_shape < math.inf:
            raise ValueError(f"weibull_shape must be finite and positive, "
                             f"got {self.weibull_shape!r}")
        if not 0.0 <= self.target_censor_rate < 1.0:
            raise ValueError("target_censor_rate must lie in [0, 1)")
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")


def _latent_risk(x: np.ndarray, rng: np.random.Generator, kind: str) -> np.ndarray:
    d = x.shape[1]
    w = rng.standard_normal(d) * (2.0 / math.sqrt(d))
    r = x @ w
    if kind == "quadratic":
        q = rng.standard_normal((d, d)) * (0.5 / d)
        q = (q + q.T) / 2.0
        r = r + np.einsum("ni,ij,nj->n", x, q, x)
    return r


def _event_times(risk: np.ndarray, rng: np.random.Generator, baseline: str,
                 shape: float) -> np.ndarray:
    # inverse-transform sampling with a proportional-hazards rate exp(risk)
    u = rng.random(risk.size)
    base = -np.log(np.clip(1.0 - u, 1e-300, 1.0)) / np.exp(risk)
    if baseline == "weibull":
        return base ** (1.0 / shape)
    return base


def _tune_censor_rate(event_times: np.ndarray, u_cens: np.ndarray,
                      target: float) -> np.ndarray:
    """Bisect an exponential censoring rate to the target censored fraction.

    For fixed uniforms the censored fraction is non-decreasing in the rate,
    so bisection on the rate converges; the empirical fraction moves in
    steps of 1/n, which for reasonable n lands inside the tolerance window.
    """
    neg_log = -np.log(np.clip(1.0 - u_cens, 1e-300, 1.0))

    def censored_fraction(rate: float) -> float:
        return float(np.mean(neg_log / rate < event_times))

    lo, hi = 1.0, 1.0
    for _ in range(200):
        if censored_fraction(hi) >= target:
            break
        hi *= 2.0
    else:
        raise ValueError("could not bracket the target censor rate from above")
    for _ in range(200):
        if censored_fraction(lo) <= target:
            break
        lo /= 2.0
    else:
        raise ValueError("could not bracket the target censor rate from below")

    for _ in range(500):
        mid = math.sqrt(lo * hi)
        frac = censored_fraction(mid)
        if abs(frac - target) <= CENSOR_RATE_TOL:
            rate = mid
            break
        if frac > target:
            hi = mid
        else:
            lo = mid
    else:
        raise ValueError(
            f"bisection could not reach the target censor rate {target} "
            f"within +/-{CENSOR_RATE_TOL}"
        )
    return neg_log / rate


def generate(config: SynthConfig):
    """Draw a dataset; returns (dataset, oracle_risks).

    Features are standard normal, the latent risk is linear or quadratic in
    them, and event times follow an exponential or Weibull proportional-
    hazards law.  Censoring times are independent exponentials whose rate is
    tuned so the censored fraction hits the target within +/-0.02.
    """
    rng = np.random.default_rng(config.seed)
    x = rng.standard_normal((config.n_samples, config.n_features))
    risk = _latent_risk(x, rng, config.risk_model)
    event_times = _event_times(risk, rng, config.baseline, config.weibull_shape)

    if config.target_censor_rate == 0.0:
        observed = event_times
        events = np.ones(config.n_samples, dtype=np.int64)
    else:
        u_cens = rng.random(config.n_samples)
        censor_times = _tune_censor_rate(event_times, u_cens,
                                         config.target_censor_rate)
        observed = np.minimum(event_times, censor_times)
        events = (event_times <= censor_times).astype(np.int64)

    names = [f"x{i + 1}" for i in range(config.n_features)]
    dataset = SurvivalDataset(x, observed, events, names)
    return dataset, risk
