"""Training objectives over per-sample bin masses, with exact gradients.

Three ingredients are combined: a likelihood reward (mass on the observed
bin for events, survival past it for censored samples), a pairwise ranking
term, and a distribution-calibration penalty.  The pairwise term comes in two
flavors: ranking on the CDF at the earlier sample's event bin, or ranking on
expected-time risk scores with a margin proportional to the normalized time
gap between the two samples.

Sign convention: every pairwise exponent is negated, exp(-sigma * ...), so
each term shrinks as the shorter-lived sample's risk (or CDF) rises above its
partner's, and plain gradient descent on the combined value ranks that sample
higher.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .data import BinnedBatch, bin_midpoints
from .model import predict_risk

LIKELIHOOD_FLOOR = 1e-12

LIKELIHOOD_MODES = ("prob", "logprob")
PAIRWISE_KINDS = ("time_rank", "rank")


@dataclass(frozen=True)
class LossWeights:
    """Weights and knobs of the combined objective."""

    alpha: float = 1.0
    beta: float = 0.05
    gamma: float = 1.0
    sigma: float = 1.0
    rho: float = 1.0
    g_bins: int = 10
    likelihood_mode: str = "prob"
    pairwise_kind: str = "time_rank"

    def __post_init__(self):
        if self.alpha < 0 or self.beta < 0 or self.gamma < 0:
            raise ValueError("loss weights must be non-negative")
        if not 0.0 < self.sigma <= 1.0:
            raise ValueError("sigma must lie in (0, 1]")
        if self.rho < 0:
            raise ValueError("rho must be non-negative")
        if self.g_bins < 1:
            raise ValueError("g_bins must be at least 1")
        if self.likelihood_mode not in LIKELIHOOD_MODES:
            raise ValueError(f"likelihood_mode must be one of {LIKELIHOOD_MODES}")
        if self.pairwise_kind not in PAIRWISE_KINDS:
            raise ValueError(f"pairwise_kind must be one of {PAIRWISE_KINDS}")


@dataclass(frozen=True)
class ComparablePairs:
    """Index pairs (i, j) with event_i = 1 and t_j > t_i, plus the event count."""

    i: np.ndarray
    j: np.ndarray
    n_events: int

    def __len__(self) -> int:
        return self.i.shape[0]


def comparable_pairs(times, events) -> ComparablePairs:
    """Enumerate in-batch pairs where sample i's event precedes sample j's time."""
    t = np.asarray(times, dtype=np.float64)
    ev = np.asarray(events) == 1
    mask = ev[:, None] & (t[None, :] > t[:, None])
    i, j = np.nonzero(mask)
    return ComparablePairs(i=i, j=j, n_events=int(ev.sum()))


@dataclass(frozen=True)
class CalibrationBins:
    """Partition of normalized time [0, 1) into half-open intervals."""

    edges: np.ndarray

    def __post_init__(self):
        e = np.asarray(self.edges, dtype=np.float64)
        if e.ndim != 1 or e.size < 2 or e[0] != 0.0 or e[-1] != 1.0:
            raise ValueError("edges must run from 0.0 to 1.0")
        if np.any(np.diff(e) <= 0):
            raise ValueError("edges must be strictly increasing")
        object.__setattr__(self, "edges", e)

    @classmethod
    def equal_width(cls, g: int) -> "CalibrationBins":
        if g < 1:
            raise ValueError("need at least one interval")
        return cls(np.linspace(0.0, 1.0, g + 1))

    @property
    def n_bins(self) -> int:
        return self.edges.size - 1


def likelihood_loss(pmfs: np.ndarray, batch: BinnedBatch, mode: str = "prob"):
    """Mean per-sample likelihood term; higher is better.

    Events contribute the mass of their bin, censored samples the mass beyond
    their bin (1 - cdf).  ``prob`` averages the raw quantities, ``logprob``
    averages their logs with a 1e-12 floor.  Returns (value, grad_pmf).
    """
    if mode not in LIKELIHOOD_MODES:
        raise ValueError(f"likelihood_mode must be one of {LIKELIHOOD_MODES}")
    p = np.atleast_2d(np.asarray(pmfs, dtype=np.float64))
    n, k = p.shape
    if len(batch) != n:
        raise ValueError("pmfs and batch disagree on length")
    kidx = batch.bins - 1
    rows = np.arange(n)
    cdf = np.cumsum(p, axis=1)
    is_event = batch.events == 1
    terms = np.where(is_event, p[rows, kidx], 1.0 - cdf[rows, kidx])

    grad = np.zeros_like(p)
    if mode == "prob":
        value = float(terms.mean())
        coeff = np.full(n, 1.0 / n)
    else:
        floored = np.maximum(terms, LIKELIHOOD_FLOOR)
        value = float(np.log(floored).mean())
        # exact subgradient of log(max(q, floor)): zero below the floor
        coeff = np.where(terms > LIKELIHOOD_FLOOR, 1.0 / (n * floored), 0.0)

    grad[rows[is_event], kidx[is_event]] = coeff[is_event]
    cens_cols = (np.arange(k)[None, :] <= kidx[:, None]) & ~is_event[:, None]
    grad -= coeff[:, None] * cens_cols
    return value, grad


def rank_loss(pmfs: np.ndarray, batch: BinnedBatch, sigma: float = 1.0):
    """Pairwise exponential ranking on the CDF at the earlier event's bin.

    For each comparable pair the CDFs of both samples are read at sample i's
    event bin; the per-pair term is exp(-sigma * (F_i - F_j)) and the value
    sums those terms divided by the number of events in the batch.  Returns
    (value, grad_pmf).
    """
    p = np.atleast_2d(np.asarray(pmfs, dtype=np.float64))
    n, k = p.shape
    pairs = comparable_pairs(batch.t_norm, batch.events)
    if pairs.n_events == 0 or len(pairs) == 0:
        warnings.warn("rank loss: no comparable pairs in batch", RuntimeWarning)
        return 0.0, np.zeros_like(p)
    cdf = np.cumsum(p, axis=1)
    ki = batch.bins[pairs.i] - 1
    f_i = cdf[pairs.i, ki]
    f_j = cdf[pairs.j, ki]
    terms = np.exp(-sigma * (f_i - f_j))
    value = float(terms.sum() / pairs.n_events)
    w = (-sigma / pairs.n_events) * terms
    # dF/dp hits every bin up to the threshold: accumulate at the threshold
    # column, then suffix-sum across bins
    acc = np.zeros_like(p)
    np.add.at(acc, (pairs.i, ki), w)
    np.add.at(acc, (pairs.j, ki), -w)
    grad = np.cumsum(acc[:, ::-1], axis=1)[:, ::-1]
    return value, grad


def time_rank_loss(risks: np.ndarray, batch: BinnedBatch, sigma: float = 1.0,
                   rho: float = 1.0):
    """Pairwise ranking on risk scores with a time-gap margin.

    The per-pair exponent compares the risk difference against rho times the
    normalized time gap, so pairs far apart in time must also be far apart in
    risk before their term stops moving.  Value sums per-pair terms divided by
    the batch event count.  Returns (value, grad_risk).
    """
    r = np.asarray(risks, dtype=np.float64)
    pairs = comparable_pairs(batch.t_norm, batch.events)
    if pairs.n_events == 0 or len(pairs) == 0:
        warnings.warn("time rank loss: no comparable pairs in batch", RuntimeWarning)
        return 0.0, np.zeros_like(r)
    gap = batch.t_norm[pairs.j] - batch.t_norm[pairs.i]
    terms = np.exp(-sigma * ((r[pairs.i] - r[pairs.j]) - rho * gap))
    value = float(terms.sum() / pairs.n_events)
    w = (-sigma / pairs.n_events) * terms
    grad = np.zeros_like(r)
    np.add.at(grad, pairs.i, w)
    np.add.at(grad, pairs.j, -w)
    return value, grad


def calibration_loss(pmfs: np.ndarray, batch: BinnedBatch,
                     bins: CalibrationBins | None = None):
    """Squared gap between predicted and observed event ratios per interval.

    For interval g = [a, b): predicted ratio is the batch pmf mass whose bin
    midpoints fall in g divided by the mass at midpoints >= a; observed ratio
    is the number of events with normalized time in g divided by the samples
    with time >= a.  Observed ratios are constants (no gradient).  Intervals
    whose predicted or observed denominator is zero are skipped; the value is
    the mean over the intervals kept.  Returns (value, grad_pmf).
    """
    if bins is None:
        bins = CalibrationBins.equal_width(10)
    p = np.atleast_2d(np.asarray(pmfs, dtype=np.float64))
    n, k = p.shape
    if len(batch) != n:
        raise ValueError("pmfs and batch disagree on length")
    g = bins.n_bins
    edges = bins.edges
    mids = bin_midpoints(k)
    mid_iv = np.searchsorted(edges, mids, side="right") - 1
    t_iv = np.searchsorted(edges, batch.t_norm, side="right") - 1

    col_mass = p.sum(axis=0)
    mass_per_iv = np.bincount(mid_iv, weights=col_mass, minlength=g)
    pred_den = np.cumsum(mass_per_iv[::-1])[::-1]
    ev_count = np.bincount(t_iv[batch.events == 1], minlength=g).astype(np.float64)
    obs_den = np.cumsum(np.bincount(t_iv, minlength=g)[::-1])[::-1].astype(np.float64)

    valid = (pred_den > 0.0) & (obs_den > 0.0)
    if not np.any(valid):
        return 0.0, np.zeros_like(p)
    pred = np.zeros(g)
    pred[valid] = mass_per_iv[valid] / pred_den[valid]
    obs = np.zeros(g)
    obs[valid] = ev_count[valid] / obs_den[valid]
    diff = np.where(valid, pred - obs, 0.0)
    n_valid = int(valid.sum())
    value = float((diff ** 2).sum() / n_valid)

    # d pred_g / d p[i, c] = (1[c in g] - pred_g * 1[mid_c >= a_g]) / pred_den_g,
    # identical for every row i, so the gradient is one per-column vector
    c_g = np.where(valid, 2.0 * diff / n_valid, 0.0)
    a_vec = np.where(valid, c_g / np.where(valid, pred_den, 1.0), 0.0)
    b_vec = a_vec * pred
    b_cum = np.cumsum(b_vec)
    col_grad = a_vec[mid_iv] - b_cum[mid_iv]
    grad = np.broadcast_to(col_grad, p.shape).copy()
    return value, grad


def combined_loss(pmfs: np.ndarray, batch: BinnedBatch, weights: LossWeights):
    """Weighted combination of the three objectives.

    Value is -alpha * likelihood + beta * pairwise + gamma * calibration, so
    lower is better for gradient descent: the pairwise term's negated exponent
    already makes it fall as the shorter-lived sample of each comparable pair
    ranks higher.  Components with zero weight are skipped entirely.  Returns
    (value, grad_pmf, parts) where ``parts`` holds the raw component values
    for logging.
    """
    if weights.alpha == 0.0 and weights.beta == 0.0 and weights.gamma == 0.0:
        raise ValueError("at least one loss weight must be positive")
    p = np.atleast_2d(np.asarray(pmfs, dtype=np.float64))
    value = 0.0
    grad = np.zeros_like(p)
    parts = {"likelihood": 0.0, "pairwise": 0.0, "calibration": 0.0}

    if weights.alpha > 0.0:
        lv, lg = likelihood_loss(p, batch, weights.likelihood_mode)
        value -= weights.alpha * lv
        grad -= weights.alpha * lg
        parts["likelihood"] = lv

    if weights.beta > 0.0:
        if weights.pairwise_kind == "time_rank":
            risks = predict_risk(p)
            pv, grad_risk = time_rank_loss(risks, batch, weights.sigma, weights.rho)
            mids = bin_midpoints(p.shape[1])
            grad += weights.beta * grad_risk[:, None] * (-mids[None, :])
        else:
            pv, pg = rank_loss(p, batch, weights.sigma)
            grad += weights.beta * pg
        value += weights.beta * pv
        parts["pairwise"] = pv

    if weights.gamma > 0.0:
        cv, cg = calibration_loss(p, batch, CalibrationBins.equal_width(weights.g_bins))
        value += weights.gamma * cv
        grad += weights.gamma * cg
        parts["calibration"] = cv

    return float(value), grad, parts
