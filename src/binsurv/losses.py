"""Training objectives over per-sample bin masses, with exact gradients.

Three ingredients are combined: a log-likelihood reward (log mass on the
observed bin for events, log survival past it for censored samples), a
pairwise ranking term, and a distribution-calibration penalty.  The pairwise
term comes in two flavors: ranking on the CDF at the earlier sample's event
bin, or ranking on expected-time risk scores with a margin proportional to
the normalized time gap between the two samples.

Sign convention: every pairwise exponent is negated, exp(-sigma * ...), so
each term shrinks as the shorter-lived sample's risk (or CDF) rises above its
partner's, and plain gradient descent on the combined value ranks that sample
higher.

Pairs are summed, not enumerated.  A comparable pair (i, j) has event_i = 1
and t_j > t_i, strictly: samples tied in normalized time never pair.  Each
pairwise term factorises as exp(-sigma * a_i) * exp(sigma * b_j), so after
one stable sort of the batch by time the partner side of every anchor is a
suffix sum of the exp(sigma * b) factors, starting at the first strictly
later time (``searchsorted(..., "right")``), and the anchor side of every
partner is a prefix sum of the events' exp(-sigma * a) factors, ending before
the first equal time (``searchsorted(..., "left")``).  Both values and
gradients are exact; no B x B array is formed.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .data import BinnedBatch, bin_midpoints
from .model import predict_risk

LIKELIHOOD_FLOOR = 1e-12

PAIRWISE_KINDS = ("time_rank", "rank")
# with sigma <= 1 and risks and normalized times in [0, 1], every time-rank
# pair term stays below exp(701), short of the float64 limit exp(709.8)
RHO_MAX = 700.0


@dataclass(frozen=True)
class LossWeights:
    """Weights and knobs of the combined objective."""

    alpha: float = 1.0
    beta: float = 0.05
    gamma: float = 1.0
    sigma: float = 1.0
    rho: float = 1.0
    pairwise_kind: str = "time_rank"

    def __post_init__(self):
        for name in ("alpha", "beta", "gamma"):
            if not 0.0 <= getattr(self, name) < np.inf:
                raise ValueError(f"{name} must be finite and non-negative")
        if self.alpha == 0.0 and self.beta == 0.0 and self.gamma == 0.0:
            raise ValueError("at least one of alpha, beta and gamma must be positive")
        if not 0.0 < self.sigma <= 1.0:
            raise ValueError("sigma must lie in (0, 1]")
        if not 0.0 <= self.rho <= RHO_MAX:
            raise ValueError(f"rho must lie in [0, {RHO_MAX:g}]")
        if self.pairwise_kind not in PAIRWISE_KINDS:
            raise ValueError(f"pairwise_kind must be one of {PAIRWISE_KINDS}")


def likelihood_loss(pmfs: np.ndarray, batch: BinnedBatch):
    """Mean per-sample log-likelihood; higher is better.

    Events contribute the log mass of their bin, censored samples the log
    mass beyond their bin, log(1 - cdf).  Each mass is floored at 1e-12, so
    the value is bounded below by log(1e-12).  Returns (value, grad_pmf).
    """
    p = np.atleast_2d(np.asarray(pmfs, dtype=np.float64))
    n, k = p.shape
    if len(batch) != n:
        raise ValueError("pmfs and batch disagree on length")
    kidx = batch.bins - 1
    rows = np.arange(n)
    cdf = np.cumsum(p, axis=1)
    is_event = batch.events == 1
    terms = np.where(is_event, p[rows, kidx], 1.0 - cdf[rows, kidx])
    floored = np.maximum(terms, LIKELIHOOD_FLOOR)
    value = float(np.log(floored).mean())
    # exact subgradient of log(max(q, floor)): zero below the floor
    coeff = np.where(terms > LIKELIHOOD_FLOOR, 1.0 / (n * floored), 0.0)

    grad = np.zeros_like(p)
    grad[rows[is_event], kidx[is_event]] = coeff[is_event]
    cens_cols = (np.arange(k)[None, :] <= kidx[:, None]) & ~is_event[:, None]
    grad -= coeff[:, None] * cens_cols
    return value, grad


def _pair_sums(batch: BinnedBatch, anchor: np.ndarray, partner: np.ndarray):
    """Each sample's pair terms summed as anchor and as partner.

    ``anchor`` and ``partner`` hold each sample's two factors of its pair
    terms, as vectors or as B x K arrays (one factor per threshold column);
    ``anchor`` is zero outside the events.  Returns ``(as_anchor, as_partner,
    n_events)``, or None when the batch has no comparable pair: as_anchor[i]
    is anchor[i] times the sum of partner over the samples strictly later
    than i, and as_partner[j] is partner[j] times the sum of anchor over the
    samples strictly earlier than j.  One stable sort by time, one suffix and
    one prefix sum, and two binary searches: O(B log B) for vectors.
    """
    t = np.asarray(batch.t_norm, dtype=np.float64)
    order = np.argsort(t, kind="stable")
    t_sorted = t[order]
    # a pair exists exactly when some event is earlier than the latest time
    if t.size == 0 or not (t[batch.events == 1] < t_sorted[-1]).any():
        return None
    # suffix[m] = sum of the sorted partners from position m, prefix[m] of
    # the sorted anchors before it; both are zero at their open end
    suffix = np.zeros((t.size + 1,) + partner.shape[1:])
    suffix[:-1] = np.cumsum(partner[order][::-1], axis=0)[::-1]
    prefix = np.zeros((t.size + 1,) + anchor.shape[1:])
    np.cumsum(anchor[order], axis=0, out=prefix[1:])
    as_anchor = anchor * suffix[np.searchsorted(t_sorted, t, side="right")]
    as_partner = partner * prefix[np.searchsorted(t_sorted, t, side="left")]
    return as_anchor, as_partner, int(np.count_nonzero(batch.events == 1))


def rank_loss(pmfs: np.ndarray, batch: BinnedBatch, sigma: float = 1.0):
    """Pairwise exponential ranking on the CDF at the earlier event's bin.

    For each comparable pair the CDFs of both samples are read at sample i's
    event bin k_i; the per-pair term is exp(-sigma * (F_i - F_j)) and the
    value sums those terms divided by the number of events in the batch.

    The term splits into exp(-sigma * F_i[k_i]) * exp(sigma * F_j[k_i]).
    Each event's anchor factor sits in its own bin column, and every
    sample's partner factor in every column, so one ``_pair_sums`` over the
    B x K arrays gives the value and both gradient sides.  O(B log B + B K)
    time and O(B K) memory.  Returns (value, grad_pmf).
    """
    p = np.atleast_2d(np.asarray(pmfs, dtype=np.float64))
    cdf = np.cumsum(p, axis=1)
    is_event = batch.events == 1
    cols = batch.bins[is_event] - 1
    anchor = np.zeros_like(p)
    anchor[is_event, cols] = np.exp(-sigma * cdf[is_event, cols])
    sums = _pair_sums(batch, anchor, np.exp(sigma * cdf))
    if sums is None:
        warnings.warn("rank loss: no comparable pairs in batch", RuntimeWarning)
        return 0.0, np.zeros_like(p)
    as_anchor, as_partner, n_events = sums
    value = float(as_anchor[is_event, cols].sum() / n_events)
    # d term / dF_i = -sigma * term, d term / dF_j = sigma * term; dF/dp hits
    # every bin up to the threshold, so suffix-sum across bins
    acc = (sigma / n_events) * as_partner
    acc -= (sigma / n_events) * as_anchor  # zero off each event's own column
    grad = np.cumsum(acc[:, ::-1], axis=1)[:, ::-1]
    return value, grad


def time_rank_loss(risks: np.ndarray, batch: BinnedBatch, sigma: float = 1.0,
                   rho: float = 1.0):
    """Pairwise ranking on risk scores with a time-gap margin.

    The per-pair exponent compares the risk difference against rho times the
    normalized time gap, so pairs far apart in time must also be far apart in
    risk before their term stops moving.  Value sums per-pair terms divided by
    the batch event count.

    With u = r + rho * t_norm the term exp(-sigma * ((r_i - r_j) -
    rho * (t_j - t_i))) is exp(-sigma * u_i) * exp(sigma * u_j), so the value
    and both gradient sides come from one ``_pair_sums`` over vectors:
    O(B log B) time, O(B) memory.  Both factors are taken relative to the
    midpoint of sigma * u, which cancels in every product and keeps each
    factor within exp(+-range / 2).  Returns (value, grad_risk).
    """
    r = np.asarray(risks, dtype=np.float64)
    su = sigma * (r + rho * batch.t_norm)
    shift = 0.5 * (su.max() + su.min()) if su.size else 0.0  # empty: no pair
    anchor = np.where(batch.events == 1, np.exp(shift - su), 0.0)
    sums = _pair_sums(batch, anchor, np.exp(su - shift))
    if sums is None:
        warnings.warn("time rank loss: no comparable pairs in batch", RuntimeWarning)
        return 0.0, np.zeros_like(r)
    as_anchor, as_partner, n_events = sums
    value = float(as_anchor.sum() / n_events)
    grad = (-sigma / n_events) * (as_anchor - as_partner)
    return value, grad


def calibration_loss(pmfs: np.ndarray, batch: BinnedBatch):
    """Squared gap between predicted and observed event ratios per time bin.

    For bin g, the predicted ratio is the batch's pmf mass in column g divided
    by its mass in columns >= g; the observed ratio is the number of events
    in bin g divided by the samples in bins >= g.  Observed ratios are
    constants (no gradient).  Bins whose predicted or observed denominator is
    zero are skipped; the value is the mean over the bins kept.  Returns
    (value, grad_pmf).
    """
    p = np.atleast_2d(np.asarray(pmfs, dtype=np.float64))
    n, k = p.shape
    if len(batch) != n:
        raise ValueError("pmfs and batch disagree on length")
    kidx = batch.bins - 1

    mass = p.sum(axis=0)
    pred_den = np.cumsum(mass[::-1])[::-1]
    ev_count = np.bincount(kidx[batch.events == 1], minlength=k).astype(np.float64)
    obs_den = np.cumsum(np.bincount(kidx, minlength=k)[::-1])[::-1].astype(np.float64)

    valid = (pred_den > 0.0) & (obs_den > 0.0)
    if not np.any(valid):
        return 0.0, np.zeros_like(p)
    pred = np.zeros(k)
    pred[valid] = mass[valid] / pred_den[valid]
    obs = np.zeros(k)
    obs[valid] = ev_count[valid] / obs_den[valid]
    diff = pred - obs  # +0.0 off the valid bins, where pred and obs are both 0
    n_valid = int(valid.sum())
    value = float((diff ** 2).sum() / n_valid)

    # d pred_g / d p[i, c] = (1[c = g] - pred_g * 1[c >= g]) / pred_den_g,
    # identical for every row i, so the gradient is one per-column vector
    a_vec = 2.0 * diff / n_valid / np.where(valid, pred_den, 1.0)
    col_grad = a_vec - np.cumsum(a_vec * pred)
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
    p = np.atleast_2d(np.asarray(pmfs, dtype=np.float64))
    value = 0.0
    grad = np.zeros_like(p)
    parts = {"likelihood": 0.0, "pairwise": 0.0, "calibration": 0.0}

    if weights.alpha > 0.0:
        lv, lg = likelihood_loss(p, batch)
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
        cv, cg = calibration_loss(p, batch)
        value += weights.gamma * cv
        grad += weights.gamma * cg
        parts["calibration"] = cv

    return float(value), grad, parts
