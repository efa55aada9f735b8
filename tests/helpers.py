"""Shared fixtures: finite differences, random batches, brute-force oracles."""

from __future__ import annotations

import csv
import math
import os
import re
import subprocess
import sys
import warnings
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from binsurv.data import (
    CsvFormatError, SurvivalDataset, bin_dataset, bin_midpoints, build_time_grid,
)
from binsurv.losses import LossWeights, combined_loss
from binsurv.metrics import kaplan_meier
from binsurv.model import (
    BN_EPS, BN_MOMENTUM, ModelParams, apply_head, backward, forward, head_backward,
)

GRAD_FLOOR = 1e-4  # relative-error denominator floor for near-zero gradients
README = Path(__file__).resolve().parents[1] / "README.md"
SRC = README.parent / "src"


def readme_python_blocks() -> list[str]:
    """The source of every ```python block of README.md, in order."""
    return re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"),
                      re.DOTALL)


def run_fresh(code: str, cwd) -> subprocess.CompletedProcess:
    """Run the Python source ``code`` in a new interpreter in ``cwd``, with
    this checkout's ``src`` first on PYTHONPATH; its output is captured."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-c", code], cwd=cwd,
                          env={**os.environ, "PYTHONPATH": path},
                          capture_output=True, text=True, timeout=600)


def random_dataset(rng, n, n_features=3, censor_frac=0.3, censored_low=False):
    """Random survival data; censored_low keeps censored times in the lower
    half of the range so none can land in the last bin."""
    times = rng.uniform(0.5, 10.0, size=n)
    events = (rng.random(n) >= censor_frac).astype(np.int64)
    events[:2] = 1
    times[0], times[1] = 1.0, 9.0  # two distinct event times for the grid
    if censored_low:
        cens = events == 0
        times[cens] = rng.uniform(0.5, 4.0, size=int(cens.sum()))
    features = rng.standard_normal((n, n_features))
    names = tuple(f"x{i + 1}" for i in range(n_features))
    return SurvivalDataset(features=features, times=times, events=events,
                           feature_names=names)


def random_batch(rng, n, k_bins=5, n_features=3, censor_frac=0.3,
                 censored_low=False):
    ds = random_dataset(rng, n, n_features, censor_frac, censored_low)
    grid = build_time_grid(ds, k_bins)
    return ds, grid, bin_dataset(ds, grid)


def random_pmfs(rng, n, k):
    z = rng.standard_normal((n, k))
    e = np.exp(z - z.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True)


def max_rel_err(analytic: dict, numeric: dict, floor: float = GRAD_FLOOR) -> float:
    worst = 0.0
    for name in numeric:
        a, b = np.asarray(analytic[name]), np.asarray(numeric[name])
        denom = np.maximum(np.maximum(np.abs(a), np.abs(b)), floor)
        worst = max(worst, float(np.max(np.abs(a - b) / denom)))
    return worst


def rel_err_arr(a, b, floor: float = GRAD_FLOOR) -> float:
    a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    denom = np.maximum(np.maximum(np.abs(a), np.abs(b)), floor)
    return float(np.max(np.abs(a - b) / denom))


def composite_value(params: ModelParams, x, batch, weights: LossWeights,
                    seed) -> float:
    logits, _ = forward(params, x, mode="train", seed=seed)
    pmfs = apply_head(logits)
    value, _, _ = combined_loss(pmfs, batch, weights)
    return value


def composite_grads(params: ModelParams, x, batch, weights: LossWeights, seed):
    logits, cache = forward(params, x, mode="train", seed=seed)
    pmfs = apply_head(logits)
    value, grad_pmf, _ = combined_loss(pmfs, batch, weights)
    grad_logits = head_backward(pmfs, grad_pmf)
    return value, backward(params, cache, grad_logits)


def fd_param_grads(loss_fn, params: ModelParams, names, h: float = 1e-5):
    """Central finite differences over every entry of the tensors in
    ``names``, the ones ``backward`` returns gradients for."""
    grads = {}
    for name in names:
        w = params.tensors[name]
        g = np.zeros_like(w)
        it = np.nditer(w, flags=["multi_index"])
        for _ in it:
            idx = it.multi_index
            orig = w[idx]
            w[idx] = orig + h
            up = loss_fn(params)
            w[idx] = orig - h
            dn = loss_fn(params)
            w[idx] = orig
            g[idx] = (up - dn) / (2.0 * h)
        grads[name] = g
    return grads


def fd_input_grad(value_fn, x, h: float = 1e-6):
    """Central finite differences of a scalar function of an array input."""
    x = np.array(x, dtype=np.float64)
    g = np.zeros_like(x)
    it = np.nditer(x, flags=["multi_index"])
    for _ in it:
        idx = it.multi_index
        orig = x[idx]
        x[idx] = orig + h
        up = value_fn(x)
        x[idx] = orig - h
        dn = value_fn(x)
        x[idx] = orig
        g[idx] = (up - dn) / (2.0 * h)
    return g


def slow_km_survival_before(times, events, t_query, flip=False):
    """Independent product-limit left-limit: plain python loops."""
    return _slow_km(times, events, lambda knot: knot < t_query, flip)


def slow_km_survival_at(times, events, t_query, flip=False):
    """The right-continuous twin of :func:`slow_km_survival_before`."""
    return _slow_km(times, events, lambda knot: knot <= t_query, flip)


def _slow_km(times, events, reached, flip):
    """Product of the KM factors of the times that ``reached`` accepts."""
    pairs = sorted(zip(times, events))
    surv = 1.0
    for knot in sorted(set(times)):
        if not reached(knot):
            break
        at_risk = sum(1 for tt, _ in pairs if tt >= knot)
        hits = sum(1 for tt, ee in pairs
                   if tt == knot and ((ee == 0) if flip else (ee == 1)))
        surv *= 1.0 - hits / at_risk
    return surv


def km_baseline_pmf(train, grid):
    """The training split's Kaplan-Meier curve as one pmf on the time grid.

    Survival past bin k is the KM survival at the bin's upper edge, so bin k
    holds the KM drop across its edges and the last bin holds what survives
    past the last interior edge.  Tiled over the rows of a split, it is the
    covariate-free baseline that a model's IBS is gated against.
    """
    km = kaplan_meier(train.times, train.events)
    surv = np.concatenate([[1.0], km.survival_at(grid.interior_boundaries())])
    return np.append(-np.diff(surv), surv[-1])


def slow_brier(pmfs, times, events, t_star, grid):
    """Direct per-sample summation of the censoring-weighted squared error."""
    from binsurv.data import assign_bin, normalize_time
    from binsurv.model import predict_survival

    k_star = assign_bin(normalize_time(t_star, grid), grid.k_bins)
    surv = predict_survival(np.atleast_2d(pmfs), k_star)
    n = len(times)
    total = 0.0
    g_star = slow_km_survival_before(times, events, t_star, flip=True)
    for i in range(n):
        if times[i] <= t_star and events[i] == 1:
            g_i = slow_km_survival_before(times, events, times[i], flip=True)
            if g_i > 0:
                total += surv[i] ** 2 / g_i
        elif times[i] > t_star:
            if g_star > 0:
                total += (1.0 - surv[i]) ** 2 / g_star
    return total / n


def reference_brier_curve(pmfs, times, events, t_grid, grid):
    """Brier score at each grid time, one pass per time that reads its own
    weights from the Kaplan-Meier curve of the rows' censoring times: the
    per-time form ``metrics.brier_score_t`` replaced.  Every weight read is
    positive: each event row is at risk at its own time, and a row beyond t*
    keeps the censoring curve above 0 before t*.
    """
    from binsurv.data import assign_bin, normalize_time
    from binsurv.model import predict_survival

    t_grid = np.asarray(t_grid, dtype=np.float64)
    p = np.atleast_2d(np.asarray(pmfs, dtype=np.float64))
    t = np.asarray(times, dtype=np.float64)
    e = np.asarray(events, dtype=np.int64)
    censoring = kaplan_meier(t, 1 - e)
    n = t.size
    curve = []
    for t_star in t_grid:
        t_star = float(t_star)
        k_star = assign_bin(normalize_time(t_star, grid), grid.k_bins)
        surv = predict_survival(p, k_star)
        g_i = np.asarray(censoring.survival_before(t))
        g_star = float(censoring.survival_before(t_star))

        had_event = (t <= t_star) & (e == 1)
        still_out = t > t_star
        total = (surv[had_event] ** 2 / g_i[had_event]).sum()
        if np.any(still_out):
            total += ((1.0 - surv[still_out]) ** 2).sum() / g_star
        curve.append(float(total / n))
    return np.asarray(curve)


def _midranks(x: np.ndarray) -> np.ndarray:
    """1-based ranks with ties averaged."""
    order = np.argsort(x, kind="mergesort")
    sx = x[order]
    boundaries = np.flatnonzero(np.r_[True, sx[1:] != sx[:-1], True])
    starts, ends = boundaries[:-1], boundaries[1:]
    group_rank = (starts + 1 + ends) / 2.0
    ranks = np.empty(x.size, dtype=np.float64)
    ranks[order] = np.repeat(group_rank, ends - starts)
    return ranks


def reference_tdauc(scores, times, events, t: float) -> float:
    """TDAUC at one time ``t`` from a fresh midrank sort of its cases and
    controls: the per-time form ``metrics.tdauc`` replaced."""
    from binsurv.metrics import UndefinedMetricError

    s = np.asarray(scores, dtype=np.float64)
    tm = np.asarray(times, dtype=np.float64)
    e = np.asarray(events, dtype=np.int64)
    cases = (tm <= t) & (e == 1)
    controls = tm > t
    n_cases = int(cases.sum())
    n_controls = int(controls.sum())
    if n_cases == 0 or n_controls == 0:
        raise UndefinedMetricError(f"no cases or no controls at t={t!r}")
    pooled = np.concatenate([s[cases], s[controls]])
    ranks = _midranks(pooled)
    rank_sum = ranks[:n_cases].sum()
    return float((rank_sum - n_cases * (n_cases + 1) / 2.0) / (n_cases * n_controls))


def brute_c_index(scores, times, events):
    """O(n^2) concordance for cross-checking the fast implementation."""
    s = np.asarray(scores, dtype=np.float64)
    t = np.asarray(times, dtype=np.float64)
    e = np.asarray(events, dtype=np.int64)
    num, den = 0.0, 0
    n = t.size
    for i in range(n):
        if e[i] != 1:
            continue
        for j in range(n):
            if t[i] < t[j]:
                den += 1
                if s[i] > s[j]:
                    num += 1.0
                elif s[i] == s[j]:
                    num += 0.5
    if den == 0:
        return None
    return num / den


def brute_tdauc(scores, times, events, t):
    """O(n^2) cumulative/dynamic AUC for cross-checking."""
    s = np.asarray(scores, dtype=np.float64)
    tt = np.asarray(times, dtype=np.float64)
    e = np.asarray(events, dtype=np.int64)
    cases = np.flatnonzero((tt <= t) & (e == 1))
    controls = np.flatnonzero(tt > t)
    if cases.size == 0 or controls.size == 0:
        return None
    num = 0.0
    for i in cases:
        for j in controls:
            if s[i] > s[j]:
                num += 1.0
            elif s[i] == s[j]:
                num += 0.5
    return num / (cases.size * controls.size)


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


def brute_rank_loss(pmfs, batch, sigma=1.0, magnitude=False):
    """rank_loss by enumerating every comparable pair.

    ``magnitude=True`` adds the partner side with the anchor side's sign, so
    the gradient becomes, up to sign, the per-entry sum of |pair
    contributions|: the scale of the rounding error of any summation order.
    """
    p = np.atleast_2d(np.asarray(pmfs, dtype=np.float64))
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
    acc = np.zeros_like(p)
    np.add.at(acc, (pairs.i, ki), w)
    np.add.at(acc, (pairs.j, ki), w if magnitude else -w)
    grad = np.cumsum(acc[:, ::-1], axis=1)[:, ::-1]
    return value, grad


def brute_time_rank_loss(risks, batch, sigma=1.0, rho=1.0, magnitude=False):
    """time_rank_loss by enumerating every comparable pair; ``magnitude`` as
    in brute_rank_loss."""
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
    np.add.at(grad, pairs.j, w if magnitude else -w)
    return value, grad


def reference_calibration_loss(pmfs, batch, n_intervals):
    """The interval form that ``losses.calibration_loss`` replaced: ratios
    over ``n_intervals`` equal-width intervals of normalized time, each bin's
    mass placed by its midpoint and each sample by its normalized time."""
    p = np.atleast_2d(np.asarray(pmfs, dtype=np.float64))
    k = p.shape[1]
    edges = np.linspace(0.0, 1.0, n_intervals + 1)
    mid_iv = np.searchsorted(edges, bin_midpoints(k), side="right") - 1
    t_iv = np.searchsorted(edges, batch.t_norm, side="right") - 1

    col_mass = p.sum(axis=0)
    mass_per_iv = np.bincount(mid_iv, weights=col_mass, minlength=n_intervals)
    pred_den = np.cumsum(mass_per_iv[::-1])[::-1]
    ev_count = np.bincount(t_iv[batch.events == 1],
                           minlength=n_intervals).astype(np.float64)
    obs_den = np.cumsum(
        np.bincount(t_iv, minlength=n_intervals)[::-1])[::-1].astype(np.float64)

    valid = (pred_den > 0.0) & (obs_den > 0.0)
    if not np.any(valid):
        return 0.0, np.zeros_like(p)
    pred = np.zeros(n_intervals)
    pred[valid] = mass_per_iv[valid] / pred_den[valid]
    obs = np.zeros(n_intervals)
    obs[valid] = ev_count[valid] / obs_den[valid]
    diff = np.where(valid, pred - obs, 0.0)
    n_valid = int(valid.sum())
    value = float((diff ** 2).sum() / n_valid)

    c_g = np.where(valid, 2.0 * diff / n_valid, 0.0)
    a_vec = np.where(valid, c_g / np.where(valid, pred_den, 1.0), 0.0)
    b_cum = np.cumsum(a_vec * pred)
    col_grad = a_vec[mid_iv] - b_cum[mid_iv]
    return value, np.broadcast_to(col_grad, p.shape).copy()


def pair_count_c_index(scores, times, events):
    """O(n^2) concordance counted with broadcast comparisons, no Python loop."""
    s = np.asarray(scores, dtype=np.float64)
    t = np.asarray(times, dtype=np.float64)
    e = np.asarray(events, dtype=np.int64)
    comparable = (e[:, None] == 1) & (t[:, None] < t[None, :])
    den = int(comparable.sum())
    if den == 0:
        return None
    higher = int((comparable & (s[:, None] > s[None, :])).sum())
    tied = int((comparable & (s[:, None] == s[None, :])).sum())
    return (higher + 0.5 * tied) / den


def reference_log_rank_tables(times_a, events_a, times_b, events_b):
    """The searchsorted log-rank tables that ``metrics._log_rank_tables``
    replaced, kept as the oracle for its five values, bit for bit.

    Knots are the distinct event times of both groups; at each knot, n1 and
    n2 count each group's rows at or after it and d1, d2 its events there.
    """
    ta = np.asarray(times_a, dtype=np.float64)
    tb = np.asarray(times_b, dtype=np.float64)
    ea = np.asarray(events_a, dtype=np.int64)
    eb = np.asarray(events_b, dtype=np.int64)
    if ta.size == 0 or tb.size == 0:
        raise ValueError("both groups must be non-empty")
    ev_a = np.sort(ta[ea == 1])
    ev_b = np.sort(tb[eb == 1])
    knots = np.unique(np.concatenate([ev_a, ev_b]))
    if knots.size == 0:
        return 0.0, 0.0, 0.0, 0.0, 0.0
    ta_sorted = np.sort(ta)
    tb_sorted = np.sort(tb)
    n1 = ta.size - np.searchsorted(ta_sorted, knots, side="left")
    n2 = tb.size - np.searchsorted(tb_sorted, knots, side="left")
    d1 = (np.searchsorted(ev_a, knots, side="right")
          - np.searchsorted(ev_a, knots, side="left")).astype(np.float64)
    d2 = (np.searchsorted(ev_b, knots, side="right")
          - np.searchsorted(ev_b, knots, side="left")).astype(np.float64)
    nt = (n1 + n2).astype(np.float64)
    d = d1 + d2
    e1 = float((d * n1 / nt).sum())
    multi = nt > 1
    v = float((d[multi] * (n1[multi] / nt[multi]) * (n2[multi] / nt[multi])
               * (nt[multi] - d[multi]) / (nt[multi] - 1.0)).sum())
    return float(d1.sum()), e1, float(d2.sum()), float(d.sum() - e1), v


def reference_select_cutoff(scores, times, events, min_group_frac=0.1):
    """Brute-force cutoff scan over ``reference_log_rank_tables``: every
    midpoint between distinct scores, its groups by direct comparison, the
    first of the largest statistics.  None when no candidate is admissible.
    """
    s = np.asarray(scores, dtype=np.float64)
    t = np.asarray(times, dtype=np.float64)
    e = np.asarray(events, dtype=np.int64)
    uniq = np.unique(s)
    n = s.size
    min_count = max(1, math.ceil(min_group_frac * n))
    best_cut, best_stat = None, -np.inf
    for cut in (uniq[:-1] + uniq[1:]) / 2.0:
        high = s > cut
        n_high = int(high.sum())
        if n_high < min_count or n - n_high < min_count:
            continue
        o1, e1, _o2, _e2, v = reference_log_rank_tables(
            t[high], e[high], t[~high], e[~high])
        stat = 0.0 if v == 0.0 else float((o1 - e1) ** 2 / v)
        if stat > best_stat:
            best_cut, best_stat = float(cut), stat
    return best_cut


def reference_grid_reads(grid, times):
    """(normalized ``times``, interior edges, default evaluation times) of
    ``grid``, read through the chain of derived constants the grid once
    exposed, delta_t -> t_min_prime -> t_max_2 -> span; a bit-exact oracle
    for :class:`~binsurv.data.TimeGrid`'s ``origin`` and ``span``."""
    k = grid.k_bins
    delta_t = (grid.t_max - grid.t_min) / (k - 2.2)
    t_min_prime = grid.t_min - 0.1 * delta_t
    t_max_2 = t_min_prime + k * delta_t
    span = t_max_2 - t_min_prime
    t_norm = np.clip((np.asarray(times, dtype=np.float64) - t_min_prime) / span,
                     0.0, (k - 1) / k)
    edges = t_min_prime + np.arange(1, k) / k * span
    pts = [float(b) for b in edges if 0.0 < b < grid.t_max]
    pts.append(float(grid.t_max))
    return t_norm, edges, np.asarray(sorted(set(pts)), dtype=np.float64)


def reference_load_csv(path, time_column: str = "time",
                       event_column: str = "event") -> SurvivalDataset:
    """The per-cell ``float()`` CSV reader that ``load_csv`` replaced, kept
    as the oracle for its accepted values and its error messages.

    Every non-time, non-event column is a numeric feature.  Validation
    failures raise :class:`CsvFormatError` naming the offending data row
    (1-based, header excluded).
    """
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise CsvFormatError(f"{path}: empty file")
        header = [h.strip() for h in header]
        for required in (time_column, event_column):
            if required not in header:
                raise CsvFormatError(f"{path}: missing column '{required}'")
        t_idx = header.index(time_column)
        e_idx = header.index(event_column)
        feat_idx = [i for i in range(len(header)) if i not in (t_idx, e_idx)]
        feature_names = [header[i] for i in feat_idx]

        rows, times, events = [], [], []
        for row_no, row in enumerate(reader, start=1):
            if len(row) != len(header):
                raise CsvFormatError(
                    f"{path}: row {row_no}: expected {len(header)} fields, got {len(row)}"
                )
            values = []
            for i, cell in enumerate(row):
                try:
                    values.append(float(cell))
                except ValueError:
                    raise CsvFormatError(
                        f"{path}: row {row_no}: non-numeric value {cell!r} "
                        f"in column '{header[i]}'"
                    ) from None
            t = values[t_idx]
            if not math.isfinite(t) or t <= 0:
                raise CsvFormatError(
                    f"{path}: row {row_no}: time must be finite and > 0 "
                    f"in column '{header[t_idx]}', got {row[t_idx]!r}"
                )
            e = values[e_idx]
            if e not in (0.0, 1.0):
                raise CsvFormatError(
                    f"{path}: row {row_no}: event must be 0 or 1 "
                    f"in column '{header[e_idx]}', got {row[e_idx]!r}"
                )
            rows.append([values[i] for i in feat_idx])
            times.append(t)
            events.append(int(e))

    if not rows:
        raise CsvFormatError(f"{path}: no data rows")
    features = np.asarray(rows, dtype=np.float64)
    # one vectorised pass instead of a per-cell check in the read loop
    nonfinite = np.argwhere(~np.isfinite(features))
    if nonfinite.size:
        row, col = nonfinite[0]
        raise CsvFormatError(
            f"{path}: row {row + 1}: non-finite value {float(features[row, col])!r} "
            f"in column '{feature_names[col]}'"
        )
    return SurvivalDataset(features, times, events, feature_names)


@dataclass(eq=False)
class ReferenceBlockCache:
    x: np.ndarray
    xhat: np.ndarray
    inv_std: np.ndarray
    gate: np.ndarray
    mask: np.ndarray | None
    keep: float


@dataclass(eq=False)
class ReferenceForwardCache:
    x0: np.ndarray
    blocks: list[ReferenceBlockCache] = field(default_factory=list)
    h_final: np.ndarray | None = None


def reference_forward(params: ModelParams, x, mode: str = "train", seed=None):
    """The allocating forward pass that ``model.forward`` replaced, kept as
    the oracle for its logits and running statistics, bit for bit.

    Every step makes a new array, train mode takes the batch mean twice
    (``z.var`` recomputes it), and each block draws its own dropout
    uniforms from the one seeded generator.
    """
    cfg = params.config
    x = np.asarray(x, dtype=np.float64)
    train = mode == "train"
    rng = None
    if train and cfg.dropout_rate > 0.0:
        rng = np.random.default_rng(seed)

    t = params.tensors
    h = x @ t["input.w"] + t["input.b"]
    cache = ReferenceForwardCache(x0=x) if train else None
    keep = 1.0 - cfg.dropout_rate

    for b in range(cfg.n_blocks):
        z = h @ t[f"block{b}.linear.w"]
        if train:
            mean = z.mean(axis=0)
            var = z.var(axis=0)
            inv_std = 1.0 / np.sqrt(var + BN_EPS)
            xhat = (z - mean) * inv_std
            t[f"block{b}.bn.mean"] *= 1.0 - BN_MOMENTUM
            t[f"block{b}.bn.mean"] += BN_MOMENTUM * mean
            t[f"block{b}.bn.var"] *= 1.0 - BN_MOMENTUM
            t[f"block{b}.bn.var"] += BN_MOMENTUM * var
        else:
            mean = t[f"block{b}.bn.mean"]
            var = t[f"block{b}.bn.var"]
            inv_std = 1.0 / np.sqrt(var + BN_EPS)
            xhat = (z - mean) * inv_std
        y = t[f"block{b}.bn.scale"] * xhat + t[f"block{b}.bn.shift"]
        a = np.maximum(y, 0.0)
        mask = None
        if train and cfg.dropout_rate > 0.0:
            mask = rng.random(a.shape) >= cfg.dropout_rate
            d = a * mask / keep
        else:
            d = a
        if train:
            cache.blocks.append(ReferenceBlockCache(
                x=h, xhat=xhat, inv_std=inv_std, gate=y > 0, mask=mask, keep=keep,
            ))
        h = h + d

    logits = h @ t["output.w"] + t["output.b"]
    if train:
        cache.h_final = h
        return logits, cache
    return logits, None


def reference_backward(params: ModelParams, cache: ReferenceForwardCache,
                       grad_logits) -> dict[str, np.ndarray]:
    """The allocating backward pass that ``model.backward`` replaced, over
    a :func:`reference_forward` cache with separate ReLU gate and dropout
    mask."""
    cfg = params.config
    t = params.tensors
    g = np.asarray(grad_logits, dtype=np.float64)

    grads: dict[str, np.ndarray] = {}
    grads["output.w"] = cache.h_final.T @ g
    grads["output.b"] = g.sum(axis=0)
    dh = g @ t["output.w"].T

    for b in range(cfg.n_blocks - 1, -1, -1):
        blk = cache.blocks[b]
        dd = dh
        if blk.mask is not None:
            da = dd * blk.mask / blk.keep
        else:
            da = dd
        dy = np.where(blk.gate, da, 0.0)
        grads[f"block{b}.bn.scale"] = (dy * blk.xhat).sum(axis=0)
        grads[f"block{b}.bn.shift"] = dy.sum(axis=0)
        dxhat = dy * t[f"block{b}.bn.scale"]
        m = dxhat.shape[0]
        dz = (blk.inv_std / m) * (
            m * dxhat
            - dxhat.sum(axis=0)
            - blk.xhat * (dxhat * blk.xhat).sum(axis=0)
        )
        grads[f"block{b}.linear.w"] = blk.x.T @ dz
        dh = dh + dz @ t[f"block{b}.linear.w"].T

    grads["input.w"] = cache.x0.T @ dh
    grads["input.b"] = dh.sum(axis=0)
    return grads


def reference_apply_head(logits) -> np.ndarray:
    """The allocating softmax that ``model.apply_head`` replaced."""
    z = np.asarray(logits, dtype=np.float64)
    z = z - z.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)
