"""Censoring-aware evaluation metrics.

All metrics read raw observed times through :func:`~binsurv.data.check_outcomes`,
so each rejects a time that is not finite and > 0, an event other than 0 or 1
and times and events of unequal lengths; those that rank risk scores also
reject a NaN or infinite score.  An evaluation grid must be non-empty, finite,
positive and strictly increasing.  Inverse-probability-of-censoring weights come
from the censoring curve ``kaplan_meier(times, 1 - events)`` at left limits
(the weight at t uses the step value just before t).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .data import (SurvivalDataset, TimeGrid, assign_bin, check_outcomes, check_paired,
                   normalize_time, write_table)
from .model import ModelParams, apply_head, forward, predict_risk, predict_survival


class UndefinedMetricError(ValueError):
    """A metric has no defined value on the given data."""


@dataclass(eq=False)
class KMCurve:
    """Product-limit estimate: right-continuous step function over knots."""

    times: np.ndarray      # ascending observed times that hold a flagged row
    survival: np.ndarray   # S(t) at and after each knot

    def survival_at(self, t):
        """S(t), right-continuous."""
        idx = np.searchsorted(self.times, np.asarray(t, dtype=np.float64), side="right")
        return self._lookup(idx)

    def survival_before(self, t):
        """Left limit S(t-): the step value just before t, used for weights."""
        idx = np.searchsorted(self.times, np.asarray(t, dtype=np.float64), side="left")
        return self._lookup(idx)

    def _lookup(self, idx):
        """S after the first ``idx`` knots: 1.0 before any, and on no knots."""
        return np.concatenate(([1.0], self.survival))[idx]


def kaplan_meier(times, events) -> KMCurve:
    """Kaplan-Meier estimate of the distribution of the rows flagged 1.

    ``kaplan_meier(times, events)`` is the event curve.  The censoring curve
    is ``kaplan_meier(times, 1 - events)``: censorings count as the terminal
    occurrences and events drop out of the risk set.  Its knots, the times
    that hold a flagged row, and their d and nt are those of the tables
    :func:`_time_blocks` builds for this call.
    """
    b = _time_blocks(times, events)
    if b.order.size == 0:
        raise ValueError("kaplan_meier needs at least one sample")
    return KMCurve(times=b.times, survival=np.cumprod(1.0 - b.d / b.nt))


def c_index(scores, times, events) -> float:
    """Harrell's concordance over pairs (event_i = 1, t_i < t_j).

    A pair is concordant when the shorter-lived sample scores strictly
    higher; tied scores earn half credit.  Pairs are counted, not visited:
    a sort by time, a merge count of later-and-lower-scored samples, and a
    sort of (score, time) ranks for the tied scores, the time ranks counted
    along the time-sorted rows, in O(n log n).  The counts are exact
    integers, so the result does not depend on the order of summation.
    """
    s, t, e = _scored(scores, times, events)
    # time order; same-time samples by score, so none is later and lower
    order = np.lexsort((s, t))
    s, t, is_event = s[order], t[order], e[order] == 1
    den = int((t.size - np.searchsorted(t, t[is_event], side="right")).sum())
    if den == 0:
        raise UndefinedMetricError("no comparable pairs for the concordance index "
                                   "(no event is followed by a later time)")
    lower = _later_lower_count(s, is_event)
    n = t.size
    t_rank = np.cumsum(np.concatenate(([False], t[1:] != t[:-1])))
    s_rank = np.unique(s, return_inverse=True)[1]
    key = s_rank * n + t_rank
    sorted_key = np.sort(key)
    ev_key = key[is_event]
    last_of_score = ev_key - t_rank[is_event] + (n - 1)
    tied = int((np.searchsorted(sorted_key, last_of_score, side="right")
                - np.searchsorted(sorted_key, ev_key, side="right")).sum())
    return float((lower + 0.5 * tied) / den)


def _later_lower_count(s, is_event) -> int:
    """Sum over events i of #{j > i : s[j] < s[i]}, by merge counting.

    Top down over the bits of the position: the sequence is kept in
    (position block, score) order, and at each level every block splits
    stably into its two halves.  A left-half event then counts the
    right-half samples ahead of it in its block, which are exactly its
    later partners with a lower score.  O(n) per level, O(n log n) in all.
    """
    n = s.size
    index = np.arange(n)
    seq = np.argsort(s, kind="stable")
    total = 0
    for level in reversed(range((n - 1).bit_length())):
        right = (seq >> level) & 1
        ahead = np.cumsum(right) - right
        block = (seq >> (level + 1)) << (level + 1)
        ahead -= ahead[block]
        total += int(ahead[(right == 0) & is_event[seq]].sum())
        half = (seq >> level) << level
        dest = half + np.where(right == 1, ahead, index - block - ahead)
        seq[dest] = seq.copy()
    return total


def _checked_grid(t_grid) -> np.ndarray:
    """``t_grid`` as a float64 array, which must be a non-empty, finite,
    positive and strictly increasing list of evaluation times."""
    t_grid = np.asarray(t_grid, dtype=np.float64)
    if (t_grid.ndim != 1 or t_grid.size == 0 or not np.isfinite(t_grid).all()
            or t_grid[0] <= 0.0 or np.any(np.diff(t_grid) <= 0)):
        raise ValueError("the evaluation grid must be a non-empty, finite, positive "
                         f"and strictly increasing list of times, got {t_grid.tolist()!r}")
    return t_grid


def brier_score_t(pmfs, times, events, t_grid, grid: TimeGrid) -> np.ndarray:
    """Censoring-weighted squared error of survival predictions at each t*
    of a strictly increasing grid ``t_grid``.

    Samples with an event at or before t* contribute S_hat(t*)^2 weighted
    by 1/G(t_i-); samples still under observation contribute
    (1 - S_hat(t*))^2 weighted by 1/G(t*-); samples censored before t*
    contribute nothing.  G, the rows' censoring Kaplan-Meier curve, is fitted
    and read once.  Per-sample survival is read from the pmf at the bin
    containing t*.  No sample is dropped: G falls to zero only at a time
    where every row still at risk is censored, so G(t_i-) > 0 for an event
    row i, and G(t*-) = 0 only when no row is still under observation.
    """
    t_grid = _checked_grid(t_grid)
    p = np.atleast_2d(np.asarray(pmfs, dtype=np.float64))
    t, e = check_outcomes(times, events)
    n = t.size
    if p.shape[0] != n:
        raise ValueError(f"pmfs must have one row per time, got {p.shape[0]} for {n}")
    censoring = kaplan_meier(t, 1 - e)
    g_i = censoring.survival_before(t)
    is_event = e == 1
    g_stars = censoring.survival_before(t_grid).tolist()
    k_stars = assign_bin(normalize_time(t_grid, grid), grid.k_bins).tolist()
    scores = []
    for t_star, g_star, k_star in zip(t_grid.tolist(), g_stars, k_stars):
        surv = predict_survival(p, k_star)
        had_event = (t <= t_star) & is_event
        total = (surv[had_event] ** 2 / g_i[had_event]).sum()
        # G(t*-) = 0 only when no row is under observation, an empty sum
        if g_star > 0.0:
            total += ((1.0 - surv[t > t_star]) ** 2).sum() / g_star
        scores.append(float(total / n))
    return np.asarray(scores)


def _grid_mean(ys, xs) -> float:
    """Trapezoidal integral of ys over xs divided by the span of xs.

    A constant curve averages to itself; a single point returns its value.
    """
    ys = np.asarray(ys, dtype=np.float64)
    xs = np.asarray(xs, dtype=np.float64)
    if xs.size == 1:
        return float(ys[0])
    area = float((0.5 * (ys[1:] + ys[:-1]) * np.diff(xs)).sum())
    return area / float(xs[-1] - xs[0])


def ibs(pmfs, times, events, t_grid, grid: TimeGrid) -> float:
    """Brier score averaged over an evaluation grid (trapezoidal rule).

    The integral over [t_grid[0], t_grid[-1]] is divided by the grid span, so
    a constant Brier curve averages to itself.  A single-point grid returns
    the pointwise score.
    """
    return _grid_mean(brier_score_t(pmfs, times, events, t_grid, grid), t_grid)


def tdauc(scores, times, events, t_grid) -> np.ndarray:
    """Time-dependent AUC at each t of ``t_grid``: cumulative cases vs
    dynamic controls.

    Cases are samples with an event at or before t, controls are samples
    observed beyond t; the statistic is the Mann-Whitney probability that a
    case outscores a control, ties counting half, from the cases' midranks.
    One sort puts the scores in tie blocks, and a ``bincount`` per time
    counts the cases and controls in each.
    """
    t_grid = _checked_grid(t_grid)
    s, tm, e = _scored(scores, times, events)
    is_event = e == 1
    distinct, block = np.unique(s, return_inverse=True)  # tie block of each row
    values = []
    for t in t_grid.tolist():
        cases = (tm <= t) & is_event
        controls = tm > t
        n_cases = int(cases.sum())
        n_controls = int(controls.sum())
        if n_cases == 0 or n_controls == 0:
            raise UndefinedMetricError(f"no cases or no controls at t={t!r}")
        in_case = np.bincount(block[cases], minlength=distinct.size)
        pooled = np.bincount(block[cases | controls], minlength=distinct.size)
        below = np.cumsum(pooled) - pooled
        # c pooled rows above b others share the midrank (2b + c + 1) / 2; the
        # sum is exact, so it is the float that adding the midranks gives
        rank_sum = int((in_case * (2 * below + pooled + 1)).sum()) / 2
        values.append(float((rank_sum - n_cases * (n_cases + 1) / 2.0)
                            / (n_cases * n_controls)))
    return np.asarray(values)


def _tdauc_curve(scores, times, events, t_grid):
    """(times, values, mean) of TDAUC over the points of ``t_grid`` that have
    cases and controls, those t with earliest event time <= t < latest time;
    the mean is the mean TDAUC."""
    s, tm, e = _scored(scores, times, events)
    t_grid = _checked_grid(t_grid)
    first_event = tm[e == 1].min(initial=np.inf)
    ts = t_grid[(first_event <= t_grid) & (t_grid < tm.max(initial=-np.inf))]
    if ts.size == 0:
        raise UndefinedMetricError("no evaluable time points for mean TDAUC (no grid "
                                   "time at or after the first event and before the "
                                   "last time)")
    values = tdauc(s, tm, e, ts)
    return ts, values, float(np.mean(values))


def m_tdauc(scores, times, events, t_grid) -> float:
    """Mean TDAUC over the evaluable grid points (empty case/control sets skipped)."""
    return _tdauc_curve(scores, times, events, t_grid)[2]


def _scored(scores, times, events):
    """Finite float64 ``scores`` of the rows' length, then ``times`` and
    ``events`` as :func:`~binsurv.data.check_outcomes` returns them."""
    check_paired("scores, times and events", scores, times, events)
    s = np.asarray(scores, dtype=np.float64)
    if not np.isfinite(s).all():
        raise ValueError("scores must be finite")
    return (s, *check_outcomes(times, events))


# (times, events, _TimeBlocks) of the rows a running select_cutoff searches,
# read only by calls given those very arrays; None whenever no search runs
_search = None


@dataclass(frozen=True, eq=False)
class _TimeBlocks:
    """The time-order tables of a fixed set of rows: what the log-rank tables
    share for any group, and the whole of the rows' Kaplan-Meier curve.

    The knots are the tie blocks, in time order, that hold an event.
    """

    order: np.ndarray         # stable time order of the rows
    start: np.ndarray         # first time-ordered row of each knot's block
    times: np.ndarray         # the time of each knot
    at_risk: np.ndarray       # nt: rows at or after each knot, int64
    event_rows: np.ndarray    # the time-ordered rows with an event
    d: np.ndarray             # events at each knot, float64
    nt: np.ndarray            # at_risk as float64
    m: int                    # knots whose risk set holds more than one row
    nt_less_d: np.ndarray     # (nt - d)[:m]
    nt_less_1: np.ndarray     # (nt - 1.0)[:m]


def _time_blocks(times, events) -> _TimeBlocks:
    """The group-free tables of the rows ``times``, ``events``, read by
    :func:`_log_rank_tables` and :func:`kaplan_meier` alike.

    The rows are checked and sorted by time, stably; running counts of
    events (0 or 1, so counted as they are), read at the edges of that
    order's tie blocks, give each block's events.
    """
    t, e = check_outcomes(times, events)
    n = t.size
    order = np.argsort(t, kind="stable")
    t, e = t[order], e[order]
    edge = np.empty(n + 1, dtype=bool)
    edge[0] = edge[-1] = True
    np.not_equal(t[1:], t[:-1], out=edge[1:-1])
    edge = np.flatnonzero(edge)  # block b holds sorted rows edge[b]:edge[b + 1]
    before = np.empty(n + 1, dtype=np.int64)  # before[i]: events ahead of row i
    before[0] = 0
    np.cumsum(e, out=before[1:])
    hits = before[edge]
    d = hits[1:] - hits[:-1]
    knot = np.flatnonzero(d != 0)
    start = edge[knot]
    at_risk = n - start
    d = d[knot].astype(np.float64)
    nt = at_risk.astype(np.float64)
    # nt falls along the knots, so the risk sets of more than one row lead
    m = int(np.count_nonzero(nt > 1))
    return _TimeBlocks(order, start, t[start], at_risk, np.flatnonzero(e), d, nt,
                       m, nt[:m] - d[:m], nt[:m] - 1.0)


def _log_rank_tables(times, events, group):
    """Observed/expected/variance pieces of the two-group log-rank statistic.

    ``group`` is a boolean mask of the group-a rows; the rest form group b.
    The time order, the knots, their events d and risk sets nt come from
    :func:`_time_blocks`: those :func:`select_cutoff` built for the very
    arrays ``times`` and ``events`` while it searches them, else built for
    this call.  The group's work follows: the mask is gathered into that order;
    one running count of it gives n1 at each knot, group a's size less its
    rows in earlier blocks; n2 = nt - n1; and O1 counts group a's rows among
    the event rows.  The counts are sums over whole tie blocks, so the order
    of rows inside a block does not change them.  Knots, counts and the
    float expressions are those of a binary search per knot, so the five
    values match it bit for bit.
    """
    check_paired("times, events and group", times, events, group)
    search = _search  # read once: another thread's search may end meanwhile
    if search is not None and search[0] is times and search[1] is events:
        b = search[2]
    else:
        b = _time_blocks(times, events)
    in_a = np.asarray(group, dtype=bool)[b.order]
    n = in_a.size
    n_a = int(np.count_nonzero(in_a))
    if n_a == 0 or n_a == n:
        raise ValueError("both groups must be non-empty")
    before = np.empty(n + 1, dtype=np.int64)  # before[i]: group-a rows ahead of row i
    before[0] = 0
    np.cumsum(in_a, out=before[1:])
    n1 = n_a - before[b.start]
    n2 = b.at_risk - n1
    o1 = int(np.count_nonzero(in_a[b.event_rows]))  # group a's events
    e1 = float((b.d * n1 / b.nt).sum())
    m, nt = b.m, b.nt[:b.m]
    v = float((b.d[:m] * (n1[:m] / nt) * (n2[:m] / nt) * b.nt_less_d / b.nt_less_1).sum())
    n_events = b.event_rows.size
    return float(o1), e1, float(n_events - o1), float(n_events - e1), v


def log_rank(times, events, group) -> float:
    """Two-group log-rank chi-square statistic (O - E)^2 / V of the ``group``
    rows against the rest."""
    o1, e1, _o2, _e2, v = _log_rank_tables(times, events, group)
    if v == 0.0:
        return 0.0
    return float((o1 - e1) ** 2 / v)


def select_cutoff(scores, times, events, min_group_frac: float = 0.1) -> float:
    """Risk cutoff with the largest log-rank separation.

    Candidates are midpoints between consecutive distinct scores; candidates
    leaving either group below ``min_group_frac`` of the samples (a value in
    [0, 0.5]) are discarded.  Ties in the statistic keep the smaller cutoff.

    The high group only shrinks as the candidates ascend, so the admissible
    ones form one range, found by one ``searchsorted`` over the sorted
    scores.  ``log_rank`` is called once per admissible candidate with the
    high rows as its group.  The search builds its rows' tables once and
    publishes them for its own calls (see :func:`_log_rank_tables`), so each
    call does only its group's O(n) work: O(m n) for m candidates and n rows.
    """
    global _search
    s, t, e = _scored(scores, times, events)
    if not 0.0 <= min_group_frac <= 0.5:
        raise ValueError(f"min_group_frac must be a finite value in [0, 0.5], "
                         f"got {min_group_frac!r}")
    n = s.size
    ordered = np.sort(s)
    distinct = np.ones(n, dtype=bool)  # the first of each run of equal scores
    np.not_equal(ordered[1:], ordered[:-1], out=distinct[1:])
    uniq = ordered[distinct]
    if uniq.size < 2:
        raise UndefinedMetricError("cutoff selection needs at least two distinct scores")
    min_count = max(1, math.ceil(min_group_frac * n))
    candidates = (uniq[:-1] + uniq[1:]) / 2.0
    # rows scoring above each candidate
    n_high = n - np.searchsorted(ordered, candidates, side="right")
    first = np.count_nonzero(n_high > n - min_count)
    stop = np.count_nonzero(n_high >= min_count)
    if first >= stop:
        raise UndefinedMetricError(
            "no cutoff keeps both groups above the minimum group size"
        )
    _search = (t, e, _time_blocks(t, e))
    try:
        stats = [log_rank(t, e, s > cut) for cut in candidates[first:stop]]
    finally:
        _search = None
    return float(candidates[first + int(np.argmax(stats))])  # the first maximum


def hazard_ratio(scores, times, events, cutoff: float) -> float:
    """Observed/expected hazard ratio of the high-risk vs low-risk group.

    Degenerate groups (zero observed events on either side) report 0 or
    +inf and emit a warning instead of failing.
    """
    s, t, e = _scored(scores, times, events)
    high = s > cutoff
    if not high.any() or high.all():
        raise UndefinedMetricError("cutoff must split the samples into two non-empty groups")
    o_h, e_h, o_l, e_l, _v = _log_rank_tables(t, e, high)
    if o_h == 0.0:
        warnings.warn("hazard ratio degenerate: no events in the high-risk group",
                      RuntimeWarning)
        return 0.0
    if o_l == 0.0:
        warnings.warn("hazard ratio degenerate: no events in the low-risk group",
                      RuntimeWarning)
        return math.inf
    return float((o_h / e_h) / (o_l / e_l))


@dataclass(eq=False)
class EvalReport:
    """Bundle of held-out metrics plus the curves behind them."""

    c_index: float
    ibs: float
    m_tdauc: float
    hazard_ratio: float
    cutoff: float
    cutoff_source: str
    eval_times: np.ndarray
    brier_curve: np.ndarray
    tdauc_times: np.ndarray
    tdauc_curve: np.ndarray


def default_eval_times(grid: TimeGrid) -> np.ndarray:
    """Interior bin edges (raw time) below the largest training event time,
    then that time itself: strictly increasing, and every one exceeds t_min > 0."""
    edges = grid.interior_boundaries()
    return np.append(edges[edges < grid.t_max], grid.t_max)


def evaluate_model(params: ModelParams, dataset: SurvivalDataset, grid: TimeGrid,
                   cutoff: float | None = None) -> EvalReport:
    """Score a trained model on a dataset binned with the training grid.

    Nothing is fitted on the scored rows.  The hazard ratio splits them at
    ``cutoff``, the risk cutoff selected on the training rows; it is nan
    when no cutoff is given, and nan with a warning when every scored row
    falls on one side of the cutoff.
    """
    logits, _ = forward(params, dataset.features, mode="eval")
    pmfs = apply_head(logits)
    risks = predict_risk(pmfs)
    times = dataset.times
    events = dataset.events

    cindex = c_index(risks, times, events)
    eval_times = default_eval_times(grid)
    brier = brier_score_t(pmfs, times, events, eval_times, grid)
    ibs_value = _grid_mean(brier, eval_times)
    td_times, td_vals, mean_tdauc = _tdauc_curve(risks, times, events, eval_times)

    if cutoff is None:
        cutoff, cutoff_source, hr = math.nan, "none", math.nan
    else:
        cutoff, cutoff_source = float(cutoff), "checkpoint"
        try:
            hr = hazard_ratio(risks, times, events, cutoff)
        except UndefinedMetricError:
            empty = "low-risk" if np.all(risks > cutoff) else "high-risk"
            warnings.warn(f"hazard ratio undefined: the {empty} group at the "
                          f"training cutoff {cutoff!r} is empty", RuntimeWarning)
            hr = math.nan

    return EvalReport(
        c_index=cindex, ibs=ibs_value, m_tdauc=mean_tdauc,
        hazard_ratio=hr, cutoff=cutoff, cutoff_source=cutoff_source,
        eval_times=eval_times, brier_curve=brier,
        tdauc_times=td_times, tdauc_curve=td_vals,
    )


def write_report_csv(report: EvalReport, path) -> None:
    names = ("c_index", "ibs", "m_tdauc", "hazard_ratio", "cutoff", "cutoff_source")
    write_table(path, names, [[getattr(report, name) for name in names]])


def write_curve_csv(path, times, values, value_name: str) -> None:
    write_table(path, ("time", value_name), zip(times, values))
