"""Censoring-aware metrics against hand values and brute-force oracles."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import binsurv.metrics
from binsurv.data import TimeGrid, bin_dataset, build_time_grid, check_outcomes
from binsurv.metrics import (
    UndefinedMetricError, _log_rank_tables, brier_score_t, c_index, default_eval_times,
    evaluate_model, has_comparable_pair, hazard_ratio, ibs, kaplan_meier,
    log_rank, m_tdauc, select_cutoff, tdauc,
)
from binsurv.model import (
    ModelConfig, apply_head, forward, init_params, predict_risk,
)
from helpers import (
    brute_c_index, brute_tdauc, comparable_pairs, pair_count_c_index, random_dataset,
    random_pmfs, reference_brier_curve, reference_log_rank_tables,
    reference_select_cutoff, reference_tdauc, slow_brier, slow_km_survival_at,
    slow_km_survival_before,
)


# (time, event) rows on a coarse time set, so ties are common
ROWS = st.lists(st.tuples(st.sampled_from([0.5, 1.0, 1.5, 2.0]),
                          st.integers(0, 1)), max_size=12)

# before, on, between and after the knots of [1.0, 2.0, 3.0]
KM_PROBES = (0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 99.0)


def assert_km_lookups(km, at, before):
    """``km`` reads ``at`` and ``before`` at each of KM_PROBES."""
    assert km.survival_at(np.array(KM_PROBES)).tolist() == pytest.approx(at)
    assert km.survival_before(np.array(KM_PROBES)).tolist() == pytest.approx(before)


def assert_km_is_the_slow_oracles(km, times, events, probes, flip):
    """``km``'s lookups at ``probes`` equal the slow oracles' on the rows
    ``times``, ``events``: the factors and their products are the oracles',
    so the values are equal, not close."""
    rows = (list(times), list(events))
    assert km.survival_before(probes).tolist() == [
        slow_km_survival_before(*rows, q, flip) for q in probes]
    assert km.survival_at(probes).tolist() == [
        slow_km_survival_at(*rows, q, flip) for q in probes]


class TestKaplanMeier:
    def test_all_events_hand_case(self):
        km = kaplan_meier([1.0, 2.0, 3.0], [1, 1, 1])
        assert np.allclose(km.survival, [2 / 3, 1 / 3, 0.0])

    def test_censoring_mid_stream(self):
        km = kaplan_meier([1.0, 2.0, 3.0], [1, 0, 1])
        # censored sample leaves the risk set without a drop
        assert_km_lookups(km, at=[1.0, 2 / 3, 2 / 3, 2 / 3, 2 / 3, 0.0, 0.0],
                          before=[1.0, 1.0, 2 / 3, 2 / 3, 2 / 3, 2 / 3, 0.0])

    def test_censoring_target_flips_the_indicator(self):
        km = kaplan_meier([1.0, 2.0, 3.0], 1 - np.array([1, 0, 1]))
        # the event at t=1 leaves silently; the censoring at t=2 sees a
        # risk set of two
        assert_km_lookups(km, at=[1.0, 1.0, 1.0, 0.5, 0.5, 0.5, 0.5],
                          before=[1.0, 1.0, 1.0, 1.0, 0.5, 0.5, 0.5])

    def test_no_target_occurrences_stays_at_one(self):
        km = kaplan_meier([1.0, 2.0], 1 - np.array([1, 1]))
        assert km.times.size == 0
        assert_km_lookups(km, at=[1.0] * 7, before=[1.0] * 7)

    def test_survival_at_is_right_continuous(self):
        km = kaplan_meier([1.0, 2.0, 3.0], [1, 1, 1])
        assert km.survival_at(0.5) == 1.0
        assert km.survival_at(1.0) == pytest.approx(2 / 3)
        assert km.survival_at(1.5) == pytest.approx(2 / 3)
        assert km.survival_at(99.0) == 0.0

    def test_survival_before_is_the_left_limit(self):
        km = kaplan_meier([1.0, 2.0, 3.0], [1, 1, 1])
        assert km.survival_before(1.0) == 1.0
        assert km.survival_before(2.0) == pytest.approx(2 / 3)
        assert float(km.survival_before(2.5)) == pytest.approx(1 / 3)

    def test_matches_slow_oracle(self, rng):
        ds = random_dataset(rng, 80, censor_frac=0.4)
        km = kaplan_meier(ds.times, 1 - ds.events)
        for q in np.linspace(0.1, 12.0, 17):
            expect = slow_km_survival_before(ds.times.tolist(),
                                             ds.events.tolist(), q, flip=True)
            assert float(km.survival_before(q)) == pytest.approx(expect)

    def test_rejects_empty(self):
        with pytest.raises(ValueError, match="at least one sample"):
            kaplan_meier([], [])

    @given(ROWS, st.booleans())
    @example([(1.0, 0), (2.0, 0)], False)          # no flagged row
    @example([(1.0, 1), (2.0, 1)], True)           # no flagged row, flipped
    @example([(1.0, 1), (1.0, 0), (2.0, 1)], True)  # a tie of both kinds
    @settings(max_examples=200, deadline=None)
    def test_lookups_match_the_slow_oracles(self, rows, flip):
        # at every row time, between them and beyond them
        times = [r[0] for r in rows]
        events = np.array([r[1] for r in rows], dtype=np.int64)
        flagged = 1 - events if flip else events
        if not rows:
            with pytest.raises(ValueError, match="at least one sample"):
                kaplan_meier(times, flagged)
            return
        probes = [0.25, 0.5, 0.75, 1.0, 1.25, 1.5, 1.75, 2.0, 2.5]
        assert_km_is_the_slow_oracles(kaplan_meier(times, flagged), times, events,
                                      probes, flip)

    def test_scalar_lookup_is_the_array_lookup(self):
        # one return type: a scalar time comes back as a numpy value equal
        # to element 0 of the same lookup on a one-element array
        km = kaplan_meier([1.0, 2.0, 3.0], [1, 0, 1])
        for lookup in (km.survival_at, km.survival_before):
            for t in (0.5, 1.0, 2.0, 2.5, 3.0, 99.0):
                value = lookup(t)
                assert isinstance(value, (np.generic, np.ndarray))
                assert value == lookup(np.array([t]))[0]


class TestHasComparablePair:
    @given(ROWS)
    @example([])                            # empty input
    @example([(1.0, 1)])                    # one row
    @example([(0.5, 0), (2.0, 0)])          # all censored
    @example([(2.0, 1), (2.0, 1), (2.0, 0)])  # every event tied at the maximum
    @example([(1.0, 1), (2.0, 1), (2.0, 0)])
    @settings(max_examples=200, deadline=None)
    def test_matches_brute_force_pair_scan(self, rows):
        t = np.array([r[0] for r in rows], dtype=np.float64)
        e = np.array([r[1] for r in rows], dtype=np.int64)
        assert has_comparable_pair(t, e) is (len(comparable_pairs(t, e)) > 0)


# every metric entry point as a function of four rows' outcomes alone
OUTCOME_SCORES = [0.1, 0.9, 0.3, 0.4]
OUTCOME_TIMES, OUTCOME_EVENTS = [1.0, 2.0, 3.0, 4.0], [1, 1, 0, 1]
OUTCOME_PMFS = np.full((4, 10), 0.1)
OUTCOME_GRID = TimeGrid(10, 1.0, 4.0)
OUTCOME_METRICS = {
    "c_index": lambda t, e: c_index(OUTCOME_SCORES, t, e),
    "tdauc": lambda t, e: tdauc(OUTCOME_SCORES, t, e, [2.5]),
    "m_tdauc": lambda t, e: m_tdauc(OUTCOME_SCORES, t, e, [2.5]),
    "select_cutoff": lambda t, e: select_cutoff(OUTCOME_SCORES, t, e),
    "hazard_ratio": lambda t, e: hazard_ratio(OUTCOME_SCORES, t, e, 0.5),
    "log_rank": lambda t, e: log_rank(t, e, [True, False, True, False]),
    "kaplan_meier": kaplan_meier,
    "brier_score_t": lambda t, e: brier_score_t(OUTCOME_PMFS, t, e, [2.5], OUTCOME_GRID),
    "ibs": lambda t, e: ibs(OUTCOME_PMFS, t, e, [2.5], OUTCOME_GRID),
    "has_comparable_pair": has_comparable_pair,
}
TIME_MESSAGE = "times must be finite and strictly positive"
EVENT_MESSAGE = "events must be 0 or 1"
BAD_OUTCOMES = {
    "time-nan": ([1.0, 2.0, math.nan, 4.0], [1, 1, 0, 1], TIME_MESSAGE),
    "time-inf": ([1.0, 2.0, math.inf, 4.0], [1, 1, 0, 1], TIME_MESSAGE),
    "time-neg-inf": ([1.0, 2.0, -math.inf, 4.0], [1, 1, 0, 1], TIME_MESSAGE),
    "time-zero": ([1.0, 2.0, 0.0, 4.0], [1, 1, 0, 1], TIME_MESSAGE),
    "time-negative": ([1.0, 2.0, -1.0, 4.0], [1, 1, 0, 1], TIME_MESSAGE),
    "event-half": ([1.0, 2.0, 3.0, 4.0], [1, 1, 0.5, 1], EVENT_MESSAGE),
    "event-two": ([1.0, 2.0, 3.0, 4.0], [1, 1, 2, 1], EVENT_MESSAGE),
    "event-negative": ([1.0, 2.0, 3.0, 4.0], [1, 1, -1, 1], EVENT_MESSAGE),
    "events-short": ([1.0, 2.0, 3.0, 4.0], [1, 1, 0], "must be 1-d arrays of one length"),
}


class TestScoreCheck:
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("metric", [
        c_index,
        lambda s, t, e: tdauc(s, t, e, [2.5]),
        select_cutoff,
        lambda s, t, e: hazard_ratio(s, t, e, 0.5),
    ], ids=["c_index", "tdauc", "select_cutoff", "hazard_ratio"])
    def test_non_finite_scores_rejected(self, metric, value):
        scores = [0.1, 0.9, value, 0.4]
        with pytest.raises(ValueError, match="scores must be finite"):
            metric(scores, [1.0, 2.0, 3.0, 4.0], [1, 1, 0, 1])

    @pytest.mark.parametrize("bad", BAD_OUTCOMES)
    @pytest.mark.parametrize("metric", OUTCOME_METRICS)
    def test_bad_outcomes_rejected(self, metric, bad):
        times, events, message = BAD_OUTCOMES[bad]
        OUTCOME_METRICS[metric](OUTCOME_TIMES, OUTCOME_EVENTS)  # valid rows score
        with pytest.raises(ValueError, match=message):
            OUTCOME_METRICS[metric](times, events)


class TestCIndex:
    def test_perfect_and_inverted(self):
        t = np.array([1.0, 2.0, 3.0, 4.0])
        e = np.ones(4, dtype=int)
        assert c_index([4, 3, 2, 1], t, e) == 1.0
        assert c_index([1, 2, 3, 4], t, e) == 0.0

    def test_all_tied_scores_half(self):
        assert c_index([1, 1, 1], [1.0, 2.0, 3.0], [1, 1, 1]) == 0.5

    def test_censored_anchors_excluded(self):
        # only the event at t=1 anchors pairs; the censored t=2 cannot
        value = c_index([3.0, 2.0, 1.0], [1.0, 2.0, 3.0], [1, 0, 1])
        assert value == 1.0

    def test_no_comparable_pairs_raises(self):
        with pytest.raises(UndefinedMetricError):
            c_index([1.0, 2.0], [1.0, 2.0], [0, 0])
        with pytest.raises(UndefinedMetricError):
            c_index([1.0], [1.0], [1])

    def test_matches_brute_force_with_ties(self, rng):
        for trial in range(30):
            n = int(rng.integers(3, 60))
            t = np.round(rng.uniform(0.5, 5.0, n), 1)
            e = (rng.random(n) < 0.7).astype(int)
            s = np.round(rng.standard_normal(n), 1)
            expect = brute_c_index(s, t, e)
            if expect is None:
                with pytest.raises(UndefinedMetricError):
                    c_index(s, t, e)
            else:
                assert c_index(s, t, e) == expect

    @pytest.mark.parametrize("n", [1, 2, 3, 255, 256, 257, 1024, 1025])
    def test_matches_pair_count_around_powers_of_two(self, rng, n):
        # the merge count works on power-of-two position blocks; exercise
        # full, partial and single-element blocks, with heavy, light and no
        # ties in times and scores
        oracle = brute_c_index if n <= 257 else pair_count_c_index
        for levels in (3, max(n // 4, 1), None):
            t = rng.uniform(0.5, 5.0, n)
            s = rng.standard_normal(n)
            if levels is not None:
                t = np.round(t * levels / 5.0) + 1.0  # times stay > 0
                s = np.round(s * levels / 3.0)
            e = (rng.random(n) < 0.7).astype(int)
            expect = oracle(s, t, e)
            if expect is None:
                with pytest.raises(UndefinedMetricError):
                    c_index(s, t, e)
            else:
                assert c_index(s, t, e) == expect

    def test_complement_under_negation(self, rng):
        n = 100
        t = rng.uniform(0.5, 5.0, n)
        e = (rng.random(n) < 0.7).astype(int)
        e[0] = 1
        s = rng.permutation(n).astype(float)  # distinct scores
        assert c_index(-s, t, e) == pytest.approx(1.0 - c_index(s, t, e))

    def test_invariant_under_monotone_transform(self, rng):
        n = 60
        t = rng.uniform(0.5, 5.0, n)
        e = (rng.random(n) < 0.7).astype(int)
        e[0] = 1
        s = rng.standard_normal(n)
        assert c_index(np.exp(s), t, e) == c_index(s, t, e)


class TestBrier:
    def test_matches_independent_summation(self, rng):
        ds = random_dataset(rng, 70, censor_frac=0.35)
        grid = build_time_grid(ds, 8)
        z = rng.standard_normal((70, 8))
        ez = np.exp(z - z.max(axis=1, keepdims=True))
        pmfs = ez / ez.sum(axis=1, keepdims=True)
        for t_star in (1.0, 2.5, 4.0, 7.0):
            got = brier_score_t(pmfs, ds.times, ds.events, [t_star], grid)[0]
            expect = slow_brier(pmfs, ds.times.tolist(), ds.events.tolist(), t_star, grid)
            assert got == pytest.approx(expect, abs=1e-12)

    def test_constant_half_prediction_uncensored(self):
        # S_hat = 0.5 everywhere and no censoring: every sample contributes
        # exactly 0.25 regardless of its side of t*
        times = np.arange(1.0, 21.0)
        events = np.ones(20, dtype=int)
        ds = random_dataset(np.random.default_rng(0), 20)
        ds = type(ds)(features=ds.features[:20], times=times, events=events,
                      feature_names=ds.feature_names)
        grid = build_time_grid(ds, 10)
        pmfs = np.zeros((20, 10))
        pmfs[:, 0] = 0.5
        pmfs[:, -1] = 0.5
        t_grid = [2.0, 5.0, 11.0, 19.0]
        assert brier_score_t(pmfs, times, events, t_grid, grid).tolist() == [0.25] * 4

    def test_rejects_a_pmf_row_count_unlike_the_times(self, rng):
        ds = random_dataset(rng, 10)
        grid = build_time_grid(ds, 5)
        with pytest.raises(ValueError, match="one row per time, got 9 for 10"):
            brier_score_t(np.full((9, 5), 0.2), ds.times, ds.events, [2.0], grid)


class TestIbs:
    def test_constant_curve_averages_to_itself(self):
        times = np.arange(1.0, 21.0)
        events = np.ones(20, dtype=int)
        ds = random_dataset(np.random.default_rng(0), 20)
        ds = type(ds)(features=ds.features[:20], times=times, events=events,
                      feature_names=ds.feature_names)
        grid = build_time_grid(ds, 10)
        pmfs = np.zeros((20, 10))
        pmfs[:, 0] = 0.5
        pmfs[:, -1] = 0.5
        # integer grid keeps the trapezoid sums exact
        assert ibs(pmfs, times, events, np.arange(2.0, 19.0), grid) == 0.25

    def test_single_point_grid_is_pointwise(self):
        times = np.arange(1.0, 11.0)
        events = np.ones(10, dtype=int)
        ds = random_dataset(np.random.default_rng(0), 10)
        ds = type(ds)(features=ds.features[:10], times=times, events=events,
                      feature_names=ds.feature_names)
        grid = build_time_grid(ds, 5)
        pmfs = np.full((10, 5), 0.2)
        single = ibs(pmfs, times, events, [4.0], grid)
        assert single == brier_score_t(pmfs, times, events, [4.0], grid)[0]

    def test_rejects_bad_grids(self, rng):
        ds = random_dataset(rng, 10)
        grid = build_time_grid(ds, 5)
        pmfs = np.full((10, 5), 0.2)
        with pytest.raises(ValueError):
            ibs(pmfs, ds.times, ds.events, [], grid)
        with pytest.raises(ValueError):
            ibs(pmfs, ds.times, ds.events, [2.0, 2.0], grid)


class TestTdauc:
    def test_matches_brute_force(self, rng):
        for trial in range(30):
            n = int(rng.integers(4, 50))
            t = np.round(rng.uniform(0.5, 5.0, n), 1)
            e = (rng.random(n) < 0.7).astype(int)
            s = np.round(rng.standard_normal(n), 1)
            for q in (1.0, 2.0, 3.5):
                expect = brute_tdauc(s, t, e, q)
                if expect is None:
                    with pytest.raises(UndefinedMetricError):
                        tdauc(s, t, e, [q])
                else:
                    assert tdauc(s, t, e, [q])[0] == expect

    def test_perfect_separation(self):
        s = np.array([5.0, 4.0, 1.0, 0.5])
        t = np.array([1.0, 2.0, 9.0, 9.5])
        e = np.ones(4, dtype=int)
        assert tdauc(s, t, e, [2.5]).tolist() == [1.0]

    def test_m_tdauc_skips_nonevaluable_points(self):
        s = np.array([3.0, 2.0, 1.0])
        t = np.array([1.0, 2.0, 3.0])
        e = np.array([1, 1, 1])
        # t=0.5 has no cases yet; t=3.5 has no controls left
        value = m_tdauc(s, t, e, [0.5, 1.5, 2.5, 3.5])
        expect = tdauc(s, t, e, [1.5, 2.5]).mean()
        assert value == pytest.approx(expect)

    def test_m_tdauc_all_points_unusable(self):
        with pytest.raises(UndefinedMetricError):
            m_tdauc([1.0, 2.0], [1.0, 2.0], [1, 1], [5.0, 6.0])


class TestEvaluationGrid:
    """Every metric scored on an evaluation grid checks the grid alike."""

    METRICS = {
        "brier_score_t": lambda g: brier_score_t(OUTCOME_PMFS, OUTCOME_TIMES,
                                                 OUTCOME_EVENTS, g, OUTCOME_GRID),
        "ibs": lambda g: ibs(OUTCOME_PMFS, OUTCOME_TIMES, OUTCOME_EVENTS, g,
                             OUTCOME_GRID),
        "tdauc": lambda g: tdauc(OUTCOME_SCORES, OUTCOME_TIMES, OUTCOME_EVENTS, g),
        "m_tdauc": lambda g: m_tdauc(OUTCOME_SCORES, OUTCOME_TIMES, OUTCOME_EVENTS, g),
    }

    @pytest.mark.parametrize("t_grid", [
        [2.0, math.nan, 3.0], [2.0, math.inf], [-math.inf, 2.0], [3.0, 2.0],
        [2.0, 2.0], [], [-1.0, 2.0], [0.0, 2.0],
    ], ids=["nan", "inf", "neg-inf", "descending", "repeated", "empty", "negative",
            "zero"])
    @pytest.mark.parametrize("metric", METRICS)
    def test_bad_grid_is_named(self, metric, t_grid):
        self.METRICS[metric]([2.0, 3.0])  # the rows score on a valid grid
        with pytest.raises(ValueError, match="^the evaluation grid must be a "
                           "non-empty, finite, positive and strictly increasing "
                           "list of "
                           r"times, got \["):
            self.METRICS[metric](t_grid)


@st.composite
def tied_cohorts(draw):
    """1-30 times on a 1-12 lattice, so many tie, and 0/1 event flags."""
    n = draw(st.integers(1, 30))
    times = np.asarray(draw(st.lists(st.integers(1, 12), min_size=n, max_size=n)),
                       dtype=np.float64)
    events = np.asarray(draw(st.lists(st.integers(0, 1), min_size=n, max_size=n)))
    return times, events


@st.composite
def graded_cohorts(draw):
    """A tied cohort with tied scores, an increasing grid of 1-12 times and
    one pmf row per sample."""
    times, events = draw(tied_cohorts())
    n = times.size
    scores = np.asarray(draw(st.lists(st.integers(1, 12), min_size=n, max_size=n)),
                        dtype=np.float64) % 5
    t_grid = np.asarray(sorted(draw(st.sets(st.integers(1, 52), min_size=1,
                                            max_size=12)))) / 4.0
    pmfs = random_pmfs(np.random.default_rng(draw(st.integers(0, 2**32 - 1))),
                       n, draw(st.integers(3, 8)))
    return times, events, scores, pmfs, t_grid


class TestCensoringWeights:
    """Why brier_score_t drops no sample: the censoring curve of the scored
    rows is positive wherever a weight reads it."""

    @given(tied_cohorts(), st.lists(st.integers(0, 52), min_size=1, max_size=12))
    @settings(max_examples=300, deadline=None)
    def test_positive_at_event_rows_and_observed_times(self, cohort, quarters):
        times, events = cohort
        censoring = kaplan_meier(times, 1 - events)
        assert np.all(censoring.survival_before(times[events == 1]) > 0.0)
        t_stars = np.asarray(quarters) / 4.0
        observed = t_stars[t_stars < times.max()]  # some row has t > t*
        assert np.all(censoring.survival_before(observed) > 0.0)


class TestGridForms:
    """The grid forms against the per-time oracles, compared with ==."""

    @given(graded_cohorts())
    @settings(max_examples=300, deadline=None)
    def test_equal_the_per_time_oracles(self, cohort):
        times, events, scores, pmfs, t_grid = cohort
        grid = TimeGrid(pmfs.shape[1], 2.0, 10.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            want = reference_brier_curve(pmfs, times, events, t_grid, grid)
            got = brier_score_t(pmfs, times, events, t_grid, grid)
        assert got.tolist() == want.tolist()

        defined, first_error = [], None
        for t in t_grid.tolist():
            try:
                defined.append((t, reference_tdauc(scores, times, events, t)))
            except UndefinedMetricError as exc:
                first_error = first_error or str(exc)
        if first_error is not None:
            with pytest.raises(UndefinedMetricError) as info:
                tdauc(scores, times, events, t_grid)
            assert str(info.value) == first_error
        if defined:
            got = tdauc(scores, times, events, [t for t, _ in defined])
            assert got.tolist() == [value for _, value in defined]
            # the mean runs over exactly the times the oracle defines
            assert m_tdauc(scores, times, events, t_grid) == float(np.mean(got))
        else:
            with pytest.raises(UndefinedMetricError):
                m_tdauc(scores, times, events, t_grid)


def two_groups(times_a, events_a, times_b, events_b):
    """Group a's rows, then group b's, with the mask of group a."""
    group = np.arange(len(times_a) + len(times_b)) < len(times_a)
    return (np.concatenate([times_a, times_b]),
            np.concatenate([events_a, events_b]).astype(np.int64), group)


def reference_tables(times, events, group):
    """``reference_log_rank_tables`` of the ``group`` rows against the rest."""
    return reference_log_rank_tables(times[group], events[group],
                                     times[~group], events[~group])


def reference_log_rank(times, events, group):
    o1, e1, _o2, _e2, v = reference_tables(times, events, group)
    return 0.0 if v == 0.0 else (o1 - e1) ** 2 / v


def reference_hazard_ratio(scores, times, events, cutoff):
    o_h, e_h, o_l, e_l, _v = reference_tables(times, events, scores > cutoff)
    return (o_h / e_h) / (o_l / e_l)


class TestLogRank:
    def test_frozen_alternating_case(self):
        # two interleaved all-event groups; exact value worked out by hand
        stat = log_rank([1.0, 2.0, 3.0, 4.0, 5.0, 6.0], [1] * 6,
                        [True, False, True, False, True, False])
        assert stat == pytest.approx(529.0 / 1091.0, abs=1e-12)

    def test_identical_groups_score_zero(self):
        t = [1.0, 2.0, 3.0]
        e = [1, 1, 1]
        assert log_rank(*two_groups(t, e, t, e)) == pytest.approx(0.0)

    def test_no_events_returns_zero(self):
        assert log_rank([1.0, 2.0, 3.0], [0, 0, 0], [True, True, False]) == 0.0

    def test_single_sample_risk_sets_skip_variance(self):
        # last knot has one subject at risk; its variance term must vanish
        stat = log_rank([1.0, 2.0], [1, 1], [True, False])
        assert math.isfinite(stat)

    def test_strong_separation_grows_the_statistic(self, rng):
        a = rng.exponential(1.0, 200) + 1e-3
        b = rng.exponential(5.0, 200) + 1e-3
        ones = np.ones(200, dtype=int)
        strong = log_rank(*two_groups(a, ones, b, ones))
        weak = log_rank(*two_groups(a[:100], ones[:100], a[100:], ones[100:]))
        assert strong > 50 > weak

    def test_rejects_empty_group(self):
        for group in ([True, True, True], [False, False, False]):
            with pytest.raises(ValueError, match="both groups must be non-empty"):
                log_rank([1.0, 2.0, 3.0], [1, 0, 1], group)

    @staticmethod
    def tie_heavy_groups(rng, case):
        """Two shuffled groups whose times are rounded to 0-3 decimals, so
        tie blocks fall within and across groups; every fifth case has a
        group without events, every seventh a size-1 group, every eleventh
        no events at all."""
        sizes = rng.integers(1, 40, size=2)
        if case % 7 == 0:
            sizes[case % 2] = 1
        # shifted after rounding, so a time rounded to 0 stays > 0
        times = [np.round(rng.exponential(2.0, n) + 0.05, case % 4) + 1.0 for n in sizes]
        events = [(rng.random(n) < rng.uniform(0.2, 0.9)).astype(np.int64)
                  for n in sizes]
        if case % 5 == 0:
            events[1][:] = 0
        if case % 11 == 0:
            events[0][:] = 0
            events[1][:] = 0
        return times[0], events[0], times[1], events[1]

    def test_tables_equal_the_reference(self):
        # the same rows shuffled, then in time order as the cutoff search
        # passes them, each with its mask
        rng = np.random.default_rng(13)
        for case in range(400):
            ta, ea, tb, eb = self.tie_heavy_groups(rng, case)
            expect = reference_log_rank_tables(ta, ea, tb, eb)
            t, e, group = two_groups(ta, ea, tb, eb)
            shuffled = rng.permutation(t.size)
            got = _log_rank_tables(t[shuffled], e[shuffled], group[shuffled])
            assert got == expect, case
            order = np.argsort(t, kind="stable")
            assert _log_rank_tables(t[order], e[order], group[order]) == expect, case

    @pytest.mark.parametrize("args", [
        ([1.0, 2.0], [1], [True, False]),
        ([1.0, 2.0], [1, 0], [True, False, True]),
        ([[1.0, 2.0]], [[1, 1]], [[True, False]]),
    ], ids=["short-events", "long-group", "2-d"])
    def test_rejects_mismatched_arguments(self, args):
        with pytest.raises(ValueError, match="times, events and group"):
            log_rank(*args)

    def test_rejects_nan_times(self):
        # out of order, and in last place after sorted rows
        for times in ([1.0, math.nan, 2.0], [1.0, 2.0, math.nan]):
            with pytest.raises(ValueError, match="times must be finite and strictly positive"):
                log_rank(times, [1, 1, 1], [True, False, True])


class TestTimeBlockCache:
    """Only a running ``select_cutoff`` keeps time-order tables: it builds its
    rows' tables once and hands them to its own ``log_rank`` calls, which
    must be given those very arrays.  Every other call builds its own, so an
    array edited in place between calls is always read afresh."""

    @staticmethod
    def sorted_rows(rng, n):
        times = np.sort(np.round(rng.exponential(2.0, n) + 0.05, 1) + 1.0)
        return times, (rng.random(n) < 0.6).astype(np.int64)

    def test_in_place_edits_are_read(self, rng):
        times, events = self.sorted_rows(rng, 200)
        group = rng.random(200) < 0.5
        first = log_rank(times, events, group)
        assert first == reference_log_rank(times, events, group)
        events[::3] = 1 - events[::3]
        flipped = log_rank(times, events, group)
        assert flipped == reference_log_rank(times, events, group) != first
        times[50:150] = times[50]  # one long tie block, still in time order
        tied = log_rank(times, events, group)
        assert tied == reference_log_rank(times, events, group) != flipped
        assert log_rank(times, events, group) == tied  # a cache hit
        times[7] = math.nan
        with pytest.raises(ValueError, match="times must be finite and strictly positive"):
            log_rank(times, events, group)
        times[7] = times[8]
        assert log_rank(times, events, group) == tied
        events[7] = 2
        with pytest.raises(ValueError, match="events must be 0 or 1"):
            log_rank(times, events, group)

    def test_a_cutoff_search_checks_its_rows_at_most_twice(self, rng, monkeypatch):
        # once as scored rows, once when the first log_rank call builds the
        # tables; the other calls reuse them
        calls = []

        def counted(times, events):
            calls.append(1)
            return check_outcomes(times, events)

        monkeypatch.setattr(binsurv.metrics, "check_outcomes", counted)
        n = 200
        times = rng.exponential(2.0, n) + 0.05  # freshly drawn, so not cached
        events = (rng.random(n) < 0.6).astype(np.int64)
        select_cutoff(rng.normal(size=n), times, events)
        assert len(calls) <= 2

    def test_alternating_row_sets_match_the_reference(self, rng):
        # one pair of arrays holds rows A, then B (shuffled), then A again,
        # as a caller reusing its buffers would
        n = 150
        ta, ea = self.sorted_rows(rng, n)
        shuffled = rng.permutation(n)
        tb, eb = (rows[shuffled] for rows in self.sorted_rows(rng, n))
        sa, sb = np.round(rng.normal(size=n), 1), rng.normal(size=n)
        times, events = ta.copy(), ea.copy()
        assert select_cutoff(sa, times, events) == reference_select_cutoff(sa, ta, ea)
        times[:], events[:] = tb, eb
        assert (hazard_ratio(sb, times, events, 0.0)
                == reference_hazard_ratio(sb, tb, eb, 0.0))
        times[:], events[:] = ta, ea
        assert log_rank(times, events, sa > 0.0) == reference_log_rank(ta, ea, sa > 0.0)

    def test_kaplan_meier_shares_the_tables(self, rng):
        # log_rank, the censoring curve, then the cutoff search on one pair of
        # arrays, edited in place between calls: each reads its own rows
        n = 200
        times = np.round(rng.exponential(2.0, n) + 0.05, 1) + 1.0
        events = (rng.random(n) < 0.6).astype(np.int64)
        group = rng.random(n) < 0.5
        scores = np.round(rng.normal(size=n), 1)
        probes = np.unique(np.concatenate([times, times + 0.05, [0.5, 99.0]]))
        assert log_rank(times, events, group) == reference_log_rank(times, events, group)
        assert_km_is_the_slow_oracles(kaplan_meier(times, 1 - events), times, events,
                                      probes, flip=True)
        assert (select_cutoff(scores, times, events)
                == reference_select_cutoff(scores, times, events))
        events[::4] = 1 - events[::4]
        assert_km_is_the_slow_oracles(kaplan_meier(times, 1 - events), times, events,
                                      probes, flip=True)
        times[::5] = times[1]  # a long tie block
        assert log_rank(times, events, group) == reference_log_rank(times, events, group)
        assert_km_is_the_slow_oracles(kaplan_meier(times, events), times, events,
                                      probes, flip=False)
        assert (select_cutoff(scores, times, events)
                == reference_select_cutoff(scores, times, events))

    def test_one_sided_group_is_rejected_on_a_cache_hit(self, rng):
        times, events = self.sorted_rows(rng, 100)
        log_rank(times, events, rng.random(100) < 0.5)
        for group in (np.ones(100, dtype=bool), np.zeros(100, dtype=bool)):
            with pytest.raises(ValueError, match="both groups must be non-empty"):
                log_rank(times, events, group)

    @staticmethod
    def cohort(rng, n=200):
        times = np.round(rng.exponential(2.0, n) + 0.05, 1) + 1.0
        events = (rng.random(n) < 0.6).astype(np.int64)
        return np.round(rng.normal(size=n), 1), times, events

    def test_a_cutoff_search_builds_its_tables_once(self, rng, monkeypatch):
        builds = []
        build = binsurv.metrics._time_blocks
        monkeypatch.setattr(binsurv.metrics, "_time_blocks",
                            lambda *rows: builds.append(1) or build(*rows))
        scores, times, events = self.cohort(rng)
        assert (select_cutoff(scores, times, events)
                == reference_select_cutoff(scores, times, events))
        assert len(builds) == 1
        assert binsurv.metrics._search is None

    def test_the_search_binding_is_cleared_when_log_rank_raises(self, rng, monkeypatch):
        calls = []
        real = binsurv.metrics.log_rank

        def failing(times, events, group):
            calls.append(binsurv.metrics._search)
            if len(calls) == 3:
                raise RuntimeError("third call")
            return real(times, events, group)

        monkeypatch.setattr(binsurv.metrics, "log_rank", failing)
        with pytest.raises(RuntimeError, match="third call"):
            select_cutoff(*self.cohort(rng))
        assert len(calls) == 3 and all(search is not None for search in calls)
        assert binsurv.metrics._search is None

    def test_a_call_inside_the_search_on_other_arrays_builds_its_own(self, rng,
                                                                      monkeypatch):
        # equal copies, and copies with every event flipped: the search's
        # tables would give the flipped rows a wrong statistic
        scores, times, events = self.cohort(rng)
        group = rng.random(times.size) < 0.5
        real = binsurv.metrics.log_rank
        nested = []

        def with_a_nested_call(t, e, high):
            if not nested:
                assert binsurv.metrics._search is not None
                for copy_e in (e.copy(), 1 - e):
                    copy_t = t.copy()
                    nested.append((real(copy_t, copy_e, group),
                                   reference_log_rank(copy_t, copy_e, group)))
            return real(t, e, high)

        monkeypatch.setattr(binsurv.metrics, "log_rank", with_a_nested_call)
        assert (select_cutoff(scores, times, events)
                == reference_select_cutoff(scores, times, events))
        assert len(nested) == 2
        assert nested[0][0] != nested[1][0]
        for got, expect in nested:
            assert got == expect


class TestCutoff:
    def test_picks_the_separating_gap(self):
        scores = np.array([1.0, 1.1, 9.0, 9.1])
        times = np.array([10.0, 9.0, 1.0, 2.0])
        events = np.ones(4, dtype=int)
        assert select_cutoff(scores, times, events) == pytest.approx(5.05)

    def test_tie_keeps_the_smaller_cutoff(self):
        scores = np.array([1.0, 2.0, 3.0, 4.0])
        times = np.array([10.0, 1.0, 1.0, 10.0])
        events = np.ones(4, dtype=int)
        assert select_cutoff(scores, times, events) == pytest.approx(1.5)

    def test_min_group_size_filters_candidates(self):
        # ten samples, 10% floor -> both groups need at least one sample,
        # with frac 0.4 the extreme cutoffs are discarded
        scores = np.arange(10.0)
        times = np.array([9.0, 8.0, 7.0, 6.0, 5.0, 4.0, 3.0, 2.0, 1.0, 0.5])
        events = np.ones(10, dtype=int)
        cut = select_cutoff(scores, times, events, min_group_frac=0.4)
        assert 3.0 <= cut <= 6.0

    def test_needs_two_distinct_scores(self):
        with pytest.raises(UndefinedMetricError):
            select_cutoff([1.0, 1.0], [1.0, 2.0], [1, 1])

    def test_unsatisfiable_group_floor(self):
        # three rows at a floor of half: both groups would need two rows
        with pytest.raises(UndefinedMetricError):
            select_cutoff([1.0, 2.0, 3.0], [1.0, 2.0, 3.0], [1, 1, 1],
                          min_group_frac=0.5)

    @pytest.mark.parametrize("frac", [math.nan, math.inf, -0.1, 0.6, 0.9])
    def test_group_floor_must_lie_in_zero_to_half(self, frac):
        with pytest.raises(ValueError, match="min_group_frac"):
            select_cutoff([1.0, 2.0, 3.0], [1.0, 2.0, 3.0], [1, 1, 1],
                          min_group_frac=frac)

    def test_rejects_mismatched_lengths(self):
        with pytest.raises(ValueError, match="scores, times and events"):
            select_cutoff([1.0, 2.0, 3.0], [1.0, 2.0], [1, 1, 1])

    def test_matches_the_brute_force_scan(self):
        # tie-heavy cohorts: scores on a coarse lattice, times rounded to
        # 0-2 decimals, group floors from none to half
        rng = np.random.default_rng(21)
        for case in range(60):
            n = int(rng.integers(6, 80))
            scores = np.round(rng.normal(size=n), 1)
            times = np.round(rng.exponential(2.0, n) + 0.05, case % 3) + 1.0  # > 0
            events = (rng.random(n) < 0.6).astype(np.int64)
            frac = (0.0, 0.1, 0.25, 0.5)[case % 4]
            expect = reference_select_cutoff(scores, times, events, frac)
            if expect is None:
                with pytest.raises(UndefinedMetricError):
                    select_cutoff(scores, times, events, frac)
            else:
                assert select_cutoff(scores, times, events, frac) == expect, case

    def test_matches_the_brute_force_scan_on_a_larger_cohort(self):
        # one seeded cohort of a few hundred rows, with tie-free times and
        # then with the same times rounded into tie blocks
        rng = np.random.default_rng(34)
        n = 400
        scores = rng.normal(size=n)
        exact = rng.exponential(2.0, n) + 0.05
        events = (rng.random(n) < 0.6).astype(np.int64)
        assert np.unique(exact).size == n
        for times in (exact, np.round(exact, 1) + 1.0):
            expect = reference_select_cutoff(scores, times, events)
            assert select_cutoff(scores, times, events) == expect
            # the same rows in time order and shuffled
            for rows in (np.argsort(times, kind="stable"), rng.permutation(n)):
                assert select_cutoff(scores[rows], times[rows], events[rows]) == expect

    def test_bitwise_equal_statistics_keep_the_smaller_cutoff(self):
        # the groups at 1.5 and 3.5 are mirror images, so both candidates
        # score the same statistic to the last bit
        scores = np.array([1.0, 2.0, 3.0, 4.0])
        times = np.array([10.0, 1.0, 1.0, 10.0])
        events = np.ones(4, dtype=np.int64)

        def stat(cut):
            high = scores > cut
            o1, e1, _o2, _e2, v = reference_log_rank_tables(
                times[high], events[high], times[~high], events[~high])
            return (o1 - e1) ** 2 / v

        assert stat(1.5) == stat(3.5) > stat(2.5)
        assert select_cutoff(scores, times, events) == 1.5
        assert reference_select_cutoff(scores, times, events) == 1.5

    def test_best_cutoff_at_the_group_floor(self):
        # the two highest scores die first and the rest in no score order;
        # a floor of two rows admits exactly that high group, three do not
        scores = np.arange(10.0)
        times = np.array([5.0, 9.0, 3.0, 8.0, 4.0, 10.0, 6.0, 7.0, 0.2, 0.1])
        events = np.ones(10, dtype=np.int64)
        assert select_cutoff(scores, times, events, 0.2) == 7.5
        assert reference_select_cutoff(scores, times, events, 0.2) == 7.5
        assert select_cutoff(scores, times, events, 0.3) == 6.5
        # negated scores: now the low group sits exactly at the floor
        assert select_cutoff(-scores, times, events, 0.2) == -7.5


class TestHazardRatio:
    def test_recovers_known_rate_ratio(self):
        rng = np.random.default_rng(42)
        n = 3000
        t_low = rng.exponential(1.0, n)
        t_high = rng.exponential(0.5, n)  # hazard twice as large
        times = np.concatenate([t_low, t_high]) + 1e-9
        events = np.ones(2 * n, dtype=int)
        scores = np.concatenate([np.zeros(n), np.ones(n)])
        hr = hazard_ratio(scores, times, events, 0.5)
        assert hr == pytest.approx(2.0, rel=0.15)

    def test_swapping_groups_inverts_the_ratio(self, rng):
        n = 200
        times = rng.uniform(0.5, 5.0, n)
        events = np.ones(n, dtype=int)
        scores = rng.permutation(n).astype(float)
        hr = hazard_ratio(scores, times, events, n / 2)
        flipped = hazard_ratio(-scores, times, events, -n / 2 - 1e-9)
        assert flipped == pytest.approx(1.0 / hr)

    def test_degenerate_groups_warn(self):
        times = np.array([1.0, 2.0, 3.0, 4.0])
        scores = np.array([0.0, 0.0, 1.0, 1.0])
        with pytest.warns(RuntimeWarning):
            assert hazard_ratio(scores, times, np.array([1, 1, 0, 0]), 0.5) == 0.0
        with pytest.warns(RuntimeWarning):
            assert hazard_ratio(scores, times, np.array([0, 0, 1, 1]),
                                0.5) == math.inf

    def test_cutoff_must_split(self):
        with pytest.raises(UndefinedMetricError):
            hazard_ratio([1.0, 2.0], [1.0, 2.0], [1, 1], 5.0)

    def test_shuffled_rows_give_the_same_value(self, rng):
        n = 300
        times = np.round(rng.exponential(2.0, n) + 0.05, 1)
        events = (rng.random(n) < 0.6).astype(np.int64)
        scores = np.round(rng.normal(size=n), 1)
        perm = rng.permutation(n)
        assert (hazard_ratio(scores[perm], times[perm], events[perm], 0.05)
                == hazard_ratio(scores, times, events, 0.05))

    def test_rejects_mismatched_lengths(self):
        with pytest.raises(ValueError, match="scores, times and events"):
            hazard_ratio([1.0, 2.0], [1.0, 2.0], [1, 1, 0], 1.5)


class TestEvaluateModel:
    def make_model_and_data(self, rng, n=150):
        ds = random_dataset(rng, n, n_features=4, censor_frac=0.3)
        grid = build_time_grid(ds, 8)
        cfg = ModelConfig(input_dim=4, hidden_dim=8, n_blocks=1, k_bins=8,
                          dropout_rate=0.0)
        return init_params(cfg, seed=0), ds, grid

    def test_report_fields_and_sources(self, rng):
        params, ds, grid = self.make_model_and_data(rng)
        report = evaluate_model(params, ds, grid, cutoff=0.5)
        assert report.cutoff_source == "checkpoint"
        assert report.cutoff == 0.5
        assert 0.0 <= report.c_index <= 1.0
        assert report.eval_times.size == report.brier_curve.size
        assert report.tdauc_times.size == report.tdauc_curve.size
        risks = predict_risk(apply_head(forward(params, ds.features, mode="eval")[0]))
        assert report.hazard_ratio == hazard_ratio(risks, ds.times, ds.events, 0.5)

    def test_summaries_equal_the_metric_functions(self, rng):
        params, ds, grid = self.make_model_and_data(rng)
        report = evaluate_model(params, ds, grid)
        logits, _ = forward(params, ds.features, mode="eval")
        pmfs = apply_head(logits)
        risks = predict_risk(pmfs)
        assert report.ibs == ibs(pmfs, ds.times, ds.events, report.eval_times, grid)
        assert report.m_tdauc == m_tdauc(risks, ds.times, ds.events,
                                         report.eval_times)
        evaluable = [t for t in report.eval_times
                     if np.any((ds.times <= t) & (ds.events == 1))
                     and np.any(ds.times > t)]
        assert np.array_equal(report.tdauc_times, evaluable)

    def test_no_cutoff_reports_no_hazard_ratio(self, rng):
        # no cutoff is searched for on the scored rows
        params, ds, grid = self.make_model_and_data(rng)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = evaluate_model(params, ds, grid)
        assert math.isnan(report.hazard_ratio) and math.isnan(report.cutoff)
        assert report.cutoff_source == "none"

    @pytest.mark.parametrize("cutoff, empty", [(1.0, "high-risk"), (0.0, "low-risk")])
    def test_one_sided_cutoff_keeps_the_summaries(self, rng, cutoff, empty):
        params, ds, grid = self.make_model_and_data(rng)
        split = evaluate_model(params, ds, grid, cutoff=0.5)
        with pytest.warns(RuntimeWarning, match=f"{empty} group at the training "
                                                f"cutoff {cutoff!r} is empty"):
            report = evaluate_model(params, ds, grid, cutoff=cutoff)
        assert math.isnan(report.hazard_ratio)
        assert report.cutoff == cutoff and report.cutoff_source == "checkpoint"
        assert (report.c_index, report.ibs, report.m_tdauc) == \
            (split.c_index, split.ibs, split.m_tdauc)

    def test_default_eval_times_stay_inside_observation(self, rng):
        _, ds, grid = self.make_model_and_data(rng)
        ts = default_eval_times(grid)
        assert np.all(ts > 0)
        assert ts[-1] == grid.t_max
        assert np.all(np.diff(ts) > 0)
