"""Worked examples and finite-difference checks for the three objectives."""

import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from binsurv.data import BinnedBatch, assign_bin, bin_midpoints
from binsurv.losses import (
    LossWeights, _pair_sums, calibration_loss, combined_loss,
    likelihood_loss, rank_loss, time_rank_loss,
)
from binsurv.model import predict_risk
from helpers import (
    GRAD_FLOOR, brute_rank_loss, brute_time_rank_loss, comparable_pairs,
    fd_input_grad, random_batch, random_pmfs, reference_calibration_loss,
    rel_err_arr,
)


def manual_batch(bins, events, k, t_norm=None):
    """Batch with hand-picked bins; normalized times default to the bin
    midpoints."""
    bins = np.asarray(bins, dtype=np.int64)
    events = np.asarray(events, dtype=np.int64)
    if t_norm is None:
        t_norm = (2.0 * bins - 1.0) / (2.0 * k)
    t_norm = np.asarray(t_norm, dtype=np.float64)
    return BinnedBatch(features=np.zeros((bins.size, 1)), t_norm=t_norm,
                       bins=bins, events=events)


class TestComparablePairs:
    def test_hand_case(self):
        pairs = comparable_pairs(np.array([0.1, 0.2, 0.3]), np.array([1, 0, 1]))
        got = sorted(zip(pairs.i.tolist(), pairs.j.tolist()))
        assert got == [(0, 1), (0, 2)]
        assert pairs.n_events == 2

    def test_ties_are_not_comparable(self):
        pairs = comparable_pairs(np.array([0.5, 0.5]), np.array([1, 1]))
        assert len(pairs) == 0

    def test_censored_never_anchor(self):
        pairs = comparable_pairs(np.array([0.1, 0.9]), np.array([0, 1]))
        assert len(pairs) == 0
        assert pairs.n_events == 1

    @given(st.lists(st.tuples(st.sampled_from([0.05, 0.35, 0.65, 0.9]),
                              st.integers(0, 1)), min_size=1, max_size=12))
    @example([(0.9, 1), (0.9, 0)])  # events tied at the maximum
    @example([(0.05, 0), (0.9, 0)])  # all censored
    @example([(0.35, 1)])
    @settings(max_examples=200, deadline=None)
    def test_layout_is_none_exactly_without_pairs(self, rows):
        """``_pair_sums`` lays out both pairwise losses' pairs; it is None
        exactly when the brute-force enumeration finds no pair."""
        t = np.array([r[0] for r in rows])
        e = np.array([r[1] for r in rows])
        batch = manual_batch(np.ones(t.size), e, k=1, t_norm=t)
        sums = _pair_sums(batch, e.astype(np.float64), np.ones(t.size))
        pairs = comparable_pairs(t, e)
        assert (sums is None) is (len(pairs) == 0)
        if sums is not None:
            # unit factors count each sample's pairs as anchor and as partner
            as_anchor, as_partner, n_events = sums
            assert as_anchor.tolist() == np.bincount(pairs.i, minlength=t.size).tolist()
            assert as_partner.tolist() == np.bincount(pairs.j, minlength=t.size).tolist()
            assert n_events == pairs.n_events


class TestLikelihood:
    def test_worked_example_logprob(self):
        pmfs = np.array([[0.6, 0.3, 0.1], [0.2, 0.7, 0.1]])
        batch = manual_batch([1, 2], [1, 0], k=3)
        value, grad = likelihood_loss(pmfs, batch)
        assert value == pytest.approx((np.log(0.6) + np.log(0.1)) / 2)
        # event: 1 / (n * 0.6) on its bin; censored: -1 / (n * 0.1) on the
        # bins up to and including its own
        expect = np.array([[1.0 / 1.2, 0.0, 0.0], [-5.0, -5.0, 0.0]])
        assert np.allclose(grad, expect, rtol=1e-14, atol=0.0)

    def test_one_hot_event_is_perfect(self):
        pmfs = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
        batch = manual_batch([1, 2], [1, 1], k=3)
        value, _ = likelihood_loss(pmfs, batch)
        assert value == 0.0

    def test_prob_value_bounded(self, rng):
        # every probability is floored, so the mean log lies in [log 1e-12, 0]
        _, _, batch = random_batch(rng, 40, k_bins=5)
        pmfs = random_pmfs(rng, 40, 5)
        value, _ = likelihood_loss(pmfs, batch)
        assert np.log(1e-12) <= value <= 0.0

    def test_floor_zeroes_the_subgradient(self):
        # censored in the last bin leaves no mass beyond: term hits the floor
        pmfs = np.array([[0.4, 0.6], [0.5, 0.5]])
        batch = manual_batch([2, 1], [0, 1], k=2)
        value, grad = likelihood_loss(pmfs, batch)
        assert value == pytest.approx((np.log(1e-12) + np.log(0.5)) / 2)
        assert np.all(grad[0] == 0.0)
        assert grad[1, 0] != 0.0

    def test_fd_logprob_away_from_floor(self, rng):
        _, _, batch = random_batch(rng, 12, k_bins=5, censored_low=True)
        pmfs = random_pmfs(rng, 12, 5)
        _, grad = likelihood_loss(pmfs, batch)
        num = fd_input_grad(lambda p: likelihood_loss(p, batch)[0], pmfs)
        assert rel_err_arr(grad, num) < 1e-6


class TestRank:
    def test_single_pair_unit_gap(self):
        # anchor fully inside bin 1, partner fully beyond it: F_i - F_j = 1
        pmfs = np.array([[1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
        batch = manual_batch([1, 3], [1, 0], k=3)
        value, _ = rank_loss(pmfs, batch, sigma=1.0)
        assert value == pytest.approx(np.exp(-1.0))

    def test_normalizer_is_batch_event_count(self):
        # two events, one comparable pair: the sum divides by two
        pmfs = np.array([[1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
        batch = manual_batch([1, 3], [1, 1], k=3)
        value, _ = rank_loss(pmfs, batch)
        assert value == pytest.approx(np.exp(-1.0) / 2.0)

    def test_sigma_scales_exponent(self):
        pmfs = np.array([[1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
        batch = manual_batch([1, 3], [1, 0], k=3)
        v, _ = rank_loss(pmfs, batch, sigma=0.5)
        assert v == pytest.approx(np.exp(-0.5))

    def test_no_pairs_warns_and_returns_zero(self):
        pmfs = np.array([[0.5, 0.5], [0.5, 0.5]])
        batch = manual_batch([1, 2], [0, 0], k=2)
        with pytest.warns(RuntimeWarning):
            value, grad = rank_loss(pmfs, batch)
        assert value == 0.0
        assert np.all(grad == 0.0)

    def test_fd(self, rng):
        _, _, batch = random_batch(rng, 14, k_bins=5)
        pmfs = random_pmfs(rng, 14, 5)
        _, grad = rank_loss(pmfs, batch, sigma=0.8)
        num = fd_input_grad(lambda p: rank_loss(p, batch, sigma=0.8)[0], pmfs)
        assert rel_err_arr(grad, num) < 1e-6

    def test_better_separation_lowers_concordant_value(self):
        batch = manual_batch([1, 3], [1, 0], k=3)
        sharp = np.array([[1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
        blur = np.array([[0.6, 0.2, 0.2], [0.2, 0.2, 0.6]])
        v_sharp, _ = rank_loss(sharp, batch)
        v_blur, _ = rank_loss(blur, batch)
        assert v_sharp < v_blur


class TestTimeRank:
    def test_margin_cancels_exactly(self):
        # risk gap equals rho times the time gap: exponent is exactly zero
        batch = manual_batch([1, 3], [1, 0], k=5, t_norm=[0.1, 0.5])
        risks = np.array([0.9, 0.5])
        value, _ = time_rank_loss(risks, batch, sigma=1.0, rho=1.0)
        assert value == pytest.approx(1.0)

    def test_hand_value(self):
        batch = manual_batch([1, 3], [1, 0], k=5, t_norm=[0.1, 0.5])
        risks = np.array([0.8, 0.2])
        # concordant: exp(-((0.8 - 0.2) - 1.0 * 0.4)) = exp(-0.2)
        value, _ = time_rank_loss(risks, batch, sigma=1.0, rho=1.0)
        assert value == pytest.approx(np.exp(-0.2))

    def test_rho_scales_margin(self):
        batch = manual_batch([1, 3], [1, 0], k=5, t_norm=[0.1, 0.5])
        risks = np.array([0.8, 0.2])
        value, _ = time_rank_loss(risks, batch, sigma=1.0, rho=2.0)
        assert value == pytest.approx(np.exp(-(0.6 - 0.8)))

    def test_widening_risk_gap_helps_concordant(self):
        batch = manual_batch([1, 3], [1, 0], k=5, t_norm=[0.1, 0.5])
        tight, _ = time_rank_loss(np.array([0.6, 0.5]), batch)
        wide, _ = time_rank_loss(np.array([0.9, 0.2]), batch)
        assert wide < tight

    def test_no_pairs_warns(self):
        # all censored, and an empty batch
        for bins, events in (([1, 2], [0, 0]), ([], [])):
            batch = manual_batch(bins, events, k=3)
            with pytest.warns(RuntimeWarning, match="no comparable pairs"):
                value, grad = time_rank_loss(np.full(len(bins), 0.3), batch)
            assert value == 0.0 and grad.shape == (len(bins),)
            assert np.all(grad == 0.0)

    def test_fd_on_risks(self, rng):
        _, _, batch = random_batch(rng, 16, k_bins=5)
        risks = rng.uniform(0.1, 0.9, size=16)
        _, grad = time_rank_loss(risks, batch, sigma=0.7, rho=1.3)
        num = fd_input_grad(
            lambda r: time_rank_loss(r, batch, sigma=0.7, rho=1.3)[0], risks)
        assert rel_err_arr(grad, num) < 1e-6


def oracle_batch(rng, n, k, events, ties):
    """Batch with random normalized times; ``ties`` snaps them onto a coarse
    lattice and clamps about a fifth to (k - 1) / k, the largest time."""
    upper = (k - 1) / k
    t = rng.uniform(0.0, upper, n)
    if ties:
        t = np.round(t / upper * 4.0) / 4.0 * upper
        t[rng.random(n) < 0.2] = upper
    return manual_batch(assign_bin(t, k), events, k, t_norm=t)


def warned(fn, *args, **kwargs):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        out = fn(*args, **kwargs)
    return out, [str(w.message) for w in caught]


class TestPairwiseOracle:
    """Sorted-sum evaluation against pair enumeration, for both terms.

    Values are sums of positive terms and must agree to 1e-12 relative.  A
    gradient entry is a difference of anchor-side and partner-side sums, so
    its error is measured against the sum of |pair contributions| at that
    entry (the rel_err_arr floor is raised to it).
    """

    def check(self, batch, pmfs):
        risks = predict_risk(pmfs)
        cases = [(rank_loss, brute_rank_loss, pmfs, (sigma,))
                 for sigma in (0.3, 1.0)]
        cases += [(time_rank_loss, brute_time_rank_loss, risks, (sigma, rho))
                  for sigma in (0.3, 1.0) for rho in (0.0, 1.0, 50.0)]
        for fast, brute, x, knobs in cases:
            (value, grad), msgs = warned(fast, x, batch, *knobs)
            (expect, expect_grad), expect_msgs = warned(brute, x, batch, *knobs)
            (_, scale), _ = warned(brute, x, batch, *knobs, magnitude=True)
            assert msgs == expect_msgs
            assert rel_err_arr(value, expect) <= 1e-12
            floor = np.maximum(np.abs(scale), GRAD_FLOOR)
            assert rel_err_arr(grad, expect_grad, floor) <= 1e-12

    @pytest.mark.parametrize("ties", [False, True], ids=["distinct", "tied"])
    def test_random_batches(self, rng, ties):
        for _ in range(40):
            n, k = int(rng.integers(2, 65)), int(rng.integers(2, 11))
            events = (rng.random(n) < 0.6).astype(np.int64)
            self.check(oracle_batch(rng, n, k, events, ties),
                       random_pmfs(rng, n, k))

    @pytest.mark.parametrize("ties", [False, True], ids=["distinct", "tied"])
    def test_all_events_and_single_event(self, rng, ties):
        for _ in range(10):
            n, k = int(rng.integers(2, 65)), int(rng.integers(2, 11))
            single = np.zeros(n, dtype=np.int64)
            single[rng.integers(n)] = 1
            for events in (np.ones(n, dtype=np.int64), single):
                self.check(oracle_batch(rng, n, k, events, ties),
                           random_pmfs(rng, n, k))

    def test_large_tied_batch(self, rng):
        n, k = 2048, 10
        events = (rng.random(n) < 0.6).astype(np.int64)
        self.check(oracle_batch(rng, n, k, events, ties=True),
                   random_pmfs(rng, n, k))

    def test_batches_without_pairs_warn_and_return_zeros(self, rng):
        k = 5
        upper = (k - 1) / k
        batches = [
            manual_batch([1, 2, 3], [0, 0, 0], k),  # no events
            manual_batch([2, 2, 2], [1, 1, 0], k, t_norm=[0.3] * 3),  # one time
            # the only event is at the clamped top time, tied with a partner
            manual_batch([1, 5, 5], [0, 1, 0], k, t_norm=[0.1, upper, upper]),
        ]
        for batch in batches:
            pmfs = random_pmfs(rng, len(batch), k)
            for fast, x in ((rank_loss, pmfs), (time_rank_loss, predict_risk(pmfs))):
                (value, grad), msgs = warned(fast, x, batch)
                assert len(msgs) == 1 and "no comparable pairs" in msgs[0]
                assert value == 0.0 and np.all(grad == 0.0)
                assert grad.shape == x.shape
            self.check(batch, pmfs)


class TestCalibration:
    def test_perfectly_calibrated_batch_scores_zero(self):
        # one-hot mass at each sample's own bin makes predicted and observed
        # bin ratios identical counts
        k = 5
        bins = np.array([1, 2, 3, 4, 2, 3])
        pmfs = np.zeros((6, k))
        pmfs[np.arange(6), bins - 1] = 1.0
        batch = manual_batch(bins, np.ones(6, dtype=int), k=k)
        value, _ = calibration_loss(pmfs, batch)
        assert value == 0.0

    def test_perturbation_makes_it_positive(self):
        k = 5
        bins = np.array([1, 2, 3, 4, 2, 3])
        pmfs = np.zeros((6, k))
        pmfs[np.arange(6), bins - 1] = 1.0
        pmfs[0] = np.array([0.6, 0.4, 0.0, 0.0, 0.0])
        batch = manual_batch(bins, np.ones(6, dtype=int), k=k)
        value, _ = calibration_loss(pmfs, batch)
        assert value > 0.0

    def test_skips_empty_intervals(self):
        # all mass and all samples in the first bin: later bins have empty
        # denominators and must not contribute
        k = 4
        pmfs = np.array([[1.0, 0.0, 0.0, 0.0], [1.0, 0.0, 0.0, 0.0]])
        batch = manual_batch([1, 1], [1, 1], k=k, t_norm=[0.05, 0.05])
        value, grad = calibration_loss(pmfs, batch)
        # single valid bin, predicted 1.0 vs observed 1.0
        assert value == 0.0
        assert np.all(grad == 0.0)

    def test_hand_computed_value(self):
        # two samples, uniform mass, both events in the first bin
        k = 2
        pmfs = np.array([[0.5, 0.5], [0.5, 0.5]])
        batch = manual_batch([1, 1], [1, 1], k=k)
        value, _ = calibration_loss(pmfs, batch)
        # bin 1: pred 0.5/1.0, obs 2/2 -> (0.5-1)^2; bin 2: pred 0.5/0.5,
        # obs 0/0 -> skipped; mean over 1 valid bin
        assert value == pytest.approx(0.25)

    def test_value_bounded_by_one(self, rng):
        _, _, batch = random_batch(rng, 30, k_bins=6)
        pmfs = random_pmfs(rng, 30, 6)
        value, _ = calibration_loss(pmfs, batch)
        assert 0.0 <= value <= 1.0

    def test_fd(self, rng):
        _, _, batch = random_batch(rng, 18, k_bins=5)
        pmfs = random_pmfs(rng, 18, 5)
        _, grad = calibration_loss(pmfs, batch)
        num = fd_input_grad(lambda p: calibration_loss(p, batch)[0], pmfs)
        assert rel_err_arr(grad, num) < 1e-6

    def test_gradient_constant_across_rows(self, rng):
        _, _, batch = random_batch(rng, 10, k_bins=4)
        pmfs = random_pmfs(rng, 10, 4)
        _, grad = calibration_loss(pmfs, batch)
        assert np.allclose(grad, grad[0][None, :], atol=1e-15)

    @given(st.integers(2, 12),
           st.lists(st.tuples(st.integers(0, 11), st.floats(0.01, 0.99),
                              st.integers(0, 1)), min_size=1, max_size=40),
           st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=200, deadline=None)
    def test_equals_the_interval_form_on_k_intervals(self, k, rows, seed):
        # times lie inside their bins: the interval form's linspace edge
        # below the top bin can round either side of (k - 1) / k
        t = np.array([(min(b, k - 1) + f) / k for b, f, _ in rows])
        events = np.array([e for _, _, e in rows], dtype=np.int64)
        batch = manual_batch(assign_bin(t, k), events, k, t_norm=t)
        pmfs = random_pmfs(np.random.default_rng(seed), len(rows), k)
        value, grad = calibration_loss(pmfs, batch)
        expect, expect_grad = reference_calibration_loss(pmfs, batch, k)
        assert value == expect
        assert grad.tobytes() == expect_grad.tobytes()


class TestCombined:
    def test_matches_component_sum(self, rng):
        _, _, batch = random_batch(rng, 20, k_bins=5)
        pmfs = random_pmfs(rng, 20, 5)
        w = LossWeights(alpha=0.7, beta=0.03, gamma=1.1, sigma=0.9, rho=1.2)
        value, _, parts = combined_loss(pmfs, batch, w)
        lv, _ = likelihood_loss(pmfs, batch)
        pv, _ = time_rank_loss(predict_risk(pmfs), batch, 0.9, 1.2)
        cv, _ = calibration_loss(pmfs, batch)
        assert value == pytest.approx(-0.7 * lv + 0.03 * pv + 1.1 * cv)
        assert parts["likelihood"] == pytest.approx(lv)
        assert parts["pairwise"] == pytest.approx(pv)
        assert parts["calibration"] == pytest.approx(cv)

    @pytest.mark.parametrize("kind", ["time_rank", "rank"])
    def test_fd_full_composite(self, rng, kind):
        _, _, batch = random_batch(rng, 12, k_bins=5, censored_low=True)
        pmfs = random_pmfs(rng, 12, 5)
        w = LossWeights(alpha=1.0, beta=0.05, gamma=1.0, sigma=0.9, rho=1.1,
                        pairwise_kind=kind)
        _, grad, _ = combined_loss(pmfs, batch, w)
        num = fd_input_grad(lambda p: combined_loss(p, batch, w)[0], pmfs)
        assert rel_err_arr(grad, num) < 1e-5

    def test_zero_weights_skip_components(self, rng):
        # a batch with no comparable pairs must not warn when beta is zero
        pmfs = np.array([[0.5, 0.5], [0.5, 0.5]])
        batch = manual_batch([1, 2], [0, 0], k=2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            value, _, parts = combined_loss(
                pmfs, batch, LossWeights(alpha=1.0, beta=0.0, gamma=0.0))
        assert parts["pairwise"] == 0.0 and parts["calibration"] == 0.0
        lv, _ = likelihood_loss(pmfs, batch)
        assert value == pytest.approx(-lv)

    def test_all_zero_weights_rejected(self, rng):
        _, _, batch = random_batch(rng, 4)
        with pytest.raises(ValueError):
            combined_loss(random_pmfs(rng, 4, 5), batch,
                          LossWeights(alpha=0.0, beta=0.0, gamma=0.0))

    def test_permutation_invariance(self, rng):
        _, _, batch = random_batch(rng, 25, k_bins=5)
        pmfs = random_pmfs(rng, 25, 5)
        w = LossWeights(alpha=1.0, beta=0.05, gamma=1.0)
        value, grad, _ = combined_loss(pmfs, batch, w)
        perm = rng.permutation(25)
        value_p, grad_p, _ = combined_loss(pmfs[perm], batch.take(perm), w)
        assert abs(value - value_p) < 1e-12
        assert np.allclose(grad[perm], grad_p, atol=1e-12)


class TestWeightsValidation:
    def test_sigma_range(self):
        with pytest.raises(ValueError):
            LossWeights(sigma=0.0)
        with pytest.raises(ValueError):
            LossWeights(sigma=1.5)
        LossWeights(sigma=1.0)  # boundary allowed

    def test_negative_weights_rejected(self):
        for kw in ({"alpha": -1.0}, {"beta": -0.1}, {"gamma": -2.0},
                   {"rho": -0.5}):
            with pytest.raises(ValueError):
                LossWeights(**kw)

    def test_rho_bound_keeps_time_rank_finite(self):
        # the largest allowed rho on risks spanning (0, 1) and times spanning
        # [0, 0.9]: every pair term and gradient entry stays finite
        LossWeights(rho=700.0)
        with pytest.raises(ValueError, match="rho"):
            LossWeights(rho=700.5)
        n, k = 64, 10
        t = np.linspace(0.0, 0.9, n)
        batch = manual_batch(assign_bin(t, k), np.ones(n, dtype=np.int64), k,
                             t_norm=t)
        risks = np.linspace(1e-3, 1.0 - 1e-3, n)
        for r in (risks, risks[::-1]):
            value, grad = time_rank_loss(r, batch, sigma=1.0, rho=700.0)
            assert np.isfinite(value) and value > 0.0
            assert np.all(np.isfinite(grad))

    def test_enumerations_checked(self):
        with pytest.raises(ValueError):
            LossWeights(pairwise_kind="margin")
