"""Generator ground truth, censoring calibration, and determinism."""

import math

import numpy as np
import pytest

from binsurv.metrics import c_index
from binsurv.synth import CENSOR_RATE_TOL, SynthConfig, generate


def spearman(a, b):
    def ranks(x):
        order = np.argsort(x, kind="mergesort")
        r = np.empty(x.size)
        r[order] = np.arange(x.size, dtype=np.float64)
        return r

    ra, rb = ranks(np.asarray(a)), ranks(np.asarray(b))
    ra -= ra.mean()
    rb -= rb.mean()
    return float((ra * rb).sum() / np.sqrt((ra ** 2).sum() * (rb ** 2).sum()))


class TestCensoringCalibration:
    @pytest.mark.parametrize("target", [0.2, 0.4, 0.6])
    def test_rate_hit_within_tolerance(self, target):
        cfg = SynthConfig(n_samples=3000, n_features=6,
                          target_censor_rate=target, seed=3)
        ds, _ = generate(cfg)
        observed = float(np.mean(ds.events == 0))
        assert abs(observed - target) <= CENSOR_RATE_TOL

    def test_zero_target_means_no_censoring(self):
        ds, _ = generate(SynthConfig(n_samples=500, n_features=4,
                                     target_censor_rate=0.0, seed=1))
        assert np.all(ds.events == 1)

    @pytest.mark.parametrize("risk_model,baseline",
                             [("linear", "exponential"),
                              ("quadratic", "exponential"),
                              ("linear", "weibull"),
                              ("quadratic", "weibull")])
    def test_every_variant_calibrates(self, risk_model, baseline):
        cfg = SynthConfig(n_samples=2000, n_features=5, risk_model=risk_model,
                          baseline=baseline, target_censor_rate=0.3, seed=5)
        ds, risks = generate(cfg)
        assert abs(float(np.mean(ds.events == 0)) - 0.3) <= CENSOR_RATE_TOL
        assert risks.shape == (2000,)
        assert np.all(np.isfinite(risks))
        assert np.all(ds.times > 0)


class TestDeterminism:
    def test_same_seed_identical(self):
        cfg = SynthConfig(n_samples=300, n_features=4,
                          target_censor_rate=0.25, seed=9)
        a, ra = generate(cfg)
        b, rb = generate(cfg)
        assert np.array_equal(a.features, b.features)
        assert np.array_equal(a.times, b.times)
        assert np.array_equal(a.events, b.events)
        assert np.array_equal(ra, rb)

    def test_seed_changes_data(self):
        a, _ = generate(SynthConfig(n_samples=100, n_features=3, seed=1))
        b, _ = generate(SynthConfig(n_samples=100, n_features=3, seed=2))
        assert not np.array_equal(a.times, b.times)


class TestGroundTruth:
    def test_feature_shape_and_names(self):
        ds, _ = generate(SynthConfig(n_samples=400, n_features=7, seed=0))
        assert ds.features.shape == (400, 7)
        assert ds.feature_names == tuple(f"x{i}" for i in range(1, 8))
        assert abs(ds.features.mean()) < 0.1
        assert abs(ds.features.std() - 1.0) < 0.1

    def test_higher_risk_means_shorter_event_times(self):
        ds, risks = generate(SynthConfig(n_samples=2000, n_features=5,
                                         target_censor_rate=0.0, seed=4))
        rho = spearman(risks, ds.times)
        assert rho < -0.4
        # a permuted risk vector carries no signal
        rng = np.random.default_rng(0)
        assert abs(spearman(rng.permutation(risks), ds.times)) < 0.1

    def test_oracle_scores_beat_noisy_scores(self):
        ds, risks = generate(SynthConfig(n_samples=1500, n_features=5,
                                         target_censor_rate=0.3, seed=6))
        ceiling = c_index(risks, ds.times, ds.events)
        rng = np.random.default_rng(1)
        noisy = c_index(risks + 2.0 * rng.standard_normal(risks.size),
                        ds.times, ds.events)
        assert ceiling > noisy
        assert ceiling > 0.6

    def test_quadratic_risk_differs_from_linear(self):
        lin, r_lin = generate(SynthConfig(n_samples=200, n_features=4,
                                          risk_model="linear", seed=8))
        quad, r_quad = generate(SynthConfig(n_samples=200, n_features=4,
                                            risk_model="quadratic", seed=8))
        # same draw stream for features, different risk composition
        assert np.array_equal(lin.features, quad.features)
        assert not np.allclose(r_lin, r_quad)


class TestValidation:
    def test_rejects_bad_configs(self):
        with pytest.raises(ValueError):
            SynthConfig(n_samples=1)
        with pytest.raises(ValueError):
            SynthConfig(n_features=0)
        with pytest.raises(ValueError):
            SynthConfig(risk_model="cubic")
        with pytest.raises(ValueError):
            SynthConfig(baseline="gamma")
        for shape in (0.0, -1.0, math.nan, math.inf):
            with pytest.raises(ValueError, match="weibull_shape"):
                SynthConfig(weibull_shape=shape)
        with pytest.raises(ValueError):
            SynthConfig(target_censor_rate=1.0)
        with pytest.raises(ValueError):
            SynthConfig(target_censor_rate=-0.1)
