"""Acceptance suite: one test per release gate.

Each test states a guarantee the package ships with, checked against an
independent oracle (finite differences, brute-force enumeration, closed-form
reference values) or, for the training gates, against the latent ground truth
of the synthetic generator.  These run with the plain unit suite; none needs
external data.
"""

import time
import warnings

import numpy as np
import pytest

from binsurv.config import ExperimentConfig
from binsurv.data import (
    BinnedBatch, FeatureScaler, SurvivalDataset, apply_scaler, assign_bin,
    bin_dataset, bin_midpoints, build_time_grid, normalize_time, split_dataset,
)
from binsurv.losses import LossWeights, calibration_loss, \
    combined_loss, time_rank_loss
from binsurv.metrics import (
    brier_score_t, c_index, default_eval_times, evaluate_model, ibs,
    m_tdauc, tdauc,
)
from binsurv.model import (
    ModelConfig, TrainedModel, apply_head, forward, init_params,
    load_checkpoint, predict_risk, save_checkpoint,
)
from binsurv.synth import SynthConfig, generate
from binsurv.training import fit, write_history_csv
from helpers import (
    GRAD_FLOOR, brute_c_index, brute_tdauc, composite_grads, composite_value,
    fd_param_grads, km_baseline_pmf, max_rel_err, random_batch,
    random_dataset, random_pmfs, slow_brier,
)


@pytest.mark.parametrize("head", ["cat"])
def test_a01_full_loss_gradients_match_finite_differences(head, rng):
    # the entire analytic chain (loss -> softmax head -> residual net with
    # batch norm and dropout) against central differences on every entry of
    # every tensor backward differentiates
    config = ModelConfig(input_dim=4, hidden_dim=8, n_blocks=2,
                         dropout_rate=0.2, k_bins=5)
    ds, _, batch = random_batch(rng, 16, k_bins=5, n_features=4,
                                censored_low=True)
    weights = LossWeights(alpha=1.0, beta=0.05, gamma=1.0)
    params = init_params(config, seed=11)
    _, analytic = composite_grads(params, ds.features, batch, weights, seed=3)
    numeric = fd_param_grads(
        lambda p: composite_value(p, ds.features, batch, weights, seed=3),
        params, analytic, h=1e-5,
    )
    err = max_rel_err(analytic, numeric, floor=GRAD_FLOOR)
    assert err <= 1e-4, f"{head}: max relative error {err:.3e}"
    # a tensor the objective does not depend on would never train
    largest = {name: np.abs(g).max() for name, g in numeric.items()}
    dead = [name for name, v in largest.items() if v < 1e-6 * max(largest.values())]
    assert not dead, f"{head}: the loss does not depend on {dead}"


def test_a02_heads_emit_valid_probability_distributions(rng):
    n, k = 10_000, 10
    pmfs = apply_head(3.0 * rng.standard_normal((n, k)))
    assert np.all(np.isfinite(pmfs))
    assert np.all(pmfs >= 0.0)
    assert np.max(np.abs(pmfs.sum(axis=1) - 1.0)) <= 1e-9

    # hand-worked softmax cases: bin masses are proportional to exp(logit)
    out = apply_head(np.array([[np.log(3.0), 0.0]]))
    assert np.max(np.abs(out - [0.75, 0.25])) <= 1e-12
    out = apply_head(np.zeros((1, 3)))
    assert np.max(np.abs(out - [1 / 3, 1 / 3, 1 / 3])) <= 1e-12
    out = apply_head(np.log([4.0, 2.0, 1.0])[None, :])
    assert np.max(np.abs(out - [4 / 7, 2 / 7, 1 / 7])) <= 1e-12


def test_a03_risk_scores_stay_inside_midpoint_bounds(rng):
    k = 8  # dyadic midpoints make the extreme values exact
    risks = predict_risk(random_pmfs(rng, 10_000, k))
    lo, hi = 1.0 / (2 * k), 1.0 - 1.0 / (2 * k)
    assert np.all(risks >= lo) and np.all(risks <= hi)

    for bin_k in range(1, k + 1):
        one_hot = np.zeros((1, k))
        one_hot[0, bin_k - 1] = 1.0
        assert predict_risk(one_hot)[0] == 1.0 - bin_midpoints(k)[bin_k - 1]
    one_hot = np.eye(k)
    assert predict_risk(one_hot)[0] == hi
    assert predict_risk(one_hot)[-1] == lo


def test_a04_ranking_and_brier_metrics_match_brute_force(rng):
    checked_c = checked_auc = 0
    for _ in range(100):
        n = int(rng.integers(5, 201))
        times = np.round(rng.uniform(0.5, 10.0, n), 1)
        events = (rng.random(n) < 0.65).astype(np.int64)
        scores = np.round(rng.standard_normal(n), 1)  # heavy ties
        expect = brute_c_index(scores, times, events)
        if expect is not None:
            assert c_index(scores, times, events) == expect
            checked_c += 1
        for q in (0.25, 0.5, 0.75):
            t = float(np.quantile(times, q))
            expect = brute_tdauc(scores, times, events, t)
            if expect is not None:
                assert tdauc(scores, times, events, [t])[0] == expect
                checked_auc += 1
    assert checked_c >= 90 and checked_auc >= 200

    for _ in range(12):
        n = int(rng.integers(8, 91))
        ds = random_dataset(rng, n, censor_frac=0.35)
        grid = build_time_grid(ds, 6)
        pmfs = random_pmfs(rng, n, 6)
        for q in (0.3, 0.6, 0.9):
            t_star = float(np.quantile(ds.times, q))
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                fast = brier_score_t(pmfs, ds.times, ds.events, [t_star], grid)[0]
            slow = slow_brier(pmfs, ds.times, ds.events, t_star, grid)
            assert abs(fast - slow) <= 1e-12


def test_a05_uninformative_predictions_hit_reference_scores(rng):
    # constant survival 1/2, no censoring: the weighted squared error is
    # exactly 1/4 at every horizon, and so is its integral
    times = np.arange(1.0, 21.0)
    events = np.ones(20, dtype=np.int64)
    ds = SurvivalDataset(np.zeros((20, 1)), times, events, ("x1",))
    grid = build_time_grid(ds, 10)
    pmfs = np.zeros((20, 10))
    pmfs[:, 0] = 0.5
    pmfs[:, -1] = 0.5
    eval_times = np.arange(2.0, 19.0)  # integer grid keeps the sums dyadic
    assert np.all(brier_score_t(pmfs, times, events, eval_times, grid) == 0.25)
    assert ibs(pmfs, times, events, eval_times, grid) == 0.25

    # random scores carry no signal: concordance and mean dynamic AUC sit at
    # the coin-flip level
    n = 10_000
    t = rng.uniform(1.0, 10.0, n)
    e = (rng.random(n) < 0.7).astype(np.int64)
    s = rng.standard_normal(n)
    assert abs(c_index(s, t, e) - 0.5) <= 0.02
    horizons = np.quantile(t, [0.2, 0.4, 0.6, 0.8])
    assert abs(m_tdauc(s, t, e, horizons) - 0.5) <= 0.02


def test_a06_ten_bin_grid_reference_points():
    ds = SurvivalDataset(np.zeros((2, 1)), np.array([3.0, 13.0]),
                         np.array([1, 1]), ("x1",))
    grid = build_time_grid(ds, 10)
    n_lo = normalize_time(3.0, grid)
    n_hi = normalize_time(13.0, grid)
    n_edge = normalize_time(grid.origin + 0.9 * grid.span, grid)  # the crop point
    assert n_lo == pytest.approx(0.01, abs=1e-12)
    assert n_hi == pytest.approx(0.79, abs=1e-12)
    assert n_edge == pytest.approx(0.9, abs=1e-12)
    assert normalize_time(100.0, grid) == 0.9  # beyond the grid: exact crop
    assert assign_bin(n_lo, 10) == 1
    assert assign_bin(n_hi, 10) == 8
    assert assign_bin(n_edge, 10) == 10
    assert assign_bin(0.9, 10) == 10

    # the final bin is reserved for right-censored tails: a late *event*
    # is rejected, a late censoring, binned alone, keeps bin 10
    late = SurvivalDataset(np.zeros((2, 1)), np.array([50.0, 50.0]),
                           np.array([1, 0]), ("x1",))
    with pytest.raises(ValueError, match="reserved bin 10"):
        bin_dataset(late, grid)
    assert bin_dataset(late.subset([1]), grid).bins[0] == 10


def test_a07_pairwise_gradients_push_risks_apart_under_both_signs(rng):
    # sample 0 fails early (event), sample 1 is observed later
    batch = BinnedBatch(features=np.zeros((2, 1)),
                        t_norm=np.array([0.3, 0.7]),
                        bins=np.array([2, 4]), events=np.array([1, 0]))
    beta = 0.05
    _, grad_risk = time_rank_loss(np.array([0.55, 0.45]), batch,
                                  sigma=1.0, rho=1.0)
    effective = beta * grad_risk
    # descent must raise the early sample's risk and lower the other's
    assert effective[0] < 0.0 < effective[1]

    for kind in ("time_rank", "rank"):
        weights = LossWeights(alpha=0.0, beta=beta, gamma=0.0,
                              pairwise_kind=kind)
        pmfs = random_pmfs(rng, 2, 5)
        _, grad, _ = combined_loss(pmfs, batch, weights)
        # moving pmf mass from the last bin to the first raises a
        # sample's risk; that must lower the loss for the early sample
        # and raise it for the late one
        assert grad[0, 0] - grad[0, 4] < 0.0
        assert grad[1, 0] - grad[1, 4] > 0.0


def test_a08_default_config_recovers_synthetic_signal_end_to_end():
    t0 = time.time()
    cfg = ExperimentConfig()
    ds, risks = generate(SynthConfig(n_samples=4000, n_features=10,
                                     risk_model="linear",
                                     target_censor_rate=0.4, seed=20))
    # an extra carrier column keeps the oracle risks aligned through the
    # split shuffle; it is stripped before anything touches the model
    carrier = SurvivalDataset(np.column_stack([ds.features, risks]),
                              ds.times, ds.events,
                              ds.feature_names + ("oracle",))
    tr_c, va_c, te_c = split_dataset(carrier, cfg.split, cfg.seed)

    def strip(d):
        clean = SurvivalDataset(d.features[:, :-1], d.times, d.events,
                                ds.feature_names)
        return clean, d.features[:, -1]

    tr, _ = strip(tr_c)
    va, _ = strip(va_c)
    te, te_risks = strip(te_c)
    scaler = FeatureScaler.fit(tr.features)
    tr, va, te = (apply_scaler(s, scaler) for s in (tr, va, te))
    grid = build_time_grid(tr, cfg.k_bins)
    best, _ = fit(bin_dataset(tr, grid), va,
                  cfg.model_config(10), cfg.loss_weights(),
                  cfg.train_config())
    logits, _ = forward(best, te.features, mode="eval")
    model_c = c_index(predict_risk(apply_head(logits)),
                      te.times, te.events)
    ceiling = c_index(te_risks, te.times, te.events)
    assert model_c >= ceiling - 0.05, (
        f"held-out C {model_c:.4f} vs oracle ceiling {ceiling:.4f}")
    assert time.time() - t0 < 300.0


def test_a09_time_adaptive_rank_term_never_hurts_concordance():
    def run_pair(seed):
        cfg = ExperimentConfig(seed=seed)
        ds, _ = generate(SynthConfig(n_samples=2000, n_features=10,
                                     risk_model="linear",
                                     target_censor_rate=0.4, seed=100 + seed))
        tr, va, te = split_dataset(ds, cfg.split, seed)
        scaler = FeatureScaler.fit(tr.features)
        tr, va, te = (apply_scaler(s, scaler) for s in (tr, va, te))
        trb = bin_dataset(tr, build_time_grid(tr, cfg.k_bins))
        scores = {}
        for label, w in (
            ("mle", LossWeights(alpha=1.0, beta=0.0, gamma=0.0)),
            ("mle+pairwise", LossWeights(alpha=1.0, beta=0.05, gamma=0.0)),
        ):
            best, _ = fit(trb, va, cfg.model_config(10), w,
                          cfg.train_config())
            logits, _ = forward(best, te.features, mode="eval")
            scores[label] = c_index(predict_risk(apply_head(logits)),
                                    te.times, te.events)
        return scores

    for seed in (0, 1, 2):
        r = run_pair(seed)
        assert r["mle+pairwise"] >= r["mle"] - 0.01, (
            f"seed {seed}: {r['mle+pairwise']:.4f} vs mle {r['mle']:.4f}")


def test_a10_perfectly_calibrated_batch_zeroes_the_penalty():
    bins = np.array([1, 2, 3, 4, 4])
    batch = BinnedBatch(features=np.zeros((5, 1)),
                        t_norm=bin_midpoints(5)[bins - 1], bins=bins,
                        events=np.ones(5, dtype=np.int64))
    pmfs = np.zeros((5, 5))
    pmfs[np.arange(5), bins - 1] = 1.0  # predictions equal the outcomes
    value, _ = calibration_loss(pmfs, batch)
    assert value == 0.0

    shifted = pmfs.copy()
    shifted[0, 0] -= 0.2
    shifted[0, 1] += 0.2
    value, _ = calibration_loss(shifted, batch)
    assert value > 0.0


def test_a11_training_reruns_are_byte_identical(tmp_path, rng):
    ds = random_dataset(rng, 300, n_features=5, censor_frac=0.3)
    tr, va, _ = split_dataset(ds, (0.6, 0.2, 0.2), seed=7)
    scaler = FeatureScaler.fit(tr.features)
    tr, va = apply_scaler(tr, scaler), apply_scaler(va, scaler)
    trb = bin_dataset(tr, build_time_grid(tr, 6))
    cfg = ExperimentConfig(k_bins=6, hidden_dim=8, n_blocks=1, epochs=8,
                           batch_size=64, seed=7)

    def run(tag):
        best, records = fit(trb, va, cfg.model_config(5),
                            cfg.loss_weights(), cfg.train_config())
        hist = tmp_path / f"history_{tag}.csv"
        ckpt = tmp_path / f"ckpt_{tag}.json"
        write_history_csv(records, hist)
        save_checkpoint(ckpt, TrainedModel(best, scaler, list(tr.feature_names),
                                           "time", "event", None))
        return hist.read_bytes(), ckpt.read_bytes()

    h1, c1 = run("first")
    h2, c2 = run("second")
    assert h1 == h2
    assert c1 == c2
    # and a loaded checkpoint rewrites to the same bytes
    save_checkpoint(tmp_path / "ckpt_reload.json",
                    load_checkpoint(tmp_path / "ckpt_first.json"))
    assert (tmp_path / "ckpt_reload.json").read_bytes() == c1


def test_a12_default_config_beats_kaplan_meier_on_ibs():
    # the ROADMAP baseline cohort for data seed 102, where the old raw
    # probability likelihood lost to KM (0.243 against 0.194): the default
    # objective must calibrate better than a covariate-free KM curve fitted
    # on the same training split
    cfg = ExperimentConfig()
    ds, _ = generate(SynthConfig(n_samples=2000, n_features=10,
                                 risk_model="linear",
                                 target_censor_rate=0.4, seed=102))
    tr, va, te = split_dataset(ds, cfg.split, cfg.seed)
    scaler = FeatureScaler.fit(tr.features)
    tr, va, te = (apply_scaler(s, scaler) for s in (tr, va, te))
    grid = build_time_grid(tr, cfg.k_bins)
    best, _ = fit(bin_dataset(tr, grid), va,
                  cfg.model_config(10), cfg.loss_weights(),
                  cfg.train_config())
    model_ibs = evaluate_model(best, te, grid).ibs
    km_pmfs = np.tile(km_baseline_pmf(tr, grid), (len(te), 1))
    km_ibs = ibs(km_pmfs, te.times, te.events, default_eval_times(grid), grid)
    assert model_ibs < km_ibs, f"model IBS {model_ibs:.4f} vs KM {km_ibs:.4f}"
