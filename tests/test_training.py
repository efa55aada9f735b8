"""Schedule, optimizer step, epoch loop, snapshotting, and determinism."""

import logging
import math

import numpy as np
import pytest

from binsurv.data import bin_dataset, build_time_grid
from binsurv.losses import LossWeights
from binsurv.model import ModelConfig, backward, forward, init_params
from binsurv import training
from binsurv.training import (
    TrainConfig, cosine_lr, fit, sgd_step, train_epoch, validation_c_index,
    write_history_csv,
)
from helpers import random_dataset


def make_fit_inputs(rng, n=120, k_bins=5, n_features=3):
    ds = random_dataset(rng, n, n_features=n_features, censor_frac=0.3)
    cut = int(0.75 * n)
    train = bin_dataset(ds, build_time_grid(ds, k_bins)).take(np.arange(cut))
    val = ds.subset(np.arange(cut, n))
    cfg = ModelConfig(input_dim=n_features, hidden_dim=8, n_blocks=1,
                      dropout_rate=0.1, k_bins=k_bins)
    return train, val, cfg


class TestCosine:
    def test_endpoints_and_midpoint(self):
        assert cosine_lr(0, 100, 0.2) == 0.2
        assert cosine_lr(100, 100, 0.2) == pytest.approx(0.0, abs=1e-17)
        assert cosine_lr(50, 100, 0.2) == pytest.approx(0.1)

    def test_quarter_point(self):
        expect = 0.2 * (1 + math.cos(math.pi / 4)) / 2
        assert cosine_lr(25, 100, 0.2) == pytest.approx(expect)

    def test_monotone_decreasing(self):
        values = [cosine_lr(e, 40, 1.0) for e in range(41)]
        assert all(a >= b for a, b in zip(values, values[1:]))

    def test_range_checks(self):
        with pytest.raises(ValueError):
            cosine_lr(-1, 10, 0.1)
        with pytest.raises(ValueError):
            cosine_lr(11, 10, 0.1)
        with pytest.raises(ValueError):
            cosine_lr(0, 0, 0.1)


class TestSgdStep:
    def one_tensor_params(self, value):
        cfg = ModelConfig(input_dim=1, hidden_dim=1, n_blocks=0, k_bins=3,
                          dropout_rate=0.0)
        p = init_params(cfg, seed=0)
        p.tensors["input.w"][:] = value
        return p

    def test_plain_step(self):
        p = self.one_tensor_params(1.0)
        g = {n: np.ones_like(t) for n, t in p.tensors.items()}
        sgd_step(p, g, lr=0.1)
        assert p.tensors["input.w"][0, 0] == pytest.approx(0.9)

    def test_nonfinite_gradient_aborts_with_tensor_name(self):
        p = self.one_tensor_params(1.0)
        g = {n: np.zeros_like(t) for n, t in p.tensors.items()}
        g["output.w"][0, 0] = np.nan
        with pytest.raises(FloatingPointError, match="output.w"):
            sgd_step(p, g, lr=0.1)

    def test_running_stats_untouched(self, rng):
        cfg = ModelConfig(input_dim=2, hidden_dim=4, n_blocks=1, k_bins=3,
                          dropout_rate=0.0)
        p = init_params(cfg, seed=0)
        _, cache = forward(p, rng.standard_normal((5, 2)), mode="train")
        grads = backward(p, cache, rng.standard_normal((5, 3)))
        before = p.copy()
        sgd_step(p, grads, lr=0.5)
        for name in ("block0.bn.mean", "block0.bn.var"):
            assert p.tensors[name].tobytes() == before.tensors[name].tobytes()
        for name, g in grads.items():
            assert np.array_equal(p.tensors[name], before.tensors[name] - 0.5 * g)

    def test_updates_only_the_given_tensors(self):
        p = self.one_tensor_params(1.0)
        before = p.copy()
        sgd_step(p, {"output.b": np.ones(3)}, lr=0.25)
        assert np.array_equal(p.tensors["output.b"], before.tensors["output.b"] - 0.25)
        for name, tensor in p.tensors.items():
            if name != "output.b":
                assert tensor.tobytes() == before.tensors[name].tobytes(), name


class TestSnapshot:
    SCORES = (0.6, 0.7, 0.65, 0.7)

    def fit_with_scores(self, rng, monkeypatch):
        """fit over four epochs whose validation scores are SCORES; returns
        the best params, a copy of the params seen at each scoring, and the
        live params object fit trained."""
        live, snapshots = [], []

        def scripted(params, val):
            live.append(params)
            snapshots.append(params.copy())
            return self.SCORES[len(snapshots) - 1]

        monkeypatch.setattr(training, "validation_c_index", scripted)
        train, val, cfg = make_fit_inputs(rng)
        best, records = fit(train, val, cfg, LossWeights(),
                            TrainConfig(epochs=4, batch_size=32, lr_init=0.05))
        assert [r.val_c_index for r in records] == list(self.SCORES)
        assert all(p is live[0] for p in live)
        return best, snapshots, live[0]

    def test_strict_improvement_with_tie_keeping_earlier(self, rng, monkeypatch):
        best, snapshots, _ = self.fit_with_scores(rng, monkeypatch)
        # the later tie at 0.7 (epoch 4) does not replace epoch 2
        for name, value in best.tensors.items():
            assert np.array_equal(value, snapshots[1].tensors[name]), name
        assert not np.array_equal(best.tensors["input.w"],
                                  snapshots[3].tensors["input.w"])

    def test_snapshot_is_a_copy(self, rng, monkeypatch):
        best, _, live = self.fit_with_scores(rng, monkeypatch)
        assert best is not live
        for name, value in best.tensors.items():
            assert not np.shares_memory(value, live.tensors[name]), name
        assert not np.array_equal(best.tensors["input.w"], live.tensors["input.w"])


class TestTrainEpoch:
    def test_trailing_singleton_batch_dropped(self, rng, caplog):
        ds = random_dataset(rng, 5, censor_frac=0.0)
        grid = build_time_grid(ds, 4)
        batch = bin_dataset(ds, grid)
        cfg = ModelConfig(input_dim=3, hidden_dim=4, n_blocks=1, k_bins=4,
                          dropout_rate=0.0)
        with caplog.at_level(logging.INFO, logger="binsurv.training"):
            stats = train_epoch(init_params(cfg, seed=0), batch, LossWeights(),
                                TrainConfig(epochs=2, batch_size=2, lr_init=0.01), 0)
        assert "epoch 1: dropping trailing batch of size 1" in caplog.text
        assert len(stats) == 5

    def test_all_batches_unusable_raises(self, rng):
        ds = random_dataset(rng, 2, censor_frac=0.0)
        grid = build_time_grid(ds, 4)
        batch = bin_dataset(ds, grid).take([0])
        cfg = ModelConfig(input_dim=3, hidden_dim=4, n_blocks=0, k_bins=4,
                          dropout_rate=0.0)
        with pytest.raises(ValueError):
            train_epoch(init_params(cfg, seed=0), batch, LossWeights(),
                        TrainConfig(epochs=1, batch_size=2, lr_init=0.01), 0)

    def test_record_shape(self, rng):
        train, _, cfg = make_fit_inputs(rng)
        lr, loss, likelihood, pairwise, calibration = train_epoch(
            init_params(cfg, seed=0), train, LossWeights(),
            TrainConfig(epochs=3, batch_size=32, lr_init=0.05), 1)
        assert lr == cosine_lr(1, 3, 0.05)
        assert all(isinstance(v, float) and np.isfinite(v)
                   for v in (loss, likelihood, pairwise, calibration))


class TestFit:
    def test_zero_epochs_rejected(self):
        # the CLI side (`--set epochs=0` exits 2) is in test_cli.py
        with pytest.raises(ValueError, match="epochs must be at least 1"):
            TrainConfig(epochs=0)

    def test_every_epoch_is_validated(self, rng):
        train, val, cfg = make_fit_inputs(rng)
        _, records = fit(train, val, cfg, LossWeights(),
                         TrainConfig(epochs=5, batch_size=32, lr_init=0.05))
        assert [r.epoch for r in records] == [1, 2, 3, 4, 5]
        assert all(np.isfinite(r.val_c_index) for r in records)

    def test_deterministic_repeat(self, rng):
        train, val, cfg = make_fit_inputs(rng)
        tc = TrainConfig(epochs=4, batch_size=32, lr_init=0.05, seed=11)
        p1, r1 = fit(train, val, cfg, LossWeights(), tc)
        p2, r2 = fit(train, val, cfg, LossWeights(), tc)
        for name in p1.tensors:
            assert np.array_equal(p1.tensors[name], p2.tensors[name]), name
        assert [(r.loss, r.val_c_index) for r in r1] == \
               [(r.loss, r.val_c_index) for r in r2]

    def test_seed_changes_the_run(self, rng):
        train, val, cfg = make_fit_inputs(rng)
        p1, _ = fit(train, val, cfg, LossWeights(),
                    TrainConfig(epochs=2, batch_size=32, lr_init=0.05, seed=1))
        p2, _ = fit(train, val, cfg, LossWeights(),
                    TrainConfig(epochs=2, batch_size=32, lr_init=0.05, seed=2))
        assert not np.array_equal(p1.tensors["input.w"], p2.tensors["input.w"])

    def test_loss_decreases_on_learnable_data(self, rng):
        train, val, cfg = make_fit_inputs(rng, n=300)
        _, records = fit(train, val, cfg, LossWeights(beta=0.05),
                         TrainConfig(epochs=20, batch_size=64, lr_init=0.05))
        assert records[-1].loss < records[0].loss

    def test_best_params_track_best_validation_epoch(self, rng):
        train, val, cfg = make_fit_inputs(rng, n=200)
        best, records = fit(train, val, cfg, LossWeights(),
                            TrainConfig(epochs=8, batch_size=64, lr_init=0.05))
        best_score = max(r.val_c_index for r in records)
        assert validation_c_index(best, val) == pytest.approx(best_score)


class TestHistoryCsv:
    def test_reruns_are_byte_identical(self, tmp_path, rng):
        train, val, cfg = make_fit_inputs(rng)
        tc = TrainConfig(epochs=3, batch_size=32, lr_init=0.05)
        _, r1 = fit(train, val, cfg, LossWeights(), tc)
        _, r2 = fit(train, val, cfg, LossWeights(), tc)
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        write_history_csv(r1, a)
        write_history_csv(r2, b)
        assert a.read_bytes() == b.read_bytes()


class TestTrainConfigValidation:
    def test_batch_size_floor(self):
        with pytest.raises(ValueError):
            TrainConfig(epochs=1, batch_size=1, lr_init=0.1)

    def test_positive_rates(self):
        with pytest.raises(ValueError):
            TrainConfig(epochs=1, batch_size=4, lr_init=0.0)
        with pytest.raises(ValueError):
            TrainConfig(epochs=-1, batch_size=4, lr_init=0.1)
        for bad in (math.nan, math.inf):
            with pytest.raises(ValueError, match="lr_init"):
                TrainConfig(epochs=1, batch_size=4, lr_init=bad)
