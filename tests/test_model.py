"""Network forward/backward, output head, risk mapping, checkpoints."""

import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from binsurv.data import FeatureScaler, SurvivalDataset, apply_scaler
from binsurv.model import (
    ModelConfig, TrainedModel, _tensor_shapes, apply_head, backward, forward,
    head_backward, init_params, load_checkpoint, predict_risk, predict_survival,
    save_checkpoint,
)
from helpers import (
    fd_input_grad, reference_apply_head, reference_backward, reference_forward,
    rel_err_arr,
)


def small_config(k_bins=5, dropout=0.0):
    return ModelConfig(input_dim=4, hidden_dim=8, n_blocks=2,
                       dropout_rate=dropout, k_bins=k_bins)


def differentiated(config):
    """Every tensor name of the layout but the running BatchNorm statistics."""
    return {n for n in _tensor_shapes(config) if not n.endswith((".mean", ".var"))}


def trained(params, cutoff=0.25):
    """``params`` with a scaler, feature names and columns, as `train` stores."""
    n = params.config.input_dim
    scaler = FeatureScaler(mean=np.linspace(-1.0, 1.0, n), std=np.full(n, 0.5))
    return TrainedModel(params, scaler, [f"x{i + 1}" for i in range(n)],
                        "time", "event", cutoff)


class TestInit:
    def test_shapes_and_constant_tensors(self):
        cfg = small_config()
        p = init_params(cfg, seed=0)
        assert p.tensors["input.w"].shape == (4, 8)
        assert p.tensors["output.w"].shape == (8, cfg.k_bins)
        for b in range(2):
            assert np.all(p.tensors[f"block{b}.bn.scale"] == 1.0)
            assert np.all(p.tensors[f"block{b}.bn.shift"] == 0.0)
            assert np.all(p.tensors[f"block{b}.bn.mean"] == 0.0)
            assert np.all(p.tensors[f"block{b}.bn.var"] == 1.0)
        assert np.all(p.tensors["input.b"] == 0.0)
        assert np.all(p.tensors["output.b"] == 0.0)

    def test_uniform_bounds_scale_with_fan_in(self):
        p = init_params(ModelConfig(input_dim=100, hidden_dim=8, n_blocks=1,
                                    k_bins=5), seed=1)
        w = p.tensors["input.w"]
        assert np.all(np.abs(w) <= 1.0 / np.sqrt(100))
        assert np.abs(w).max() > 0.5 / np.sqrt(100)  # not degenerate

    def test_deterministic_by_seed(self):
        a = init_params(small_config(), seed=7)
        b = init_params(small_config(), seed=7)
        c = init_params(small_config(), seed=8)
        assert np.array_equal(a.tensors["input.w"], b.tensors["input.w"])
        assert not np.array_equal(a.tensors["input.w"], c.tensors["input.w"])

    def test_running_stats_not_trainable(self, rng):
        # backward names what SGD updates: every tensor but the running stats
        cfg = small_config(dropout=0.2)
        p = init_params(cfg, seed=0)
        _, cache = forward(p, rng.standard_normal((6, 4)), mode="train", seed=1)
        grads = backward(p, cache, rng.standard_normal((6, cfg.k_bins)))
        assert set(grads) == differentiated(cfg)
        assert "block0.bn.scale" in grads and "block0.bn.mean" not in grads


class TestHeads:
    def test_cat_rows_are_distributions(self, rng):
        pmf = apply_head(rng.standard_normal((50, 7)) * 5)
        assert np.all(pmf >= 0)
        assert np.allclose(pmf.sum(axis=1), 1.0, atol=1e-12)

    def test_cat_invariant_to_logit_shift(self, rng):
        z = rng.standard_normal((10, 5))
        assert np.allclose(apply_head(z), apply_head(z + 100.0), atol=1e-12)

    def test_heads_reject_nonfinite(self):
        with pytest.raises(ValueError):
            apply_head(np.array([[np.nan, 0.0]]))
        with pytest.raises(ValueError):
            apply_head(np.array([[np.inf, 0.0]]))

    @given(st.integers(0, 2 ** 31 - 1), st.integers(2, 12))
    @settings(max_examples=80, deadline=None)
    def test_property_valid_pmf_both_heads(self, seed, k):
        z = np.random.default_rng(seed).standard_normal((8, k)) * 10
        pmf = apply_head(z)
        assert np.all(pmf >= 0)
        assert np.allclose(pmf.sum(axis=1), 1.0, atol=1e-9)

    def test_cat_jacobian_matches_finite_differences(self, rng):
        z = rng.standard_normal((3, 6))
        c = rng.standard_normal((3, 6))
        pmf = apply_head(z)
        analytic = head_backward(pmf, c)
        numeric = fd_input_grad(lambda zz: float((apply_head(zz) * c).sum()), z)
        assert rel_err_arr(analytic, numeric, floor=1e-4) < 1e-6


class TestRisk:
    def test_one_hot_extremes(self):
        k = 8
        first = np.zeros((1, k)); first[0, 0] = 1.0
        last = np.zeros((1, k)); last[0, -1] = 1.0
        assert predict_risk(first)[0] == pytest.approx(1.0 - 1.0 / (2 * k))
        assert predict_risk(last)[0] == pytest.approx(1.0 / (2 * k))

    def test_bounds_on_random_pmfs(self, rng):
        k = 6
        pmf = apply_head(rng.standard_normal((500, k)) * 8)
        r = predict_risk(pmf)
        assert np.all(r >= 1.0 / (2 * k) - 1e-12)
        assert np.all(r <= 1.0 - 1.0 / (2 * k) + 1e-12)

    def test_mass_in_earlier_bins_raises_risk(self):
        a = np.array([[0.8, 0.1, 0.1]])
        b = np.array([[0.1, 0.1, 0.8]])
        assert predict_risk(a)[0] > predict_risk(b)[0]

    def test_survival_is_complement_of_cdf(self):
        pmf = np.array([[0.2, 0.3, 0.5]])
        assert predict_survival(pmf, 1)[0] == pytest.approx(0.8)
        assert predict_survival(pmf, 2)[0] == pytest.approx(0.5)
        assert predict_survival(pmf, 3)[0] == pytest.approx(0.0)

    def test_one_row_equals_its_row_of_a_batch(self, rng):
        k = 7
        pmfs = apply_head(3.0 * rng.standard_normal((20, k)))
        risks = predict_risk(pmfs)
        for i, row in enumerate(pmfs):
            assert np.ndim(predict_risk(row)) == 0
            # a dot product against one row of a matrix-vector product:
            # BLAS may sum them in different orders
            assert predict_risk(row) == pytest.approx(risks[i], rel=1e-15)
            for bin_k in range(1, k + 1):
                assert predict_survival(row, bin_k) == pytest.approx(
                    predict_survival(pmfs, bin_k)[i], rel=1e-15, abs=1e-16)

    def test_survival_clipped_to_unit_interval(self):
        # float round-off in the cdf must not leak outside [0, 1]
        pmf = np.array([[0.1 + 1e-17, 0.9]])
        s = predict_survival(pmf, 2)
        assert np.all((s >= 0.0) & (s <= 1.0))


class TestForward:
    def test_eval_is_pure_and_train_updates_stats(self, rng):
        cfg = small_config()
        p = init_params(cfg, seed=0)
        x = rng.standard_normal((16, 4))
        before = p.tensors["block0.bn.mean"].copy()
        logits_eval, cache = forward(p, x, mode="eval")
        assert cache is None
        assert np.array_equal(p.tensors["block0.bn.mean"], before)
        forward(p, x, mode="train")
        assert not np.array_equal(p.tensors["block0.bn.mean"], before)

    def test_train_needs_two_samples(self, rng):
        p = init_params(small_config(), seed=0)
        with pytest.raises(ValueError):
            forward(p, rng.standard_normal((1, 4)), mode="train")
        logits, _ = forward(p, rng.standard_normal((1, 4)), mode="eval")
        assert logits.shape == (1, 5)

    def test_dropout_needs_seed_and_is_deterministic(self, rng):
        cfg = small_config(dropout=0.5)
        p = init_params(cfg, seed=0)
        x = rng.standard_normal((32, 4))
        with pytest.raises(ValueError):
            forward(p, x, mode="train")
        a, _ = forward(p, x, mode="train", seed=(1, 2))
        b, _ = forward(p, x, mode="train", seed=(1, 2))
        c, _ = forward(p, x, mode="train", seed=(1, 3))
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_eval_matches_train_after_stats_converge(self, rng):
        # repeated train passes drive the running statistics to the batch
        # statistics; eval on the same batch must then reproduce train logits
        cfg = small_config(dropout=0.0)
        p = init_params(cfg, seed=3)
        x = rng.standard_normal((64, 4))
        for _ in range(600):
            train_logits, _ = forward(p, x, mode="train")
        eval_logits, _ = forward(p, x, mode="eval")
        assert np.allclose(eval_logits, train_logits, atol=1e-6)

    def test_rejects_wrong_width(self, rng):
        p = init_params(small_config(), seed=0)
        with pytest.raises(ValueError):
            forward(p, rng.standard_normal((8, 3)), mode="eval")


class TestBackward:
    def loss_and_grads(self, p, x, c, seed=None):
        logits, cache = forward(p, x, mode="train", seed=seed)
        return float((logits * c).sum()), backward(p, cache, c)

    def test_matches_finite_differences(self, rng):
        cfg = small_config(dropout=0.0)
        p = init_params(cfg, seed=5)
        x = rng.standard_normal((12, 4))
        c = rng.standard_normal((12, cfg.k_bins))
        _, analytic = self.loss_and_grads(p, x, c)
        h = 1e-5
        worst = 0.0
        for name in analytic:
            w = p.tensors[name]
            it = np.nditer(w, flags=["multi_index"])
            for _ in it:
                idx = it.multi_index
                orig = w[idx]
                w[idx] = orig + h
                up, _ = self.loss_and_grads(p, x, c)
                w[idx] = orig - h
                dn, _ = self.loss_and_grads(p, x, c)
                w[idx] = orig
                num = (up - dn) / (2 * h)
                denom = max(abs(num), abs(analytic[name][idx]), 1e-4)
                worst = max(worst, abs(num - analytic[name][idx]) / denom)
        assert worst < 1e-6

    def test_duplicated_rows_still_check_out(self, rng):
        # repeated inputs stress the batch-statistics backward path
        cfg = ModelConfig(input_dim=3, hidden_dim=4, n_blocks=1,
                          dropout_rate=0.0, k_bins=4)
        p = init_params(cfg, seed=2)
        base = rng.standard_normal((4, 3))
        x = np.vstack([base, base])
        c = rng.standard_normal((8, 4))
        _, analytic = self.loss_and_grads(p, x, c)
        h = 1e-5
        for name in ("block0.linear.w", "input.w", "block0.bn.scale"):
            w = p.tensors[name]
            it = np.nditer(w, flags=["multi_index"])
            for _ in it:
                idx = it.multi_index
                orig = w[idx]
                w[idx] = orig + h
                up, _ = self.loss_and_grads(p, x, c)
                w[idx] = orig - h
                dn, _ = self.loss_and_grads(p, x, c)
                w[idx] = orig
                num = (up - dn) / (2 * h)
                denom = max(abs(num), abs(analytic[name][idx]), 1e-4)
                assert abs(num - analytic[name][idx]) / denom < 1e-5

    def test_dropout_masks_flow_through_backward(self, rng):
        cfg = small_config(dropout=0.4)
        p = init_params(cfg, seed=1)
        x = rng.standard_normal((16, 4))
        c = rng.standard_normal((16, cfg.k_bins))
        _, analytic = self.loss_and_grads(p, x, c, seed=(0, 0))
        h = 1e-5
        name = "output.w"
        w = p.tensors[name]
        it = np.nditer(w, flags=["multi_index"])
        for _ in it:
            idx = it.multi_index
            orig = w[idx]
            w[idx] = orig + h
            up, _ = self.loss_and_grads(p, x, c, seed=(0, 0))
            w[idx] = orig - h
            dn, _ = self.loss_and_grads(p, x, c, seed=(0, 0))
            w[idx] = orig
            num = (up - dn) / (2 * h)
            denom = max(abs(num), abs(analytic[name][idx]), 1e-4)
            assert abs(num - analytic[name][idx]) / denom < 1e-5


def perturbed_params(cfg, rng):
    """Initial params with every tensor moved off its init value, so biases,
    the batch-norm affine and the running statistics all take part."""
    p = init_params(cfg, seed=int(rng.integers(1000)))
    for name, tensor in p.tensors.items():
        if name.endswith(".var"):
            tensor[...] = rng.uniform(0.5, 2.0, size=tensor.shape)
        elif name.endswith(".scale"):
            tensor[...] = rng.uniform(0.5, 1.5, size=tensor.shape)
        else:
            tensor += 0.3 * rng.standard_normal(tensor.shape)
    return p


class TestReferencePasses:
    """The in-place passes against the allocating ones they replaced, bit for
    bit.  ``np.array_equal`` counts -0.0 equal to 0.0: where ReLU closed the
    gate, backward multiplies by the combined mask instead of writing +0.0,
    and the sign of that exact zero is the only difference it can make."""

    @pytest.mark.parametrize("n", [2, 3, 257, 1024])
    @pytest.mark.parametrize("n_blocks", [0, 1, 2])
    @pytest.mark.parametrize("dropout", [0.0, 0.2])
    @pytest.mark.parametrize("mode", ["train", "eval"])
    def test_passes_equal_the_reference(self, mode, dropout, n_blocks, n):
        rng = np.random.default_rng([n, n_blocks, int(dropout * 10)])
        cfg = ModelConfig(input_dim=6, hidden_dim=16, n_blocks=n_blocks,
                          dropout_rate=dropout, k_bins=7)
        p = perturbed_params(cfg, rng)
        ref = p.copy()
        x = 2.0 * rng.standard_normal((n, cfg.input_dim))
        x_before = x.copy()
        seed = [5, n]

        logits, cache = forward(p, x, mode=mode, seed=seed)
        ref_logits, ref_cache = reference_forward(ref, x, mode=mode, seed=seed)
        assert np.array_equal(logits, ref_logits)
        for name, tensor in p.tensors.items():
            assert np.array_equal(tensor, ref.tensors[name]), name

        logits_before = logits.copy()
        pmfs = apply_head(logits)
        assert np.array_equal(pmfs, reference_apply_head(logits))
        assert np.array_equal(logits, logits_before)

        if mode == "train":
            grad_pmf = rng.standard_normal(pmfs.shape)
            grad_logits = head_backward(pmfs, grad_pmf)
            g_before = grad_logits.copy()
            grads = backward(p, cache, grad_logits)
            ref_grads = reference_backward(ref, ref_cache, grad_logits)
            assert grads.keys() == ref_grads.keys()
            assert set(grads) == differentiated(cfg)
            for name, grad in grads.items():
                assert np.array_equal(grad, ref_grads[name]), name
            assert np.array_equal(grad_logits, g_before)
        else:
            assert cache is None and ref_cache is None
        assert np.array_equal(x, x_before)

    def test_repeated_train_steps_stay_equal(self, rng):
        # the running statistics compound over steps; a drift would show here
        cfg = ModelConfig(input_dim=5, hidden_dim=12, n_blocks=2,
                          dropout_rate=0.2, k_bins=6)
        p = perturbed_params(cfg, rng)
        ref = p.copy()
        for step in range(20):
            x = rng.standard_normal((64, cfg.input_dim))
            c = rng.standard_normal((64, cfg.k_bins))
            logits, cache = forward(p, x, mode="train", seed=[step])
            ref_logits, ref_cache = reference_forward(ref, x, mode="train", seed=[step])
            assert np.array_equal(logits, ref_logits)
            grads = backward(p, cache, c)
            ref_grads = reference_backward(ref, ref_cache, c)
            for name in grads:
                assert np.array_equal(grads[name], ref_grads[name]), name
                p.tensors[name] -= 0.05 * grads[name]
                ref.tensors[name] -= 0.05 * ref_grads[name]
        for name, tensor in p.tensors.items():
            assert np.array_equal(tensor, ref.tensors[name]), name

    def test_head_on_one_row_and_extreme_logits(self):
        for z in (np.array([0.5, -1.0, 3.0]), np.array([[700.0, -700.0, 0.0]]),
                  np.array([[-1e300, 1e300, 0.0]])):
            assert np.array_equal(apply_head(z), reference_apply_head(z))


class TestPeakMemory:
    """numpy reports its buffers to tracemalloc, so a pass's traced peak is
    the most memory its temporaries hold at once."""

    n, hidden, k = 20_000, 32, 10

    def traced_peak(self, fn):
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            fn()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return peak - base

    def test_eval_forward_holds_at_most_two_hidden_arrays(self, rng):
        cfg = ModelConfig(input_dim=10, hidden_dim=self.hidden, n_blocks=2,
                          k_bins=self.k)
        p = perturbed_params(cfg, rng)
        x = rng.standard_normal((self.n, cfg.input_dim))
        peak = self.traced_peak(lambda: forward(p, x, mode="eval"))
        assert peak <= 2.5 * self.n * self.hidden * 8

    def test_head_holds_about_one_output_array(self, rng):
        logits = rng.standard_normal((self.n, self.k))
        peak = self.traced_peak(lambda: apply_head(logits))
        assert peak <= 1.5 * self.n * self.k * 8


class TestCheckpoint:
    def test_round_trip_identity(self, tmp_path, rng):
        cfg = small_config()
        p = init_params(cfg, seed=4)
        forward(p, rng.standard_normal((8, 4)), mode="train")
        path = tmp_path / "model.json"
        model = trained(p)
        save_checkpoint(path, model)
        back = load_checkpoint(path)
        assert back.params.config == p.config
        for name, tensor in p.tensors.items():
            assert np.array_equal(back.params.tensors[name], tensor), name
        for key in ("feature_names", "time_col", "event_col", "cutoff"):
            assert getattr(back, key) == getattr(model, key), key
        assert np.array_equal(back.scaler.mean, model.scaler.mean)
        assert np.array_equal(back.scaler.std, model.scaler.std)

    def test_file_holds_only_what_is_read(self, tmp_path):
        path = tmp_path / "model.json"
        save_checkpoint(path, trained(init_params(small_config(), seed=4), None))
        payload = json.loads(path.read_text(encoding="utf-8"))
        assert list(payload) == ["format", "version", "config", "tensors", "meta"]
        assert list(payload["meta"]) == ["scaler_mean", "scaler_std", "feature_names",
                                         "time_col", "event_col", "cutoff"]
        assert payload["meta"]["cutoff"] is None
        assert load_checkpoint(path).cutoff is None

    def test_older_files_load_and_resave_without_unread_keys(self, tmp_path):
        # unknown top-level and meta keys (an update counter, a seed) are
        # ignored, and a resave drops them
        path = tmp_path / "model.json"
        save_checkpoint(path, trained(init_params(small_config(), seed=4)))
        payload = json.loads(path.read_text(encoding="utf-8"))
        older = {**{k: payload[k] for k in ("format", "version", "config")},
                 "updates": 7, "tensors": payload["tensors"],
                 "meta": {**payload["meta"], "seed": 3}}
        path.write_text(json.dumps(older), encoding="utf-8")
        back = load_checkpoint(path)
        save_checkpoint(tmp_path / "again.json", back)
        assert (tmp_path / "again.json").read_text(encoding="utf-8") == \
            json.dumps(payload) + "\n"

    def test_rewrites_are_byte_identical(self, tmp_path, rng):
        p = init_params(small_config(), seed=4)
        forward(p, rng.standard_normal((8, 4)), mode="train")
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        save_checkpoint(a, trained(p))
        save_checkpoint(b, trained(p))
        assert a.read_bytes() == b.read_bytes()

    def test_load_draws_no_weights(self, tmp_path, monkeypatch):
        # the tensor layout is checked against the shape table, not against
        # freshly drawn weights
        p = init_params(small_config(), seed=4)
        path = tmp_path / "model.json"
        save_checkpoint(path, trained(p))

        def refuse(*args, **kwargs):
            raise AssertionError("load_checkpoint drew random numbers")

        monkeypatch.setattr(np.random, "default_rng", refuse)
        back = load_checkpoint(path).params
        assert list(back.tensors) == list(p.tensors)
        for name, tensor in p.tensors.items():
            assert np.array_equal(back.tensors[name], tensor), name

    def test_huge_n_blocks_is_rejected_before_its_layout_is_built(self, tmp_path):
        # 200 000 blocks would lay out a million tensor names before the
        # file's 14 tensors were compared with them
        path = tmp_path / "model.json"
        save_checkpoint(path, trained(init_params(small_config(), seed=4)))
        payload = json.loads(path.read_text(encoding="utf-8"))
        payload["config"]["n_blocks"] = 200_000
        path.write_text(json.dumps(payload), encoding="utf-8")
        tracemalloc.start()
        try:
            with pytest.raises(ValueError) as info:
                load_checkpoint(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 5 * 2 ** 20
        assert str(info.value) == (f"{path}: missing tensor 'block2.linear.w' "
                                   "(n_blocks 200000 lays out 1000004 tensors, "
                                   "the file stores 14)")

    def test_rejects_foreign_file(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"kind": "other"}', encoding="utf-8")
        with pytest.raises(ValueError):
            load_checkpoint(path)


class TestPrepare:
    """TrainedModel.prepare: held-out columns matched by name, then scaled."""

    model = trained(init_params(small_config(), seed=0))

    def raw(self, rng, names):
        n = 9
        return SurvivalDataset(rng.standard_normal((n, len(names))),
                               rng.uniform(0.5, 3.0, n), rng.integers(0, 2, n),
                               names)

    def reversed_copy(self, raw):
        return SurvivalDataset(raw.features[:, ::-1], raw.times, raw.events,
                               raw.feature_names[::-1])

    def assert_same_bytes(self, a, b):
        assert a.feature_names == b.feature_names
        for field in ("features", "times", "events"):
            assert getattr(a, field).tobytes() == getattr(b, field).tobytes(), field

    def test_column_order_does_not_change_the_bytes(self, rng):
        raw = self.raw(rng, self.model.feature_names)
        self.assert_same_bytes(self.model.prepare(self.reversed_copy(raw)),
                               self.model.prepare(raw))

    def test_result_is_apply_scaler_of_the_matched_rows(self, rng):
        raw = self.raw(rng, self.model.feature_names)
        self.assert_same_bytes(self.model.prepare(self.reversed_copy(raw)),
                               apply_scaler(raw, self.model.scaler))

    def test_missing_and_extra_columns_named(self, rng):
        with pytest.raises(ValueError) as info:
            self.model.prepare(self.raw(rng, ["y1", "x2", "y3", "x4"]))
        assert str(info.value) == ("test data columns do not match the "
                                   "checkpoint's features: missing 'x1', 'x3'; "
                                   "extra 'y1', 'y3'")

    def test_input_is_not_written(self, rng):
        raw = self.reversed_copy(self.raw(rng, self.model.feature_names))
        before = [a.copy() for a in (raw.features, raw.times, raw.events)]
        out = self.model.prepare(raw)
        for field, copy in zip(("features", "times", "events"), before):
            assert getattr(raw, field).tobytes() == copy.tobytes(), field
            assert not np.shares_memory(getattr(out, field), getattr(raw, field))


class TestConfigValidation:
    def test_rejects_bad_sizes(self):
        with pytest.raises(ValueError):
            ModelConfig(input_dim=0)
        with pytest.raises(ValueError):
            ModelConfig(input_dim=3, k_bins=1)
        with pytest.raises(ValueError):
            ModelConfig(input_dim=3, dropout_rate=1.0)
