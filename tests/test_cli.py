"""Config parsing and the five CLI subcommands, run in-process."""

import ast
import inspect
import json
import re
import shutil
import xml.etree.ElementTree as ET
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

import binsurv
import binsurv.cli
from binsurv.cli import build_parser, main
from binsurv.config import (
    ConfigError, ExperimentConfig, build_config, parse_config_file,
)
from binsurv.data import (
    SurvivalDataset, load_csv, load_grid, write_csv,
)
from binsurv.losses import LossWeights
from binsurv.metrics import UndefinedMetricError
from binsurv.model import (
    ModelConfig, apply_head, forward, load_checkpoint, predict_risk,
)
from binsurv.synth import SynthConfig
from binsurv.training import TrainConfig

from helpers import README, readme_python_blocks, run_fresh


def run(args):
    return main(list(args))


@pytest.fixture(scope="module")
def data_csv(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "synthetic.csv"
    assert run(["synth", "--n", "400", "--features", "5", "--censor-rate",
                "0.3", "--seed", "11", "--out", str(path)]) == 0
    return path


FAST = ["--set", "epochs=5", "--set", "batch_size=64", "--set", "lr_init=0.05",
        "--set", "hidden_dim=8", "--set", "n_blocks=1"]


# what c_index and the mean TDAUC raise on rows they cannot score
NO_PAIR = ("no comparable pairs for the concordance index "
           "(no event is followed by a later time)")
NO_TDAUC_TIME = ("no evaluable time points for mean TDAUC (no grid time at or "
                 "after the first event and before the last time)")


@pytest.fixture(scope="module")
def run_dir(data_csv, tmp_path_factory):
    out = tmp_path_factory.mktemp("run")
    assert run(["train", "--data", str(data_csv), "--out", str(out),
                "--seed", "5", *FAST]) == 0
    return out


def edit_tensors(payload, drop=None, narrow=None, first_value=(), add=None,
                 short=None):
    """A copy of a checkpoint payload with one tensor edit applied."""
    payload = json.loads(json.dumps(payload))
    tensors = payload["tensors"]
    if drop:
        del tensors[drop]
    if short:  # one value fewer than the shape holds
        del tensors[short]["data"][-1]
    if narrow:  # one output column fewer, data cut to match
        rows, cols = tensors[narrow]["shape"]
        tensors[narrow] = {"shape": [rows, cols - 1],
                           "data": tensors[narrow]["data"][:rows * (cols - 1)]}
    if first_value != ():
        tensors["input.w"]["data"][0] = first_value
    if add:
        tensors[add] = {"shape": [1], "data": [0.0]}
    return payload


def edit_meta(payload, drop=None, **changes):
    """A copy of a checkpoint payload with the given meta keys replaced, and
    meta key ``drop`` deleted."""
    meta = {key: value for key, value in payload["meta"].items() if key != drop}
    return {**payload, "meta": {**meta, **changes}}


@pytest.fixture(scope="module")
def ablation(data_csv, tmp_path_factory):
    out = tmp_path_factory.mktemp("abl")
    code = run(["ablate", "--data", str(data_csv), "--out", str(out),
                "--seed", "5", "--set", "epochs=3",
                "--set", "batch_size=64", "--set", "lr_init=0.05",
                "--set", "hidden_dim=8", "--set", "n_blocks=1"])
    assert code == 0
    return out


class TestConfigModule:
    def test_type_coercion_and_split_parsing(self):
        cfg = build_config({"epochs": "12", "lr_init": "0.5",
                            "split": "0.5,0.25,0.25",
                            "pairwise_kind": "rank", "seed": "7"})
        assert cfg.epochs == 12 and cfg.lr_init == 0.5 and cfg.seed == 7
        assert cfg.split == (0.5, 0.25, 0.25)
        assert cfg.pairwise_kind == "rank"

    def test_unknown_key_is_named(self):
        for key in ("learning_rate", "head", "momentum", "weight_decay",
                    "likelihood_mode", "eval_every", "calib_bins"):
            with pytest.raises(ConfigError, match=f"unknown config key '{key}'"):
                build_config({key: "0"})

    def test_defaults_are_the_sub_configs_own(self):
        cfg = build_config({})
        assert cfg.model_config(4) == ModelConfig(4)
        assert cfg.loss_weights() == LossWeights()
        assert cfg.train_config() == TrainConfig()

    def test_bad_value_is_named(self):
        with pytest.raises(ConfigError, match="epochs"):
            build_config({"epochs": "ten"})
        with pytest.raises(ConfigError, match="split"):
            build_config({"split": "0.5,0.6"})
        with pytest.raises(ConfigError, match="sigma"):
            build_config({"sigma": "3.0"}).loss_weights()

    def test_config_file_with_comments(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("# comment\nepochs = 3\n\nbeta=0.1 # trailing\n",
                        encoding="utf-8")
        values = parse_config_file(path)
        assert values["epochs"] == "3"
        assert values["beta"] == "0.1"

    def test_config_file_errors_cite_line(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("epochs = 3\nnot a pair\n", encoding="utf-8")
        with pytest.raises(ConfigError, match="line 2"):
            parse_config_file(path)

    def test_config_file_with_byte_order_mark(self, tmp_path):
        # some editors start a UTF-8 file with U+FEFF
        path = tmp_path / "run.cfg"
        path.write_text("\ufeffepochs = 3\n", encoding="utf-8")
        assert parse_config_file(path) == {"epochs": "3"}

    def test_resolved_lines_cover_every_key(self):
        cfg = build_config({})
        lines = cfg.resolved_lines()
        keys = {line.split("=")[0] for line in lines}
        for expected in ("alpha", "beta", "gamma", "sigma", "rho",
                         "pairwise_kind",
                         "epochs", "batch_size", "k_bins"):
            assert expected in keys
        assert lines == cfg.resolved_lines()  # stable across calls

    def test_readme_config_table_lists_every_key(self):
        section = README.read_text(encoding="utf-8").split("\n## Config\n", 1)[1]
        section = section.split("\n## ", 1)[0]
        keys = set()
        for line in section.splitlines():
            if line.startswith("| `"):
                keys.update(re.findall(r"`([^`]+)`", line.split("|")[1]))
        assert keys == {f.name for f in fields(ExperimentConfig)}


class TestSynthCommand:
    def test_writes_csv_and_oracle_sidecar(self, data_csv):
        ds = load_csv(data_csv)
        assert len(ds) == 400 and ds.n_features == 5
        sidecar = json.loads(
            (data_csv.parent / "synthetic.csv.oracle.json").read_text())
        assert list(sidecar) == ["format", "version", "seed", "bayes_c_index",
                                 "oracle_risks"]
        assert sidecar["format"] == "binsurv-oracle" and sidecar["version"] == 1
        assert sidecar["seed"] == 11
        assert len(sidecar["oracle_risks"]) == 400
        assert 0.5 < sidecar["bayes_c_index"] <= 1.0

    def test_parser_defaults_are_the_config_defaults(self):
        args = build_parser().parse_args(["synth"])
        dest = {"n_samples": "n", "n_features": "features",
                "target_censor_rate": "censor_rate"}
        for field in fields(SynthConfig):
            assert getattr(args, dest.get(field.name, field.name)) == field.default, \
                field.name

    def test_bad_arguments_exit_two(self, tmp_path):
        assert run(["synth", "--n", "1", "--out",
                    str(tmp_path / "x.csv")]) == 2

    @pytest.mark.parametrize("shape", ["nan", "inf"])
    def test_weibull_shape_out_of_range_exits_two(self, tmp_path, capsys, shape):
        out = tmp_path / "x.csv"
        assert run(["synth", "--n", "50", "--baseline", "weibull",
                    "--weibull-shape", shape, "--out", str(out)]) == 2
        assert "weibull_shape must be finite and positive" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_unreachable_censor_rate_exits_two(self, tmp_path, capsys):
        # three rows censor in steps of 1/3, never within 0.02 of one half
        out = tmp_path / "x.csv"
        assert run(["synth", "--n", "3", "--censor-rate", "0.5",
                    "--out", str(out)]) == 2
        assert "target censor rate 0.5" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []  # neither the CSV nor its sidecar

    def test_no_comparable_pair_exits_two_and_writes_nothing(self, tmp_path, capsys):
        # seed 0 draws one event and one censored row at an earlier time, so
        # the oracle C-index is undefined; it is computed before any write
        out = tmp_path / "sub" / "x.csv"
        assert run(["synth", "--n", "2", "--censor-rate", "0.5", "--seed", "0",
                    "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: {NO_PAIR}\n"
        assert list(tmp_path.iterdir()) == []


class TestTrainCommand:
    def test_artifacts_written(self, data_csv, tmp_path):
        out = tmp_path / "run"
        assert run(["train", "--data", str(data_csv), "--out", str(out),
                    "--seed", "5", *FAST]) == 0
        for name in ("checkpoint.json", "history.csv", "config_resolved.txt",
                     "grid.json", "test.csv"):
            assert (out / name).exists(), name
        history = (out / "history.csv").read_text().splitlines()
        assert len(history) == 6  # header + five epochs
        resolved = (out / "config_resolved.txt").read_text()
        assert "epochs=5" in resolved and "seed=5" in resolved

    def test_rerun_is_byte_identical(self, data_csv, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert run(["train", "--data", str(data_csv), "--out", str(out),
                        "--seed", "3", *FAST]) == 0
        for name in ("history.csv", "checkpoint.json", "grid.json"):
            assert (a / name).read_bytes() == (b / name).read_bytes(), name

    def test_missing_column_exits_two(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("t,event,x1\n1.0,1,0.5\n2.0,1,0.1\n", encoding="utf-8")
        code = run(["train", "--data", str(bad), "--out",
                    str(tmp_path / "o")])
        assert code == 2
        assert "time" in capsys.readouterr().err

    def test_duplicate_header_exits_two(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("time,event,x1,x1\n1.0,1,0.5,0.2\n2.0,1,0.1,0.3\n",
                       encoding="utf-8")
        code = run(["train", "--data", str(bad), "--out", str(tmp_path / "o")])
        assert code == 2
        assert "duplicate column 'x1'" in capsys.readouterr().err

    def test_unknown_config_key_exits_two(self, data_csv, tmp_path, capsys):
        code = run(["train", "--data", str(data_csv), "--out",
                    str(tmp_path / "o"), "--set", "warmup=5"])
        assert code == 2
        assert "warmup" in capsys.readouterr().err

    def test_out_of_range_rho_exits_two(self, data_csv, tmp_path, capsys):
        code = run(["train", "--data", str(data_csv), "--out",
                    str(tmp_path / "o"), "--set", "rho=1000"])
        assert code == 2
        assert "rho" in capsys.readouterr().err

    @pytest.mark.parametrize("setting", [
        "alpha=nan", "beta=nan", "gamma=nan", "alpha=inf", "gamma=inf",
        "lr_init=nan", "lr_init=inf",
    ])
    def test_non_finite_weight_or_rate_exits_two(self, data_csv, tmp_path,
                                                 capsys, setting):
        code = run(["train", "--data", str(data_csv), "--out",
                    str(tmp_path / "o"), *FAST, "--set", setting])
        assert code == 2
        assert setting.split("=")[0] in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["prepare", "train", "ablate"])
    @pytest.mark.parametrize("setting", [
        "k_bins=2", "split=0.5,0.5,0.5", "split=0.6,0.4,0.0",
        "split=nan,0.5,0.5",
    ])
    def test_bad_grid_or_split_exits_two(self, data_csv, tmp_path, capsys,
                                         command, setting):
        code = run([command, "--data", str(data_csv), "--out",
                    str(tmp_path / "o"), *FAST, "--set", setting])
        assert code == 2
        assert setting.split("=")[0] in capsys.readouterr().err

    @pytest.mark.parametrize("setting, message", [
        ("dropout=1.5", "dropout must lie in [0, 1)"),
        ("epochs=0", "epochs must be at least 1"),
        ("hidden_dim=0", "hidden_dim must be at least 1"),
        ("n_blocks=-1", "n_blocks must be non-negative"),
    ], ids=["dropout", "epochs", "hidden_dim", "n_blocks"])
    def test_range_error_names_the_config_key(self, data_csv, tmp_path, capsys,
                                              setting, message):
        code = run(["train", "--data", str(data_csv), "--out",
                    str(tmp_path / "o"), *FAST, "--set", setting])
        assert code == 2
        assert f"error: {message}" in capsys.readouterr().err

    @pytest.mark.parametrize("command", [
        "train", "train-presplit", "ablate", "prepare", "synth",
    ])
    def test_negative_seed_exits_two(self, data_csv, tmp_path, capsys, command):
        out = str(tmp_path / "o")
        args = {
            "train-presplit": ["train", "--out", out,
                               "--set", f"train_csv={data_csv}",
                               "--set", f"val_csv={data_csv}"],
            "synth": ["synth", "--out", str(tmp_path / "s.csv")],
        }.get(command, [command, "--data", str(data_csv), "--out", out])
        assert run([*args, "--seed", "-1"]) == 2
        assert "error: seed must be non-negative, got -1" in capsys.readouterr().err

    def test_no_training_cutoff_is_stored_as_null(self, data_csv, tmp_path,
                                                 monkeypatch, caplog):
        def undefined(*args, **kwargs):
            raise UndefinedMetricError("no cutoff keeps both groups above the "
                                       "minimum group size")

        monkeypatch.setattr(binsurv.cli, "select_cutoff", undefined)
        out = tmp_path / "o"
        with caplog.at_level("WARNING", logger="binsurv"):
            assert run(["train", "--data", str(data_csv), "--out", str(out), *FAST,
                        "--set", "epochs=2"]) == 0
        assert ("no training cutoff stored: no cutoff keeps both groups above the "
                "minimum group size") in caplog.messages
        payload = json.loads((out / "checkpoint.json").read_text(encoding="utf-8"))
        assert payload["meta"]["cutoff"] is None
        assert run(["evaluate", "--checkpoint", str(out / "checkpoint.json"),
                    "--grid", str(out / "grid.json"), "--data", str(out / "test.csv"),
                    "--out", str(tmp_path / "e")]) == 0
        header, row = (tmp_path / "e" / "report.csv").read_text().splitlines()
        report = dict(zip(header.split(","), row.split(",")))
        assert (report["cutoff_source"], report["cutoff"]) == ("none", "nan")

    def test_no_data_source_exits_two(self, tmp_path):
        assert run(["train", "--out", str(tmp_path / "o")]) == 2

    def test_config_file_with_set_override(self, data_csv, tmp_path):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(f"data = {data_csv}\nepochs = 2\nhidden_dim = 8\n"
                       "n_blocks = 1\nbatch_size = 64\n", encoding="utf-8")
        out = tmp_path / "run"
        assert run(["train", "--config", str(cfg), "--out", str(out),
                    "--set", "epochs=3"]) == 0
        history = (out / "history.csv").read_text().splitlines()
        assert len(history) == 4  # the --set value wins over the file

    def test_presplit_mode(self, data_csv, tmp_path):
        prep = tmp_path / "prep"
        assert run(["prepare", "--data", str(data_csv), "--out", str(prep),
                    "--seed", "2"]) == 0
        out = tmp_path / "run"
        assert run(["train", "--out", str(out), *FAST,
                    "--set", f"train_csv={prep / 'train.csv'}",
                    "--set", f"val_csv={prep / 'val.csv'}"]) == 0
        assert (out / "checkpoint.json").exists()
        assert not (out / "test.csv").exists()  # no held-out rows to copy

    def test_single_file_matches_prepare_then_presplit(self, data_csv, tmp_path):
        # the scaler sees only training rows in both modes, so one file split
        # in-process and the same split written by `prepare` train alike
        fast = [*FAST, "--set", "epochs=3"]
        single = tmp_path / "single"
        assert run(["train", "--data", str(data_csv), "--out", str(single),
                    "--seed", "7", *fast]) == 0
        prep = tmp_path / "prep"
        assert run(["prepare", "--data", str(data_csv), "--out", str(prep),
                    "--seed", "7"]) == 0
        presplit = tmp_path / "presplit"
        assert run(["train", "--out", str(presplit), "--seed", "7", *fast,
                    "--set", f"train_csv={prep / 'train.csv'}",
                    "--set", f"val_csv={prep / 'val.csv'}",
                    "--set", f"test_csv={prep / 'test.csv'}"]) == 0
        for name in ("checkpoint.json", "history.csv", "grid.json"):
            assert (single / name).read_bytes() == (presplit / name).read_bytes(), name
        assert (single / "test.csv").read_bytes() == (prep / "test.csv").read_bytes()


ZERO_WEIGHTS = ["--set", "alpha=0", "--set", "beta=0", "--set", "gamma=0"]
REJECTED_RUNS = [
    *[(command, "cohort", extra) for command in ("prepare", "train", "ablate")
      for extra in (["--set", "hidden_dim=0"], ["--set", "sigma=3"],
                    ["--set", "k_bins=2"], ["--set", "epochs=0"], ZERO_WEIGHTS)],
    *[(command, data, []) for command in ("prepare", "train", "ablate")
      for data in ("bad-event", "all-censored")],
    ("ablate", "cohort", ["--set", "alpha=0"]),
    ("ablate", "cohort", ["--rows", "mle,bogus"]),
    ("ablate", "cohort", ["--rows", "mle,rank+time_rank"]),
    ("ablate", "cohort", ["--rows", ""]),
    ("ablate", "cohort", ["--rows", "mle,,rank"]),
    ("ablate", "cohort", ["--rows", "mle,rank+mle+rank"]),
    ("ablate", "cohort", ["--rows", "mle+rank,rank+mle"]),
]


@pytest.mark.parametrize("command, data, extra", REJECTED_RUNS, ids=[
    "-".join([command, data, *extra[1::2]]) for command, data, extra in REJECTED_RUNS])
def test_rejected_run_writes_nothing(data_csv, tmp_path, capsys, command, data,
                                     extra):
    """Every setting, ablation row and input row is checked before the first
    write, so a rejected run leaves no output directory behind."""
    source = data_csv
    if data == "bad-event":
        source = tmp_path / "bad_event.csv"
        lines = data_csv.read_text(encoding="utf-8").splitlines()
        lines[5] = lines[5].rsplit(",", 1)[0] + ",2"
        source.write_text("\n".join(lines) + "\n", encoding="utf-8")
    elif data == "all-censored":
        source = unscorable_copy(data_csv, tmp_path / "censored.csv", data)
    out = tmp_path / "o"
    code = run([command, "--data", str(source), "--out", str(out), *FAST, *extra])
    assert code == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()


DATA_WITH_FILE = "data= cannot be combined with {}="


@pytest.mark.parametrize("command, extra, message", [
    ("train", ZERO_WEIGHTS, "at least one of alpha, beta and gamma must be positive"),
    ("train", ["--set", "calib_bins=5"], "unknown config key 'calib_bins'"),
    ("train", ["--set", "epochs"], "--set expects KEY=VALUE, got 'epochs'"),
    ("train", ["--set", "split=a,b,c"], "split must be numeric, got 'a,b,c'"),
    ("train", ["--set", "split=0.5,0.5"],
     "split must be three comma-separated ratios, got '0.5,0.5'"),
    ("ablate-presplit", [], "ablate needs a test split (single-CSV mode or test_csv=)"),
    ("prepare", ["--set", "train_csv=prep/train.csv"], DATA_WITH_FILE.format("train_csv")),
    ("train", ["--set", "val_csv=prep/val.csv"], DATA_WITH_FILE.format("val_csv")),
    ("ablate", ["--set", "test_csv=prep/test.csv"], DATA_WITH_FILE.format("test_csv")),
], ids=["zero-weights", "calib_bins", "set-without-value", "non-numeric-split",
        "two-part-split", "ablate-without-test_csv", "prepare-data-with-train_csv",
        "train-data-with-val_csv", "ablate-data-with-test_csv"])
def test_rejected_train_setting_is_named(data_csv, tmp_path, capsys, command, extra,
                                         message):
    out = tmp_path / "o"
    source = {"ablate-presplit": ["ablate", "--set", f"train_csv={data_csv}",
                                  "--set", f"val_csv={data_csv}"],
              }.get(command, [command, "--data", str(data_csv)])
    code = run([*source, "--out", str(out), *FAST, *extra])
    assert code == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("command", ["prepare", "train", "ablate"])
def test_one_column_for_time_and_event_exits_two(data_csv, tmp_path, capsys,
                                                 command):
    out = tmp_path / "o"
    code = run([command, "--data", str(data_csv), "--out", str(out), *FAST,
                "--set", "time_col=event"])
    assert code == 2
    assert capsys.readouterr().err == (
        f"error: {data_csv}: 'event' is both the time and event column\n")
    assert not out.exists()


def test_evaluate_with_one_column_for_time_and_event_exits_two(run_dir, tmp_path,
                                                               capsys):
    out = tmp_path / "e"
    data = run_dir / "test.csv"
    code = run(["evaluate", "--checkpoint", str(run_dir / "checkpoint.json"),
                "--grid", str(run_dir / "grid.json"), "--data", str(data),
                "--time-col", "time", "--event-col", "time", "--out", str(out)])
    assert code == 2
    assert capsys.readouterr().err == (
        f"error: {data}: 'time' is both the time and event column\n")
    assert not out.exists()


def test_file_without_features_exits_two(tmp_path, capsys):
    data = tmp_path / "outcomes.csv"
    data.write_text("time,event\n" + "".join(f"{t}.5,{t % 2}\n" for t in range(1, 40)),
                    encoding="utf-8")
    out = tmp_path / "o"
    code = run(["train", "--data", str(data), "--out", str(out), *FAST])
    assert code == 2
    assert capsys.readouterr().err == (
        f"error: {data}: no feature column\n")
    assert not out.exists()


def latin1_copy(src, dst):
    """``src`` with byte 0xE9 (e-acute in Latin-1) after the first cell of
    its third data row, so that the file is no longer UTF-8."""
    lines = src.read_bytes().split(b"\n")
    lines[3] = lines[3].replace(b",", b"\xe9,", 1)
    dst.write_bytes(b"\n".join(lines))
    return dst


@pytest.mark.parametrize("command", ["prepare", "train", "train-presplit", "ablate",
                                     "evaluate"])
def test_csv_that_is_not_utf8_exits_two_and_names_it(data_csv, run_dir, tmp_path,
                                                     capsys, command):
    out = tmp_path / "o"
    if command == "evaluate":
        bad = latin1_copy(run_dir / "test.csv", tmp_path / "test.csv")
        args = ["evaluate", "--checkpoint", str(run_dir / "checkpoint.json"),
                "--grid", str(run_dir / "grid.json"), "--data", str(bad)]
    elif command == "train-presplit":
        bad = latin1_copy(data_csv, tmp_path / "val.csv")
        args = ["train", "--set", f"train_csv={data_csv}", "--set", f"val_csv={bad}",
                *FAST]
    else:
        bad = latin1_copy(data_csv, tmp_path / "cohort.csv")
        args = [command, "--data", str(bad), *FAST]
    assert run([*args, "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        f"error: {bad}: not UTF-8 text (invalid continuation byte)\n")
    assert not out.exists()


def test_config_file_that_is_not_utf8_exits_two_and_names_it(data_csv, tmp_path,
                                                             capsys):
    config = tmp_path / "run.cfg"
    config.write_bytes(b"# caf\xe9\nepochs = 3\n")
    out = tmp_path / "o"
    code = run(["train", "--config", str(config), "--data", str(data_csv),
                "--out", str(out), *FAST])
    assert code == 2
    assert capsys.readouterr().err == (
        f"error: {config}: not UTF-8 text (invalid continuation byte)\n")
    assert not out.exists()


def test_events_a_few_ulps_apart_exit_two_before_writing(tmp_path, capsys):
    # t_max - t_min is two ulps of t_min: with 40 bins the rounded grid would
    # put the last training event in the reserved bin, so no grid is built
    train, val = tmp_path / "train.csv", tmp_path / "val.csv"
    times = [1.0, float(np.nextafter(1.0, 2.0)), 1.0 + 2 * float(np.spacing(1.0))]
    train.write_text("x1,time,event\n" + "".join(
        f"{i % 5},{times[i % 3]!r},{i % 2}\n" for i in range(30)), encoding="utf-8")
    val.write_text("x1,time,event\n" + "".join(
        f"{i % 5},{i + 1}.0,{i % 2}\n" for i in range(20)), encoding="utf-8")
    out = tmp_path / "o"
    code = run(["train", "--set", f"train_csv={train}", "--set", f"val_csv={val}",
                "--set", "k_bins=40", "--out", str(out), *FAST])
    assert code == 2
    assert capsys.readouterr().err == (
        "error: k_bins=40 cannot lay out event times 1.0 and 1.0000000000000004: its "
        "rounded edges must rise strictly and put them in bins 1 and 38\n")
    assert not out.exists()


def test_ablation_row_without_loss_is_named(data_csv, tmp_path, capsys):
    # with alpha=0 the mle row weighs nothing; the default rows are all checked
    code = run(["ablate", "--data", str(data_csv), "--out", str(tmp_path / "o"),
                *FAST, "--set", "alpha=0"])
    assert code == 2
    assert capsys.readouterr().err == (
        "error: ablation row mle: at least one of alpha, beta and gamma "
        "must be positive\n")


@pytest.mark.parametrize("rows, message", [
    ("mle,rank+mle+rank", "ablation row rank+mle+rank repeats a component"),
    ("mle+rank,rank+mle", "ablation row rank+mle is given twice"),
    ("mle,mle", "ablation row mle is given twice"),
])
def test_repeated_ablation_row_is_named(data_csv, tmp_path, capsys, rows, message):
    # a repeat would train the same model again and write the same row
    out = tmp_path / "o"
    code = run(["ablate", "--data", str(data_csv), "--out", str(out), *FAST,
                "--rows", rows])
    assert code == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


ORACLE_TAG = '"format": "binsurv-oracle", "version": 1'


@pytest.mark.parametrize("sidecar, message", [
    ('{%s, "seed": 0}' % ORACLE_TAG, "bayes_c_index must be a number, got None"),
    ('{%s, "bayes_c_index": "0.8"}' % ORACLE_TAG,
     "bayes_c_index must be a number, got '0.8'"),
    ('{%s, "bayes_c_index": NaN}' % ORACLE_TAG, "bayes_c_index must be finite, got nan"),
    ('{%s, "bayes_c_index": true}' % ORACLE_TAG,
     "bayes_c_index must be a number, got True"),
    ("[0.8]", "not a binsurv oracle file"),
    ("{", "not JSON: "),
    # written before the sidecar carried its format and version
    ('{"seed": 0, "bayes_c_index": 0.8, "oracle_risks": [0.1]}',
     "not a binsurv oracle file"),
    ('{"format": "binsurv-oracle", "version": 2, "bayes_c_index": 0.8}',
     "unsupported oracle file version 2"),
], ids=["missing", "string", "nan", "bool", "list", "not-json", "untagged", "version"])
def test_bad_oracle_sidecar_exits_two_before_training(data_csv, tmp_path, capsys,
                                                      sidecar, message):
    # the sidecar is read before the first row trains, so nothing is written
    data = tmp_path / "cohort.csv"
    shutil.copyfile(data_csv, data)
    path = tmp_path / "cohort.csv.oracle.json"
    path.write_text(sidecar, encoding="utf-8")
    out = tmp_path / "o"
    code = run(["ablate", "--data", str(data), "--out", str(out), *FAST,
                "--rows", "mle"])
    assert code == 2
    assert capsys.readouterr().err.startswith(f"error: {path}: {message}")
    assert not out.exists()


def unscorable_copy(src, dst, kind):
    """``src`` with no comparable pair: every row censored, or every event
    at the largest time, so no event is followed by a later time."""
    ds = load_csv(src)
    if kind == "all-censored":
        events = np.zeros_like(ds.events)
    else:
        events = (ds.times == ds.times.max()).astype(np.int64)
    write_csv(SurvivalDataset(ds.features, ds.times, events, ds.feature_names), dst)
    return dst


@pytest.fixture(scope="module")
def prep_dir(data_csv, tmp_path_factory):
    prep = tmp_path_factory.mktemp("prep")
    assert run(["prepare", "--data", str(data_csv), "--out", str(prep),
                "--seed", "2"]) == 0
    return prep


class TestUnscorableSplits:
    """A split the C-index cannot score exits 2 naming it, before training."""

    KINDS = ["all-censored", "events-at-the-last-time"]

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("command", ["train", "ablate"])
    def test_validation_split_rejected_before_training(self, prep_dir, tmp_path,
                                                       capsys, command, kind):
        val = unscorable_copy(prep_dir / "val.csv", tmp_path / "val_bad.csv", kind)
        out = tmp_path / "o"
        code = run([command, "--out", str(out), *FAST,
                    "--set", f"train_csv={prep_dir / 'train.csv'}",
                    "--set", f"val_csv={val}",
                    "--set", f"test_csv={prep_dir / 'test.csv'}"])
        assert code == 2
        err = capsys.readouterr().err
        assert f"error: val_csv={val}: {NO_PAIR}" in err
        assert not list(out.rglob("history.csv"))  # no epoch ran

    @pytest.mark.parametrize("kind", KINDS)
    def test_ablate_test_split_rejected_before_training(self, prep_dir, tmp_path,
                                                        capsys, kind):
        test = unscorable_copy(prep_dir / "test.csv", tmp_path / "test_bad.csv", kind)
        out = tmp_path / "o"
        code = run(["ablate", "--out", str(out), *FAST, "--rows", "mle",
                    "--set", f"train_csv={prep_dir / 'train.csv'}",
                    "--set", f"val_csv={prep_dir / 'val.csv'}",
                    "--set", f"test_csv={test}"])
        assert code == 2
        assert f"error: test_csv={test}: {NO_PAIR}" in capsys.readouterr().err
        assert not list(out.rglob("history.csv"))

    def test_ablate_test_split_beyond_the_grid_rejected(self, tmp_path, capsys):
        # the grid comes from training events in [1, 10], so no evaluation
        # time reaches the first test event at 20 and the mean TDAUC of every
        # row would be undefined; the C-index alone could score the split
        rng = np.random.default_rng(3)
        paths = {}
        for name, n, low, high in (("train", 60, 1, 10), ("val", 30, 1, 10),
                                   ("test", 30, 20, 30)):
            paths[name] = tmp_path / f"{name}.csv"
            events = np.arange(n) % 2
            write_csv(SurvivalDataset(rng.standard_normal((n, 3)),
                                      rng.uniform(low, high, n), events,
                                      ("a", "b", "c")), paths[name])
        out = tmp_path / "o"
        code = run(["ablate", "--out", str(out), *FAST, "--rows", "mle",
                    "--set", f"train_csv={paths['train']}",
                    "--set", f"val_csv={paths['val']}",
                    "--set", f"test_csv={paths['test']}"])
        assert code == 2
        assert capsys.readouterr().err.startswith(
            f"error: test_csv={paths['test']}: {NO_TDAUC_TIME}")
        assert not out.exists()

    def test_single_file_split_is_named(self, data_csv, tmp_path, capsys):
        # the validation split is checked before the grid is built
        data = unscorable_copy(data_csv, tmp_path / "censored.csv", "all-censored")
        code = run(["train", "--data", str(data), "--out", str(tmp_path / "o"),
                    *FAST])
        assert code == 2
        assert (f"error: the val split of data={data}: {NO_PAIR}"
                in capsys.readouterr().err)

    @pytest.mark.parametrize("kind", KINDS)
    def test_evaluate_names_the_data_file(self, run_dir, tmp_path, capsys, kind):
        data = unscorable_copy(run_dir / "test.csv", tmp_path / "bad.csv", kind)
        code = run(["evaluate", "--checkpoint", str(run_dir / "checkpoint.json"),
                    "--grid", str(run_dir / "grid.json"), "--data", str(data),
                    "--out", str(tmp_path / "e")])
        assert code == 2
        assert (f"error: {data}: no comparable pairs for the concordance index"
                in capsys.readouterr().err)


class TestEvaluateCommand:
    def test_report_and_curves(self, run_dir, tmp_path):
        out = tmp_path / "eval"
        assert run(["evaluate", "--checkpoint", str(run_dir / "checkpoint.json"),
                    "--grid", str(run_dir / "grid.json"),
                    "--data", str(run_dir / "test.csv"),
                    "--out", str(out)]) == 0
        report = (out / "report.csv").read_text().splitlines()
        assert report[0] == "c_index,ibs,m_tdauc,hazard_ratio,cutoff,cutoff_source"
        cells = report[1].split(",")
        assert 0.0 <= float(cells[0]) <= 1.0
        assert cells[5] == "checkpoint"
        for name in ("brier_curve.csv", "tdauc_curve.csv"):
            lines = (out / name).read_text().splitlines()
            assert len(lines) >= 2

    def test_svg_is_well_formed_xml(self, run_dir, tmp_path):
        out = tmp_path / "eval"
        assert run(["evaluate", "--checkpoint", str(run_dir / "checkpoint.json"),
                    "--grid", str(run_dir / "grid.json"),
                    "--data", str(run_dir / "test.csv"),
                    "--out", str(out)]) == 0
        root = ET.parse(out / "tdauc.svg").getroot()
        assert root.tag.endswith("svg")

    def test_grid_bin_mismatch_exits_two(self, run_dir, data_csv, tmp_path,
                                         capsys):
        other = tmp_path / "other"
        assert run(["train", "--data", str(data_csv), "--out", str(other),
                    "--seed", "5", *FAST, "--set", "k_bins=6"]) == 0
        code = run(["evaluate", "--checkpoint", str(other / "checkpoint.json"),
                    "--grid", str(run_dir / "grid.json"),
                    "--data", str(run_dir / "test.csv"),
                    "--out", str(tmp_path / "e")])
        assert code == 2
        assert "bins" in capsys.readouterr().err

    def test_missing_checkpoint_exits_one(self, run_dir, tmp_path):
        code = run(["evaluate", "--checkpoint", str(tmp_path / "nope.json"),
                    "--grid", str(run_dir / "grid.json"),
                    "--data", str(run_dir / "test.csv"),
                    "--out", str(tmp_path / "e")])
        assert code == 1

    def test_feature_mismatch_exits_two(self, run_dir, tmp_path):
        bad = tmp_path / "narrow.csv"
        bad.write_text("time,event,x1\n1.0,1,0.5\n2.0,1,0.1\n",
                       encoding="utf-8")
        code = run(["evaluate", "--checkpoint", str(run_dir / "checkpoint.json"),
                    "--grid", str(run_dir / "grid.json"),
                    "--data", str(bad), "--out", str(tmp_path / "e")])
        assert code == 2

    def evaluate(self, run_dir, data, out, checkpoint=None):
        return run(["evaluate", "--checkpoint",
                    str(checkpoint or run_dir / "checkpoint.json"),
                    "--grid", str(run_dir / "grid.json"),
                    "--data", str(data), "--out", str(out)])

    def test_half_event_row_is_named(self, run_dir, tmp_path, capsys):
        header, first, *rest = (run_dir / "test.csv").read_text().splitlines()
        cells = first.split(",")
        cells[header.split(",").index("event")] = "0.5"
        data = tmp_path / "test_half_event.csv"
        data.write_text("\n".join([header, ",".join(cells), *rest]) + "\n",
                        encoding="utf-8")
        out = tmp_path / "e"
        assert self.evaluate(run_dir, data, out) == 2
        assert capsys.readouterr().err == (
            f"error: {data}: row 1: event must be 0 or 1 in column 'event', "
            "got '0.5'\n")
        assert not out.exists()

    def test_columns_matched_by_name(self, run_dir, tmp_path):
        header, *rows = (run_dir / "test.csv").read_text().splitlines()
        names = header.split(",")
        order = [1, 0, *range(2, len(names))]  # swap x1 and x2
        swapped = tmp_path / "swapped.csv"
        swapped.write_text("\n".join(
            ",".join(line.split(",")[i] for i in order) for line in [header, *rows]
        ) + "\n", encoding="utf-8")
        assert swapped.read_text().startswith("x2,x1,")
        assert self.evaluate(run_dir, run_dir / "test.csv", tmp_path / "a") == 0
        assert self.evaluate(run_dir, swapped, tmp_path / "b") == 0
        for name in ("report.csv", "brier_curve.csv", "tdauc_curve.csv"):
            assert (tmp_path / "a" / name).read_bytes() == \
                (tmp_path / "b" / name).read_bytes(), name

    def test_missing_and_extra_columns_named(self, run_dir, tmp_path, capsys):
        text = (run_dir / "test.csv").read_text()
        renamed = tmp_path / "renamed.csv"
        renamed.write_text(text.replace("x1,", "y1,", 1).replace("x3,", "y3,", 1),
                           encoding="utf-8")
        assert self.evaluate(run_dir, renamed, tmp_path / "e") == 2
        err = capsys.readouterr().err
        assert "missing 'x1', 'x3'" in err and "extra 'y1', 'y3'" in err

    @pytest.mark.parametrize("key", ["scaler_mean", "scaler_std"])
    def test_missing_scaler_is_not_refitted(self, run_dir, tmp_path, capsys, key):
        payload = json.loads((run_dir / "checkpoint.json").read_text())
        del payload["meta"][key]
        checkpoint = tmp_path / "checkpoint.json"
        checkpoint.write_text(json.dumps(payload), encoding="utf-8")
        code = self.evaluate(run_dir, run_dir / "test.csv", tmp_path / "e",
                             checkpoint=checkpoint)
        assert code == 2
        assert key in capsys.readouterr().err
        assert not (tmp_path / "e").exists()

    def test_missing_feature_names_exits_two(self, run_dir, tmp_path, capsys):
        payload = json.loads((run_dir / "checkpoint.json").read_text())
        del payload["meta"]["feature_names"]
        checkpoint = tmp_path / "checkpoint.json"
        checkpoint.write_text(json.dumps(payload), encoding="utf-8")
        code = self.evaluate(run_dir, run_dir / "test.csv", tmp_path / "e",
                             checkpoint=checkpoint)
        assert code == 2
        assert "checkpoint meta has no 'feature_names'" in capsys.readouterr().err

    def test_checkpoint_with_unread_keys_evaluates_the_same(self, run_dir, tmp_path):
        # unknown top-level and meta keys, here an update counter and a seed,
        # are ignored
        payload = json.loads((run_dir / "checkpoint.json").read_text())
        meta = payload["meta"]
        older = {"format": payload["format"], "version": payload["version"],
                 "config": payload["config"], "updates": 40,
                 "tensors": payload["tensors"],
                 "meta": {**{k: v for k, v in meta.items() if k != "cutoff"},
                          "seed": 5, "cutoff": meta["cutoff"]}}
        checkpoint = tmp_path / "older.json"
        checkpoint.write_text(json.dumps(older) + "\n", encoding="utf-8")
        assert self.evaluate(run_dir, run_dir / "test.csv", tmp_path / "a") == 0
        assert self.evaluate(run_dir, run_dir / "test.csv", tmp_path / "b",
                             checkpoint=checkpoint) == 0
        for name in ("report.csv", "brier_curve.csv", "tdauc_curve.csv", "tdauc.svg"):
            assert (tmp_path / "a" / name).read_bytes() == \
                (tmp_path / "b" / name).read_bytes(), name

    def test_model_files_with_byte_order_mark_evaluate_the_same(self, run_dir,
                                                                tmp_path):
        marked = tmp_path / "marked"
        marked.mkdir()
        for name in ("checkpoint.json", "grid.json"):
            (marked / name).write_bytes(b"\xef\xbb\xbf" + (run_dir / name).read_bytes())
        assert self.evaluate(run_dir, run_dir / "test.csv", tmp_path / "a") == 0
        assert self.evaluate(marked, run_dir / "test.csv", tmp_path / "b",
                             checkpoint=marked / "checkpoint.json") == 0
        for name in ("report.csv", "brier_curve.csv", "tdauc_curve.csv", "tdauc.svg"):
            assert (tmp_path / "a" / name).read_bytes() == \
                (tmp_path / "b" / name).read_bytes(), name

    def test_format_v1_checkpoint_is_rejected(self, run_dir, tmp_path, capsys):
        # format v1 names the head and stores a bias before each batch norm
        payload = json.loads((run_dir / "checkpoint.json").read_text())
        cfg, tensors = payload["config"], {}
        for name, entry in payload["tensors"].items():
            tensors[name] = entry
            if name.endswith(".linear.w"):
                width = entry["shape"][1]
                tensors[name[:-1] + "b"] = {"shape": [width], "data": [0.0] * width}
        payload.update(version=1, tensors=tensors, config={
            "input_dim": cfg["input_dim"], "hidden_dim": cfg["hidden_dim"],
            "n_blocks": cfg["n_blocks"], "dropout_rate": cfg["dropout_rate"],
            "head": "cat", "k_bins": cfg["k_bins"],
        })
        v1 = tmp_path / "v1.json"
        v1.write_text(json.dumps(payload) + "\n", encoding="utf-8")
        assert self.evaluate(run_dir, run_dir / "test.csv", tmp_path / "e",
                             checkpoint=v1) == 2
        assert (f"{v1}: checkpoint format v1 is no longer read; retrain with "
                "this version") in capsys.readouterr().err
        assert not (tmp_path / "e").exists()

    @pytest.mark.parametrize("which, edit, message", [
        ("checkpoint", lambda p: {"format": "x"}, "not a binsurv checkpoint"),
        ("checkpoint", lambda p: {**p, "version": 3},
         "unsupported checkpoint version 3"),
        ("checkpoint", lambda p: {**p, "config": {**p["config"], "head": "mtlr"}},
         "unknown config key 'head'"),
        ("checkpoint", lambda p: {**p, "config": {**p["config"], "width": 8}},
         "unknown config key 'width'"),
        ("checkpoint", lambda p: {k: v for k, v in p.items() if k != "tensors"},
         "missing key 'tensors'"),
        ("checkpoint", lambda p: edit_tensors(p, drop="block0.bn.var"),
         "missing tensor 'block0.bn.var'"),
        ("checkpoint", lambda p: edit_tensors(p, narrow="output.w"),
         "tensor 'output.w' must be a [8, 10] array"),
        ("checkpoint", lambda p: edit_tensors(p, short="input.b"),
         "tensor 'input.b' must be a [8] array"),
        ("checkpoint", lambda p: edit_tensors(p, first_value=None),
         "tensor 'input.w' has a non-finite value"),
        ("checkpoint", lambda p: edit_tensors(p, first_value=float("nan")),
         "tensor 'input.w' has a non-finite value"),
        ("checkpoint", lambda p: edit_tensors(p, add="extra.w"),
         "unexpected tensor 'extra.w'"),
        ("checkpoint", lambda p: {**p, "config": {**p["config"], "hidden_dim": 8.0}},
         "hidden_dim must be an integer, got 8.0"),
        ("checkpoint", lambda p: {**p, "config": {**p["config"], "dropout_rate": "0.2"}},
         "dropout_rate must be a number, got '0.2'"),
        ("checkpoint", lambda p: {**p, "config": {**p["config"], "n_blocks": True}},
         "n_blocks must be an integer, got True"),
        ("checkpoint", lambda p: {**p, "config": {**p["config"], "input_dim": "5"}},
         "input_dim must be an integer, got '5'"),
        ("checkpoint", lambda p: {**p, "config": {**p["config"], "k_bins": 10.0}},
         "k_bins must be an integer, got 10.0"),
        ("checkpoint", lambda p: edit_meta(p, cutoff="0.5"),
         "cutoff must be a number, got '0.5'"),
        ("checkpoint", lambda p: edit_meta(p, cutoff=float("nan")),
         "cutoff must be finite or null, got nan"),
        ("checkpoint", lambda p: edit_meta(p, feature_names=5),
         "feature_names must be a list of 5 distinct strings"),
        ("checkpoint", lambda p: edit_meta(p, feature_names=["x1"] * 5),
         "feature_names must be a list of 5 distinct strings"),
        ("checkpoint", lambda p: edit_meta(p, scaler_mean="abc"),
         "scaler_mean must be a list of 5 numbers"),
        ("checkpoint", lambda p: edit_meta(p, scaler_mean=["abc"] * 5),
         "scaler_mean[0] must be a number, got 'abc'"),
        ("checkpoint", lambda p: edit_meta(p, scaler_std=[1.0] * 9),
         "scaler_std must be a list of 5 numbers"),
        ("checkpoint", lambda p: edit_meta(p, scaler_std=[0.0] * 5),
         "scaler_std[0] must be finite and positive, got 0.0"),
        ("grid", lambda p: {"format": "x"}, "not a binsurv grid file"),
        ("grid", lambda p: {k: v for k, v in p.items() if k != "t_min"},
         "missing key 't_min'"),
        ("grid", lambda p: {**p, "t_min": p["t_max"], "t_max": p["t_min"]},
         "grid times must be finite with t_min < t_max"),
        ("grid", lambda p: {**p, "t_min": float("nan")},
         "grid times must be finite with t_min < t_max"),
        ("grid", lambda p: {**p, "k_bins": 10.7}, "k_bins must be an integer, got 10.7"),
        ("grid", lambda p: {**p, "k_bins": "10"}, "k_bins must be an integer, got '10'"),
        ("grid", lambda p: {**p, "t_max": str(p["t_max"])}, "t_max must be a number"),
        ("grid", lambda p: [], "not a binsurv grid file"),
        ("checkpoint", lambda p: [], "not a binsurv checkpoint"),
        ("grid", lambda p: "{", "not JSON"),
        ("checkpoint", lambda p: "checkpoint", "not JSON"),
        ("checkpoint", lambda p: {**p, "config": 5}, "config must be an object"),
        ("checkpoint", lambda p: {**p, "tensors": 5}, "tensors must be an object"),
        ("checkpoint", lambda p: edit_meta(p, time_col=5), "time_col must be a string, got 5"),
        ("checkpoint", lambda p: edit_meta(p, event_col=None),
         "event_col must be a string, got None"),
        ("checkpoint", lambda p: {k: v for k, v in p.items() if k != "meta"},
         "missing key 'meta'"),
        ("checkpoint", lambda p: {**p, "meta": 5}, "meta must be an object"),
        ("checkpoint", lambda p: edit_meta(p, drop="time_col"),
         "checkpoint meta has no 'time_col'"),
        ("checkpoint", lambda p: edit_meta(p, drop="event_col"),
         "checkpoint meta has no 'event_col'"),
        ("checkpoint", lambda p: edit_meta(p, drop="cutoff"),
         "checkpoint meta has no 'cutoff'"),
        # a JSON integer of 400 digits is beyond float64
        ("checkpoint", lambda p: edit_meta(p, scaler_mean=[10 ** 400] * 5),
         "scaler_mean[0] is too large for float64"),
        ("checkpoint", lambda p: edit_meta(p, cutoff=10 ** 400),
         "cutoff is too large for float64"),
        ("checkpoint", lambda p: edit_tensors(p, first_value=10 ** 400),
         "tensor 'input.w' is too large for float64"),
        ("grid", lambda p: {**p, "t_max": 10 ** 400}, "t_max is too large for float64"),
        ("checkpoint", lambda p: {**p, "version": True},
         "version must be an integer, got True"),
        ("checkpoint", lambda p: {**p, "version": 2.0},
         "version must be an integer, got 2.0"),
        ("checkpoint", lambda p: {**p, "version": "2"},
         "version must be an integer, got '2'"),
        ("checkpoint", lambda p: {k: v for k, v in p.items() if k != "version"},
         "version must be an integer, got None"),
        ("grid", lambda p: {**p, "version": 7}, "unsupported grid file version 7"),
        ("grid", lambda p: {**p, "version": True}, "version must be an integer, got True"),
        ("grid", lambda p: {k: v for k, v in p.items() if k != "version"},
         "version must be an integer, got None"),
        ("grid", lambda p: {**p, "t_min": 0.0},
         "grid times must be finite with t_min < t_max and t_min > 0"),
        # two ulps apart, the checkpoint's 10 bins cannot lay the times out
        ("grid", lambda p: {**p, "t_min": 1.0, "t_max": 1.0 + 2 ** -51},
         "k_bins=10 cannot lay out event times 1.0 and 1.0000000000000004"),
    ], ids=["foreign-checkpoint", "checkpoint-version", "mtlr-head",
            "extra-config-key", "no-tensors", "missing-tensor",
            "reshaped-tensor", "short-tensor", "null-value", "nan-value", "extra-tensor",
            "float-hidden_dim", "string-dropout_rate", "bool-n_blocks",
            "string-input_dim", "float-k_bins",
            "string-cutoff", "nan-cutoff", "int-feature_names",
            "repeated-feature_names", "string-scaler_mean",
            "string-scaler_mean-entry", "long-scaler_std", "zero-scaler_std",
            "foreign-grid", "grid-no-t_min", "grid-swapped-times",
            "grid-nan-t_min", "grid-fractional-k_bins", "grid-string-k_bins",
            "grid-string-t_max", "grid-list", "checkpoint-list", "grid-not-json",
            "checkpoint-not-json", "int-config", "int-tensors", "int-time_col",
            "null-event_col", "no-meta", "int-meta", "no-time_col",
            "no-event_col", "no-cutoff", "huge-scaler_mean",
            "huge-cutoff", "huge-tensor-value", "grid-huge-t_max",
            "bool-version", "float-version", "string-version", "no-version",
            "grid-version", "grid-bool-version", "grid-no-version", "grid-zero-t_min",
            "grid-two-ulp-times"])
    def test_unreadable_model_file_exits_two(self, run_dir, tmp_path, capsys,
                                             which, edit, message):
        source = run_dir / ("checkpoint.json" if which == "checkpoint" else "grid.json")
        bad = tmp_path / source.name
        edited = edit(json.loads(source.read_text()))
        # an edit that returns a str writes it as the file's text, not as JSON
        bad.write_text(edited if isinstance(edited, str) else json.dumps(edited),
                       encoding="utf-8")
        paths = {"checkpoint": run_dir / "checkpoint.json",
                 "grid": run_dir / "grid.json", which: bad}
        code = run(["evaluate", "--checkpoint", str(paths["checkpoint"]),
                    "--grid", str(paths["grid"]),
                    "--data", str(run_dir / "test.csv"),
                    "--out", str(tmp_path / "e")])
        assert code == 2
        err = capsys.readouterr().err
        assert f"{bad}: {message}" in err
        assert not (tmp_path / "e").exists()

    def report_row(self, out):
        header, row = (out / "report.csv").read_text().splitlines()
        return dict(zip(header.split(","), row.split(",")))

    def test_checkpoint_without_cutoff_reports_no_hazard_ratio(self, run_dir, tmp_path):
        payload = json.loads((run_dir / "checkpoint.json").read_text())
        payload["meta"]["cutoff"] = None
        checkpoint = tmp_path / "checkpoint.json"
        checkpoint.write_text(json.dumps(payload), encoding="utf-8")
        assert self.evaluate(run_dir, run_dir / "test.csv", tmp_path / "a") == 0
        assert self.evaluate(run_dir, run_dir / "test.csv", tmp_path / "b",
                             checkpoint=checkpoint) == 0
        stored, none = self.report_row(tmp_path / "a"), self.report_row(tmp_path / "b")
        assert (none["hazard_ratio"], none["cutoff"], none["cutoff_source"]) == \
            ("nan", "nan", "none")
        for key in ("c_index", "ibs", "m_tdauc"):
            assert none[key] == stored[key]

    def test_rows_below_the_cutoff_still_score(self, run_dir, tmp_path):
        model = load_checkpoint(run_dir / "checkpoint.json")
        test = load_csv(run_dir / "test.csv")
        logits, _ = forward(model.params, model.scaler.transform(test.features),
                            mode="eval")
        low = np.flatnonzero(predict_risk(apply_head(logits)) <= model.cutoff)
        assert low.size >= 15
        write_csv(test.subset(low[:15]), tmp_path / "low.csv")
        with pytest.warns(RuntimeWarning, match="high-risk group at the training cutoff"):
            code = self.evaluate(run_dir, tmp_path / "low.csv", tmp_path / "e")
        assert code == 0
        report = self.report_row(tmp_path / "e")
        assert 0.0 <= float(report["c_index"]) <= 1.0
        assert 0.0 <= float(report["ibs"]) <= 1.0
        assert report["hazard_ratio"] == "nan"
        assert float(report["cutoff"]) == model.cutoff
        assert report["cutoff_source"] == "checkpoint"


class TestPrepareCommand:
    def test_split_files_and_grid(self, data_csv, tmp_path):
        out = tmp_path / "prep"
        assert run(["prepare", "--data", str(data_csv), "--out", str(out),
                    "--seed", "4"]) == 0
        sizes = {}
        for name in ("train", "val", "test"):
            sizes[name] = len(load_csv(out / f"{name}.csv"))
        assert sizes == {"train": 240, "val": 80, "test": 80}
        grid = load_grid(out / "grid.json")
        assert grid.k_bins == 10

    def test_needs_single_csv(self, tmp_path):
        assert run(["prepare", "--out", str(tmp_path / "p")]) == 2

    def test_resolved_config_matches_train(self, data_csv, tmp_path):
        prep, trained = tmp_path / "prep", tmp_path / "run"
        for command, out in (("prepare", prep), ("train", trained)):
            assert run([command, "--data", str(data_csv), "--out", str(out),
                        "--seed", "4", *FAST]) == 0
        lines = {out: (out / "config_resolved.txt").read_text().splitlines()
                 for out in (prep, trained)}
        assert f"out={prep}" in lines[prep]
        assert ([line.replace(str(prep), str(trained)) for line in lines[prep]]
                == lines[trained])

    def test_empty_test_part_is_written(self, tmp_path):
        # five rows split 3/2/0: every row is an event at its own time, so
        # the validation part has a comparable pair
        data = tmp_path / "tiny.csv"
        data.write_text("x,time,event\n" + "".join(
            f"{i / 10},{i + 1}.0,1\n" for i in range(5)), encoding="utf-8")
        out = tmp_path / "prep"
        assert run(["prepare", "--data", str(data), "--out", str(out),
                    "--set", "split=0.5,0.45,0.05"]) == 0
        assert (out / "test.csv").read_text().splitlines() == ["x,time,event"]
        assert len((out / "train.csv").read_text().splitlines()) == 4


class TestAblateCommand:
    def test_six_default_rows(self, ablation):
        lines = (ablation / "ablation.csv").read_text().splitlines()
        assert lines[0] == "mle,rank,time_rank,calibration,c_index,ibs,m_tdauc"
        assert len(lines) == 7
        flags = [line.split(",")[:4] for line in lines[1:]]
        assert flags == [["1", "0", "0", "0"], ["0", "1", "0", "0"],
                         ["0", "0", "1", "0"], ["1", "1", "0", "0"],
                         ["1", "0", "1", "0"], ["1", "0", "1", "1"]]

    def test_row_directories_have_artifacts(self, ablation):
        row = ablation / "row_1_mle"
        assert (row / "checkpoint.json").exists()
        assert (row / "history.csv").exists()

    def test_mle_row_equals_plain_mle_training(self, ablation, data_csv,
                                               tmp_path):
        out = tmp_path / "mle"
        assert run(["train", "--data", str(data_csv), "--out", str(out),
                    "--seed", "5", "--set", "epochs=3",
                    "--set", "batch_size=64", "--set", "lr_init=0.05",
                    "--set", "hidden_dim=8", "--set", "n_blocks=1",
                    "--set", "beta=0", "--set", "gamma=0"]) == 0
        assert (out / "history.csv").read_bytes() == \
            (ablation / "row_1_mle" / "history.csv").read_bytes()

    def test_custom_rows(self, data_csv, tmp_path, capsys):
        out = tmp_path / "abl2"
        assert run(["ablate", "--data", str(data_csv), "--out", str(out),
                    "--seed", "5", "--rows", "mle,mle+rank",
                    "--set", "epochs=2", "--set", "batch_size=64",
                    "--set", "hidden_dim=8", "--set", "n_blocks=1"]) == 0
        lines = (out / "ablation.csv").read_text().splitlines()
        assert len(lines) == 3
        # data_csv comes from `synth`, so its oracle sidecar sits next to it
        sidecar = json.loads(
            (data_csv.parent / "synthetic.csv.oracle.json").read_text())
        expected = (f"ablate: oracle C-index {sidecar['bayes_c_index']:.4f} "
                    "(whole cohort)")
        assert expected in capsys.readouterr().out.splitlines()

    def test_unknown_component_exits_two(self, data_csv, tmp_path, capsys):
        code = run(["ablate", "--data", str(data_csv),
                    "--out", str(tmp_path / "x"), "--rows", "mle+dropout"])
        assert code == 2
        assert "dropout" in capsys.readouterr().err

    def test_both_pairwise_terms_rejected(self, data_csv, tmp_path):
        code = run(["ablate", "--data", str(data_csv),
                    "--out", str(tmp_path / "x"),
                    "--rows", "rank+time_rank"])
        assert code == 2


README_BLOCKS = readme_python_blocks()


@pytest.fixture(scope="module")
def readme_dir(tmp_path_factory):
    """A directory holding the `run/` that a 2-epoch `binsurv train` of a
    300-row `synth` cohort writes, as the README's second block expects."""
    here = tmp_path_factory.mktemp("readme")
    cohort = here / "cohort.csv"
    assert run(["synth", "--n", "300", "--censor-rate", "0.4", "--out", str(cohort)]) == 0
    assert run(["train", "--data", str(cohort), "--out", str(here / "run"),
                "--set", "epochs=2"]) == 0
    return here


def test_readme_has_two_python_blocks():
    assert len(README_BLOCKS) == 2


def test_package_exports_exactly_what_readme_imports():
    # the package namespace is README's API: every name its Python blocks
    # import from `binsurv`, and nothing else besides the submodules
    imported = {alias.name
                for block in README_BLOCKS
                for node in ast.walk(ast.parse(block))
                if isinstance(node, ast.ImportFrom) and node.module == "binsurv"
                for alias in node.names}
    exported = {name for name, value in vars(binsurv).items()
                if not name.startswith("_") and not inspect.ismodule(value)}
    assert imported == exported
    for name in imported:
        assert getattr(binsurv, name).__module__.startswith("binsurv.")
    assert isinstance(binsurv.__version__, str)


@pytest.mark.parametrize("block", range(len(README_BLOCKS)))
def test_readme_python_block_runs_on_its_own(readme_dir, block):
    # a fresh interpreter, so the block runs on its own imports only
    result = run_fresh(README_BLOCKS[block], readme_dir)
    assert result.returncode == 0, result.stderr


@pytest.mark.parametrize("command", ["prepare", "train", "ablate", "evaluate", "synth"])
def test_no_command_imports_numpy_ma(data_csv, run_dir, tmp_path, command):
    # no command needs numpy.ma, and a plain np.unique imports it
    args = {
        "prepare": ["prepare", "--data", str(data_csv), "--out", "o"],
        "train": ["train", "--data", str(data_csv), "--out", "o", *FAST,
                  "--set", "epochs=1"],
        "ablate": ["ablate", "--data", str(data_csv), "--out", "o", *FAST,
                   "--set", "epochs=1", "--rows", "mle"],
        "evaluate": ["evaluate", "--checkpoint", str(run_dir / "checkpoint.json"),
                     "--grid", str(run_dir / "grid.json"),
                     "--data", str(run_dir / "test.csv"), "--out", "o"],
        "synth": ["synth", "--n", "300", "--out", "o.csv"],
    }[command]
    result = run_fresh("import sys\nfrom binsurv.cli import main\n"
                       f"assert main({args!r}) == 0\n"
                       "assert 'numpy.ma' not in sys.modules, 'numpy.ma was imported'\n",
                       tmp_path)
    assert result.returncode == 0, result.stderr
