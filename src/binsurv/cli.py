"""Command-line interface: prepare, train, evaluate, ablate, synth.

Exit codes: 0 on success, 1 on runtime failure, 2 on configuration or input
validation failure.
"""

from __future__ import annotations

import argparse
import logging
import sys
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .config import (
    ConfigError, ExperimentConfig, build_config, config_errors, parse_config_file,
)
from .data import (
    BinnedBatch, FeatureScaler, SurvivalDataset, TimeGrid, apply_scaler,
    bin_dataset, build_time_grid, load_csv, load_grid, read_json_object,
    require_json_number, save_grid, split_dataset, write_csv, write_json_object,
    write_table,
)
from .losses import PAIRWISE_KINDS, LossWeights
from .metrics import (
    UndefinedMetricError, c_index, default_eval_times, evaluate_model, m_tdauc,
    select_cutoff, write_curve_csv, write_report_csv,
)
from .model import (
    ModelConfig, TrainedModel, apply_head, forward, load_checkpoint, predict_risk,
    save_checkpoint,
)
from .svgplot import line_plot_svg
from .synth import BASELINES, RISK_MODELS, SynthConfig, generate
from .training import TrainConfig, fit, write_history_csv

log = logging.getLogger(__name__)

# the --rows text of the six standard rows
DEFAULT_ABLATION_ROWS = ("mle, rank, time_rank, mle+rank, mle+time_rank, "
                         "mle+time_rank+calibration")
_ABLATION_COMPONENTS = ("mle", "rank", "time_rank", "calibration")
ORACLE_FORMAT = "binsurv-oracle"
ORACLE_VERSION = 1


def _add_config_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="key=value config file")
    parser.add_argument("--data", help="input CSV (overrides the config file)")
    parser.add_argument("--time-col", help="name of the time column")
    parser.add_argument("--event-col", help="name of the event column")
    parser.add_argument("--out", help="output directory")
    parser.add_argument("--seed", type=int, help="random seed")
    parser.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                        help="override any config key (repeatable)")


def _collect_config(args) -> ExperimentConfig:
    values: dict[str, str] = {}
    if args.config:
        values.update(parse_config_file(args.config))
    for key in ("data", "time_col", "event_col", "out", "seed"):
        if getattr(args, key) is not None:
            values[key] = str(getattr(args, key))
    for item in args.set:
        if "=" not in item:
            raise ConfigError(f"--set expects KEY=VALUE, got {item!r}")
        key, value = item.split("=", 1)
        values[key.strip()] = value.strip()
    return build_config(values)


@dataclass
class _Setup:
    """Everything a run needs, built and checked before its first write."""
    raw: tuple                     # (train, val, test) as split or read
    train: SurvivalDataset         # standardized with ``scaler``
    binned: BinnedBatch            # ``train`` normalized and binned on ``grid``
    val: SurvivalDataset
    test: SurvivalDataset | None   # None when there are no held-out rows
    scaler: FeatureScaler
    grid: TimeGrid
    model: ModelConfig
    training: TrainConfig
    weights: LossWeights


def _require_scorable(cfg: ExperimentConfig, key: str, dataset: SurvivalDataset,
                      grid: TimeGrid | None = None) -> None:
    """Reject a split the C-index cannot score, or with ``grid`` one the mean
    TDAUC cannot score on that grid, naming the file ``key`` of the config,
    or in single-file mode the split's part of data=.  Neither metric's
    definedness depends on the scores, so constant ones stand in for them."""
    label = (f"the {key.removesuffix('_csv')} split of data={cfg.data}"
             if cfg.data else f"{key}={getattr(cfg, key)}")
    scores = np.zeros(len(dataset))
    try:
        c_index(scores, dataset.times, dataset.events)
        if grid is not None:
            m_tdauc(scores, dataset.times, dataset.events, default_eval_times(grid))
    except UndefinedMetricError as exc:
        raise ConfigError(f"{label}: {exc}") from None


def _setup(cfg: ExperimentConfig) -> _Setup:
    """Load, split, scale, grid and bin the data, and check every setting.

    Single-file or pre-split data gives train/val(/test).  The one scaler is
    fitted on the raw training split only, so validation and test rows feed
    no statistic in either mode.  A validation split with no comparable pair
    cannot select a model and is rejected here.
    """
    for key in ("train_csv", "val_csv", "test_csv"):
        if cfg.data and getattr(cfg, key):
            raise ConfigError(f"data= cannot be combined with {key}=")
    weights, training = cfg.loss_weights(), cfg.train_config()
    with config_errors():
        if cfg.data:
            raw = split_dataset(load_csv(cfg.data, cfg.time_col, cfg.event_col),
                                cfg.split, cfg.seed)
        elif cfg.train_csv and cfg.val_csv:
            raw = tuple(load_csv(path, cfg.time_col, cfg.event_col) if path else None
                        for path in (cfg.train_csv, cfg.val_csv, cfg.test_csv))
        else:
            raise ConfigError("provide either data= or train_csv= and val_csv=")
    train, val, test = raw
    _require_scorable(cfg, "val_csv", val)
    scaler = FeatureScaler.fit(train.features)
    scaled = apply_scaler(train, scaler)
    with config_errors():
        grid = build_time_grid(train, cfg.k_bins)
    binned = bin_dataset(scaled, grid)  # a grid bins its own events below bin k
    return _Setup(
        raw=raw,
        train=scaled,
        binned=binned,
        val=apply_scaler(val, scaler),
        test=apply_scaler(test, scaler) if test is not None and len(test) else None,
        scaler=scaler,
        grid=grid,
        model=cfg.model_config(train.n_features),
        training=training,
        weights=weights,
    )


def _start_outputs(cfg: ExperimentConfig, grid: TimeGrid) -> Path:
    """Create ``out`` and write the grid and the resolved settings into it."""
    out = Path(cfg.out)
    out.mkdir(parents=True, exist_ok=True)
    save_grid(grid, out / "grid.json")
    (out / "config_resolved.txt").write_text(
        "\n".join(cfg.resolved_lines()) + "\n", encoding="utf-8")
    return out


def _oracle_sidecar(csv_path) -> Path:
    """Where `synth` writes the oracle risks and C-index for a generated CSV."""
    csv_path = Path(csv_path)
    return csv_path.with_suffix(csv_path.suffix + ".oracle.json")


def _oracle_c_index(cfg: ExperimentConfig) -> float | None:
    """The ``bayes_c_index`` of the `synth` sidecar next to data=, or None
    when there is none; a sidecar that is not a tagged oracle file holding a
    finite number there raises ConfigError naming the file and the key."""
    sidecar = _oracle_sidecar(cfg.data) if cfg.data else None
    if sidecar is None or not sidecar.exists():
        return None
    with config_errors():
        oracle = read_json_object(sidecar, ORACLE_FORMAT, "oracle file", ORACLE_VERSION)
        value = oracle.get("bayes_c_index")
        require_json_number(sidecar, "bayes_c_index", value)
        if not -np.inf < value < np.inf:
            raise ValueError(f"{sidecar}: bayes_c_index must be finite, got {value!r}")
    return value


def _train_once(run: _Setup, cfg: ExperimentConfig, weights: LossWeights,
                out_dir: Path):
    """Shared train-and-persist path used by both `train` and `ablate`."""
    out_dir.mkdir(parents=True, exist_ok=True)
    best, history = fit(run.binned, run.val, run.model, weights, run.training)
    write_history_csv(history, out_dir / "history.csv")

    logits, _ = forward(best, run.train.features, mode="eval")
    train_risks = predict_risk(apply_head(logits))
    try:
        cutoff = select_cutoff(train_risks, run.train.times, run.train.events)
    except UndefinedMetricError as exc:
        log.warning("no training cutoff stored: %s", exc)
        cutoff = None
    save_checkpoint(out_dir / "checkpoint.json", TrainedModel(
        best, run.scaler, list(run.train.feature_names), cfg.time_col,
        cfg.event_col, cutoff))
    return best, history


def cmd_prepare(args) -> int:
    cfg = _collect_config(args)
    if not cfg.data:
        raise ConfigError("prepare needs data= (a single CSV to split)")
    run = _setup(cfg)
    out = _start_outputs(cfg, run.grid)
    for name, part in zip(("train", "val", "test"), run.raw):
        write_csv(part, out / f"{name}.csv", cfg.time_col, cfg.event_col)
    sizes = [len(part) for part in run.raw]
    print(f"prepare: {sum(sizes)} rows -> train {sizes[0]} / val {sizes[1]} / "
          f"test {sizes[2]}; grid with {run.grid.k_bins} bins written to {out}")
    return 0


def cmd_train(args) -> int:
    cfg = _collect_config(args)
    run = _setup(cfg)
    out = _start_outputs(cfg, run.grid)
    if cfg.data and run.test is not None:
        # held-out rows stay raw; evaluation re-standardizes with the stored scaler
        write_csv(run.raw[2], out / "test.csv", cfg.time_col, cfg.event_col)
    _, history = _train_once(run, cfg, run.weights, out)
    best = max(history, key=lambda r: r.val_c_index)
    print(f"train: {len(history)} epochs; best val C-index "
          f"{best.val_c_index:.4f} at epoch {best.epoch}; artifacts in {out}")
    return 0


def cmd_evaluate(args) -> int:
    # a ValueError means an input file exists but is not one this version
    # reads, or the three do not fit together
    with config_errors():
        model = load_checkpoint(args.checkpoint)
        grid = load_grid(args.grid)
        if grid.k_bins != model.params.config.k_bins:
            raise ValueError(f"grid has {grid.k_bins} bins but the checkpoint was "
                             f"trained with {model.params.config.k_bins}")
        test = model.prepare(load_csv(args.data, args.time_col or model.time_col,
                                      args.event_col or model.event_col))
    try:
        report = evaluate_model(model.params, test, grid, cutoff=model.cutoff)
    except UndefinedMetricError as exc:
        raise ConfigError(f"{args.data}: {exc}") from None
    out = Path(args.out or "eval")
    out.mkdir(parents=True, exist_ok=True)
    write_report_csv(report, out / "report.csv")
    write_curve_csv(out / "brier_curve.csv", report.eval_times,
                    report.brier_curve, "brier")
    write_curve_csv(out / "tdauc_curve.csv", report.tdauc_times,
                    report.tdauc_curve, "tdauc")
    line_plot_svg(out / "tdauc.svg", report.tdauc_times,
                  ("TDAUC", report.tdauc_curve),
                  title="Time-dependent AUC", xlabel="time", ylabel="TDAUC")
    print(f"evaluate: C-index {report.c_index:.4f}, IBS {report.ibs:.4f}, "
          f"mTDAUC {report.m_tdauc:.4f}, HR {report.hazard_ratio:.3f} "
          f"(cutoff from {report.cutoff_source}); report in {out}")
    return 0


def _parse_rows(text: str):
    rows = []
    for chunk in text.split(","):
        row = tuple(part.strip() for part in chunk.split("+") if part.strip())
        if not row:
            raise ConfigError(f"empty ablation row in {text!r}")
        if len(set(row)) < len(row):
            raise ConfigError(f"ablation row {'+'.join(row)} repeats a component")
        if any(set(row) == set(seen) for seen in rows):
            raise ConfigError(f"ablation row {'+'.join(row)} is given twice")
        rows.append(row)
    return tuple(rows)


def _row_weights(cfg: ExperimentConfig, row) -> LossWeights:
    for part in row:
        if part not in _ABLATION_COMPONENTS:
            raise ConfigError(
                f"unknown ablation component '{part}' "
                f"(expected one of {', '.join(_ABLATION_COMPONENTS)})"
            )
    kinds = [kind for kind in PAIRWISE_KINDS if kind in row]
    if len(kinds) > 1:
        raise ConfigError("an ablation row cannot contain both pairwise terms")
    base = cfg.loss_weights()
    try:
        return replace(
            base,
            alpha=cfg.alpha if "mle" in row else 0.0,
            beta=cfg.beta if kinds else 0.0,
            gamma=cfg.gamma if "calibration" in row else 0.0,
            pairwise_kind=kinds[0] if kinds else cfg.pairwise_kind,
        )
    except ValueError as exc:
        raise ConfigError(f"ablation row {'+'.join(row)}: {exc}") from None


def cmd_ablate(args) -> int:
    cfg = _collect_config(args)
    rows = _parse_rows(args.rows)
    row_weights = [_row_weights(cfg, row) for row in rows]
    oracle_c = _oracle_c_index(cfg)
    run = _setup(cfg)
    if run.test is None:
        raise ConfigError("ablate needs a test split (single-CSV mode or test_csv=)")
    _require_scorable(cfg, "test_csv", run.test, run.grid)
    out = _start_outputs(cfg, run.grid)

    table = []
    for index, (row, weights) in enumerate(zip(rows, row_weights), start=1):
        row_dir = out / f"row_{index}_{'_'.join(row)}"
        params, _ = _train_once(run, cfg, weights, row_dir)
        report = evaluate_model(params, run.test, run.grid)
        table.append([int(c in row) for c in _ABLATION_COMPONENTS]
                     + [report.c_index, report.ibs, report.m_tdauc])
        print(f"ablate [{'+'.join(row)}]: C-index {report.c_index:.4f}, "
              f"IBS {report.ibs:.4f}, mTDAUC {report.m_tdauc:.4f}")
    write_table(out / "ablation.csv",
                _ABLATION_COMPONENTS + ("c_index", "ibs", "m_tdauc"), table)
    if oracle_c is not None:
        print(f"ablate: oracle C-index {oracle_c:.4f} (whole cohort)")
    print(f"ablate: summary written to {out / 'ablation.csv'}")
    return 0


def cmd_synth(args) -> int:
    # a bad setting, an unreachable censor rate or no comparable pair exits 2
    with config_errors():
        synth_cfg = SynthConfig(
            n_samples=args.n, n_features=args.features,
            risk_model=args.risk_model, baseline=args.baseline,
            weibull_shape=args.weibull_shape,
            target_censor_rate=args.censor_rate, seed=args.seed,
        )
        dataset, risks = generate(synth_cfg)
        ceiling = c_index(risks, dataset.times, dataset.events)
    out_csv = Path(args.out)
    if out_csv.parent != Path(""):
        out_csv.parent.mkdir(parents=True, exist_ok=True)
    write_csv(dataset, out_csv)
    sidecar_path = _oracle_sidecar(out_csv)
    write_json_object(sidecar_path, ORACLE_FORMAT, ORACLE_VERSION, {
        "seed": synth_cfg.seed, "bayes_c_index": ceiling, "oracle_risks": risks.tolist()})
    censored = float(np.mean(dataset.events == 0))
    print(f"synth: {len(dataset)} samples, censored fraction {censored:.3f}, "
          f"oracle C-index {ceiling:.4f}; wrote {out_csv} and {sidecar_path}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="binsurv",
        description="Discrete-time survival modeling with ranking and "
                    "calibration objectives.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("prepare", help="validate a CSV and write train/val/test splits")
    _add_config_flags(p)
    p.set_defaults(func=cmd_prepare)

    p = sub.add_parser("train", help="train a model and write its artifacts")
    _add_config_flags(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("evaluate", help="score a checkpoint on held-out data")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--grid", required=True, help="grid.json from training")
    p.add_argument("--data", required=True, help="held-out CSV")
    p.add_argument("--time-col")
    p.add_argument("--event-col")
    p.add_argument("--out", help="output directory (default: eval)")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("ablate", help="train one model per loss-component subset")
    _add_config_flags(p)
    p.add_argument("--rows", default=DEFAULT_ABLATION_ROWS,
                   help=f"loss-component rows (default: {DEFAULT_ABLATION_ROWS})")
    p.set_defaults(func=cmd_ablate)

    p = sub.add_parser("synth", help="generate a synthetic survival dataset")
    synth = SynthConfig()
    p.add_argument("--n", type=int, default=synth.n_samples)
    p.add_argument("--features", type=int, default=synth.n_features)
    p.add_argument("--risk-model", choices=RISK_MODELS, default=synth.risk_model)
    p.add_argument("--baseline", choices=BASELINES, default=synth.baseline)
    p.add_argument("--weibull-shape", type=float, default=synth.weibull_shape)
    p.add_argument("--censor-rate", type=float, default=synth.target_censor_rate)
    p.add_argument("--seed", type=int, default=synth.seed)
    p.add_argument("--out", default="synthetic.csv")
    p.set_defaults(func=cmd_synth)
    return parser


def main(argv=None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(message)s")
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # runtime failure
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
