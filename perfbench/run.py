"""Benchmark of the ``binsurv`` command line: train, ablate and evaluate.

Usage::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is one of the workloads in ``BENCHMARK.json`` or ``all``.  Load is a
closed loop of one client: one command at a time, each in a fresh
interpreter, on inputs made here from ``--seed``.  Commands repeat until
``--seconds`` have passed (at least two, so reruns can be compared byte for
byte).  With ``--trace 0`` the end-to-end metrics are printed; with
``--trace 1`` every command runs once untraced and once under
``traced_cli.py``, and the per-layer table is printed instead.  The last
line of standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path

import cohort

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
clock = time.perf_counter

# every child sees one BLAS thread: the benchmark machine has 2 cores and the
# load is one command at a time
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
            "MKL_NUM_THREADS": "1"}
TIME_LIMIT_S = 170.0      # children still running then are killed
MIN_COMMANDS = 2          # untraced commands per run, for the rerun check
# fresh interpreters timed for setup_s, each group after a warm-up: one group
# before the commands and one after, so a run's median spans its host phases
SETUP_PROBES = 4
N_FEATURES = 10
LAYERS = ("data", "model", "losses", "training", "metrics", "svgplot")

SETUP_PROBE = (
    "import json, platform, numpy, binsurv\n"
    "from binsurv.cli import build_parser\n"
    "build_parser()\n"
    "print(json.dumps({'python': platform.python_version(), "
    "'numpy': numpy.__version__, 'binsurv': binsurv.__version__}))\n"
)


class CheckFailed(Exception):
    """An output check failed; the operation it belongs to counts as failed."""


@dataclass
class Child:
    code: int
    wall_s: float
    cpu_s: float           # user + system time of the child alone
    peak_rss_mb: float


@dataclass
class Runner:
    """Runs children inside one run directory and books every operation."""

    work: Path
    started: float
    env: dict = field(init=False)
    operations: list[dict] = field(default_factory=list)

    def __post_init__(self):
        self.env = dict(os.environ)
        self.env.update(BLAS_ENV)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC)] + [p for p in [os.environ.get("PYTHONPATH", "")] if p])

    def spawn(self, argv: list[str], log_name: str) -> Child:
        """One child with its own wall time and peak RSS (from wait4)."""
        remaining = self.started + TIME_LIMIT_S - clock()
        if remaining <= 0:
            raise CheckFailed(f"no time left for {log_name}")
        with open(self.work / log_name, "wb") as log:
            start = clock()
            proc = subprocess.Popen(argv, cwd=ROOT, env=self.env, stdin=subprocess.DEVNULL,
                                    stdout=log, stderr=subprocess.STDOUT)
            watchdog = threading.Timer(remaining, proc.kill)
            watchdog.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                watchdog.cancel()
            wall = clock() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        return Child(proc.returncode, wall, usage.ru_utime + usage.ru_stime,
                     usage.ru_maxrss / 1024.0)

    def operation(self, label: str) -> dict:
        op = {"op": label, "failures": []}
        self.operations.append(op)
        return op

    def cli(self, args: list[str], label: str, trace_path: Path | None = None) -> Child:
        """A ``binsurv`` command, plain or under the tracer; exit 0 is checked."""
        if trace_path is None:
            argv = [sys.executable, "-m", "binsurv.cli", *args]
        else:
            argv = [sys.executable, str(HERE / "traced_cli.py"), str(trace_path),
                    label, "--", *args]
        child = self.spawn(argv, f"{label}.log")
        if child.code != 0:
            raise CheckFailed(f"{label}: exit code {child.code} (see {label}.log)")
        return child

    @property
    def failed(self) -> int:
        return sum(1 for op in self.operations if op["failures"])


def digest(out: Path, patterns) -> dict[str, str]:
    """sha256 of every artifact matched by ``patterns`` under ``out``."""
    hashes = {}
    for pattern in patterns:
        matches = sorted(out.glob(pattern))
        if not matches:
            raise CheckFailed(f"{out.name}: no artifact matches {pattern}")
        for path in matches:
            hashes[str(path.relative_to(out))] = hashlib.sha256(path.read_bytes()).hexdigest()
    return hashes


def same_bytes(reference: dict, other: dict, what: str) -> None:
    differ = sorted(k for k in reference.keys() | other.keys()
                    if reference.get(k) != other.get(k))
    if differ:
        raise CheckFailed(f"{what}: artifacts differ: {', '.join(differ)}")


def read_csv_rows(path: Path) -> list[dict[str, str]]:
    lines = path.read_text(encoding="utf-8").splitlines()
    header = lines[0].split(",")
    return [dict(zip(header, line.split(","))) for line in lines[1:]]


def best_epoch(history: Path) -> tuple[int, int, float]:
    """(best epoch, epochs, best validation C) with ties to the earlier epoch."""
    rows = read_csv_rows(history)
    best, score = 0, -math.inf
    for row in rows:
        if row["val_c_index"] and float(row["val_c_index"]) > score:
            best, score = int(row["epoch"]), float(row["val_c_index"])
    return best, len(rows), score


def batches_per_epoch(n: int, batch_size: int) -> int:
    """Batches of one epoch; a trailing batch of one row is dropped."""
    return -(-n // batch_size) - (1 if n % batch_size == 1 else 0)


class Workload:
    """Inputs, command line, output checks and expected call counts."""

    name = ""
    artifacts: tuple[str, ...] = ()

    def __init__(self, seed: int, work: Path):
        self.seed = seed
        self.work = work
        self.sizes: dict = {}
        self.scores: list[dict] = []   # per-model quality, where a run has several

    def write_cohort(self, n: int, parts: dict[str, slice], *stream: int) -> None:
        """The seed's cohort, or with ``stream`` another cohort of the same seed."""
        x, t, e = cohort.draw(n, N_FEATURES, self.seed, *stream)
        for name, rows in parts.items():
            cohort.write(self.work / name, x[rows], t[rows], e[rows])
        self.sizes.setdefault("censored_fraction", []).append(float((e == 0).mean()))
        self.sizes.update(n=n, features=N_FEATURES)

    def prepare(self, runner: Runner) -> None:
        raise NotImplementedError

    def args(self, out: Path) -> list[str]:
        raise NotImplementedError

    def rows_processed(self) -> int:
        raise NotImplementedError

    def quality(self, out: Path, runner: Runner) -> dict[str, float]:
        """c_index and ibs of one command's artifacts, checked for shape."""
        raise NotImplementedError

    def expected_calls(self) -> dict[str, int]:
        raise NotImplementedError


class TrainDefault(Workload):
    name = "train_default"
    n, epochs, batch_size = 10_000, 150, 256
    n_train = 6_000        # the default 0.6/0.2/0.2 split of n
    artifacts = ("history.csv", "checkpoint.json", "grid.json", "test.csv")

    def prepare(self, runner):
        self.write_cohort(self.n, {"cohort.csv": slice(None)})
        self.sizes.update(n_train=self.n_train, n_val=2_000, n_test=2_000,
                          epochs=self.epochs, batch_size=self.batch_size)

    def args(self, out):
        return ["train", "--data", str(self.work / "cohort.csv"), "--out", str(out)]

    def rows_processed(self):
        return self.n_train * self.epochs

    def quality(self, out, runner):
        _, epochs, best_c = best_epoch(out / "history.csv")
        if epochs != self.epochs:
            raise CheckFailed(f"history.csv has {epochs} epochs, expected {self.epochs}")
        # train reports no test metrics: score its own test split, untimed
        runner.cli(["evaluate", "--checkpoint", str(out / "checkpoint.json"),
                    "--grid", str(out / "grid.json"), "--data", str(out / "test.csv"),
                    "--out", str(out / "eval")], "test_eval")
        report = read_csv_rows(out / "eval" / "report.csv")[0]
        return {"c_index": best_c, "ibs": float(report["ibs"])}

    def expected_calls(self):
        batches = self.epochs * batches_per_epoch(self.n_train, self.batch_size)
        return {"training.fit": 1, "training.train_epoch": self.epochs,
                "training.validation_c_index": self.epochs, "metrics.c_index": self.epochs,
                "training.sgd_step": batches, "losses.time_rank_loss": batches,
                "losses.rank_loss": 0, "metrics.select_cutoff": 1,
                "metrics.evaluate_model": 0, "model.save_checkpoint": 1}


class AblateLargeBatch(Workload):
    name = "ablate_large_batch"
    n, epochs, batch_size = 4_000, 30, 1024
    n_train = 2_400
    rows = 6               # the default ablation rows
    rank_rows, time_rank_rows = 2, 3
    artifacts = ("ablation.csv", "grid.json", "row_*/history.csv", "row_*/checkpoint.json")

    def prepare(self, runner):
        self.write_cohort(self.n, {"cohort.csv": slice(None)})
        self.sizes.update(n_train=self.n_train, n_val=800, n_test=800, rows=self.rows,
                          epochs=self.epochs, batch_size=self.batch_size)

    def args(self, out):
        return ["ablate", "--data", str(self.work / "cohort.csv"), "--out", str(out),
                "--set", f"batch_size={self.batch_size}", "--set", f"epochs={self.epochs}"]

    def rows_processed(self):
        return self.rows * self.n_train * self.epochs

    def quality(self, out, runner):
        rows = read_csv_rows(out / "ablation.csv")
        if len(rows) != self.rows:
            raise CheckFailed(f"ablation.csv has {len(rows)} rows, expected {self.rows}")
        return {"c_index": statistics.fmean(float(r["c_index"]) for r in rows),
                "ibs": statistics.fmean(float(r["ibs"]) for r in rows)}

    def expected_calls(self):
        per_row = self.epochs * batches_per_epoch(self.n_train, self.batch_size)
        return {"training.fit": self.rows, "training.train_epoch": self.rows * self.epochs,
                "training.validation_c_index": self.rows * self.epochs,
                "metrics.c_index": self.rows * (self.epochs + 1),
                "training.sgd_step": self.rows * per_row,
                "losses.rank_loss": self.rank_rows * per_row,
                "losses.time_rank_loss": self.time_rank_rows * per_row,
                "metrics.select_cutoff": self.rows, "metrics.evaluate_model": self.rows,
                "model.save_checkpoint": self.rows}


class EvaluateHeldout(Workload):
    name = "evaluate_heldout"
    n_train, n_val, n_test = 2_000, 1_000, 40_000
    setup_epochs = 20
    # One model's IBS differs by about 18% (quartile distance over median)
    # from one cohort to the next, so c_index and ibs are the mean over this
    # many models, each trained and scored on a cohort of its own.  The timed
    # commands score model 0; the others are scored once, untimed.
    models = 3
    artifacts = ("report.csv", "brier_curve.csv", "tdauc_curve.csv", "tdauc.svg")

    def prepare(self, runner):
        a, b = self.n_train, self.n_train + self.n_val
        self.sizes.update(n_train=self.n_train, n_val=self.n_val, n_test=self.n_test,
                          setup_epochs=self.setup_epochs, models=self.models)
        op = runner.operation("setup_train")
        try:
            for k in range(self.models):
                part = self.work / f"cohort{k}"
                part.mkdir()
                self.write_cohort(b + self.n_test, {
                    f"cohort{k}/train.csv": slice(0, a), f"cohort{k}/val.csv": slice(a, b),
                    f"cohort{k}/test.csv": slice(b, None)}, *([k] if k else []))
                runner.cli(["train", "--set", f"train_csv={part / 'train.csv'}",
                            "--set", f"val_csv={part / 'val.csv'}",
                            "--set", f"epochs={self.setup_epochs}",
                            "--out", str(part / "model")], f"setup_train{k}")
        except CheckFailed as exc:
            op["failures"].append(str(exc))
            raise

    def args(self, out, k=0):
        part = self.work / f"cohort{k}"
        return ["evaluate", "--checkpoint", str(part / "model" / "checkpoint.json"),
                "--grid", str(part / "model" / "grid.json"), "--data", str(part / "test.csv"),
                "--out", str(out)]

    def rows_processed(self):
        return self.n_test

    def quality(self, out, runner):
        reports = [out / "report.csv"]
        for k in range(1, self.models):
            scored = self.work / f"cohort{k}" / "eval"
            runner.cli(self.args(scored, k), f"quality_eval{k}")
            reports.append(scored / "report.csv")
        for path in reports:
            report = read_csv_rows(path)
            if len(report) != 1 or report[0]["cutoff_source"] != "checkpoint":
                raise CheckFailed(f"{path.parent.name}/report.csv is not one row scored "
                                  "with the checkpoint cutoff")
            self.scores.append({"c_index": float(report[0]["c_index"]),
                                "ibs": float(report[0]["ibs"])})
        return {key: statistics.fmean(score[key] for score in self.scores)
                for key in ("c_index", "ibs")}

    def expected_calls(self):
        return {"training.fit": 0, "training.train_epoch": 0, "losses.rank_loss": 0,
                "losses.time_rank_loss": 0, "metrics.select_cutoff": 0,
                "metrics.evaluate_model": 1, "metrics.c_index": 1,
                "model.load_checkpoint": 1}


WORKLOADS = {w.name: w for w in (TrainDefault, AblateLargeBatch, EvaluateHeldout)}


def layer_table(trace: dict, traced_wall: float) -> dict[str, float]:
    """Per-layer metrics of one traced command; self time excludes child spans."""
    names, spans = trace["names"], trace["spans"]
    inner = [0.0] * len(spans)
    for _, start, end, parent in spans:
        if parent >= 0:
            inner[parent] += end - start
    table: dict[str, float] = defaultdict(float)
    for name in names:
        table[f"{name}.self_s"] = 0.0
        table[f"{name}.calls"] = 0.0
    epoch_s, attributed = [], 0.0
    for (name_id, start, end, parent), covered in zip(spans, inner):
        name = names[name_id]
        self_s = end - start - covered
        table[f"{name}.self_s"] += self_s
        table[f"{name}.calls"] += 1
        table[f"{name.split('.')[0]}.self_s"] += self_s
        if parent < 0:
            attributed += end - start
        if name == "training.train_epoch":
            epoch_s.append(end - start)
    counters = trace["counters"]
    table["cli.self_s"] = traced_wall - attributed
    table["traced_wall_s"] = traced_wall
    for layer in LAYERS:
        table.setdefault(f"{layer}.self_s", 0.0)
    table["losses.pairs"] = counters.get("losses.pairs", 0.0)
    cells = counters.get("losses.pair_cells", 0.0)
    table["losses.pair_density"] = table["losses.pairs"] / cells if cells else 0.0
    for key in ("losses.empty_pair_batches", "metrics.cutoff_candidates",
                "metrics.admissible_cutoffs", "metrics.brier_dropped",
                "training.dropped_batches"):
        table[key] = counters.get(key, 0.0)
    table["training.epochs"] = table.get("training.train_epoch.calls", 0.0)
    table["training.batches"] = table.get("training.sgd_step.calls", 0.0)
    table["training.train_epoch.p50_s"] = statistics.median(epoch_s) if epoch_s else 0.0
    table["training.train_epoch.p90_s"] = (
        statistics.quantiles(epoch_s, n=10)[8] if len(epoch_s) > 1 else sum(epoch_s, 0.0))
    table["training.train_epoch.samples"] = float(len(epoch_s))
    return dict(table)


def check_counts(table: dict[str, float], expected: dict[str, int]) -> list[str]:
    """Exact call counts the run must show, so the trace cannot drift silently."""
    problems = [f"{name}.calls = {table.get(name + '.calls', 0.0):g}, expected {want}"
                for name, want in expected.items()
                if table.get(f"{name}.calls", 0.0) != want]
    # select_cutoff scores each admissible candidate with one log_rank call
    log_rank = table.get("metrics.log_rank.calls", 0.0)
    if log_rank != table["metrics.admissible_cutoffs"]:
        problems.append(f"metrics.log_rank.calls = {log_rank:g}, expected "
                        f"{table['metrics.admissible_cutoffs']:g} admissible cutoffs")
    if table["training.dropped_batches"] != 0.0:
        problems.append("training dropped batches that the sizes say cannot occur")
    return problems


def best_epoch_frac(out: Path) -> float:
    """Mean over trained models of best epoch / epochs (0 when none trained)."""
    fracs = [b / n for b, n, _ in map(best_epoch, sorted(out.glob("**/history.csv")))]
    return statistics.fmean(fracs) if fracs else 0.0


def git_commit() -> dict:
    """The checkout's commit from ``.git`` (loose or packed ref), or why not."""
    git = ROOT / ".git"
    head = git / "HEAD"
    if not head.is_file():
        return {"commit": None, "error": "no .git/HEAD: the checkout is not a git repository"}
    ref = head.read_text(encoding="utf-8").strip()
    if not ref.startswith("ref: "):
        return {"commit": ref, "error": None}
    ref = ref[5:]
    if (git / ref).is_file():
        return {"commit": (git / ref).read_text(encoding="utf-8").strip(), "error": None}
    packed = git / "packed-refs"
    if packed.is_file():
        for line in packed.read_text(encoding="utf-8").splitlines():
            sha, _, name = line.partition(" ")
            if name == ref:
                return {"commit": sha, "error": None}
    return {"commit": None, "error": f"{ref} is neither a loose nor a packed ref"}


def probe_setup(runner: Runner) -> tuple[list[Child], dict]:
    """Fresh interpreter to ``binsurv.cli`` imported and the parser built."""
    op = runner.operation("setup_probe")
    argv = [sys.executable, "-c", SETUP_PROBE]
    try:
        # the first probe warms the file cache and writes bytecode; it is not timed
        probes = [runner.spawn(argv, "setup_probe.log") for _ in range(SETUP_PROBES + 1)]
    except CheckFailed as exc:
        op["failures"].append(str(exc))
        return [], {}
    log = (runner.work / "setup_probe.log").read_text(encoding="utf-8")
    if any(p.code != 0 for p in probes):
        op["failures"].append(f"setup probe failed: {log.strip()[-300:]}")
        return [], {}
    return probes[1:], json.loads(log.splitlines()[-1])


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    work = HERE / "runs" / f"{name}-seed{seed}-trace{int(trace)}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    runner = Runner(work, clock())
    workload = WORKLOADS[name](seed, work)

    probes, versions = probe_setup(runner)
    untraced: list[Child] = []
    traced: list[Child] = []
    tables: list[dict] = []
    traces: list[dict] = []
    quality: dict[str, float] = {}
    reference = None
    try:
        workload.prepare(runner)
        deadline = clock() + seconds
        for k in itertools.count():
            label = f"cmd{k}"
            op = runner.operation(label)
            try:
                out = work / label
                untraced.append(runner.cli(workload.args(out), label))
                hashes = digest(out, workload.artifacts)
                if reference is None:
                    reference = hashes
                    quality = workload.quality(out, runner)
                else:
                    same_bytes(reference, hashes, f"{label} vs cmd0")
                    shutil.rmtree(out)
                if trace:
                    op = runner.operation(f"traced{k}")
                    out = work / f"traced{k}"
                    trace_path = work / f"traced{k}.json"
                    traced.append(runner.cli(workload.args(out), f"traced{k}", trace_path))
                    same_bytes(reference, digest(out, workload.artifacts),
                               f"traced{k} vs untraced cmd0")
                    record = json.loads(trace_path.read_text(encoding="utf-8"))
                    trace_path.unlink()
                    traces.append(record)
                    table = layer_table(record, traced[-1].wall_s)
                    table["training.best_epoch_frac"] = best_epoch_frac(out)
                    problems = check_counts(table, workload.expected_calls())
                    if problems:
                        raise CheckFailed(f"traced{k}: " + "; ".join(problems))
                    tables.append(table)
                    shutil.rmtree(out)
            except CheckFailed as exc:
                op["failures"].append(str(exc))
                break
            enough = len(untraced) >= (1 if trace else MIN_COMMANDS)
            if enough and clock() >= deadline:
                break
    except CheckFailed:
        pass  # booked on the set-up operation that raised it
    probes += probe_setup(runner)[0]

    metrics: dict[str, float] = {}
    if trace and tables:
        metrics = {key: statistics.median(t[key] for t in tables) for key in tables[0]}
        metrics["trace_overhead_s"] = (statistics.median(c.wall_s for c in traced)
                                       - statistics.median(c.wall_s for c in untraced))
    elif untraced and not trace:
        metrics = end_to_end(workload, untraced, probes, quality)
    bad = [k for k, v in metrics.items() if not math.isfinite(v)]
    if not 0.0 <= quality.get("c_index", 0.0) <= 1.0:
        bad.append("c_index outside [0, 1]")
    if bad:
        first = next(op for op in runner.operations if op["op"] == "cmd0")
        first["failures"].append("not finite or out of range: " + ", ".join(bad))

    (work / "trace.json").write_text(json.dumps({"runs": traces}), encoding="utf-8")
    record = {
        "workload": name, "seed": seed, "seconds": seconds,
        "trace": trace, "versions": versions, "git": git_commit(),
        "nproc": os.cpu_count(), "cpu_affinity": len(os.sched_getaffinity(0)),
        "blas_env": BLAS_ENV, "sizes": workload.sizes, "scores": workload.scores,
        "samples": {"setup_s": len(probes), "untraced_commands": len(untraced),
                    "traced_commands": len(traced),
                    "train_epoch_percentiles": [t["training.train_epoch.samples"]
                                                for t in tables]},
        "wall_s": [c.wall_s for c in untraced], "cpu_s": [c.cpu_s for c in untraced],
        "traced_wall_s": [c.wall_s for c in traced],
        "setup_s": [p.wall_s for p in probes], "operations": runner.operations,
        "attempted": len(runner.operations), "failed": runner.failed,
        "error_rate": runner.failed / max(1, len(runner.operations)), "metrics": metrics,
    }
    (work / "record.json").write_text(json.dumps(record, indent=1), encoding="utf-8")
    for path in work.iterdir():
        if path.is_dir():
            shutil.rmtree(path)
        elif path.suffix == ".csv":
            path.unlink()
    return record


def end_to_end(workload: Workload, untraced: list[Child], probes: list[Child],
               quality: dict[str, float]) -> dict[str, float]:
    """Medians over the commands and set-up probes of one run."""
    rows = workload.rows_processed()
    return {
        "wall_s": statistics.median(c.wall_s for c in untraced),
        "setup_s": statistics.median(p.wall_s for p in probes) if probes else math.nan,
        "rows_per_s": statistics.median(rows / c.wall_s for c in untraced),
        "peak_rss_mb": statistics.median(c.peak_rss_mb for c in untraced),
        "c_index": quality.get("c_index", math.nan),
        "ibs": quality.get("ibs", math.nan),
    }


def result_line(record: dict, spec: list[dict]) -> dict:
    """The contract's last line; a metric that could not be measured is null."""
    missing = [m["name"] for m in spec if m["name"] not in record["metrics"]]
    if missing:
        print(f"run.py: {len(missing)} metrics not produced, first {missing[0]}",
              file=sys.stderr)
    metrics = {}
    for m in spec:
        value = record["metrics"].get(m["name"], math.nan)
        metrics[m["name"]] = {"value": value if math.isfinite(value) else None,
                              "unit": m["unit"]}
    return {"correct": record["failed"] == 0 and not missing,
            "attempted": record["attempted"], "failed": record["failed"], "metrics": metrics}


def print_table(record: dict, line: dict) -> None:
    print(f"== {record['workload']} seed={record['seed']} trace={int(record['trace'])}: "
          f"{record['attempted']} operations, {record['failed']} failed, "
          f"error_rate {record['error_rate']:.4f}")
    for name, metric in line["metrics"].items():
        print(f"  {name:<40} {metric['value']!s:>22} {metric['unit']}")
    for op in record["operations"]:
        for failure in op["failures"]:
            print(f"  FAILED {op['op']}: {failure}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec_path = ROOT / "BENCHMARK.json"
    if not (SRC / "binsurv" / "cli.py").is_file() or not spec_path.is_file():
        print(f"run.py: no binsurv sources under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text(encoding="utf-8"))
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    if any(n not in WORKLOADS for n in names):
        parser.error(f"--workload must be one of {', '.join(WORKLOADS)} or all")
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    lines = {}
    for name in names:
        record = run_workload(name, args.seed, args.seconds, bool(args.trace))
        lines[name] = result_line(record, wanted)
        print_table(record, lines[name])
    print(json.dumps(lines[names[0]] if len(names) == 1 else lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
