"""Run one ``binsurv`` command with every layer function wrapped in a span.

Usage::

    python3 perfbench/traced_cli.py TRACE_JSON RUN_ID -- <binsurv arguments>

The wrappers are installed from outside the library: each public function is
replaced at the binding where its caller looks it up (``from .x import y``
binds ``y`` in the consumer module).  Spans and counters stay in memory and
are written to TRACE_JSON when the command ends.  A binding that no longer
exists stops the run with exit code 3 before the command starts, so a renamed
function fails the benchmark instead of dropping out of its table.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import logging
import math
import re
import sys
import time
import warnings

clock = time.perf_counter

# consumer module -> names looked up there that are wrapped
BINDINGS = {
    "binsurv.cli": (
        "load_csv", "write_csv", "split_dataset", "bin_dataset",
        "build_time_grid", "apply_scaler", "save_grid", "load_grid",
        "forward", "apply_head", "predict_risk", "save_checkpoint",
        "load_checkpoint", "fit", "write_history_csv", "evaluate_model",
        "select_cutoff", "write_report_csv", "write_curve_csv",
        "line_plot_svg",
    ),
    "binsurv.training": (
        "forward", "backward", "apply_head", "head_backward", "init_params",
        "predict_risk", "combined_loss", "c_index", "train_epoch",
        "validation_c_index", "sgd_step",
    ),
    "binsurv.losses": (
        "predict_risk", "likelihood_loss", "rank_loss", "time_rank_loss",
        "calibration_loss",
    ),
    "binsurv.metrics": (
        "forward", "apply_head", "predict_risk", "c_index", "kaplan_meier",
        "brier_score_t", "tdauc", "select_cutoff", "log_rank", "hazard_ratio",
    ),
}

COUNT_SPAN = "trace.count"
IMPORT_SPAN = "cli.import"
_BRIER_DROPPED = re.compile(r"(\d+) sample\(s\) dropped")


class Tracer:
    """In-memory spans ``[name_id, start, end, parent]`` plus named counters."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.counters: dict[str, float] = {}
        for name in (IMPORT_SPAN, COUNT_SPAN):  # in every table, also at 0 calls
            self.name_id(name)

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def record(self, name: str, start: float, end: float) -> None:
        """A closed span under the innermost open one."""
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([self.name_id(name), start, end, parent])

    def add(self, counter: str, value: float) -> None:
        self.counters[counter] = self.counters.get(counter, 0.0) + value

    def wrap(self, fn, name: str, count=None):
        """``fn`` timed as span ``name``; ``count`` runs first, as its own span."""
        name_id = self.name_id(name)
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if count is not None:
                start = clock()
                count(self, args, kwargs)
                self.record(COUNT_SPAN, start, clock())
            index = len(spans)
            spans.append([name_id, clock(), 0.0, stack[-1] if stack else -1])
            stack.append(index)
            try:
                return fn(*args, **kwargs)
            finally:
                spans[index][2] = clock()
                stack.pop()

        return traced

    def dump(self, path: str, run_id: str, **extra) -> None:
        payload = {"run_id": run_id, "names": self.names, "spans": self.spans,
                   "counters": self.counters, **extra}
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, separators=(",", ":"))


def _arguments(signature, args, kwargs):
    bound = signature.bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments


def _count_pairs(fn):
    """Comparable pairs (event_i = 1, t_j > t_i) of the batch, by one sort."""
    import numpy as np
    signature = inspect.signature(fn)

    def count(tracer, args, kwargs):
        batch = _arguments(signature, args, kwargs)["batch"]
        t = np.asarray(batch.t_norm, dtype=np.float64)
        later = t.size - np.searchsorted(np.sort(t), t[batch.events == 1], side="right")
        tracer.add("losses.pairs", float(later.sum()))
        tracer.add("losses.pair_cells", float(t.size) ** 2)

    return count


def _count_cutoffs(fn):
    """Cutoff candidates, and those leaving both groups large enough."""
    import numpy as np
    signature = inspect.signature(fn)

    def count(tracer, args, kwargs):
        arguments = _arguments(signature, args, kwargs)
        s = np.asarray(arguments["scores"], dtype=np.float64)
        frac = arguments["min_group_frac"]
        uniq = np.unique(s)
        candidates = (uniq[:-1] + uniq[1:]) / 2.0
        n_high = s.size - np.searchsorted(np.sort(s), candidates, side="right")
        min_count = max(1, math.ceil(frac * s.size))
        ok = (n_high >= min_count) & (s.size - n_high >= min_count)
        tracer.add("metrics.cutoff_candidates", float(candidates.size))
        tracer.add("metrics.admissible_cutoffs", float(np.count_nonzero(ok)))

    return count


COUNTERS = {
    "losses.rank_loss": _count_pairs,
    "losses.time_rank_loss": _count_pairs,
    "metrics.select_cutoff": _count_cutoffs,
}


def install(tracer: Tracer) -> list[str]:
    """Wrap every binding in BINDINGS; return the ones that are missing."""
    missing = []
    wrapped: dict[int, object] = {}  # one wrapper per function, shared by its bindings
    for module_name, names in BINDINGS.items():
        module = importlib.import_module(module_name)
        for name in names:
            fn = module.__dict__.get(name)
            if not inspect.isfunction(fn) or not fn.__module__.startswith("binsurv."):
                missing.append(f"{module_name}.{name}")
                continue
            if id(fn) not in wrapped:
                span = f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"
                counter = COUNTERS.get(span)
                wrapped[id(fn)] = tracer.wrap(fn, span, counter(fn) if counter else None)
            setattr(module, name, wrapped[id(fn)])
    return missing


def watch_side_channels(tracer: Tracer) -> None:
    """Count RuntimeWarnings and dropped-batch log records as they pass."""
    original_warn = warnings.warn

    def warn(message, category=None, stacklevel=1, source=None):
        text = str(message)
        if "no comparable pairs" in text:
            tracer.add("losses.empty_pair_batches", 1.0)
        dropped = _BRIER_DROPPED.search(text)
        if text.startswith("brier score") and dropped:
            tracer.add("metrics.brier_dropped", float(dropped.group(1)))
        # one frame deeper, so the warning keeps its caller's location
        return original_warn(message, category, stacklevel + 1, source)

    warnings.warn = warn

    class DroppedBatches(logging.Handler):
        def emit(self, record):
            if "dropping trailing batch" in record.getMessage():
                tracer.add("training.dropped_batches", 1.0)

    logging.getLogger("binsurv.training").addHandler(DroppedBatches())


def main(argv: list[str]) -> int:
    if len(argv) < 3 or argv[2] != "--":
        print(__doc__, file=sys.stderr)
        return 2
    trace_path, run_id, cli_args = argv[0], argv[1], argv[3:]
    tracer = Tracer()
    start = clock()
    cli = importlib.import_module("binsurv.cli")
    tracer.record(IMPORT_SPAN, start, clock())
    missing = install(tracer)
    if missing:
        print("traced_cli: bindings not found: " + ", ".join(missing), file=sys.stderr)
        tracer.dump(trace_path, run_id, missing=missing)
        return 3
    watch_side_channels(tracer)
    try:
        return cli.main(cli_args)
    finally:
        tracer.dump(trace_path, run_id, missing=[])


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
