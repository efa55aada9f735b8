"""Survival datasets, time-grid construction and discretization.

Right-censored data comes in as (features, observed time, event indicator)
triples.  Observed study time is mapped onto a grid of ``k_bins`` intervals of
equal width 1/k in normalized time; the last interval is reserved for "beyond
the observation window".  The grid is always built from the *event* times of
the training split and reused verbatim on test data.
"""

from __future__ import annotations

import csv
import io
import json
import math
import sys
from dataclasses import dataclass

import numpy as np

VAR_FLOOR = 1e-8
# events fill bins 1..k-2 and the last bin is reserved for censored tails
MIN_K_BINS = 3

# Floating-point guard for bin assignment: values sitting exactly on an
# interval boundary (e.g. the cropped maximum (k-1)/k) must land in the upper
# bin at any raw-time scale.
_BIN_EDGE_TOL = 1e-9


class CsvFormatError(ValueError):
    """A survival CSV failed structural or per-row validation."""


class DegenerateGridError(ValueError):
    """A time grid cannot be built from the given event times."""


@dataclass(frozen=True)
class FeatureScaler:
    """Per-feature z-score statistics, reusable on held-out data."""

    mean: np.ndarray
    std: np.ndarray

    @classmethod
    def fit(cls, features: np.ndarray) -> "FeatureScaler":
        features = np.asarray(features, dtype=np.float64)
        mean = features.mean(axis=0)
        var = features.var(axis=0)
        # constant columns get a floored variance so they standardize to zero
        std = np.sqrt(np.maximum(var, VAR_FLOOR))
        return cls(mean=mean, std=std)

    def transform(self, features: np.ndarray) -> np.ndarray:
        return (np.asarray(features, dtype=np.float64) - self.mean) / self.std


@dataclass(frozen=True)
class TimeGrid:
    """Affine normalization of study time plus a 1/k-wide bin layout.

    Three numbers fix the grid: ``k_bins`` and ``t_min``/``t_max``, the
    smallest and largest *event* times seen when the grid was built.
    ``origin`` maps to 0, ``t_min`` to 0.1/k, ``t_max`` to (k - 2.1)/k, and
    everything at or beyond ``origin + (k - 1)/k * span`` is cropped onto
    (k - 1)/k, the left edge of the reserved final bin.  A grid whose
    rounded edges do not strictly increase, or which does not bin ``t_min``
    into bin 1 and ``t_max`` into bin k - 2, raises DegenerateGridError.
    """

    k_bins: int
    t_min: float
    t_max: float

    def __post_init__(self):
        if self.k_bins < MIN_K_BINS:
            raise ValueError(f"k_bins must be at least {MIN_K_BINS}")
        if not 0.0 < self.t_min < self.t_max < math.inf:  # NaN fails too
            raise ValueError("grid times must be finite with t_min < t_max and "
                             f"t_min > 0, got {self.t_min!r} and {self.t_max!r}")
        edges, k = self.interior_boundaries(), self.k_bins
        if not (np.all(edges[1:] > edges[:-1]) and assign_bin(normalize_time(
                [self.t_min, self.t_max], self), k).tolist() == [1, k - 2]):
            raise DegenerateGridError(
                f"k_bins={k} cannot lay out event times {float(self.t_min)!r} and "
                f"{float(self.t_max)!r}: its rounded edges must rise strictly and put "
                f"them in bins 1 and {k - 2}")

    @property
    def origin(self) -> float:
        """Raw time of normalized time 0, one tenth of a bin below ``t_min``."""
        return self.t_min - 0.1 * self._bin_width

    @property
    def span(self) -> float:
        """Raw-time length of normalized [0, 1), as end minus origin (not k * width)."""
        return (self.origin + self.k_bins * self._bin_width) - self.origin

    @property
    def _bin_width(self) -> float:
        return (self.t_max - self.t_min) / (self.k_bins - 2.2)

    def interior_boundaries(self) -> np.ndarray:
        """Raw-time positions of the k - 1 interior bin edges."""
        edges = np.arange(1, self.k_bins) / self.k_bins
        return self.origin + edges * self.span


def check_paired(names: str, *arrays) -> None:
    """Raise ValueError naming the arguments unless all are 1-d of one length."""
    shapes = [np.shape(a) for a in arrays]
    if any(len(shape) != 1 for shape in shapes) or len(set(shapes)) > 1:
        raise ValueError(f"{names} must be 1-d arrays of one length, got shapes "
                         + ", ".join(map(str, shapes)))


def check_outcomes(times, events):
    """``times`` and ``events`` as 1-d float64 and int64 arrays of one length;
    ValueError unless every time is finite and > 0 and every event is exactly
    0 or 1, read before the int cast (0.5 is rejected, not truncated to 0)."""
    t = np.asarray(times, dtype=np.float64)
    e = np.asarray(events)
    check_paired("times and events", t, e)
    if t.size and not (t.min() > 0.0 and t.max() < np.inf):  # NaN fails both
        raise ValueError("times must be finite and strictly positive")
    if np.count_nonzero(e) != np.count_nonzero(e == 1):  # a nonzero event other than 1
        raise ValueError("events must be 0 or 1")
    return t, e.astype(np.int64, copy=False)


@dataclass(eq=False)
class SurvivalDataset:
    """Column-oriented survival data: features (n, d), times (n,), events (n,)."""

    features: np.ndarray
    times: np.ndarray
    events: np.ndarray
    feature_names: tuple[str, ...]

    def __post_init__(self):
        self.features = np.asarray(self.features, dtype=np.float64)
        self.times, self.events = check_outcomes(self.times, self.events)
        self.feature_names = tuple(self.feature_names)
        if self.features.ndim != 2:
            raise ValueError("features must be a 2-D array")
        if self.features.shape[0] != self.times.size:
            raise ValueError("features, times and events must agree on length")
        if len(self.feature_names) != self.features.shape[1]:
            raise ValueError("feature_names must match the feature count")

    def __len__(self) -> int:
        return self.features.shape[0]

    @property
    def n_features(self) -> int:
        return self.features.shape[1]

    def subset(self, indices) -> "SurvivalDataset":
        idx = np.asarray(indices)
        return SurvivalDataset(
            self.features[idx], self.times[idx], self.events[idx],
            self.feature_names,
        )


def apply_scaler(dataset: SurvivalDataset, scaler: FeatureScaler) -> SurvivalDataset:
    """Return a copy of ``dataset`` with features standardized by ``scaler``."""
    return SurvivalDataset(
        scaler.transform(dataset.features), dataset.times.copy(),
        dataset.events.copy(), dataset.feature_names,
    )


@dataclass(eq=False)
class BinnedBatch:
    """The training rows as the losses read them: features, normalized time,
    1-based bin and event flag.  Raw times stay with the dataset."""

    features: np.ndarray
    t_norm: np.ndarray
    bins: np.ndarray
    events: np.ndarray

    def __len__(self) -> int:
        return self.features.shape[0]

    def take(self, indices) -> "BinnedBatch":
        idx = np.asarray(indices)
        return BinnedBatch(self.features[idx], self.t_norm[idx],
                           self.bins[idx], self.events[idx])


def build_time_grid(dataset: SurvivalDataset, k_bins: int) -> TimeGrid:
    """Fit the normalization constants from the event times of ``dataset``.

    The spread between the smallest and largest event time is divided by
    k - 2.2 so that, after shifting the origin 0.1 interval widths below the
    first event, events occupy bins 1..k-2 and the top of the grid keeps one
    finite interval plus the reserved "beyond observation" bin.
    """
    event_times = dataset.times[dataset.events == 1]
    if not event_times.size or event_times.min() == event_times.max():
        raise DegenerateGridError(
            "time grid needs at least two distinct event times"
        )
    return TimeGrid(k_bins, float(event_times.min()), float(event_times.max()))


def normalize_time(t, grid: TimeGrid):
    """Map raw study time onto [0, (k-1)/k] via the grid's affine transform.

    Cropping happens in normalized space so the upper clamp is exactly the
    double (k-1)/k regardless of raw-time magnitudes.
    """
    arr = np.asarray(t, dtype=np.float64)
    if not np.all(np.isfinite(arr)) or np.any(arr <= 0):
        raise ValueError("times must be finite and strictly positive")
    upper = (grid.k_bins - 1) / grid.k_bins
    return np.clip((arr - grid.origin) / grid.span, 0.0, upper)


def assign_bin(t_norm, k_bins: int):
    """1-based bin index of a normalized time: interval k is [(k-1)/k, k/k)."""
    arr = np.asarray(t_norm, dtype=np.float64)
    if np.any(arr < 0.0) or np.any(arr >= 1.0):
        raise ValueError("normalized time must lie in [0, 1)")
    k = np.floor(arr * k_bins + _BIN_EDGE_TOL).astype(np.int64) + 1
    return np.minimum(k, k_bins)


def bin_midpoints(k_bins: int) -> np.ndarray:
    """Normalized-time midpoints (2k - 1) / (2 k_bins) of bins k = 1..k_bins."""
    return (2.0 * np.arange(1, k_bins + 1) - 1.0) / (2.0 * k_bins)


def bin_dataset(dataset: SurvivalDataset, grid: TimeGrid) -> BinnedBatch:
    """Normalize and bin every sample with a pre-built grid.

    A grid puts its own events in bins 1..k-2; any other event at or beyond
    its crop point, in the reserved final bin, raises ValueError.
    """
    t_norm = normalize_time(dataset.times, grid)
    bins = assign_bin(t_norm, grid.k_bins)
    if np.any(bins[dataset.events == 1] == grid.k_bins):
        raise ValueError(f"an event lies in the reserved bin {grid.k_bins}, "
                         "at or beyond the grid's crop point")
    return BinnedBatch(features=dataset.features, t_norm=t_norm, bins=bins,
                       events=dataset.events)


def load_csv(path, time_column: str = "time",
             event_column: str = "event") -> SurvivalDataset:
    """Read a UTF-8, comma-separated, headered survival CSV as raw values.

    A leading byte-order mark, as spreadsheet exports write, is skipped.
    The header names every column once; names are stripped of surrounding
    whitespace and may be quoted, and an empty or repeated name is an error.
    Every non-time, non-event column is a numeric feature.  Cells are
    decimal floats (``nan``/``inf`` spellings included), optionally quoted
    and padded with whitespace; lines end in LF, CRLF or CR (read as LF by
    universal newlines), and a blank line is an error.  Times must be finite
    and > 0, events 0 or 1, and features finite.  Time, event and at least
    one feature are distinct columns.

    numpy's C parser reads the data lines in one call.  Only when it or a
    vectorised check rejects the file does :func:`_raise_first_bad_row`
    scan the data lines, already in memory, cell by cell to name the first
    offending data row (1-based, header excluded) and column.  Cells that
    ``float()`` reads but numpy's parser does not, digit-group underscores
    (``1_000``) and non-ASCII digits, are reported as non-numeric; a line
    break inside a quoted cell is an error too.

    Features are returned unscaled: standardization is the caller's step
    (the CLI fits one scaler on the training split).  Every failure raises
    :class:`CsvFormatError`, bytes that are not UTF-8 text included.
    """
    if time_column == event_column:
        raise CsvFormatError(f"{path}: '{time_column}' is both the time and event column")
    try:
        with open(path, "r", encoding="utf-8-sig") as fh:
            header = next(csv.reader(fh), None)
            text = fh.read()
    except UnicodeDecodeError as exc:
        raise CsvFormatError(f"{path}: not UTF-8 text ({exc.reason})") from None
    if header is None:
        raise CsvFormatError(f"{path}: empty file")
    header = [h.strip() for h in header]
    for required in (time_column, event_column):
        if required not in header:
            raise CsvFormatError(f"{path}: missing column '{required}'")
    for i, name in enumerate(header):
        if not name:
            raise CsvFormatError(f"{path}: column {i + 1} has an empty name")
        if name in header[:i]:
            raise CsvFormatError(f"{path}: duplicate column '{name}'")
    if len(header) == 2:
        raise CsvFormatError(f"{path}: no feature column")
    if not text:
        raise CsvFormatError(f"{path}: no data rows")
    t_idx = header.index(time_column)
    e_idx = header.index(event_column)
    feat_idx = [i for i in range(len(header)) if i not in (t_idx, e_idx)]
    feature_names = [header[i] for i in feat_idx]

    lines = text.split("\n")
    if not lines[-1]:
        lines.pop()  # after the final line break
    spanning = "line break inside a quoted cell"
    try:
        if "" in lines:  # loadtxt would skip a blank line silently
            raise ValueError(spanning)
        table = np.loadtxt(lines, dtype=np.float64, delimiter=",",
                           comments=None, quotechar='"', ndmin=2)
        if table.shape != (len(lines), len(header)):
            raise ValueError(spanning)
        # the outcome check, before any feature is read
        dataset = SurvivalDataset(
            np.ascontiguousarray(table[:, feat_idx]),
            np.ascontiguousarray(table[:, t_idx]), table[:, e_idx], feature_names)
    except ValueError as exc:
        _raise_first_bad_row(path, text, header, t_idx, e_idx)
        # every row passed float(): numpy refused a spelling float() reads,
        # or a quoted cell spans lines (blank or not)
        raise CsvFormatError(f"{path}: {exc}") from None

    features = dataset.features
    # one vectorised pass instead of a per-cell check
    nonfinite = np.argwhere(~np.isfinite(features))
    if nonfinite.size:
        row, col = nonfinite[0]
        raise CsvFormatError(
            f"{path}: row {row + 1}: non-finite value {float(features[row, col])!r} "
            f"in column '{feature_names[col]}'"
        )
    return dataset


def _raise_first_bad_row(path, text: str, header, t_idx: int, e_idx: int) -> None:
    """Scan ``text``, the data lines of ``path``, with ``float()`` per cell
    and raise :class:`CsvFormatError` for the first row with the wrong field
    count, a non-numeric cell, a bad time or a bad event, in that order of
    checks.

    Runs only after :func:`load_csv` has rejected the file, to name the row
    and column; it returns nothing when every row passes.
    """
    reader = csv.reader(io.StringIO(text, newline=""))
    for row_no, row in enumerate(reader, start=1):
        if len(row) != len(header):
            raise CsvFormatError(
                f"{path}: row {row_no}: expected {len(header)} fields, got {len(row)}"
            )
        values = []
        for i, cell in enumerate(row):
            try:
                if "_" in cell or not cell.strip().isascii():
                    raise ValueError  # float() reads these, numpy does not
                values.append(float(cell))
            except ValueError:
                raise CsvFormatError(
                    f"{path}: row {row_no}: non-numeric value {cell!r} "
                    f"in column '{header[i]}'"
                ) from None
        t = values[t_idx]
        if not math.isfinite(t) or t <= 0:
            raise CsvFormatError(
                f"{path}: row {row_no}: time must be finite and > 0 "
                f"in column '{header[t_idx]}', got {row[t_idx]!r}"
            )
        if values[e_idx] not in (0.0, 1.0):
            raise CsvFormatError(
                f"{path}: row {row_no}: event must be 0 or 1 "
                f"in column '{header[e_idx]}', got {row[e_idx]!r}"
            )


def write_csv(dataset: SurvivalDataset, path, time_column: str = "time",
              event_column: str = "event") -> None:
    """Write a dataset back out in the format :func:`load_csv` accepts."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(list(dataset.feature_names) + [time_column, event_column])
        for i in range(len(dataset)):
            row = [repr(float(v)) for v in dataset.features[i]]
            row.append(repr(float(dataset.times[i])))
            row.append(str(int(dataset.events[i])))
            writer.writerow(row)


def split_dataset(dataset: SurvivalDataset, ratios, seed: int):
    """Shuffle-split into train/val/test with largest-remainder sizing.

    The permutation comes from a seeded generator, so a (dataset, ratios,
    seed) triple always produces the same partition.  Sizes are the integer
    apportionment of n * ratio with leftover seats handed to the largest
    fractional parts (ties broken toward the earlier split).
    """
    ratios = [float(r) for r in ratios]
    if len(ratios) != 3 or not all(0.0 < r < np.inf for r in ratios):
        raise ValueError("split ratios must be three finite positive numbers")
    if abs(sum(ratios) - 1.0) > 1e-9:
        raise ValueError("split ratios must sum to 1")
    n = len(dataset)
    exact = np.asarray(ratios) * n
    sizes = np.floor(exact).astype(int)
    remainder = exact - sizes
    leftover = n - int(sizes.sum())
    for i in sorted(range(3), key=lambda i: (-remainder[i], i))[:leftover]:
        sizes[i] += 1
    perm = np.random.default_rng(seed).permutation(n)
    bounds = np.cumsum(sizes)[:-1]
    parts = np.split(perm, bounds)
    return tuple(dataset.subset(p) for p in parts)


def write_table(path, header, rows) -> None:
    """Write a result table in comma-separated lines ending in LF: strings
    and integers as they are, any other cell as ``repr(float(cell))``, which
    reads back to the same double (a numpy scalar prints as a plain float),
    so reruns of a job write the same bytes."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        for row in (header, *rows):
            fh.write(",".join(str(cell) if isinstance(cell, (str, int, np.integer))
                              else repr(float(cell)) for cell in row) + "\n")


def write_json_object(path, file_format: str, version: int, body: dict,
                      indent: int | None = None) -> None:
    """``body`` as one JSON object led by its ``format`` and ``version`` tags,
    the file :func:`read_json_object` reads; floats round-trip via repr."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"format": file_format, "version": version, **body}, fh, indent=indent)
        fh.write("\n")


GRID_VERSION = 1


def save_grid(grid: TimeGrid, path) -> None:
    """Persist the three grid numbers as JSON (floats round-trip via repr)."""
    write_json_object(path, "binsurv-grid", GRID_VERSION, {
        "k_bins": grid.k_bins, "t_min": grid.t_min, "t_max": grid.t_max}, indent=2)


def require_json_number(path, key: str, value, integer: bool = False) -> None:
    """Reject a value read from JSON file ``path`` that is not an integer
    (``integer``) or a number, naming the file and the key.  A JSON true or
    false loads as a bool, which Python counts as an int, so it is rejected
    too; so is ``10.7`` or ``"10"`` where an integer is due, and an integer
    too large for float64."""
    if isinstance(value, bool) or not isinstance(value, int if integer else (int, float)):
        kind = "an integer" if integer else "a number"
        raise ValueError(f"{path}: {key} must be {kind}, got {value!r}")
    if isinstance(value, int) and abs(value) > sys.float_info.max:
        raise ValueError(f"{path}: {key} is too large for float64")


def read_json_object(path, file_format: str, kind: str, version: int) -> dict:
    """The JSON object in file ``path`` tagged ``format: file_format`` and the
    JSON integer ``version``, read as UTF-8 with an optional byte-order mark;
    other content raises ValueError naming the file, and an earlier version
    is named as no longer read."""
    with open(path, "r", encoding="utf-8-sig") as fh:
        try:
            payload = json.load(fh)
        except ValueError as exc:  # not JSON, or not UTF-8
            raise ValueError(f"{path}: not JSON: {exc}") from None
    if not isinstance(payload, dict) or payload.get("format") != file_format:
        raise ValueError(f"{path}: not a binsurv {kind}")
    stored = payload.get("version")
    require_json_number(path, "version", stored, integer=True)
    if 1 <= stored < version:
        raise ValueError(f"{path}: {kind} format v{stored} is no longer read; "
                         "retrain with this version")
    if stored != version:
        raise ValueError(f"{path}: unsupported {kind} version {stored}")
    return payload


def load_grid(path) -> TimeGrid:
    """Inverse of :func:`save_grid`; a file that also lists the derived
    constants, as older versions wrote, loads to the same grid."""
    payload = read_json_object(path, "binsurv-grid", "grid file", GRID_VERSION)
    try:
        k_bins, t_min, t_max = (payload[key] for key in ("k_bins", "t_min", "t_max"))
    except KeyError as exc:
        raise ValueError(f"{path}: missing key {exc.args[0]!r}") from None
    require_json_number(path, "k_bins", k_bins, integer=True)
    require_json_number(path, "t_min", t_min)
    require_json_number(path, "t_max", t_max)
    try:
        return TimeGrid(k_bins, float(t_min), float(t_max))
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
