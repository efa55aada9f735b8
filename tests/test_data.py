"""Time grid arithmetic, binning, CSV IO, splits, and the feature scaler."""

import json
import math
import os
import re
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from binsurv.data import (
    CsvFormatError, DegenerateGridError, FeatureScaler, SurvivalDataset,
    TimeGrid, apply_scaler, assign_bin, bin_dataset, bin_midpoints,
    build_time_grid, load_csv, load_grid, normalize_time, save_grid,
    split_dataset, write_csv, write_table,
)
from binsurv.metrics import default_eval_times
from helpers import random_dataset, reference_grid_reads, reference_load_csv


def make_dataset(times, events, n_features=2, seed=0):
    rng = np.random.default_rng(seed)
    times = np.asarray(times, dtype=np.float64)
    events = np.asarray(events, dtype=np.int64)
    x = rng.standard_normal((times.size, n_features))
    names = tuple(f"x{i + 1}" for i in range(n_features))
    return SurvivalDataset(features=x, times=times, events=events,
                           feature_names=names)


class TestGridConstruction:
    def test_constants_follow_from_event_range(self):
        ds = make_dataset([1.0, 11.0, 5.0], [1, 1, 0])
        grid = build_time_grid(ds, 10)
        assert grid.t_min == 1.0 and grid.t_max == 11.0
        # ten bins of width 10 / 7.8, starting one tenth of a bin below t_min
        assert grid.origin == pytest.approx(1.0 - 1.0 / 7.8)
        assert grid.span == pytest.approx(100.0 / 7.8)
        assert normalize_time(1.0, grid) == pytest.approx(0.01)
        assert normalize_time(11.0, grid) == pytest.approx(0.79)
        crop = grid.origin + 0.9 * grid.span
        assert normalize_time([crop, crop + 1.0], grid) == pytest.approx([0.9, 0.9])
        assert np.all(assign_bin(normalize_time([crop, crop + 1.0], grid), 10) == 10)

    def test_censored_times_do_not_shape_the_grid(self):
        base = make_dataset([2.0, 8.0], [1, 1])
        padded = make_dataset([2.0, 8.0, 0.1, 50.0], [1, 1, 0, 0])
        g1, g2 = build_time_grid(base, 6), build_time_grid(padded, 6)
        assert g1 == g2
        assert g1.origin == g2.origin and g1.span == g2.span

    def test_needs_two_distinct_event_times(self):
        with pytest.raises(DegenerateGridError):
            build_time_grid(make_dataset([3.0, 3.0, 5.0], [1, 1, 0]), 5)

    def test_needs_three_bins(self):
        with pytest.raises(ValueError):
            build_time_grid(make_dataset([1.0, 2.0], [1, 1]), 2)

    @pytest.mark.parametrize("k_bins, t_min, t_max, message", [
        (2, 1.0, 2.0, "k_bins must be at least 3"),
        (5, math.nan, 2.0, "finite"),
        (5, 1.0, math.nan, "finite"),
        (5, -math.inf, 2.0, "finite"),
        (5, 1.0, math.inf, "finite"),
        (5, 2.0, 2.0, "t_min < t_max"),
        (5, 3.0, 2.0, "t_min < t_max"),
        (5, 0.0, 2.0, "t_min > 0"),
        (5, -1.0, 2.0, "t_min > 0"),
    ])
    def test_time_grid_rejects_invalid_numbers(self, k_bins, t_min, t_max,
                                               message):
        with pytest.raises(ValueError, match=message):
            TimeGrid(k_bins, t_min, t_max)

    def test_interior_boundaries_count(self):
        grid = build_time_grid(make_dataset([1.0, 2.0], [1, 1]), 7)
        bounds = grid.interior_boundaries()
        assert bounds.shape == (6,)
        assert np.all(np.diff(bounds) > 0)
        # boundary j sits at normalized coordinate j/k
        assert normalize_time(bounds[0], grid) == pytest.approx(1.0 / 7.0)


class TestNormalize:
    def test_first_event_lands_at_point_zero_one_scaled(self):
        # with k bins the smallest event maps to 0.1/k, the largest to
        # (k - 2.1)/k, and anything at or past the crop point to (k - 1)/k
        for k in (5, 10, 16):
            ds = make_dataset([2.0, 6.0], [1, 1])
            grid = build_time_grid(ds, k)
            assert normalize_time(2.0, grid) == pytest.approx(0.1 / k)
            assert normalize_time(6.0, grid) == pytest.approx((k - 2.1) / k)
            crop = grid.origin + (k - 1) / k * grid.span
            assert normalize_time(crop, grid) == pytest.approx((k - 1) / k)
            assert assign_bin(normalize_time(crop, grid), k) == k
            assert normalize_time(1e12, grid) == (k - 1) / k  # exact double

    def test_below_origin_clamps_to_zero(self):
        grid = build_time_grid(make_dataset([5.0, 9.0], [1, 1]), 5)
        assert normalize_time(1e-9, grid) == 0.0

    def test_rejects_nonpositive_and_nonfinite(self):
        grid = build_time_grid(make_dataset([5.0, 9.0], [1, 1]), 5)
        for bad in (0.0, -1.0, np.nan, np.inf):
            with pytest.raises(ValueError):
                normalize_time(bad, grid)

    @given(st.floats(min_value=1e-6, max_value=1e6),
           st.floats(min_value=1e-6, max_value=1e6))
    @settings(max_examples=200, deadline=None)
    def test_monotone_nondecreasing(self, a, b):
        grid = build_time_grid(make_dataset([1.0, 7.0], [1, 1]), 8)
        lo, hi = min(a, b), max(a, b)
        assert normalize_time(lo, grid) <= normalize_time(hi, grid)


class TestAssignBin:
    def test_exact_boundaries(self):
        # interval k is [(k-1)/K, k/K): a value on a boundary opens a new bin
        assert assign_bin(0.0, 5) == 1
        assert assign_bin(0.2, 5) == 2
        assert assign_bin(0.2 - 1e-12, 5) == 2  # within the edge tolerance
        assert assign_bin(0.19, 5) == 1
        assert assign_bin(0.8, 5) == 5

    def test_rejects_out_of_range(self):
        for bad in (-0.01, 1.0, 1.5):
            with pytest.raises(ValueError):
                assign_bin(bad, 5)

    @given(st.floats(min_value=0.0, max_value=0.999),
           st.integers(min_value=3, max_value=40))
    @settings(max_examples=200, deadline=None)
    def test_bin_contains_its_argument(self, t, k):
        b = assign_bin(t, k)
        assert 1 <= b <= k
        # allow the documented edge tolerance when t sits just under an edge
        assert (b - 1) / k <= t + 1e-9 and t < b / k + 1e-9

    def test_midpoint_formula(self):
        assert bin_midpoints(10)[0] == 0.05
        assert bin_midpoints(10)[9] == 0.95
        assert np.allclose(bin_midpoints(4), [0.125, 0.375, 0.625, 0.875])


def test_scalar_normalize_and_bin_are_the_array_calls():
    # one return type: a scalar comes back as a numpy value equal to
    # element 0 of the same call on a one-element array
    grid = build_time_grid(make_dataset([2.0, 6.0], [1, 1]), 10)
    for t in (1e-9, 2.0, 4.5, 6.0, grid.origin + 0.9 * grid.span, 1e12):
        t_norm = normalize_time(t, grid)
        assert isinstance(t_norm, (np.generic, np.ndarray))
        assert t_norm == normalize_time(np.array([t]), grid)[0]
        k = assign_bin(float(t_norm), grid.k_bins)
        assert isinstance(k, (np.generic, np.ndarray))
        assert k == assign_bin(np.array([float(t_norm)]), grid.k_bins)[0]


def test_grid_reads_match_the_derived_constant_chain_bit_for_bit():
    # three families of grids, k from 3 to 40 and times from 1e-6 to 1e6:
    # spreads of 1e-3 to 1e3 times t_min; a tiny t_min under a wide spread,
    # so the origin lies at or below 0; and t_max a few ulps above t_min,
    # where neighbouring edges can round onto one double.  A grid raises
    # exactly when the chain's edges do not strictly increase or it bins
    # t_min or t_max outside bins 1 and k - 2; the rest read as the chain.
    rng = np.random.default_rng(34)
    raised = 0
    for i in range(2400):
        k = int(rng.integers(3, 41))
        t_min = 10.0 ** rng.uniform(-6.0, 6.0)
        if i % 3 == 0:
            t_max = t_min * (1.0 + 10.0 ** rng.uniform(-3.0, 3.0))
        elif i % 3 == 1:
            t_min, t_max = 10.0 ** rng.uniform(-6.0, -2.0), 10.0 ** rng.uniform(1.0, 6.0)
        else:
            t_max = t_min + int(rng.integers(1, 50)) * np.spacing(t_min)
        numbers = SimpleNamespace(k_bins=k, t_min=t_min, t_max=t_max)
        ends_norm, chain_edges, _ = reference_grid_reads(numbers, [t_min, t_max])
        holds = (np.all(np.diff(chain_edges) > 0)
                 and assign_bin(ends_norm, k).tolist() == [1, k - 2])
        if not holds:
            assert i % 3 == 2, numbers  # only nearly equal times are rejected
            message = (f"k_bins={k} cannot lay out event times {float(t_min)!r} "
                       f"and {float(t_max)!r}:")
            with pytest.raises(DegenerateGridError, match=re.escape(message)):
                TimeGrid(k, t_min, t_max)
            raised += 1
            continue
        grid = TimeGrid(k, t_min, t_max)
        assert grid.origin <= 0.0 or i % 3 != 1
        edges = grid.interior_boundaries()
        times = np.concatenate([[t_min, t_max, grid.origin + (k - 1) / k * grid.span],
                                edges, t_min + (t_max - t_min) * rng.random(10),
                                10.0 ** rng.uniform(-7.0, 7.0, 10)])
        t_norm, ref_edges, ref_eval = reference_grid_reads(grid, times)
        assert np.array_equal(normalize_time(times, grid), t_norm), grid
        assert np.array_equal(edges, ref_edges), grid
        assert np.array_equal(default_eval_times(grid), ref_eval), grid
    assert 0 < raised < 800  # some of the ulp family, not all of it


def test_grids_spread_a_millionth_of_t_min_or_more_construct():
    # k from 3 to 40, t_min from 1e-6 to 1e6, t_max - t_min from 1e-6 to 1e3
    # times t_min: every grid lays out its two event times
    rng = np.random.default_rng(37)
    n = 20_000
    ks = rng.integers(3, 41, n)
    t_min = 10.0 ** rng.uniform(-6.0, 6.0, n)
    t_max = t_min * (1.0 + 10.0 ** rng.uniform(-6.0, 3.0, n))
    for k, lo, hi in zip(ks.tolist(), t_min.tolist(), t_max.tolist()):
        TimeGrid(k, lo, hi)


class TestBinDataset:
    def test_events_never_reach_reserved_bin(self, rng):
        ds = random_dataset(rng, 400, censor_frac=0.4)
        grid = build_time_grid(ds, 6)
        batch = bin_dataset(ds, grid)
        assert np.all(batch.bins[batch.events == 1] <= grid.k_bins - 1)
        assert np.all(batch.bins >= 1)

    def test_late_censored_sample_sits_in_reserved_bin(self):
        ds = make_dataset([2.0, 6.0, 100.0], [1, 1, 0])
        batch = bin_dataset(ds, build_time_grid(ds, 5))
        assert batch.bins[2] == 5

    def test_late_event_is_rejected(self):
        # an unseen event beyond the crop point cannot use the reserved bin
        train = make_dataset([2.0, 6.0], [1, 1])
        grid = build_time_grid(train, 5)
        held_out = make_dataset([100.0], [1])
        with pytest.raises(ValueError, match="reserved bin 5"):
            bin_dataset(held_out, grid)

    def test_take_selects_rows(self, rng):
        ds = random_dataset(rng, 50)
        batch = bin_dataset(ds, build_time_grid(ds, 5))
        sub = batch.take([3, 1, 4])
        assert len(sub) == 3
        for name in ("features", "t_norm", "bins", "events"):
            assert np.array_equal(getattr(sub, name),
                                  getattr(batch, name)[[3, 1, 4]]), name


class TestScaler:
    def test_standardizes_to_zero_mean_unit_std(self, rng):
        x = rng.standard_normal((60, 4)) * 3.0 + 5.0
        z = FeatureScaler.fit(x).transform(x)
        assert np.allclose(z.mean(axis=0), 0.0, atol=1e-12)
        assert np.allclose(z.std(axis=0), 1.0, atol=1e-12)

    def test_constant_column_maps_to_zero(self):
        x = np.column_stack([np.full(10, 7.0), np.arange(10.0)])
        z = FeatureScaler.fit(x).transform(x)
        assert np.all(z[:, 0] == 0.0)
        assert np.all(np.isfinite(z))

    def test_apply_scaler_keeps_labels(self, rng):
        ds = random_dataset(rng, 20)
        out = apply_scaler(ds, FeatureScaler.fit(ds.features))
        assert np.array_equal(out.times, ds.times)
        assert np.array_equal(out.events, ds.events)
        assert out.feature_names == ds.feature_names


class TestCsvIO:
    def write(self, tmp_path, text, name="d.csv"):
        path = tmp_path / name
        path.write_text(text, encoding="utf-8")
        return path

    def test_round_trip_is_exact(self, tmp_path, rng):
        ds = random_dataset(rng, 30)
        path = tmp_path / "out.csv"
        write_csv(ds, path)
        back = load_csv(path)
        assert np.array_equal(back.features, ds.features)
        assert np.array_equal(back.times, ds.times)
        assert np.array_equal(back.events, ds.events)

    def test_missing_column_names_it(self, tmp_path):
        path = self.write(tmp_path, "time,x1\n1.0,0.2\n")
        with pytest.raises(CsvFormatError, match="event"):
            load_csv(path)

    def test_bad_rows_are_numbered(self, tmp_path):
        path = self.write(tmp_path, "time,event,x1\n1.0,1,0.2\n-2.0,1,0.1\n")
        with pytest.raises(CsvFormatError, match="row 2"):
            load_csv(path)
        path = self.write(tmp_path, "time,event,x1\n1.0,2,0.2\n")
        with pytest.raises(CsvFormatError, match="row 1"):
            load_csv(path)
        path = self.write(tmp_path, "time,event,x1\n1.0,1,abc\n")
        with pytest.raises(CsvFormatError, match="row 1"):
            load_csv(path)

    @pytest.mark.parametrize("status,days,message", [
        ("0.5", "3.0", "event must be 0 or 1 in column 'status', got '0.5'"),
        ("1", "0", "time must be finite and > 0 in column 'days', got '0'"),
    ], ids=["event", "time"])
    def test_bad_outcome_names_its_column(self, tmp_path, status, days, message):
        path = self.write(tmp_path, f"x1,days,status\n0.2,{days},{status}\n")
        expected = f"{path}: row 1: {message}"
        for reader in (load_csv, reference_load_csv):
            with pytest.raises(CsvFormatError) as info:
                reader(path, "days", "status")
            assert str(info.value) == expected, reader.__name__

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
    def test_nonfinite_feature_names_row_and_column(self, tmp_path, cell):
        path = self.write(
            tmp_path, f"time,event,x1,x2\n1.0,1,0.2,0.3\n2.0,0,0.1,{cell}\n")
        with pytest.raises(CsvFormatError, match=r"row 2: .*column 'x2'"):
            load_csv(path)

    def test_ragged_row_rejected(self, tmp_path):
        path = self.write(tmp_path, "time,event,x1\n1.0,1\n")
        with pytest.raises(CsvFormatError, match="row 1"):
            load_csv(path)

    def test_scaler_reuse_matches_training_statistics(self, tmp_path, rng):
        ds = random_dataset(rng, 40)
        path = tmp_path / "d.csv"
        write_csv(ds, path)
        scaler = FeatureScaler.fit(ds.features)
        loaded = apply_scaler(load_csv(path), scaler)
        assert np.allclose(loaded.features, scaler.transform(ds.features))

    def test_empty_file(self, tmp_path):
        path = self.write(tmp_path, "")
        with pytest.raises(CsvFormatError, match="empty file"):
            load_csv(path)

    @pytest.mark.parametrize("text", ["time,event,x1\n", "time,event,x1"])
    def test_header_only(self, tmp_path, text):
        path = self.write(tmp_path, text)
        with pytest.raises(CsvFormatError, match="no data rows"):
            load_csv(path)

    def test_line_endings_quotes_and_padding_load_identically(self, tmp_path, rng):
        ds = random_dataset(rng, 25)
        plain = tmp_path / "plain.csv"
        write_csv(ds, plain)
        lines = plain.read_text(encoding="utf-8").splitlines()
        variants = {
            "crlf": "\r\n".join(lines) + "\r\n",
            "cr": "\r".join(lines) + "\r",
            "quoted": "\n".join(",".join(f'"{c}"' for c in line.split(","))
                                for line in lines) + "\n",
            # no newline after the last line
            "padded": "\n".join(",".join(f" \t{c}  " for c in line.split(","))
                                for line in lines),
        }
        expected = load_csv(plain)
        for name, text in variants.items():
            path = self.write(tmp_path, text, name=f"{name}.csv")
            got = load_csv(path)
            assert got.features.tobytes() == expected.features.tobytes(), name
            assert got.times.tobytes() == expected.times.tobytes(), name
            assert got.events.tobytes() == expected.events.tobytes(), name
            assert same_result(path)

    def test_digit_group_underscore_rejected(self, tmp_path):
        # float() reads 1_000 as 1000.0; numpy's parser does not
        path = self.write(tmp_path, "time,event,x1\n1.0,1,1_000\n")
        assert reference_load_csv(path).features[0, 0] == 1000.0
        with pytest.raises(CsvFormatError,
                           match=r"row 1: non-numeric value '1_000' in column 'x1'"):
            load_csv(path)

    def test_non_ascii_digit_named_as_non_numeric(self, tmp_path):
        # float() reads the Arabic-Indic digit one; numpy's parser does not
        path = self.write(tmp_path, "time,event,x1\n1.0,1,0.2\n2.0,0,\u0661\n")
        with pytest.raises(CsvFormatError,
                           match=r"row 2: non-numeric value '\u0661' in column 'x1'"):
            load_csv(path)

    def test_unicode_space_padding_is_not_the_bad_row(self, tmp_path):
        # numpy strips a no-break space, so row 1 loads; row 2 is the fault
        path = self.write(tmp_path, "time,event,x1\n1.0,1,\u00a00.5\n2.0,0,abc\n")
        with pytest.raises(CsvFormatError,
                           match=r"row 2: non-numeric value 'abc' in column 'x1'"):
            load_csv(path)

    def test_byte_order_mark_accepted(self, tmp_path):
        # spreadsheet exports start the file with U+FEFF
        path = self.write(tmp_path, "\ufefftime,event,x1\n1.0,1,0.2\n2.0,0,0.4\n")
        ds = load_csv(path)
        assert ds.feature_names == ("x1",)
        assert np.array_equal(ds.times, [1.0, 2.0])
        assert np.array_equal(ds.features[:, 0], [0.2, 0.4])

    def test_line_break_inside_quoted_cell_rejected(self, tmp_path):
        path = self.write(tmp_path, 'time,event,x1\n1.0,1,"0.5\n"\n2.0,0,0.1\n')
        with pytest.raises(CsvFormatError, match="line break inside a quoted cell"):
            load_csv(path)

    def test_blank_line_inside_quoted_cell_rejected(self, tmp_path):
        # float() reads the cell as 0.5, so only the line count catches it
        path = self.write(tmp_path, 'time,event,x1\n1.0,1,"\n\n0.5"\n2.0,0,0.1\n')
        assert reference_load_csv(path).features[0, 0] == 0.5
        with pytest.raises(CsvFormatError,
                           match=r"d\.csv: line break inside a quoted cell$"):
            load_csv(path)

    @pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="needs /dev/fd")
    def test_bad_row_named_when_read_from_a_pipe(self, tmp_path):
        # a pipe can be read once, so the error path must not reopen it
        text = "time,event,x1\n1.0,1,0.2\n2.0,1,abc\n"
        expected = "row 2: non-numeric value 'abc' in column 'x1'"
        with pytest.raises(CsvFormatError, match=expected):
            load_csv(self.write(tmp_path, text))
        read_end, write_end = os.pipe()
        try:
            os.write(write_end, text.encode("utf-8"))
            os.close(write_end)
            with pytest.raises(CsvFormatError, match=expected):
                load_csv(f"/dev/fd/{read_end}")
        finally:
            os.close(read_end)

    def test_duplicate_header_name_rejected(self, tmp_path):
        path = self.write(tmp_path, "time,event,x1,time\n1.0,1,0.2,3.0\n")
        with pytest.raises(CsvFormatError, match="duplicate column 'time'"):
            load_csv(path)

    def test_one_column_for_time_and_event_rejected(self, tmp_path):
        path = self.write(tmp_path, "time,event,x1\n1.0,1,0.2\n")
        with pytest.raises(CsvFormatError) as info:
            load_csv(path, "event", "event")
        assert str(info.value) == f"{path}: 'event' is both the time and event column"

    def test_file_without_features_rejected(self, tmp_path):
        path = self.write(tmp_path, "event,time\n1,1.0\n0,2.0\n")
        with pytest.raises(CsvFormatError) as info:
            load_csv(path)
        assert str(info.value) == f"{path}: no feature column"

    def test_empty_header_name_rejected(self, tmp_path):
        path = self.write(tmp_path, "x1,,time,event\n0.2,0.3,1.0,1\n")
        with pytest.raises(CsvFormatError, match="column 2 has an empty name"):
            load_csv(path)


def read_both(path):
    """Outcome of load_csv and of the per-cell reference reader on one file."""
    outcomes = []
    for reader in (load_csv, reference_load_csv):
        try:
            outcomes.append(reader(path))
        except CsvFormatError as exc:
            outcomes.append(str(exc))
    return outcomes


def same_result(path) -> bool:
    """Both readers accept with bit-identical arrays, or reject with the same
    message."""
    new, ref = read_both(path)
    if isinstance(new, str) or isinstance(ref, str):
        return new == ref
    return (new.feature_names == ref.feature_names
            and new.features.tobytes() == ref.features.tobytes()
            and new.times.tobytes() == ref.times.tobytes()
            and new.events.tobytes() == ref.events.tobytes())


def corrupt(rng, lines, kind, row):
    """Apply one fault of ``kind`` to data row ``row`` (1-based) of ``lines``,
    the header followed by the data lines."""
    header = lines[0].split(",")
    cells = lines[row].split(",")
    n_features = len(header) - 2
    if kind == "non_numeric":
        col = int(rng.integers(len(cells)))
        cells[col] = str(rng.choice(["abc", "", "1..2", "--1", "0x10", "nan(1)",
                                     ' "1"', "1e", "1,5"]))
    elif kind == "ragged":
        if rng.random() < 0.5:
            cells.pop(int(rng.integers(len(cells))))
        else:
            cells.append("0.5")
    elif kind == "blank_line":
        lines.insert(row, "")
        return
    elif kind == "bad_time":
        cells[header.index("time")] = str(rng.choice(["0", "-1.5", "-0.0", "nan",
                                                      "inf", "-inf"]))
    elif kind == "event_2":
        cells[header.index("event")] = "2"
    elif kind == "nan_feature":
        cells[int(rng.integers(n_features))] = str(rng.choice(["nan", "inf", "-inf"]))
    else:
        raise ValueError(kind)
    lines[row] = ",".join(cells)


FAULTS = ("non_numeric", "ragged", "blank_line", "bad_time", "event_2",
          "nan_feature")


class TestReaderMatchesReference:
    """load_csv against the per-cell float() reader it replaced, on files
    written by write_csv with one or two faults applied."""

    def cohort_lines(self, tmp_path, rng):
        """Header and data lines of a random cohort written by write_csv."""
        ds = random_dataset(rng, int(rng.integers(2, 30)),
                            n_features=int(rng.integers(1, 5)))
        path = tmp_path / "clean.csv"
        write_csv(ds, path)
        return path.read_text(encoding="utf-8").splitlines()

    def check(self, tmp_path, lines, trailing="\n"):
        """Assert both readers agree on the file; return load_csv's outcome."""
        path = tmp_path / "d.csv"
        path.write_text("\n".join(lines) + trailing, encoding="utf-8")
        assert same_result(path), path.read_text()
        return read_both(path)[0]

    def test_clean_files(self, tmp_path):
        rng = np.random.default_rng(20)
        for _ in range(20):
            lines = self.cohort_lines(tmp_path, rng)
            assert not isinstance(self.check(tmp_path, lines), str)

    @pytest.mark.parametrize("kind", FAULTS)
    def test_single_fault(self, tmp_path, kind):
        rng = np.random.default_rng(FAULTS.index(kind))
        for _ in range(20):
            lines = self.cohort_lines(tmp_path, rng)
            row = int(rng.integers(1, len(lines)))
            corrupt(rng, lines, kind, row)
            assert isinstance(self.check(tmp_path, lines), str)

    def test_extra_blank_line_at_end(self, tmp_path):
        rng = np.random.default_rng(40)
        for _ in range(5):
            lines = self.cohort_lines(tmp_path, rng)
            outcome = self.check(tmp_path, lines, trailing="\n\n")
            assert f"row {len(lines)}: expected" in outcome

    def test_first_offending_row_wins(self, tmp_path):
        rng = np.random.default_rng(50)
        for _ in range(40):
            lines = self.cohort_lines(tmp_path, rng)
            first, second = sorted(rng.choice(np.arange(1, len(lines)), 2,
                                              replace=False))
            kind_a, kind_b = rng.choice(FAULTS, 2, replace=False)
            # the later row first, so inserting a blank line keeps row numbers
            corrupt(rng, lines, str(kind_b), int(second))
            corrupt(rng, lines, str(kind_a), int(first))
            outcome = self.check(tmp_path, lines)
            assert isinstance(outcome, str)
            if "nan_feature" not in (kind_a, kind_b):
                # the row loop reports the earlier fault; non-finite features
                # are checked after every row has passed it
                assert f"row {first}:" in outcome


class TestSplit:
    def test_sizes_use_largest_remainder(self, rng):
        ds = random_dataset(rng, 10)
        parts = split_dataset(ds, (0.6, 0.2, 0.2), seed=0)
        assert [len(p) for p in parts] == [6, 2, 2]
        ds5 = random_dataset(rng, 5)
        parts5 = split_dataset(ds5, (0.5, 0.3, 0.2), seed=0)
        # floors (2,1,1); the leftover goes to the earlier of the tied splits
        assert [len(p) for p in parts5] == [3, 1, 1]

    def test_partition_is_exact(self, rng):
        ds = random_dataset(rng, 101)
        parts = split_dataset(ds, (0.6, 0.2, 0.2), seed=3)
        times = np.concatenate([p.times for p in parts])
        assert times.size == 101
        assert np.array_equal(np.sort(times), np.sort(ds.times))

    def test_deterministic_given_seed(self, rng):
        ds = random_dataset(rng, 50)
        a = split_dataset(ds, (0.7, 0.2, 0.1), seed=9)
        b = split_dataset(ds, (0.7, 0.2, 0.1), seed=9)
        for pa, pb in zip(a, b):
            assert np.array_equal(pa.times, pb.times)

    def test_seed_changes_assignment(self, rng):
        ds = random_dataset(rng, 50)
        a = split_dataset(ds, (0.7, 0.2, 0.1), seed=1)
        b = split_dataset(ds, (0.7, 0.2, 0.1), seed=2)
        assert not np.array_equal(a[0].times, b[0].times)

    @given(st.integers(min_value=3, max_value=200), st.integers(0, 10))
    @settings(max_examples=60, deadline=None)
    def test_partition_property(self, n, seed):
        ds = make_dataset(np.arange(1.0, n + 1.0), np.ones(n, dtype=int))
        parts = split_dataset(ds, (0.6, 0.2, 0.2), seed=seed)
        merged = np.sort(np.concatenate([p.times for p in parts]))
        assert np.array_equal(merged, ds.times)


class TestGridIO:
    def test_round_trip_exact(self, tmp_path, rng):
        ds = random_dataset(rng, 30)
        grid = build_time_grid(ds, 9)
        path = tmp_path / "grid.json"
        save_grid(grid, path)
        payload = json.loads(path.read_text(encoding="utf-8"))
        assert list(payload) == ["format", "version", "k_bins", "t_min", "t_max"]
        back = load_grid(path)
        assert back.k_bins == grid.k_bins
        for name in ("t_min", "t_max", "origin", "span"):
            assert getattr(back, name) == getattr(grid, name)

    def test_save_load_save_is_byte_identical(self, tmp_path, rng):
        first, second = tmp_path / "a.json", tmp_path / "b.json"
        save_grid(build_time_grid(random_dataset(rng, 30), 9), first)
        save_grid(load_grid(first), second)
        assert second.read_bytes() == first.read_bytes()

    def test_seven_key_file_loads_to_the_built_grid(self, tmp_path):
        # a grid.json as earlier versions wrote it, derived constants included
        path = tmp_path / "grid.json"
        path.write_text(
            '{\n  "format": "binsurv-grid",\n  "version": 1,\n  "k_bins": 7,\n'
            '  "t_min": 0.37,\n  "t_max": 9.81,\n'
            '  "delta_t": 1.966666666666667,\n'
            '  "t_min_prime": 0.17333333333333328,\n'
            '  "t_max_1": 11.973333333333336,\n'
            '  "t_max_2": 13.940000000000003\n}\n', encoding="utf-8")
        stored = json.loads(path.read_text(encoding="utf-8"))
        built = build_time_grid(make_dataset([0.37, 9.81, 4.2], [1, 1, 0]), 7)
        loaded = load_grid(path)
        assert loaded == built
        # the stored derived constants agree with the grid read from t_min/t_max
        for grid in (loaded, built):
            assert (grid.t_min, grid.t_max) == (stored["t_min"], stored["t_max"])
            assert grid.origin == stored["t_min_prime"]
            assert grid.span == stored["t_max_2"] - stored["t_min_prime"]

    def test_rejects_foreign_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"kind": "something-else"}', encoding="utf-8")
        with pytest.raises(ValueError):
            load_grid(path)

    @pytest.mark.parametrize("key, value, message", [
        ("k_bins", 10.7, "k_bins must be an integer"),
        ("k_bins", 10.0, "k_bins must be an integer"),
        ("k_bins", "10", "k_bins must be an integer"),
        ("k_bins", True, "k_bins must be an integer"),
        ("t_min", "0.5", "t_min must be a number"),
        ("t_max", None, "t_max must be a number"),
        ("t_max", False, "t_max must be a number"),
    ])
    def test_rejects_mistyped_numbers(self, tmp_path, key, value, message):
        # int() and float() would turn each of these into a grid
        path = tmp_path / "grid.json"
        payload = {"format": "binsurv-grid", "version": 1, "k_bins": 10,
                   "t_min": 0.5, "t_max": 9.5, key: value}
        path.write_text(json.dumps(payload), encoding="utf-8")
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: {message}"):
            load_grid(path)


class TestWriteTable:
    """The writer of every result CSV: LF line ends, strings and integers as
    they are and every other cell as repr(float(cell)), also under numpy 2,
    where repr(np.float64(0.1)) reads np.float64(0.1)."""

    def test_cells_against_literal_text(self, tmp_path):
        path = tmp_path / "t.csv"
        write_table(path, ("s", "i", "f", "g"), [
            ("none", 7, 2.5, 1 / 3),
            ("x", np.int64(-3), np.float64(0.1), np.float32(0.1)),
            ("y", 0, np.float64("nan"), -np.inf),
            ("z", 10**20, float("inf"), np.float64(1e-300)),
        ])
        assert path.read_bytes() == (
            b"s,i,f,g\n"
            b"none,7,2.5,0.3333333333333333\n"
            b"x,-3,0.1,0.10000000149011612\n"
            b"y,0,nan,-inf\n"
            b"z,100000000000000000000,inf,1e-300\n")

    def test_rows_may_be_an_iterator(self, tmp_path):
        path = tmp_path / "t.csv"
        write_table(path, ("time", "v"), zip(np.array([1.0, 2.0]), [0.5, 0.25]))
        assert path.read_bytes() == b"time,v\n1.0,0.5\n2.0,0.25\n"


class TestDatasetValidation:
    def test_rejects_mismatched_lengths(self):
        with pytest.raises(ValueError):
            SurvivalDataset(features=np.zeros((3, 2)), times=np.ones(2),
                            events=np.ones(2, dtype=np.int64),
                            feature_names=("a", "b"))

    def test_rejects_bad_event_codes(self):
        with pytest.raises(ValueError):
            SurvivalDataset(features=np.zeros((2, 1)), times=np.ones(2),
                            events=np.array([0, 2]), feature_names=("a",))

    def test_rejects_fractional_events(self):
        # read before the int cast, so they are not truncated to 0 and 1
        with pytest.raises(ValueError, match="events must be 0 or 1"):
            SurvivalDataset(features=np.zeros((2, 1)), times=np.ones(2),
                            events=np.array([0.5, 1.7]), feature_names=("a",))

    def test_rejects_nonpositive_times(self):
        with pytest.raises(ValueError):
            SurvivalDataset(features=np.zeros((2, 1)),
                            times=np.array([1.0, 0.0]),
                            events=np.array([1, 1]), feature_names=("a",))
