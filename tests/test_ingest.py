import csv
import os
import sys
import warnings
from dataclasses import replace
from datetime import datetime, timedelta, timezone

import numpy as np
import pytest
from helpers import reference_load_dataset, scan_full_day_indices
from hypothesis import given
from hypothesis import strategies as st

from loadshift.errors import (
    DegenerateFeature,
    InsufficientData,
    LoadshiftError,
    MissingColumn,
    MixedTimezones,
    NonHourlyCadence,
    UnparseableRow,
)
from loadshift.ingest import (
    LOAD_COLUMN,
    NormalizationStats,
    REQUIRED_COLUMNS,
    build_windows,
    denormalize,
    fit_normalizer,
    load_dataset,
    normalize,
    split_windows,
    window_matrix,
)
from loadshift.synth import SynthConfig, write_csv

START = datetime(2024, 1, 1, 0, 0)


def make_rows(n, start=START):
    """n hourly rows with every feature varying (nothing degenerate)."""
    rows = []
    for i in range(n):
        rows.append(
            {
                "timestamp": (start + timedelta(hours=i)).isoformat(),
                "wind_speed": f"{3.0 + 0.1 * (i % 17):.2f}",
                "temperature": f"{10.0 + 0.5 * (i % 23):.2f}",
                "heat_index": f"{11.0 + 0.4 * (i % 19):.2f}",
                "cold_index": f"{8.0 + 0.3 * (i % 13):.2f}",
                "dew_point": f"{5.0 + 0.2 * (i % 11):.2f}",
                LOAD_COLUMN: f"{100.0 + i:.1f}",
            }
        )
    return rows


linux_only = pytest.mark.skipif(sys.platform != "linux", reason="reads a pipe through /dev/fd")


def synthetic_bytes(tmp_path, days):
    path = tmp_path / f"synth{days}.csv"
    write_csv(SynthConfig(days=days, seed=11), path)
    return path.read_bytes()


def load_from_pipe(data):
    """load_dataset of the /dev/fd path of a pipe that holds ``data``, its write end closed."""
    read_end, write_end = os.pipe()
    try:
        with os.fdopen(write_end, "wb") as writer:
            writer.write(data)   # a few KB fit the pipe's buffer: nothing blocks
        return load_dataset(f"/dev/fd/{read_end}")
    finally:
        os.close(read_end)


def dataset_record(ds):
    return (ds.micros.tobytes(), ds.offsets, ds.weather.tobytes(), ds.load.tobytes(), ds.price.tobytes(),
            ds.n_train)


def write_rows(path, rows, fieldnames=None):
    fieldnames = fieldnames or list(rows[0])
    with open(path, "w", newline="") as handle:
        writer = csv.DictWriter(handle, fieldnames=fieldnames)
        writer.writeheader()
        writer.writerows(rows)
    return path


class TestLoadDataset:
    def test_happy_path_48_rows(self, tmp_path):
        path = write_rows(tmp_path / "d.csv", make_rows(48))
        ds = load_dataset(path)
        assert len(ds.timestamps) == 48
        assert ds.load[0] == 100.0
        assert ds.load[-1] == 147.0
        assert ds.price is None

    def test_two_hour_gap_rejected(self, tmp_path):
        rows = make_rows(48)
        removed = rows.pop(10)
        path = write_rows(tmp_path / "d.csv", rows)
        with pytest.raises(NonHourlyCadence) as exc:
            load_dataset(path)
        assert str(exc.value.timestamp) in str(exc.value)

    def test_gap_allowed_when_asked(self, tmp_path):
        rows = make_rows(80)
        del rows[40]
        path = write_rows(tmp_path / "d.csv", rows)
        ds = load_dataset(path, allow_gaps=True)
        assert len(ds.timestamps) == 79
        rows = np.arange(len(ds) - 1)
        assert np.count_nonzero(~ds.contiguous(rows, rows + 1)) == 1

    def test_unparseable_load_names_line(self, tmp_path):
        rows = make_rows(48)
        rows[2][LOAD_COLUMN] = "abc"
        path = write_rows(tmp_path / "d.csv", rows)
        with pytest.raises(UnparseableRow) as exc:
            load_dataset(path)
        # header is line 1, first data row line 2
        assert exc.value.line_number == 4

    @pytest.mark.parametrize("faults,line,reason", [
        ({5: ("temperature", "warm"), 9: ("timestamp", "yesterday")}, 7, "bad value 'warm'"),
        ({5: ("timestamp", "yesterday"), 9: (LOAD_COLUMN, "-1.0")}, 7, "bad timestamp"),
        ({12: ("dew_point", "nan"), 20: ("wind_speed", "x")}, 14, "non-finite value in column 'dew_point'"),
        ({3: (LOAD_COLUMN, "-1.0"), 30: ("heat_index", "inf")}, 5, "negative load"),
        # offset awareness is checked after every other fault
        ({10: ("timestamp", "2024-01-01T10:00:00+00:00")}, 12, "UTC offset awareness differs from the first row's"),
        ({4: ("timestamp", "2024-01-01T04:00:00+00:00"), 30: ("wind_speed", "x")}, 32, "bad value 'x'"),
        # float() reads these, the array parse does not
        ({6: (LOAD_COLUMN, "1_000"), 9: ("wind_speed", "x")}, 8, "bad value '1_000' in column 'load_kwh'"),
        ({6: ("dew_point", "\u0661\u0662")}, 8, "bad value '\u0661\u0662' in column 'dew_point'"),
        ({6: ("temperature", "\uff11")}, 8, "bad value '\uff11' in column 'temperature'"),
        # the array parse strips U+001C..U+001F around a number, float() does not
        ({6: (LOAD_COLUMN, "576.525\x1c")}, 8, "bad value '576.525\\x1c' in column 'load_kwh'"),
    ])
    def test_first_faulty_line_wins(self, tmp_path, faults, line, reason):
        rows = make_rows(48)
        for row, (column, value) in faults.items():
            rows[row][column] = value
        with pytest.raises(UnparseableRow) as exc:
            load_dataset(write_rows(tmp_path / "d.csv", rows))
        assert exc.value.line_number == line
        assert reason in str(exc.value)

    @pytest.mark.parametrize("n_rows", [0, 1])
    def test_too_few_rows(self, tmp_path, n_rows):
        path = write_rows(tmp_path / "d.csv", make_rows(n_rows), fieldnames=list(make_rows(1)[0]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InsufficientData) as exc:
                load_dataset(path)
        assert str(exc.value) == f"dataset {path} has {n_rows} rows; need at least 2"

    def test_a_rejection_the_row_walk_misses_still_raises(self, tmp_path, monkeypatch):
        path = write_rows(tmp_path / "d.csv", make_rows(48))
        def reject(*args, **kwargs):
            raise ValueError("rejected")
        monkeypatch.setattr(np, "loadtxt", reject)
        with pytest.raises(LoadshiftError, match="rejected"):
            load_dataset(path)

    def test_utc_offset_timestamps_load(self, tmp_path):
        rows = make_rows(48)
        # the same hourly instants, written at UTC-5 until a switch to UTC-6
        for i, row in enumerate(rows):
            zone = timezone(timedelta(hours=-5 if i < 30 else -6))
            row["timestamp"] = (START + timedelta(hours=i)).replace(tzinfo=timezone.utc).astimezone(zone).isoformat()
        ds = load_dataset(write_rows(tmp_path / "d.csv", rows))
        assert len(ds) == 48 and ds.contiguous(0, len(ds) - 1)
        assert ds.timestamps[0].utcoffset() == timedelta(hours=-5)
        assert ds.load[0] == 100.0 and ds.load[-1] == 147.0
        for day in {ts.date() for ts in ds.timestamps}:
            rows = ds.full_day_indices(day)
            assert (None if rows is None else list(rows)) == scan_full_day_indices(ds, day)
        assert ds.timestamps[0] == START.replace(tzinfo=timezone.utc)
        assert len(build_windows(ds)) == 1

    def test_missing_column(self, tmp_path):
        rows = make_rows(30)
        for row in rows:
            del row["dew_point"]
        path = write_rows(tmp_path / "d.csv", rows)
        with pytest.raises(MissingColumn) as exc:
            load_dataset(path)
        assert exc.value.column == "dew_point"

    def test_rows_sorted_by_timestamp(self, tmp_path):
        rows = make_rows(48)
        rows.reverse()
        path = write_rows(tmp_path / "d.csv", rows)
        ds = load_dataset(path)
        assert list(ds.timestamps) == sorted(ds.timestamps)

    def test_split_boundary_partitions(self, tmp_path):
        path = write_rows(tmp_path / "d.csv", make_rows(48))
        boundary = START + timedelta(hours=30)
        ds = load_dataset(path, split_boundary=boundary)
        assert ds.n_train == 30
        assert ds.timestamps[29] < boundary <= ds.timestamps[30]

    @pytest.mark.parametrize("aware_rows", [True, False])
    def test_split_boundary_awareness_must_match(self, tmp_path, aware_rows):
        zone = timezone(timedelta(hours=-6))
        rows = make_rows(48, START.replace(tzinfo=zone) if aware_rows else START)
        boundary = START + timedelta(hours=30)
        path = write_rows(tmp_path / "d.csv", rows)
        with pytest.raises(MixedTimezones, match="UTC offset"):
            load_dataset(path, split_boundary=boundary if aware_rows else boundary.replace(tzinfo=zone))
        matched = load_dataset(path, split_boundary=boundary.replace(tzinfo=zone) if aware_rows else boundary)
        assert matched.n_train == 30

    @pytest.mark.parametrize("aware_rows", [True, False])
    def test_cadence_fault_is_reported_before_a_split_of_the_other_awareness(self, tmp_path, aware_rows):
        zone = timezone(timedelta(hours=-6))
        rows = make_rows(48, START.replace(tzinfo=zone) if aware_rows else START)
        del rows[10]
        boundary = START + timedelta(hours=30)
        path = write_rows(tmp_path / "d.csv", rows)
        with pytest.raises(NonHourlyCadence, match="expected 2024-01-01 10:00:00"):
            load_dataset(path, split_boundary=boundary if aware_rows else boundary.replace(tzinfo=zone))

    @pytest.mark.parametrize("n_train", [-1, 49])
    def test_dataset_refuses_a_split_outside_its_rows(self, tmp_path, n_train):
        ds = load_dataset(write_rows(tmp_path / "d.csv", make_rows(48)))
        assert [replace(ds, n_train=rows).n_train for rows in (0, 48)] == [0, 48]
        with pytest.raises(ValueError, match=f"n_train must lie in 0..48, got {n_train}"):
            replace(ds, n_train=n_train)

    def test_price_column_parsed(self, tmp_path):
        rows = make_rows(48)
        for i, row in enumerate(rows):
            row["price_c_per_kwh"] = f"{5.0 + 0.01 * i:.3f}"
        path = write_rows(tmp_path / "d.csv", rows)
        ds = load_dataset(path)
        assert ds.price is not None
        assert ds.price[0] == 5.0

    def test_non_utf8_byte_deep_in_a_file_names_its_line(self, tmp_path):
        lines = synthetic_bytes(tmp_path, 120).splitlines(keepends=True)
        lines[1999] = lines[1999].replace(b",", b",\xff", 1)   # line 2,000, far past the first decoded chunk
        path = tmp_path / "d.csv"
        path.write_bytes(b"".join(lines))
        with pytest.raises(UnparseableRow) as exc:
            load_dataset(path)
        assert str(exc.value) == "cannot parse CSV line 2000: not UTF-8 text (invalid start byte)"

    # the whole file is decoded before its header is read, wherever the byte lies
    @pytest.mark.parametrize("line,old,new", [(1, b"load_kwh", b"load"), (5, b",", b",x")],
                             ids=["missing-column", "bad-value"])
    def test_non_utf8_byte_is_reported_before_any_other_fault(self, tmp_path, line, old, new):
        lines = synthetic_bytes(tmp_path, 120).splitlines(keepends=True)
        lines[1999] = lines[1999].replace(b",", b",\xff", 1)
        lines[line - 1] = lines[line - 1].replace(old, new, 1)
        path = tmp_path / "d.csv"
        path.write_bytes(b"".join(lines))
        with pytest.raises(UnparseableRow) as exc:
            load_dataset(path)
        assert str(exc.value) == "cannot parse CSV line 2000: not UTF-8 text (invalid start byte)"

    # a pipe gives its bytes to one read only: every check must see the bytes parsed
    @linux_only
    def test_pipe_reads_as_from_disk(self, tmp_path):
        data = synthetic_bytes(tmp_path, 5)
        assert dataset_record(load_from_pipe(data)) == dataset_record(load_dataset(tmp_path / "synth5.csv"))

    @linux_only
    @pytest.mark.parametrize("old,new", [
        # fromisoformat reads the NUL as the end of the text; the csv module of Python 3.10 refuses a NUL
        pytest.param(b"T08:00:00,", b"T08:00:00\x00,",
                     marks=pytest.mark.skipif(sys.version_info < (3, 11), reason="csv")),
        (b"T06:00:00,", b"T06:00:00,x"),
        (b"T04:00:00,", b"T04:00:00,\xff"),
    ], ids=["nul-after-timestamp", "bad-value", "non-utf8-byte"])
    def test_faulty_pipe_names_the_line_it_does_from_disk(self, tmp_path, old, new):
        data = synthetic_bytes(tmp_path, 5).replace(old, new, 1)
        path = tmp_path / "faulty.csv"
        path.write_bytes(data)
        with pytest.raises(UnparseableRow) as from_disk:
            load_dataset(path)
        with pytest.raises(UnparseableRow) as from_pipe:
            load_from_pipe(data)
        assert (from_pipe.value.line_number, str(from_pipe.value)) == \
            (from_disk.value.line_number, str(from_disk.value))


class TestTimestamps:
    """load_dataset's reading of timestamps against the row-wise reader."""

    @pytest.mark.parametrize("stamp", [
        "2023-02-29T00:00:00", "1900-02-29T00:00:00", "2024-04-31T00:00:00", "2024-00-10T00:00:00",
        "2024-13-01T00:00:00", "2024-01-00T00:00:00", "2024-01-01T24:00:00", "2024-01-01T00:60:00",
        "2024-01-01T00:00:60", "0000-01-01T00:00:00",
    ])
    def test_canonical_shaped_bad_stamp_fails_as_before(self, tmp_path, stamp):
        rows = make_rows(48)
        rows[7]["timestamp"] = stamp
        path = write_rows(tmp_path / "d.csv", rows)
        with pytest.raises(UnparseableRow) as exc:
            reference_load_dataset(path)
        with pytest.raises(UnparseableRow) as got:
            load_dataset(path)
        assert (got.value.line_number, str(got.value)) == (9, str(exc.value))
        assert str(got.value).startswith("cannot parse CSV line 9: bad timestamp: ")

    @pytest.mark.parametrize("stamp", [
        "2024-01-01T07:00:00" + "0" * 14,
        # fromisoformat reads the NUL as the end of the text; the csv module of Python 3.10 refuses a NUL
        pytest.param("2024-01-01T07:00:00\x00", marks=pytest.mark.skipif(sys.version_info < (3, 11), reason="csv")),
    ])
    def test_longer_stamp_is_refused(self, tmp_path, stamp):
        rows = make_rows(48)
        rows[7]["timestamp"] = stamp
        with pytest.raises(UnparseableRow) as exc:
            load_dataset(write_rows(tmp_path / "d.csv", rows))
        assert str(exc.value) == f"cannot parse CSV line 9: bad timestamp: Invalid isoformat string: {stamp!r}"

    def test_synthetic_file_takes_the_one_call_parse(self, synth30_path, monkeypatch):
        expected = reference_load_dataset(synth30_path)

        def row_wise(stamps):
            raise AssertionError("the fixed-form column was parsed row by row")

        monkeypatch.setattr("loadshift.ingest.time_axis", row_wise)
        got = load_dataset(synth30_path)
        assert got.micros.tolist() == expected.micros.tolist() and got.offsets is expected.offsets is None
        for name in ("weather", "load", "price"):
            assert getattr(got, name).tobytes() == getattr(expected, name).tobytes()
        assert got.n_train == expected.n_train

    def test_cells_that_only_add_up_to_the_fixed_form_fail_as_before(self, tmp_path):
        # 18 + 20 characters: the two cells join to two stamps of the fixed form
        rows = make_rows(48)
        rows[7]["timestamp"], rows[8]["timestamp"] = "2024-01-01T07:00:0", "12024-01-01T08:00:00"
        path = write_rows(tmp_path / "d.csv", rows)
        with pytest.raises(UnparseableRow) as exc:
            reference_load_dataset(path)
        with pytest.raises(UnparseableRow) as got:
            load_dataset(path)
        assert (got.value.line_number, str(got.value)) == (9, str(exc.value))

    def test_unsorted_file_equals_row_wise_reader(self, tmp_path):
        rows = make_rows(48)
        rows.insert(20, rows.pop(3))
        path = write_rows(tmp_path / "d.csv", rows)
        got, expected = load_dataset(path), reference_load_dataset(path)
        assert got.micros.tolist() == expected.micros.tolist() and got.offsets is expected.offsets is None
        assert got.load.tobytes() == expected.load.tobytes()
        assert got.n_train == expected.n_train == 40


class TestNormalizer:
    def test_two_point_range(self, tmp_path):
        rows = make_rows(48)
        ds = load_dataset(write_rows(tmp_path / "d.csv", rows))
        stats = fit_normalizer(ds)
        assert stats.lo[-1] == 100.0
        # training rows only: default 85% split keeps the first 40 rows
        assert stats.hi[-1] == 100.0 + ds.n_train - 1

    def test_constant_feature_rejected(self, tmp_path):
        rows = make_rows(48)
        for row in rows:
            row["wind_speed"] = "3.00"
        ds = load_dataset(write_rows(tmp_path / "d.csv", rows))
        with pytest.raises(DegenerateFeature) as exc:
            fit_normalizer(ds)
        assert exc.value.name == "wind_speed"

    def test_test_rows_never_influence_stats(self, tmp_path):
        rows = make_rows(48)
        ds1 = load_dataset(write_rows(tmp_path / "a.csv", rows))
        for row in rows[40:]:
            row[LOAD_COLUMN] = "9999.0"
        ds2 = load_dataset(write_rows(tmp_path / "b.csv", rows))
        stats1, stats2 = fit_normalizer(ds1), fit_normalizer(ds2)
        assert np.array_equal(stats1.lo, stats2.lo) and np.array_equal(stats1.hi, stats2.hi)

    def test_train_extremes_map_to_unit_interval_ends(self, tmp_path):
        ds = load_dataset(write_rows(tmp_path / "d.csv", make_rows(60)))
        stats = fit_normalizer(ds)
        train_loads = ds.load[: ds.n_train]
        assert normalize(train_loads.min(), stats.lo[-1], stats.hi[-1]) == -1.0
        assert normalize(train_loads.max(), stats.lo[-1], stats.hi[-1]) == 1.0


class TestNormalize:
    def test_endpoints_and_midpoint(self):
        assert normalize(0.0, 0.0, 10.0) == -1.0
        assert normalize(10.0, 0.0, 10.0) == 1.0
        assert normalize(5.0, 0.0, 10.0) == 0.0

    def test_symmetric_range(self):
        assert normalize(-5.0, -5.0, 5.0) == -1.0
        assert normalize(5.0, -5.0, 5.0) == 1.0

    def test_out_of_range_not_clamped(self):
        assert normalize(20.0, 0.0, 10.0) == 3.0
        assert normalize(-10.0, 0.0, 10.0) == -3.0

    @given(
        x=st.floats(min_value=-1e6, max_value=1e6),
        lo=st.floats(min_value=-1e3, max_value=1e3),
        width=st.floats(min_value=1e-3, max_value=1e3),
    )
    def test_round_trip(self, x, lo, width):
        hi = lo + width
        back = denormalize(normalize(x, lo, hi), lo, hi)
        assert back == pytest.approx(x, rel=1e-12, abs=1e-9)


class TestNormalizationStats:
    @pytest.mark.parametrize("lo, hi", [
        ([0, 0, 0, 0, 0, 5], [1, 1, 1, 1, 1, 5]),
        ([np.nan, 0, 0, 0, 0, 0], [1] * 6),
        ([0, 0, -np.inf, 0, 0, 0], [1] * 6),
        ([0] * 6, [1, 1, 1, 1, 1, np.inf]),
        ([0] * 5, [1] * 5),
    ], ids=["flat-scale", "nan", "minus-inf-lo", "inf-hi", "wrong-length"])
    def test_invalid_scale_rejected(self, lo, hi):
        with pytest.raises(ValueError):
            NormalizationStats(lo, hi)


class TestBuildWindows:
    def test_48_rows_lag_24_single_window(self, tmp_path):
        ds = load_dataset(write_rows(tmp_path / "d.csv", make_rows(48)))
        windows = build_windows(ds, lag=24)
        # the only valid pairing: lag hours 0..23, target row 47 (24h later)
        assert len(windows) == 1
        assert windows.targets[0] == ds.load[47]
        assert len(windows.features[0]) == 5 + 24
        assert list(windows.features[0, 5:]) == list(ds.load[0:24])

    def test_47_rows_lag_24_insufficient(self, tmp_path):
        ds = load_dataset(write_rows(tmp_path / "d.csv", make_rows(47)))
        with pytest.raises(InsufficientData):
            build_windows(ds, lag=24)

    def test_lag_1_26_rows_two_windows(self, tmp_path):
        ds = load_dataset(write_rows(tmp_path / "d.csv", make_rows(26)))
        windows = build_windows(ds, lag=1)
        # lag windows end at rows 0 and 1; targets at rows 24 and 25
        assert len(windows) == 2
        assert list(windows.targets) == [ds.load[24], ds.load[25]]

    @pytest.mark.parametrize("rows,lag", [(48, 24), (60, 24), (100, 12), (30, 1)])
    def test_window_count_formula(self, tmp_path, rows, lag):
        ds = load_dataset(write_rows(tmp_path / "d.csv", make_rows(rows)))
        assert len(build_windows(ds, lag=lag)) == rows - lag - 24 + 1

    def test_boundary_spanning_windows_are_test(self, tmp_path):
        ds = load_dataset(
            write_rows(tmp_path / "d.csv", make_rows(80)),
            split_boundary=START + timedelta(hours=60),
        )
        windows = build_windows(ds, lag=24)
        assert windows.n_train == sum(row < 60 for row in windows.target_rows) > 0
        assert all(row >= 60 for row in windows.target_rows[windows.n_train:]) and windows.n_train < len(windows)
        train, test = split_windows(windows)
        assert (len(train), len(test)) == (windows.n_train, len(windows) - windows.n_train)
        assert (train.n_train, test.n_train) == (len(train), 0)
        assert all(row < 60 for row in train.target_rows) and all(row >= 60 for row in test.target_rows)
        for part in (train, test):   # views, not copies
            for name in ("features", "targets", "target_rows"):
                assert np.shares_memory(getattr(part, name), getattr(windows, name))

    def test_gap_spanning_windows_dropped(self, tmp_path):
        rows = make_rows(80)
        del rows[40]
        path = write_rows(tmp_path / "d.csv", rows)
        full = build_windows(load_dataset(write_rows(tmp_path / "f.csv", make_rows(80))))
        gappy = build_windows(load_dataset(path, allow_gaps=True))
        assert len(gappy) < len(full)


class TestWindowMatrix:
    def test_shapes_and_ranges(self, tmp_path):
        ds = load_dataset(write_rows(tmp_path / "d.csv", make_rows(80)))
        stats = fit_normalizer(ds)
        train, _ = split_windows(build_windows(ds))
        X, y = window_matrix(train, stats)
        assert X.shape == (len(train), 29)
        assert y.shape == (len(train),)
        assert np.all(np.abs(X) <= 1.0 + 1e-12)
        assert np.all(np.abs(y) <= 1.0 + 1e-12)
