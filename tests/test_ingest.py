import csv
import warnings
from datetime import datetime, timedelta, timezone

import numpy as np
import pytest
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
    FeatureScale,
    LOAD_COLUMN,
    REQUIRED_COLUMNS,
    build_windows,
    denormalize,
    fit_normalizer,
    load_dataset,
    normalize,
    split_windows,
    window_matrix,
)

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
        assert len(ds.gap_after) == 1

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
        assert len(ds) == 48 and not ds.gap_after
        assert ds.timestamps[0].utcoffset() == timedelta(hours=-5)
        assert ds.load[0] == 100.0 and ds.load[-1] == 147.0
        for day in {ts.date() for ts in ds.timestamps}:
            assert list(ds.day_indices(day)) == [i for i, ts in enumerate(ds.timestamps) if ts.date() == day]
        assert ds.index_of(START.replace(tzinfo=timezone.utc)) == 0
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
        assert ds.is_train_row(29)
        assert not ds.is_train_row(30)

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

    def test_price_column_parsed(self, tmp_path):
        rows = make_rows(48)
        for i, row in enumerate(rows):
            row["price_c_per_kwh"] = f"{5.0 + 0.01 * i:.3f}"
        path = write_rows(tmp_path / "d.csv", rows)
        ds = load_dataset(path)
        assert ds.price is not None
        assert ds.price[0] == 5.0


class TestNormalizer:
    def test_two_point_range(self, tmp_path):
        rows = make_rows(48)
        ds = load_dataset(write_rows(tmp_path / "d.csv", rows))
        stats = fit_normalizer(ds)
        assert stats[LOAD_COLUMN].lo == 100.0
        # training rows only: default 85% split keeps the first 40 rows
        assert stats[LOAD_COLUMN].hi == 100.0 + ds.n_train - 1

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
        assert fit_normalizer(ds1) == fit_normalizer(ds2)

    def test_train_extremes_map_to_unit_interval_ends(self, tmp_path):
        ds = load_dataset(write_rows(tmp_path / "d.csv", make_rows(60)))
        stats = fit_normalizer(ds)
        train_loads = ds.load[: ds.n_train]
        assert normalize(train_loads.min(), stats[LOAD_COLUMN]) == -1.0
        assert normalize(train_loads.max(), stats[LOAD_COLUMN]) == 1.0


class TestNormalize:
    def test_endpoints_and_midpoint(self):
        scale = FeatureScale(0.0, 10.0)
        assert normalize(0.0, scale) == -1.0
        assert normalize(10.0, scale) == 1.0
        assert normalize(5.0, scale) == 0.0

    def test_symmetric_range(self):
        scale = FeatureScale(-5.0, 5.0)
        assert normalize(-5.0, scale) == -1.0
        assert normalize(5.0, scale) == 1.0

    def test_out_of_range_not_clamped(self):
        scale = FeatureScale(0.0, 10.0)
        assert normalize(20.0, scale) == 3.0
        assert normalize(-10.0, scale) == -3.0

    def test_degenerate_scale_rejected(self):
        with pytest.raises(ValueError):
            FeatureScale(5.0, 5.0)

    @given(
        x=st.floats(min_value=-1e6, max_value=1e6),
        lo=st.floats(min_value=-1e3, max_value=1e3),
        width=st.floats(min_value=1e-3, max_value=1e3),
    )
    def test_round_trip(self, x, lo, width):
        scale = FeatureScale(lo, lo + width)
        back = denormalize(normalize(x, scale), scale)
        assert back == pytest.approx(x, rel=1e-12, abs=1e-9)


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
        for row, is_test in zip(windows.target_rows, windows.is_test):
            assert is_test == (row >= 60)
        train, test = split_windows(windows)
        assert len(train) + len(test) == len(windows)
        assert all(not is_test for is_test in train.is_test)
        assert all(is_test for is_test in test.is_test)

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
