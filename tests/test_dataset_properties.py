"""Dataset row lookups and window rows against scans, on random hourly CSVs
with shuffled rows, dropped hours and UTC offsets."""

import csv
import tempfile
from datetime import datetime, timedelta, timezone
from pathlib import Path

import numpy as np
from helpers import scan_day_indices, scan_index_of, scan_n_train, scan_windows
from hypothesis import given, settings
from hypothesis import strategies as st

from loadshift.errors import InsufficientData
from loadshift.ingest import REQUIRED_COLUMNS, build_windows, load_dataset

START = datetime(2024, 3, 9, 17)
OFFSETS = {
    "naive": None,
    "fixed": (timezone(timedelta(hours=5, minutes=30)),),
    "switching": (timezone(timedelta(hours=-5)), timezone(timedelta(hours=-6))),
}


@st.composite
def hourly_csv(draw):
    """(rows, split_fraction, lag): hourly rows with hours dropped, shuffled."""
    hours = draw(st.integers(2, 110))
    kept = sorted(draw(st.sets(st.integers(0, hours - 1), min_size=2, max_size=hours)))
    order = draw(st.permutations(kept))
    zones = OFFSETS[draw(st.sampled_from(sorted(OFFSETS)))]
    rows = []
    for h in order:
        ts = START + timedelta(hours=h)
        if zones:
            zone = zones[draw(st.integers(0, len(zones) - 1))]
            ts = ts.replace(tzinfo=timezone.utc).astimezone(zone)
        rows.append([ts.isoformat()] + [f"{h % 7 + j:.1f}" for j in range(5)] + [f"{100 + h}"])
    return rows, draw(st.floats(0.0, 1.0)), draw(st.integers(1, 30))


@settings(max_examples=80, deadline=None)
@given(data=hourly_csv())
def test_lookups_and_windows_match_scans(data):
    rows, split_fraction, lag = data
    with tempfile.TemporaryDirectory() as folder:
        path = Path(folder) / "data.csv"
        with open(path, "w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(REQUIRED_COLUMNS)
            writer.writerows(rows)
        dataset = load_dataset(path, split_fraction=split_fraction, allow_gaps=True)

    assert dataset.n_train == scan_n_train(dataset)
    dates = {ts.date() for ts in dataset.timestamps}
    for day in dates | {min(dates) - timedelta(days=1), max(dates) + timedelta(days=1)}:
        assert list(dataset.day_indices(day)) == scan_day_indices(dataset, day)
    for i, ts in enumerate(dataset.timestamps):
        assert dataset.index_of(ts) == i
        for shift in (timedelta(minutes=30), timedelta(hours=1), -timedelta(hours=24)):
            assert dataset.index_of(ts + shift) == scan_index_of(dataset, ts + shift)

    expected = scan_windows(dataset, lag)
    try:
        windows = build_windows(dataset, lag=lag)
    except InsufficientData:
        assert expected == []
        return
    assert [int(row) for row in windows.target_rows] == [target for _, target in expected]
    for features, (end, target) in zip(windows.features, expected):
        assert np.array_equal(features[:5], dataset.weather[target])
        assert np.array_equal(features[5:], dataset.load[end - lag + 1 : end + 1])
    assert list(windows.is_test) == [target >= scan_n_train(dataset) for _, target in expected]
