"""Dataset row lookups and window rows against scans, on random hourly CSVs
with shuffled rows, dropped hours and UTC offsets."""

import csv
import tempfile
from datetime import datetime, timedelta, timezone
from pathlib import Path

import numpy as np
from helpers import scan_full_day_indices, scan_windows
from hypothesis import given, settings
from hypothesis import strategies as st

from loadshift.errors import InsufficientData
from loadshift.ingest import REQUIRED_COLUMNS, build_windows, load_dataset, split_windows

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

    n_train = int(split_fraction * len(dataset))
    assert dataset.n_train == n_train
    dates = {ts.date() for ts in dataset.timestamps}
    for day in dates | {min(dates) - timedelta(days=1), max(dates) + timedelta(days=1)}:
        rows = dataset.full_day_indices(day)
        assert (None if rows is None else list(rows)) == scan_full_day_indices(dataset, day)

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
    assert windows.n_train == sum(target < n_train for _, target in expected)
    assert all(target >= n_train for _, target in expected[windows.n_train:])   # the test windows follow
    train, test = split_windows(windows)
    assert (len(train), len(test)) == (windows.n_train, len(windows) - windows.n_train)
    for part in filter(len, (train, test)):   # views, not copies; an empty array shares no memory
        for name in ("features", "targets", "target_rows"):
            assert np.shares_memory(getattr(part, name), getattr(windows, name))
