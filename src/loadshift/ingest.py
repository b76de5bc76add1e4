"""CSV ingestion, [-1, 1] scaling, and supervised window construction.

Expected CSV schema (header required, ISO-8601 local timestamps, hourly):

    timestamp,wind_speed,temperature,heat_index,cold_index,dew_point,load_kwh[,price_c_per_kwh]

The price column is optional and only needed for demand-response runs.
Scaling statistics are always fit on training rows only; test rows never
influence them. All functions here are pure over immutable inputs.
"""

from __future__ import annotations

import csv
import warnings
from dataclasses import dataclass
from datetime import datetime, timedelta
from typing import Mapping, Optional

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import (
    DegenerateFeature,
    InsufficientData,
    InvalidTrainConfig,
    LoadshiftError,
    MissingColumn,
    UnparseableRow,
)
from .profiles import WEATHER_FEATURES, Dataset

LOAD_COLUMN = "load_kwh"
PRICE_COLUMN = "price_c_per_kwh"
REQUIRED_COLUMNS = ("timestamp",) + WEATHER_FEATURES + (LOAD_COLUMN,)

DEFAULT_LAG = 24
HORIZON_HOURS = 24


@dataclass(frozen=True)
class FeatureScale:
    """Min/max of one feature over the training rows."""

    lo: float
    hi: float

    def __post_init__(self):
        if not (np.isfinite(self.lo) and np.isfinite(self.hi)) or self.hi <= self.lo:
            raise ValueError(f"invalid feature scale [{self.lo}, {self.hi}]")


@dataclass(frozen=True)
class NormalizationStats:
    """Per-feature scaling for the five weather signals plus the load."""

    scales: Mapping[str, FeatureScale]

    def __post_init__(self):
        object.__setattr__(self, "scales", dict(self.scales))
        for name in WEATHER_FEATURES + (LOAD_COLUMN,):
            if name not in self.scales:
                raise ValueError(f"missing scale for feature {name!r}")

    def __getitem__(self, name: str) -> FeatureScale:
        return self.scales[name]

    def to_json_dict(self) -> dict:
        return {name: [scale.lo, scale.hi] for name, scale in sorted(self.scales.items())}

    @classmethod
    def from_json_dict(cls, data: Mapping) -> "NormalizationStats":
        return cls({name: FeatureScale(lo, hi) for name, (lo, hi) in data.items()})


@dataclass(frozen=True)
class Windows:
    """Supervised examples as arrays, one row per window, in target-time order.

    ``features`` holds raw units: the 5 weather values observed at the
    target hour followed by ``lag`` hourly loads ending 24 hours before
    the target. ``targets`` is the load at dataset row ``target_rows``,
    24 hours after the last lagged observation. Windows that touch any
    test row belong to the test set.
    """

    features: np.ndarray       # (m, 5 + lag)
    targets: np.ndarray        # (m,) kWh
    target_rows: np.ndarray    # (m,) int
    is_test: np.ndarray        # (m,) bool

    def __len__(self) -> int:
        return len(self.targets)

    def __getitem__(self, rows) -> "Windows":
        return Windows(self.features[rows], self.targets[rows], self.target_rows[rows], self.is_test[rows])


def normalize(x, scale: FeatureScale):
    """Map scale.lo -> -1 and scale.hi -> +1 linearly; no clamping."""
    return -1.0 + 2.0 * (x - scale.lo) / (scale.hi - scale.lo)


def denormalize(y, scale: FeatureScale):
    """Exact inverse of normalize."""
    return scale.lo + (y + 1.0) * (scale.hi - scale.lo) / 2.0


def normalize_features(features: np.ndarray, stats: NormalizationStats) -> np.ndarray:
    """Normalize window feature rows: weather columns by their own scales,
    lag columns by the load scale, with normalize's arithmetic per element."""
    lag = features.shape[-1] - len(WEATHER_FEATURES)
    scales = [stats[name] for name in WEATHER_FEATURES] + [stats[LOAD_COLUMN]] * lag
    lo, hi = np.array([(scale.lo, scale.hi) for scale in scales]).T
    return -1.0 + 2.0 * (features - lo) / (hi - lo)


def load_dataset(
    path,
    *,
    split_boundary: Optional[datetime] = None,
    split_fraction: float = 0.85,
    allow_gaps: bool = False,
) -> Dataset:
    """Parse an hourly CSV time series into a validated Dataset.

    Without ``split_boundary`` the split is chronological at
    ``split_fraction`` of the rows. The first faulty line of the file
    raises UnparseableRow; Dataset enforces the hourly cadence.
    """
    if not 0 <= split_fraction <= 1:   # NaN included
        raise LoadshiftError(f"split_fraction must lie in [0, 1], got {split_fraction}")
    with open(path, newline="") as handle:
        header = next(csv.reader(handle), [])
        for canonical in REQUIRED_COLUMNS:
            if canonical not in header:
                raise MissingColumn(canonical)
        has_price = PRICE_COLUMN in header
        value_names = WEATHER_FEATURES + (LOAD_COLUMN,) + ((PRICE_COLUMN,) if has_price else ())
        # a repeated header name refers to its last column
        position = {column: j for j, column in enumerate(header)}
        columns = {canonical: position[canonical] for canonical in ("timestamp",) + value_names}
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", UserWarning)   # "no data": InsufficientData below says so
                table = np.loadtxt(handle, [(c, object if c == "timestamp" else float) for c in columns], delimiter=",",
                                   comments=None, quotechar='"', usecols=list(columns.values()), ndmin=1)
            stamps = [datetime.fromisoformat(raw.strip()) for raw in table["timestamp"]]
            values = np.column_stack([table[c] for c in value_names])
            if not np.isfinite(values).all() or (values[:, len(WEATHER_FEATURES):] < 0).any():
                raise ValueError("non-finite or negative value")
            order = sorted(range(len(stamps)), key=stamps.__getitem__)   # TypeError: naive and offset stamps
        except (TypeError, ValueError) as exc:
            _raise_first_fault(path, columns, value_names, exc)
    # loadtxt strips U+001C..U+001F around a number as whitespace; float() does not.
    # The scan reads 64 KiB at a time, so a large file is never held whole.
    with open(path, "rb") as raw:
        chunks = iter(lambda: raw.read(1 << 16), b"")
        if any(control in chunk for chunk in chunks for control in b"\x1c\x1d\x1e\x1f"):
            _raise_first_fault(path, columns, value_names)
    if len(stamps) < 2:
        raise InsufficientData(f"dataset {path} has {len(stamps)} rows; need at least 2")

    timestamps = tuple(stamps[i] for i in order)
    values = values[order]

    if split_boundary is None:
        cut = int(split_fraction * len(stamps))
        split_boundary = timestamps[cut] if cut < len(stamps) else timestamps[-1] + timedelta(hours=1)

    n_weather = len(WEATHER_FEATURES)
    return Dataset(
        timestamps=timestamps,
        weather=values[:, :n_weather],
        load=values[:, n_weather],
        price=values[:, n_weather + 1] if has_price else None,
        split_boundary=split_boundary,
        allow_gaps=allow_gaps,
    )


def _raise_first_fault(path, columns, value_names, rejection: Optional[Exception] = None) -> None:
    """Re-read a file the array parse rejected and raise UnparseableRow for its first
    faulty row, checking each row in turn: its timestamp, then each value column in
    order, then the signs; then the first row whose UTC offset awareness differs.
    Without a ``rejection`` a file with no faulty row passes."""
    first_line = {}   # UTC offset awareness -> first line with it
    with open(path, newline="") as handle:
        reader = csv.reader(handle)
        next(reader, [])
        for row in filter(None, reader):   # a blank line holds no row
            line = reader.line_num
            cell = lambda canonical: row[columns[canonical]] if columns[canonical] < len(row) else None
            try:
                first_line.setdefault(datetime.fromisoformat(cell("timestamp").strip()).utcoffset() is not None, line)
            except (ValueError, AttributeError) as exc:
                raise UnparseableRow(line, f"bad timestamp: {exc}") from exc
            values = {}
            for canonical in value_names:
                raw = cell(canonical)
                try:
                    # float() also reads digit-group underscores and non-ASCII digits; the array parse does not
                    if "_" in raw or not raw.strip().isascii():
                        raise ValueError(raw)
                    values[canonical] = float(raw)
                except (TypeError, ValueError) as exc:
                    raise UnparseableRow(line, f"bad value {raw!r} in column {canonical!r}") from exc
                if not np.isfinite(values[canonical]):
                    raise UnparseableRow(line, f"non-finite value in column {canonical!r}")
            for canonical, fault in ((LOAD_COLUMN, "negative load"), (PRICE_COLUMN, "negative price")):
                if values.get(canonical, 0.0) < 0:
                    raise UnparseableRow(line, fault)
    if len(first_line) == 2:
        raise UnparseableRow(max(first_line.values()), "UTC offset awareness differs from the first row's")
    if rejection is not None:
        raise LoadshiftError(f"cannot parse {path}: {rejection}") from rejection


def fit_normalizer(dataset: Dataset) -> NormalizationStats:
    """Min/max per feature over the training rows, which lead the dataset."""
    n_train = dataset.n_train
    if n_train < 2:
        raise InsufficientData(f"need at least 2 training rows to fit scaling, have {n_train}")

    scales = {}
    columns = dict(zip(WEATHER_FEATURES, dataset.weather[:n_train].T))
    columns[LOAD_COLUMN] = dataset.load[:n_train]
    for name, column in columns.items():
        lo, hi = float(np.min(column)), float(np.max(column))
        if hi <= lo:
            raise DegenerateFeature(name)
        scales[name] = FeatureScale(lo, hi)
    return NormalizationStats(scales)


def build_windows(dataset: Dataset, lag: int = DEFAULT_LAG) -> Windows:
    """All supervised windows the dataset supports, in target-time order.

    A window is valid when its ``lag`` load rows are contiguous hours and
    a row exists exactly 24 hours after the last of them. For a gap-free
    dataset this yields max(0, rows - lag - 24 + 1) windows.
    """
    if lag < 1:
        raise InvalidTrainConfig(f"lag must be >= 1, got {lag}")
    ends = np.arange(lag - 1, len(dataset))
    targets = dataset.shifted_rows(ends, HORIZON_HOURS)
    keep = (targets >= 0) & dataset.contiguous(ends - lag + 1, ends)
    ends, targets = ends[keep], targets[keep]
    if not len(targets):
        raise InsufficientData(
            f"dataset too short for lag={lag}: need {lag + HORIZON_HOURS} gap-free rows"
        )
    return Windows(
        features=np.hstack([dataset.weather[targets], sliding_window_view(dataset.load, lag)[ends - lag + 1]]),
        targets=dataset.load[targets],
        target_rows=targets,
        is_test=targets >= dataset.n_train,
    )


def split_windows(windows: Windows) -> tuple:
    """(train, test) partition of the windows."""
    return windows[~windows.is_test], windows[windows.is_test]


def window_matrix(windows: Windows, stats: NormalizationStats) -> tuple:
    """Normalized (X, y) arrays for training.

    Weather columns use their own scales; lag columns and the target use
    the load scale, so the target lives in a tanh-friendly range.
    """
    if not windows:
        raise InsufficientData("no windows to assemble")
    return normalize_features(windows.features, stats), normalize(windows.targets, stats[LOAD_COLUMN])
