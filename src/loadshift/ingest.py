"""CSV ingestion, [-1, 1] scaling, and supervised window construction.

Expected CSV schema (header required, ISO-8601 local timestamps, hourly):

    timestamp,wind_speed,temperature,heat_index,cold_index,dew_point,load_kwh[,price_c_per_kwh]

The price column is optional and only needed for demand-response runs.
Scaling statistics are always fit on training rows only; test rows never
influence them. All functions here are pure over immutable inputs.
"""

from __future__ import annotations

import csv
import io
import warnings
from dataclasses import dataclass
from datetime import datetime
from typing import Mapping, Optional

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import (
    DegenerateFeature,
    InsufficientData,
    InvalidTrainConfig,
    LoadshiftError,
    MissingColumn,
    MixedTimezones,
    UnparseableRow,
)
from .profiles import WEATHER_FEATURES, Dataset, _frozen_array, time_axis

LOAD_COLUMN = "load_kwh"
PRICE_COLUMN = "price_c_per_kwh"
SCALED_COLUMNS = WEATHER_FEATURES + (LOAD_COLUMN,)   # the columns NormalizationStats scales, in its order
REQUIRED_COLUMNS = ("timestamp",) + SCALED_COLUMNS
CSV_ENCODING = "utf-8-sig"   # UTF-8 that may lead with the byte-order mark of Excel's "CSV UTF-8"

DEFAULT_LAG = 24
DEFAULT_SPLIT_FRACTION = 0.85   # share of rows in the training split
HORIZON_HOURS = 24


@dataclass(frozen=True, eq=False)
class NormalizationStats:
    """Min and max over the training rows of each ``SCALED_COLUMNS`` column,
    as two frozen (6,) arrays: the five weather signals, then the load."""

    lo: np.ndarray
    hi: np.ndarray

    def __post_init__(self):
        for name in ("lo", "hi"):   # ValueError for any shape but (6,)
            object.__setattr__(self, name, _frozen_array(getattr(self, name), (len(SCALED_COLUMNS),)))
        if not (np.isfinite((self.lo, self.hi)).all() and (self.lo < self.hi).all()):
            raise ValueError(f"invalid feature scales: lo {self.lo.tolist()}, hi {self.hi.tolist()}")

    def columns(self, lag: int) -> tuple:
        """(lo, span) vectors of the 5 + ``lag`` window feature columns: weather
        columns by their own scales, lag columns by the load scale."""
        index = np.minimum(np.arange(len(WEATHER_FEATURES) + lag), len(WEATHER_FEATURES))
        lo = self.lo[index]
        return lo, self.hi[index] - lo

    def to_json_dict(self) -> dict:
        return {name: [lo, hi] for name, lo, hi in sorted(zip(SCALED_COLUMNS, self.lo.tolist(), self.hi.tolist()))}

    @classmethod
    def from_json_dict(cls, data: Mapping) -> "NormalizationStats":
        if set(data) != set(SCALED_COLUMNS):
            raise ValueError(f"norm_stats must name exactly the features {sorted(SCALED_COLUMNS)}, got {sorted(data)}")
        bounds = np.array([data[name] for name in SCALED_COLUMNS])   # ValueError when ragged
        if bounds.shape != (len(SCALED_COLUMNS), 2):
            raise ValueError(f"each feature scale must be two numbers [lo, hi], got {bounds.tolist()}")
        return cls(*bounds.T)


@dataclass(frozen=True)
class Windows:
    """Supervised examples as arrays, one row per window, in target-time order.

    ``features`` holds raw units: the 5 weather values observed at the
    target hour followed by ``lag`` hourly loads ending 24 hours before
    the target. ``targets`` is the load at dataset row ``target_rows``,
    24 hours after the last lagged observation. Windows that touch any
    test row belong to the test set, so the leading ``n_train`` windows
    are the training ones and the rest follow them.
    """

    features: np.ndarray       # (m, 5 + lag)
    targets: np.ndarray        # (m,) kWh
    target_rows: np.ndarray    # (m,) int
    n_train: int

    def __len__(self) -> int:
        return len(self.targets)


def normalize(x, lo, hi):
    """Map lo -> -1 and hi -> +1 linearly; no clamping."""
    return -1.0 + 2.0 * (x - lo) / (hi - lo)


def denormalize(y, lo, hi):
    """Exact inverse of normalize."""
    return lo + (y + 1.0) * (hi - lo) / 2.0


def normalize_features(features: np.ndarray, scaling: tuple, out=None) -> np.ndarray:
    """Normalize window feature rows by ``NormalizationStats.columns``' (lo, span), with
    normalize's arithmetic per element, into ``out`` (``features`` itself may be it)."""
    lo, span = scaling
    out = np.subtract(features, lo, out=out)
    out *= 2.0
    out /= span
    out -= 1.0
    return out


def load_dataset(
    path,
    *,
    split_boundary: Optional[datetime] = None,
    split_fraction: float = DEFAULT_SPLIT_FRACTION,
    allow_gaps: bool = False,
) -> Dataset:
    """Parse an hourly CSV time series into a validated Dataset.

    Without ``split_boundary`` the split is chronological at
    ``split_fraction`` of the rows. The first faulty line of the file
    raises UnparseableRow; Dataset enforces the hourly cadence. A timestamp
    column whose every cell has the form ``YYYY-MM-DDTHH:MM:SS`` is parsed
    in one numpy call; any other ISO form is read by ``fromisoformat``.
    """
    if not 0 <= split_fraction <= 1:   # NaN included
        raise LoadshiftError(f"split_fraction must lie in [0, 1], got {split_fraction}")
    text = read_csv_text(path)
    handle = io.StringIO(text, newline="")
    header = next(csv.reader(handle), [])
    for canonical in REQUIRED_COLUMNS:
        if canonical not in header:
            raise MissingColumn(canonical)
    has_price = PRICE_COLUMN in header
    value_names = SCALED_COLUMNS + ((PRICE_COLUMN,) if has_price else ())
    # a repeated header name refers to its last column
    position = {column: j for j, column in enumerate(header)}
    columns = {canonical: position[canonical] for canonical in ("timestamp",) + value_names}
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)   # "no data": InsufficientData below says so
            table = np.loadtxt(handle, [(c, object if c == "timestamp" else float) for c in columns],
                               delimiter=",", comments=None, quotechar='"', usecols=list(columns.values()),
                               ndmin=1)
        micros, offsets = _naive_micros(table["timestamp"]), None
        if micros is None:   # TypeError: naive and offset stamps
            micros, offsets = time_axis(list(map(datetime.fromisoformat, map(str.strip, table["timestamp"]))))
        values = np.column_stack([table[c] for c in value_names])
        if not np.isfinite(values).all() or (values[:, len(WEATHER_FEATURES):] < 0).any():
            raise ValueError("non-finite or negative value")
    except (TypeError, ValueError) as exc:
        _raise_first_fault(text, columns, value_names)
        raise LoadshiftError(f"cannot parse {path}: {exc}") from exc
    # loadtxt strips U+001C..U+001F around a number as whitespace; float() does not.
    # fromisoformat reads a NUL as the end of its text.
    if any(control in text for control in "\x00\x1c\x1d\x1e\x1f"):
        _raise_first_fault(text, columns, value_names)
    del text, handle   # before the sorted arrays are made, so they reuse its memory, not leave it a resident hole
    n = len(micros)
    if n < 2:
        raise InsufficientData(f"dataset {path} has {n} rows; need at least 2")

    order = np.argsort(micros, kind="stable")   # sorted()'s order of the timestamps
    micros, values = micros[order], values[order]
    if offsets is not None:
        offsets = offsets[order]

    if split_boundary is None:
        n_train = int(split_fraction * n)
    else:   # the rows strictly before the boundary
        n_train = int(np.searchsorted(micros, time_axis([split_boundary])[0][0]))

    n_weather = len(WEATHER_FEATURES)
    dataset = Dataset(
        micros=micros,
        offsets=offsets,
        weather=values[:, :n_weather],
        load=values[:, n_weather],
        price=values[:, n_weather + 1] if has_price else None,
        n_train=n_train,
        allow_gaps=allow_gaps,
    )
    # after the Dataset, so that a cadence fault is reported first
    if split_boundary is not None and (offsets is None) != (split_boundary.utcoffset() is None):
        raise MixedTimezones(f"split boundary {split_boundary} and timestamp {dataset.timestamp(0)} "
                             "must both carry a UTC offset or neither")
    return dataset


_NAIVE_FORM = np.frombuffer(b"0000-00-00T00:00:00\0", np.uint8)   # a timestamp as synth writes it, then a NUL
_DIGIT = _NAIVE_FORM == ord("0")


def _naive_micros(column) -> Optional[np.ndarray]:
    """Microseconds since 1970 of a timestamp column whose every cell has the
    form YYYY-MM-DDTHH:MM:SS, parsed in one call; None for any other column.
    Of that form numpy refuses what fromisoformat refuses, but for year 0000."""
    try:
        data = ("\0".join(column) + "\0").encode("ascii")
    except (TypeError, UnicodeEncodeError):
        return None
    if len(data) != len(column) * len(_NAIVE_FORM):
        return None
    # the check allows a NUL only as a record's last byte, so no cell is longer or shorter than 19
    grid = np.frombuffer(data, np.uint8).reshape(len(column), len(_NAIVE_FORM))
    if not (((grid[:, _DIGIT] - ord("0")) < 10).all() and (grid[:, ~_DIGIT] == _NAIVE_FORM[~_DIGIT]).all()
            and (grid[:, :4] != ord("0")).any(axis=1).all()):
        return None
    try:
        return np.frombuffer(data, f"S{len(_NAIVE_FORM)}").astype("datetime64[us]").view(np.int64)
    except ValueError:   # month 13, Feb 29 of a common year, hour 24, second 60, ...
        return None


def read_csv_text(path) -> str:
    """A CSV file's text: its bytes, read in one call so that a pipe works too,
    decoded as ``CSV_ENCODING``. A byte that is not UTF-8 raises UnparseableRow
    naming its line."""
    with open(path, "rb") as raw:
        data = raw.read()
    try:
        return data.decode(CSV_ENCODING)
    except UnicodeDecodeError as exc:   # exc.start counts in exc.object, the bytes after any byte-order mark
        line = len((exc.object[: exc.start] + b"x").splitlines())   # the lines up to and with the bad byte
        raise UnparseableRow(line, f"not UTF-8 text ({exc.reason})") from None


def read_hourly_column(path, column: str, missing_error) -> np.ndarray:
    """24 finite nonnegative values keyed by an 1..24 ``hour`` column, one row per hour."""
    reader = csv.DictReader(io.StringIO(read_csv_text(path), newline=""))
    header = reader.fieldnames or []
    for needed in ("hour", column):
        if needed not in header:
            raise MissingColumn(needed)
    values = np.full(24, np.nan)
    for row in reader:
        line = reader.line_num   # blank lines hold no row but count
        try:
            hour = plain_number(row["hour"], int)
            value = plain_number(row[column], float)
        except (TypeError, ValueError) as exc:
            raise UnparseableRow(line, str(exc)) from None
        if not 1 <= hour <= 24:
            raise UnparseableRow(line, f"hour {hour} outside 1..24")
        if not np.isfinite(value):
            raise UnparseableRow(line, f"{column} {row[column]!r} is not a finite number")
        if value < 0:
            raise UnparseableRow(line, f"{column} {row[column]!r} is negative")
        if not np.isnan(values[hour - 1]):
            raise UnparseableRow(line, f"hour {hour} appears twice")
        values[hour - 1] = value
    missing = [int(h) + 1 for h in np.flatnonzero(np.isnan(values))]
    if missing:
        raise missing_error(f"{path}: no value for hours {missing}")
    return values


def plain_number(cell, parse):
    """``parse(cell)``, refusing what int() and float() read and the array
    parse does not: digit-group underscores and non-ASCII digits."""
    number = parse(cell)
    if "_" in cell or not cell.strip().isascii():
        raise ValueError(f"{cell!r} is not a plain ASCII number")
    return number


def _raise_first_fault(text: str, columns, value_names) -> None:
    """Walk a file's text row by row and raise UnparseableRow for its first faulty
    row, checking each row in turn: its timestamp, then each value column in order,
    then the signs; then the first row whose UTC offset awareness differs."""
    first_line = {}   # UTC offset awareness -> first line with it
    reader = csv.reader(io.StringIO(text, newline=""))
    next(reader, [])
    for row in filter(None, reader):   # a blank line holds no row
        line = reader.line_num
        cell = lambda canonical: row[columns[canonical]] if columns[canonical] < len(row) else None
        try:
            stamp = cell("timestamp").strip()
            if "\x00" in stamp:
                raise ValueError(f"Invalid isoformat string: {stamp!r}")
            first_line.setdefault(datetime.fromisoformat(stamp).utcoffset() is not None, line)
        except (ValueError, AttributeError) as exc:
            raise UnparseableRow(line, f"bad timestamp: {exc}") from exc
        values = {}
        for canonical in value_names:
            raw = cell(canonical)
            try:
                values[canonical] = plain_number(raw, float)
            except (TypeError, ValueError) as exc:
                raise UnparseableRow(line, f"bad value {raw!r} in column {canonical!r}") from exc
            if not np.isfinite(values[canonical]):
                raise UnparseableRow(line, f"non-finite value in column {canonical!r}")
        for canonical, fault in ((LOAD_COLUMN, "negative load"), (PRICE_COLUMN, "negative price")):
            if values.get(canonical, 0.0) < 0:
                raise UnparseableRow(line, fault)
    if len(first_line) == 2:
        raise UnparseableRow(max(first_line.values()), "UTC offset awareness differs from the first row's")


def fit_normalizer(dataset: Dataset) -> NormalizationStats:
    """Min/max of each ``SCALED_COLUMNS`` column over the training rows, which
    lead the dataset; the first flat column raises DegenerateFeature."""
    n_train = dataset.n_train
    if n_train < 2:
        raise InsufficientData(f"need at least 2 training rows to fit scaling, have {n_train}")

    columns = (*dataset.weather[:n_train].T, dataset.load[:n_train])   # per-column reductions beat one axis-0 pass
    lo, hi = np.array([(np.min(column), np.max(column)) for column in columns]).T
    flat = hi <= lo
    if flat.any():
        raise DegenerateFeature(SCALED_COLUMNS[int(np.argmax(flat))])
    return NormalizationStats(lo, hi)


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
        n_train=int(np.searchsorted(targets, dataset.n_train)),   # the targets ascend
    )


def split_windows(windows: Windows) -> tuple:
    """(train, test) partition of the windows, as views of its arrays."""
    w, k = windows, windows.n_train
    return (Windows(w.features[:k], w.targets[:k], w.target_rows[:k], k),
            Windows(w.features[k:], w.targets[k:], w.target_rows[k:], 0))


def window_matrix(windows: Windows, stats: NormalizationStats) -> tuple:
    """Normalized (X, y) arrays for training.

    Weather columns use their own scales; lag columns and the target use
    the load scale, so the target lives in a tanh-friendly range.
    """
    if not windows:
        raise InsufficientData("no windows to assemble")
    scaling = stats.columns(windows.features.shape[1] - len(WEATHER_FEATURES))
    return normalize_features(windows.features, scaling), normalize(windows.targets, stats.lo[-1], stats.hi[-1])
