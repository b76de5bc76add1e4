"""Core domain types: hourly profiles, datasets, problems, results.

Unit conventions live here and nowhere else: load is kWh per hour, price
is cents per kWh, daily cost is cents, peaks are reported in kW
(numerically the max hourly kWh value). Hours are numbered 1..24 in file
formats and documentation, 0..23 in array indices.

All types are immutable after construction and safe to share between
concurrent evaluators.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from datetime import date, datetime, timedelta, timezone
from enum import Enum
from typing import Optional, Sequence

import numpy as np

from .errors import NonHourlyCadence

HOURS_PER_DAY = 24

WEATHER_FEATURES = ("wind_speed", "temperature", "heat_index", "cold_index", "dew_point")

_HOUR_MICROS = 3_600_000_000
_EPOCH = datetime(1970, 1, 1)
_EPOCH_UTC = _EPOCH.replace(tzinfo=timezone.utc)
_MICROSECOND = timedelta(microseconds=1)


def _frozen_array(values, shape=None) -> np.ndarray:
    arr = np.array(values, dtype=float)
    if shape is not None and arr.shape != shape:
        raise ValueError(f"expected shape {shape}, got {arr.shape}")
    arr.flags.writeable = False
    return arr


class ProfileKind(Enum):
    LOAD = "load"
    PRICE = "price"


@dataclass(frozen=True)
class HourlyProfile:
    """One calendar day as 24 hourly values, either load (kWh) or price (c/kWh)."""

    values: np.ndarray
    kind: ProfileKind

    def __post_init__(self):
        arr = _frozen_array(self.values, shape=(HOURS_PER_DAY,))
        object.__setattr__(self, "values", arr)
        if not np.all(np.isfinite(arr)):
            raise ValueError("hourly profile contains non-finite values")
        if np.any(arr < 0):
            raise ValueError("hourly profile contains negative values")

    def __len__(self) -> int:
        return HOURS_PER_DAY


def peak(profile: HourlyProfile) -> float:
    """Largest hourly value of the profile."""
    return float(np.max(profile.values))


def total(profile: HourlyProfile) -> float:
    """Sum of the 24 hourly values."""
    return float(np.sum(profile.values))


@dataclass(frozen=True)
class Dataset:
    """Aligned hourly time series of weather, load and (optionally) price.

    Rows are sorted by timestamp. Rows strictly before ``split_boundary``
    are the training partition; every later row is test. Consecutive rows
    are one hour apart unless ``allow_gaps``; then ``gap_after`` holds the
    indices i where the step from row i to row i+1 is not one hour. Row
    lookups are binary searches, over the timestamps or over an int64
    microsecond copy of them.
    """

    timestamps: tuple
    weather: np.ndarray            # (n, 5), columns in WEATHER_FEATURES order
    load: np.ndarray               # (n,) kWh
    price: Optional[np.ndarray]    # (n,) c/kWh, or None
    split_boundary: datetime
    allow_gaps: bool = False
    gap_after: frozenset = field(init=False)

    def __post_init__(self):
        n = len(self.timestamps)
        object.__setattr__(self, "timestamps", tuple(self.timestamps))
        object.__setattr__(self, "weather", _frozen_array(self.weather, shape=(n, len(WEATHER_FEATURES))))
        object.__setattr__(self, "load", _frozen_array(self.load, shape=(n,)))
        if self.price is not None:
            object.__setattr__(self, "price", _frozen_array(self.price, shape=(n,)))
        # microseconds since 1970, exact for any datetime; a UTC offset is applied
        epoch = _EPOCH if n == 0 or self.timestamps[0].utcoffset() is None else _EPOCH_UTC
        micros = np.fromiter(((ts - epoch) // _MICROSECOND for ts in self.timestamps), np.int64, n)
        steps = np.diff(micros)
        faulty = steps <= 0 if self.allow_gaps else steps != _HOUR_MICROS
        if faulty.any():
            i = int(np.argmax(faulty))
            earlier, later = self.timestamps[i : i + 2]
            if steps[i] <= 0:
                raise NonHourlyCadence(later, "duplicate or out-of-order timestamp")
            raise NonHourlyCadence(later, f"expected {earlier + timedelta(hours=1)} one hour after {earlier}")
        gaps = steps != _HOUR_MICROS
        object.__setattr__(self, "gap_after", frozenset(np.flatnonzero(gaps).tolist()))
        # _gaps[i] counts the gaps before row i, so rows a..b hold no gap
        # exactly when _gaps[a] == _gaps[b]
        object.__setattr__(self, "_gaps", np.concatenate(([0], np.cumsum(gaps))))
        object.__setattr__(self, "_micros", micros)

    def __len__(self) -> int:
        return len(self.timestamps)

    @property
    def n_train(self) -> int:
        """Number of rows strictly before the split boundary."""
        return bisect_left(self.timestamps, self.split_boundary)

    def is_train_row(self, index: int) -> bool:
        return self.timestamps[index] < self.split_boundary

    def index_of(self, ts: datetime) -> Optional[int]:
        i = bisect_left(self.timestamps, ts)
        return i if i < len(self) and self.timestamps[i] == ts else None

    def shifted_rows(self, rows: np.ndarray, hours: int) -> np.ndarray:
        """Index of the row ``hours`` after each of ``rows`` (before, if negative); -1 if absent."""
        want = self._micros[rows] + hours * _HOUR_MICROS
        found = np.minimum(np.searchsorted(self._micros, want), len(self) - 1)
        return np.where(self._micros[found] == want, found, -1)

    def contiguous(self, first: np.ndarray, last: np.ndarray) -> np.ndarray:
        """Whether each span of rows first..last holds no gap."""
        return self._gaps[first] == self._gaps[last]

    def day_indices(self, day: date) -> np.ndarray:
        """Row indices of the hours of ``day``, in time order."""
        # a UTC offset is less than a day, so the day's rows lie within a
        # day either side of its span in naive time
        start = (day - _EPOCH.date()).days * 24 * _HOUR_MICROS
        lo, hi = np.searchsorted(self._micros, (start - 24 * _HOUR_MICROS, start + 48 * _HOUR_MICROS))
        return np.array([i for i in range(lo, hi) if self.timestamps[i].date() == day], dtype=np.intp)

    def day_profile(self, day: date, kind: ProfileKind = ProfileKind.LOAD) -> HourlyProfile:
        """Actual load (or price) profile of a complete day in the dataset."""
        idx = self.day_indices(day)
        if len(idx) != HOURS_PER_DAY:
            raise ValueError(f"dataset does not contain all 24 hours of {day}")
        source = self.load if kind is ProfileKind.LOAD else self.price
        if source is None:
            raise ValueError("dataset has no price column")
        return HourlyProfile(source[idx], kind)


@dataclass(frozen=True)
class DrProblem:
    """One day-ahead load shifting instance.

    ``w1`` weighs the cost term, ``w2`` the shift term, ``alpha`` the
    penalty on scheduling more total energy than predicted. ``e_cmax``
    (cents) and ``l_shmax`` (kWh) scale the two criteria so they are
    dimensionless and comparable.
    """

    predicted: HourlyProfile
    prices: HourlyProfile
    lower_bounds: np.ndarray
    upper_bounds: np.ndarray
    w1: float
    w2: float
    alpha: float
    e_cmax: float
    l_shmax: float
    symmetric_violation: bool = False

    def __post_init__(self):
        if self.predicted.kind is not ProfileKind.LOAD:
            raise ValueError("predicted profile must be a load profile")
        if self.prices.kind is not ProfileKind.PRICE:
            raise ValueError("prices profile must be a price profile")
        lo = _frozen_array(self.lower_bounds, shape=(HOURS_PER_DAY,))
        hi = _frozen_array(self.upper_bounds, shape=(HOURS_PER_DAY,))
        object.__setattr__(self, "lower_bounds", lo)
        object.__setattr__(self, "upper_bounds", hi)
        if np.any(lo < 0) or np.any(hi < lo):
            raise ValueError("bounds must satisfy 0 <= lower <= upper per hour")
        if self.w1 < 0 or self.w2 < 0:
            raise ValueError("weights must be nonnegative")
        if self.e_cmax <= 0 or self.l_shmax <= 0 or self.alpha <= 0:
            raise ValueError("e_cmax, l_shmax and alpha must be positive")


@dataclass(frozen=True)
class TracePoint:
    """Best-so-far state after one optimizer iteration (iteration 0 = init)."""

    iteration: int
    objective: float
    cost_cents: float
    load_shift_kwh: float
    violation: float


@dataclass(frozen=True)
class OptimizationResult:
    """Outcome of one optimizer run on a DrProblem."""

    best_schedule: HourlyProfile
    objective: float
    cost_cents: float
    load_shift_kwh: float
    violation: float
    peak_before_kw: float
    peak_after_kw: float
    trace: tuple          # of TracePoint, non-increasing in objective
    rng_seed: int

    def to_json_dict(self) -> dict:
        return {
            "best_schedule_kwh": [float(v) for v in self.best_schedule.values],
            "objective": self.objective,
            "cost_cents": self.cost_cents,
            "cost_dollars": self.cost_cents / 100.0,
            "load_shift_kwh": self.load_shift_kwh,
            "violation": self.violation,
            "peak_before_kw": self.peak_before_kw,
            "peak_after_kw": self.peak_after_kw,
            "peak_reduction_pct": 100.0 * (self.peak_before_kw - self.peak_after_kw) / self.peak_before_kw
            if self.peak_before_kw > 0 else 0.0,
            "rng_seed": self.rng_seed,
            "trace": [
                {
                    "iteration": p.iteration,
                    "objective": p.objective,
                    "cost_cents": p.cost_cents,
                    "load_shift_kwh": p.load_shift_kwh,
                    "violation": p.violation,
                }
                for p in self.trace
            ],
        }


def load_profile(values: Sequence) -> HourlyProfile:
    return HourlyProfile(np.asarray(values, dtype=float), ProfileKind.LOAD)


def price_profile(values: Sequence) -> HourlyProfile:
    return HourlyProfile(np.asarray(values, dtype=float), ProfileKind.PRICE)
