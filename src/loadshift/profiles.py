"""Core domain types: hourly profiles, datasets, problems, results.

Unit conventions live here and nowhere else: load is kWh per hour, price
is cents per kWh, daily cost is cents, peaks are reported in kW
(numerically the max hourly kWh value). Hours are numbered 1..24 in file
formats and documentation, 0..23 in array indices.

All types are immutable after construction and safe to share between
concurrent evaluators.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from datetime import date, datetime, timedelta, timezone
from enum import Enum
from functools import cached_property
from typing import Optional, Sequence

import numpy as np

from .errors import InsufficientData, InvalidBounds, MissingPrices, NonHourlyCadence, ZeroPredictedTotal

HOURS_PER_DAY = 24

WEATHER_FEATURES = ("wind_speed", "temperature", "heat_index", "cold_index", "dew_point")

_HOUR_MICROS = 3_600_000_000
_EPOCH = datetime(1970, 1, 1)
_EPOCH_UTC = _EPOCH.replace(tzinfo=timezone.utc)
_DAY_MICROS = 24 * _HOUR_MICROS
_MICROSECOND = timedelta(microseconds=1)
_DAY_HOURS = list(range(HOURS_PER_DAY))


def time_axis(timestamps: Sequence[datetime]) -> tuple:
    """(micros, offsets) of datetimes that are all naive or all carry a UTC
    offset: int64 microseconds since 1970, of wall time or of UTC, and each
    one's UTC offset in microseconds, or None when they are naive. Mixing
    naive and offset datetimes raises TypeError."""
    n = len(timestamps)
    if n == 0 or timestamps[0].utcoffset() is None:
        return np.fromiter(((ts - _EPOCH) // _MICROSECOND for ts in timestamps), np.int64, n), None
    micros = np.fromiter(((ts - _EPOCH_UTC) // _MICROSECOND for ts in timestamps), np.int64, n)
    return micros, np.fromiter((ts.utcoffset() // _MICROSECOND for ts in timestamps), np.int64, n)


def _frozen_array(values, shape=None, dtype=float) -> np.ndarray:
    arr = np.array(values, dtype=dtype)
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
        if not np.isfinite(arr).all():
            raise ValueError("hourly profile contains non-finite values")
        if (arr < 0).any():
            raise ValueError("hourly profile contains negative values")


def peak(profile: HourlyProfile) -> float:
    """Largest hourly value of the profile."""
    return float(np.max(profile.values))


def total(profile: HourlyProfile) -> float:
    """Sum of the 24 hourly values."""
    return float(np.sum(profile.values))


@dataclass(frozen=True)
class Dataset:
    """Aligned hourly time series of weather, load and (optionally) price.

    Time is held as arrays: ``micros`` counts microseconds since 1970, of
    wall time for naive rows or of UTC for rows that carry a UTC offset,
    and ``offsets`` holds each row's UTC offset in microseconds, or is None
    for naive rows. Rows are sorted by time. The first ``n_train`` rows are
    the training partition; every later row is test.
    Consecutive rows are one hour apart unless ``allow_gaps``; then any
    later time may follow. Row lookups are binary searches over ``micros``.
    """

    micros: np.ndarray             # (n,) int64
    offsets: Optional[np.ndarray]  # (n,) int64, or None
    weather: np.ndarray            # (n, 5), columns in WEATHER_FEATURES order
    load: np.ndarray               # (n,) kWh
    price: Optional[np.ndarray]    # (n,) c/kWh, or None
    n_train: int
    allow_gaps: bool = False

    def __post_init__(self):
        micros = _frozen_array(self.micros, dtype=np.int64)
        n = len(micros)
        object.__setattr__(self, "micros", micros)
        if self.offsets is not None:
            object.__setattr__(self, "offsets", _frozen_array(self.offsets, shape=(n,), dtype=np.int64))
        object.__setattr__(self, "weather", _frozen_array(self.weather, shape=(n, len(WEATHER_FEATURES))))
        object.__setattr__(self, "load", _frozen_array(self.load, shape=(n,)))
        if self.price is not None:
            object.__setattr__(self, "price", _frozen_array(self.price, shape=(n,)))
        steps = np.diff(micros)
        faulty = steps <= 0 if self.allow_gaps else steps != _HOUR_MICROS
        if faulty.any():
            i = int(np.argmax(faulty))
            earlier, later = self.timestamp(i), self.timestamp(i + 1)
            if steps[i] <= 0:
                raise NonHourlyCadence(later, "duplicate or out-of-order timestamp")
            raise NonHourlyCadence(later, f"expected {earlier + timedelta(hours=1)} one hour after {earlier}")
        if not 0 <= self.n_train <= n:
            raise ValueError(f"n_train must lie in 0..{n}, got {self.n_train}")
        gaps = steps != _HOUR_MICROS
        # _gaps[i] counts the gaps before row i, so rows a..b hold no gap
        # exactly when _gaps[a] == _gaps[b]
        object.__setattr__(self, "_gaps", np.concatenate(([0], np.cumsum(gaps))))

    def __len__(self) -> int:
        return len(self.micros)

    def timestamp(self, row: int) -> datetime:
        """The timestamp of one row, with its UTC offset as a fixed-offset zone."""
        offset = 0 if self.offsets is None else int(self.offsets[row])
        wall = _EPOCH + timedelta(microseconds=int(self.micros[row]) + offset)
        return wall if self.offsets is None else wall.replace(tzinfo=timezone(timedelta(microseconds=offset)))

    @cached_property
    def timestamps(self) -> tuple:
        """Every row's timestamp, built on first use."""
        return tuple(map(self.timestamp, range(len(self))))

    def shifted_rows(self, rows: np.ndarray, hours: int) -> np.ndarray:
        """Index of the row ``hours`` after each of ``rows`` (before, if negative); -1 if absent."""
        want = self.micros[rows] + hours * _HOUR_MICROS
        found = np.minimum(np.searchsorted(self.micros, want), len(self) - 1)
        return np.where(self.micros[found] == want, found, -1)

    def contiguous(self, first: np.ndarray, last: np.ndarray) -> np.ndarray:
        """Whether each span of rows first..last holds no gap."""
        return self._gaps[first] == self._gaps[last]

    def full_day_indices(self, day: date) -> Optional[np.ndarray]:
        """Row indices of ``day``, in time order, when its rows carry the
        wall-clock hours 0..23 once each (a row's wall time floored to the
        hour); None when the day is incomplete."""
        # a UTC offset is less than a day, so the day's rows lie within a
        # day either side of its span in wall time
        days = (day - _EPOCH.date()).days
        lo, hi = np.searchsorted(self.micros, ((days - 1) * _DAY_MICROS, (days + 2) * _DAY_MICROS))
        wall = self.micros[lo:hi] if self.offsets is None else self.micros[lo:hi] + self.offsets[lo:hi]
        hours = (wall - days * _DAY_MICROS) // _HOUR_MICROS
        # a row of another day has a negative hour or one above 23; read as
        # unsigned, a negative hour is huge, so one comparison finds the day
        inside = np.flatnonzero(hours.view(np.uint64) < HOURS_PER_DAY)
        return lo + inside if hours[inside].tolist() == _DAY_HOURS else None

    def day_profile(self, day: date, kind: ProfileKind = ProfileKind.LOAD) -> HourlyProfile:
        """Actual load (or price) profile of a complete day in the dataset."""
        source = self.load if kind is ProfileKind.LOAD else self.price
        if source is None:
            raise MissingPrices("dataset has no price column")
        idx = self.full_day_indices(day)
        if idx is None:
            raise InsufficientData(f"dataset does not contain all 24 hours of {day}")
        return HourlyProfile(source[idx], kind)


@dataclass(frozen=True)
class DrProblem:
    """One day-ahead load shifting instance.

    ``w1`` weighs the cost term, ``w2`` the shift term, ``alpha`` the
    penalty on scheduling more total energy than predicted. ``e_cmax``
    (cents) and ``l_shmax`` (kWh) scale the two criteria so they are
    dimensionless and comparable. Construction checks every field, so
    each problem that exists is well posed, and sets ``predicted_total``,
    which every objective evaluation divides by.
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
    predicted_total: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.predicted.kind is not ProfileKind.LOAD or self.prices.kind is not ProfileKind.PRICE:
            raise InvalidBounds("a problem needs a load profile and a price profile")
        object.__setattr__(self, "predicted_total", total(self.predicted))
        if self.predicted_total <= 0:
            raise ZeroPredictedTotal("predicted profile has zero total load")
        lo, hi = _frozen_array(self.lower_bounds), _frozen_array(self.upper_bounds)
        object.__setattr__(self, "lower_bounds", lo)
        object.__setattr__(self, "upper_bounds", hi)
        # each comparison below is false for NaN, so NaN fails every check
        if (lo.shape != (HOURS_PER_DAY,) or hi.shape != lo.shape
                or not np.all((0 <= lo) & (lo <= hi) & (hi < np.inf))):
            raise InvalidBounds("bounds must be 24 finite values with 0 <= lower <= upper per hour")
        if not (0 <= self.w1 < np.inf and 0 <= self.w2 < np.inf):
            raise InvalidBounds(f"weights must be finite and nonnegative, got ({self.w1}, {self.w2})")
        if not all(0 < value < np.inf for value in (self.e_cmax, self.l_shmax, self.alpha)):
            raise InvalidBounds(f"e_cmax, l_shmax and alpha must be finite and positive, "
                                f"got ({self.e_cmax}, {self.l_shmax}, {self.alpha})")


@dataclass(frozen=True)
class OptimizationResult:
    """Outcome of one optimizer run on a DrProblem.  Its scores are those of
    the trace's last point, the best schedule's breakdown."""

    best_schedule: HourlyProfile
    peak_before_kw: float
    peak_after_kw: float
    trace: tuple          # the best ObjectiveBreakdown after each iteration, from 0 on
    rng_seed: int

    @property
    def objective(self) -> float:
        return self.trace[-1].objective

    @property
    def cost_cents(self) -> float:
        return self.trace[-1].cost_cents

    @property
    def load_shift_kwh(self) -> float:
        return self.trace[-1].load_shift_kwh

    @property
    def violation(self) -> float:
        return self.trace[-1].violation

    @property
    def peak_reduction_pct(self) -> float:
        """Percent by which the schedule lowers the predicted peak (0 for a zero peak)."""
        if self.peak_before_kw <= 0:
            return 0.0
        return 100.0 * (self.peak_before_kw - self.peak_after_kw) / self.peak_before_kw

    def to_json_dict(self) -> dict:
        return {
            **vars(self.trace[-1]),
            "best_schedule_kwh": [float(v) for v in self.best_schedule.values],
            "cost_dollars": self.cost_cents / 100.0,
            "peak_before_kw": self.peak_before_kw,
            "peak_after_kw": self.peak_after_kw,
            "peak_reduction_pct": self.peak_reduction_pct,
            "rng_seed": self.rng_seed,
            "trace": [{"iteration": i, **vars(point)} for i, point in enumerate(self.trace)],
        }


def load_profile(values: Sequence) -> HourlyProfile:
    return HourlyProfile(np.asarray(values, dtype=float), ProfileKind.LOAD)


def price_profile(values: Sequence) -> HourlyProfile:
    return HourlyProfile(np.asarray(values, dtype=float), ProfileKind.PRICE)
