"""Shared oracles for the test modules: the exact optimum of a problem, the
objective and a DE generation as plain expressions, the network's
unit stats and one-sample forward and backward passes, the row-wise CSV reader and
writer, the one-row-at-a-time forecast features, and scans that find
Dataset rows the slow way; the writer of the CLI's hourly CSVs; and a
run's initial population and a stand-in for its search box."""

import csv
from datetime import datetime, timedelta
from typing import Optional

import numpy as np

from loadshift.common import Search
from loadshift.errors import (
    DimensionMismatch,
    InsufficientData,
    InsufficientHistory,
    MissingColumn,
    MixedTimezones,
    UnparseableRow,
)
from loadshift.ingest import LOAD_COLUMN, PRICE_COLUMN, REQUIRED_COLUMNS, NormalizationStats, denormalize, normalize
from loadshift.mlp import _backprop, _forward_batch
from loadshift.objective import evaluate_batch
from loadshift.profiles import WEATHER_FEATURES, Dataset, time_axis


def corner_optimum(problem):
    """Exact minimizer for problems where the excess penalty stays inactive.

    For each hour the cost and shift terms are piecewise linear in that
    hour alone, so the hourly minimum sits on one of three candidates:
    the lower bound, the predicted value clipped into the box, or the
    upper bound.  With positive prices and nonnegative weights the upper
    bound never wins an hour, hence the argmin schedule never exceeds
    the predicted profile and its total-energy penalty is zero.  That
    makes the per-hour argmin the exact global minimizer.

    Returns (schedule, objective).  Raises if the premise fails.
    """
    lower = problem.lower_bounds
    upper = problem.upper_bounds
    pred = problem.predicted.values
    candidates = np.stack([lower, np.clip(pred, lower, upper), upper])
    per_hour = (
        problem.w1 * candidates * problem.prices.values / problem.e_cmax
        + problem.w2 * np.abs(candidates - pred) / problem.l_shmax
    )
    pick = np.argmin(per_hour, axis=0)
    schedule = candidates[pick, np.arange(len(pred))]
    if float(schedule.sum()) > float(pred.sum()) + 1e-9:
        raise AssertionError("corner argmin exceeds the predicted total; oracle does not apply")
    cost, shift, viol, obj = evaluate_batch(problem, schedule[None, :])
    if viol[0] != 0.0:
        raise AssertionError("corner argmin triggered the excess penalty; oracle does not apply")
    return schedule, float(obj[0])


def initial_positions(problem, size, rng):
    """A run's initial population as plain expressions, drawn from ``rng``:
    uniform in the box, member 0 the predicted profile clipped into it."""
    positions = rng.uniform(problem.lower_bounds, problem.upper_bounds, size=(size, 24))
    positions[0] = np.clip(problem.predicted.values, problem.lower_bounds, problem.upper_bounds)
    return positions


def search_box(n, lower, upper):
    """A stand-in for a run's ``common.Search`` that holds only its box:
    the bounds tiled to (n, dims), the scratch batch, and ``Search``'s own
    ``clamp``.  A step rule called on hand-made state reads nothing else."""
    box = object.__new__(Search)
    box.lower = np.tile(np.asarray(lower, dtype=float), (n, 1))
    box.upper = np.tile(np.asarray(upper, dtype=float), (n, 1))
    box.scratch = np.empty_like(box.lower)
    return box


def write_hourly_csv(path, column, values):
    """A 24-row ``hour,<column>`` CSV, as the CLI's --predicted and --prices read."""
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(["hour", column])
        for hour, value in enumerate(values, start=1):
            writer.writerow([hour, repr(float(value))])


def plain_terms(problem, schedules):
    """(4, ...) cost, shift, violation and objective of (..., 24) schedules,
    one allocating expression per term, the cost a 1-D np.dot per row as
    ``energy_cost`` takes it: the reference the in-place evaluation must
    match bit for bit."""
    rows = schedules.reshape(-1, 24)
    cost = np.array([np.dot(row, problem.prices.values) for row in rows]).reshape(schedules.shape[:-1])
    shift = np.abs(schedules - problem.predicted.values).sum(axis=-1)
    ratio = schedules.sum(axis=-1) / float(np.sum(problem.predicted.values))
    viol = np.maximum(ratio - 1.0, 0.0)
    obj = (problem.w1 * cost / problem.e_cmax + problem.w2 * shift / problem.l_shmax
           + problem.alpha * viol)
    return np.array([cost, shift, viol, obj])


def unit_stats():
    """Identity-friendly stats for toy networks: every feature scaled from [-1, 1]."""
    return NormalizationStats(np.full(6, -1.0), np.full(6, 1.0))


def _sample_activations(model, features):
    """``train``'s forward pass on one feature vector: the activations per layer."""
    x = np.asarray(features, dtype=float)
    if x.shape != (model.layer_sizes[0],):
        raise DimensionMismatch(f"expected feature vector of length {model.layer_sizes[0]}, got shape {x.shape}")
    return _forward_batch(model.weights, model.biases, x[None, :])


def forward(model, features) -> float:
    """Single-sample prediction in normalized units."""
    return float(_sample_activations(model, features)[-1][0, 0])


def backward(model, features, target: float):
    """Gradient of 0.5 * (forward(features) - target)^2 by ``train``'s
    reverse pass: (weight_grads, bias_grads), shaped like the model's
    parameters."""
    activations = _sample_activations(model, features)
    residual = activations[-1] - float(target)   # d(loss)/d(output), shape (1, 1)
    layers = len(model.weights)
    return _backprop(model.weights, activations, residual, ([None] * layers, [None] * layers), [None] * layers)


def de_generation(problem, population, objectives, uniforms, config):
    """One DE/rand/1/bin generation from its (n, 5 + 24) uniforms, one
    allocating expression per step: the reference the in-place generation
    must match bit for bit.  Columns 0-2 of ``uniforms`` pick the parents,
    3 the scale factor, 4 the forced component and the rest the crossover
    mask.  Returns the next population and its objectives."""
    n, dims = population.shape
    k1 = np.floor(uniforms[:, 0] * (n - 1)).astype(int)
    k2 = np.floor(uniforms[:, 1] * (n - 2)).astype(int)
    k2 = k2 + (k2 >= k1)
    k3 = np.floor(uniforms[:, 2] * (n - 3)).astype(int)
    k3 = k3 + (k3 >= np.minimum(k1, k2))
    k3 = k3 + (k3 >= np.maximum(k1, k2))
    a, b, c = ((np.arange(n) + 1 + k) % n for k in (k1, k2, k3))
    beta_lo, beta_hi = config.beta_range
    beta = beta_lo + (beta_hi - beta_lo) * uniforms[:, 3:4]
    donors = np.clip(population[a] + beta * (population[b] - population[c]),
                     problem.lower_bounds, problem.upper_bounds)
    forced = np.floor(uniforms[:, 4] * dims).astype(int)
    take = (uniforms[:, 5:] <= config.crossover_probability) | (np.arange(dims) == forced[:, None])
    trials = np.where(take, donors, population)
    trial_objectives = plain_terms(problem, trials)[3]
    better = trial_objectives < objectives
    return (np.where(better[:, None], trials, population),
            np.where(better, trial_objectives, objectives))


def reference_load_dataset(
    path,
    *,
    split_boundary: Optional[datetime] = None,
    split_fraction: float = 0.85,
    allow_gaps: bool = False,
) -> Dataset:
    """Row-wise reference for ``ingest.load_dataset``: every row is read with
    ``csv`` and every cell with ``float()``.

    Without ``split_boundary`` the split is chronological at
    ``split_fraction`` of the rows. The first faulty line of the file
    raises UnparseableRow; Dataset enforces the hourly cadence.
    """
    with open(path, newline="") as handle:
        reader = csv.reader(handle)
        header = next(reader, [])
        for canonical in REQUIRED_COLUMNS:
            if canonical not in header:
                raise MissingColumn(canonical)
        rows, lines = [], []
        for row in reader:
            if row:   # a blank line holds no row
                rows.append(row)
                lines.append(reader.line_num)

    has_price = PRICE_COLUMN in header
    value_names = WEATHER_FEATURES + (LOAD_COLUMN,) + ((PRICE_COLUMN,) if has_price else ())
    # a repeated header name refers to its last column
    position = {column: j for j, column in enumerate(header)}
    columns = {canonical: position[canonical] for canonical in ("timestamp",) + value_names}
    column = lambda canonical: [row[columns[canonical]] for row in rows]   # IndexError on a short row
    try:
        stamps = [datetime.fromisoformat(raw.strip()) for raw in column("timestamp")]
        values = np.column_stack([np.fromiter(map(float, column(c)), float, len(rows)) for c in value_names])
    except (ValueError, IndexError):
        values = None
    if values is None or not np.isfinite(values).all() or (values[:, len(WEATHER_FEATURES):] < 0).any():
        _reference_first_fault(rows, lines, columns, value_names)
    if len(rows) < 2:
        raise InsufficientData(f"dataset {path} has {len(rows)} rows; need at least 2")

    order = sorted(range(len(rows)), key=stamps.__getitem__)
    timestamps = tuple(stamps[i] for i in order)
    values = values[order]

    mixed = split_boundary is not None and (timestamps[0].utcoffset() is None) != (split_boundary.utcoffset() is None)
    if split_boundary is None:
        n_train = int(split_fraction * len(rows))
    else:   # naive and offset datetimes do not compare
        n_train = 0 if mixed else sum(1 for ts in timestamps if ts < split_boundary)

    n_weather = len(WEATHER_FEATURES)
    dataset = Dataset(
        *time_axis(timestamps),
        weather=values[:, :n_weather],
        load=values[:, n_weather],
        price=values[:, n_weather + 1] if has_price else None,
        n_train=n_train,
        allow_gaps=allow_gaps,
    )
    if mixed:
        raise MixedTimezones(f"split boundary {split_boundary} and timestamp {timestamps[0]} "
                             "must both carry a UTC offset or neither")
    return dataset


def _reference_first_fault(rows, lines, columns, value_names) -> None:
    """Raise UnparseableRow for the first faulty row, if any, checking each row in
    turn: its timestamp, then each value column in order, then the signs."""
    for row, line in zip(rows, lines):
        cell = lambda canonical: row[columns[canonical]] if columns[canonical] < len(row) else None
        try:
            datetime.fromisoformat(cell("timestamp").strip())
        except (ValueError, AttributeError) as exc:
            raise UnparseableRow(line, f"bad timestamp: {exc}") from exc
        values = {}
        for canonical in value_names:
            raw = cell(canonical)
            try:
                values[canonical] = float(raw)
            except (TypeError, ValueError) as exc:
                raise UnparseableRow(line, f"bad value {raw!r} in column {canonical!r}") from exc
            if not np.isfinite(values[canonical]):
                raise UnparseableRow(line, f"non-finite value in column {canonical!r}")
        for canonical, fault in ((LOAD_COLUMN, "negative load"), (PRICE_COLUMN, "negative price")):
            if values.get(canonical, 0.0) < 0:
                raise UnparseableRow(line, fault)


HOUR = timedelta(hours=1)


def scan_index_of(dataset, ts):
    """Row holding timestamp ``ts``, found by a scan; None if there is none."""
    return next((i for i, other in enumerate(dataset.timestamps) if other == ts), None)


def scan_day_indices(dataset, day):
    """Rows whose (local) date is ``day``, found by a scan."""
    return [i for i, ts in enumerate(dataset.timestamps) if ts.date() == day]


def scan_full_day_indices(dataset, day):
    """``scan_day_indices`` when those rows carry the wall-clock hours 0..23
    in order, else None."""
    rows = scan_day_indices(dataset, day)
    return rows if [dataset.timestamps[row].hour for row in rows] == list(range(24)) else None


def scan_windows(dataset, lag, horizon=24):
    """(last lag row, target row) of every window, found by a scan: the lag
    rows are consecutive hours and a row lies ``horizon`` hours after them."""
    pairs = []
    for end in range(lag - 1, len(dataset)):
        span = dataset.timestamps[end - lag + 1 : end + 1]
        if any(b - a != HOUR for a, b in zip(span, span[1:])):
            continue
        target = scan_index_of(dataset, dataset.timestamps[end] + horizon * HOUR)
        if target is not None:
            pairs.append((end, target))
    return pairs


def reference_day_features(model, dataset, day):
    """One-row-at-a-time reference for ``mlp.predict_day``'s input: the rows
    of ``day`` are found by a scan and must carry the hours 0..23 in order,
    the row 24 hours before each is found by timestamp, and its lag window
    is checked hour by hour. Returns the (24, 5 + lag) feature rows,
    normalized one by one. Raises InsufficientHistory for an incomplete day
    or for the first hour without a full lag history."""
    rows = scan_full_day_indices(dataset, day)
    if rows is None:
        raise InsufficientHistory(f"dataset does not contain all 24 hours of {day}")
    stats = model.norm_stats
    scales = [(stats.lo[j], stats.hi[j]) for j in range(len(WEATHER_FEATURES))]
    scales += [(stats.lo[-1], stats.hi[-1])] * model.lag
    feature_rows = []
    for row in rows:
        end = scan_index_of(dataset, dataset.timestamps[row] - 24 * HOUR)
        if end is None or end < model.lag - 1:
            raise InsufficientHistory(f"missing load history {24 + model.lag}h before {dataset.timestamps[row]}")
        span = dataset.timestamps[end - model.lag + 1 : end + 1]
        if any(b - a != HOUR for a, b in zip(span, span[1:])):
            raise InsufficientHistory(f"gap inside the lag window before {dataset.timestamps[row]}")
        features = np.concatenate([dataset.weather[row], dataset.load[end - model.lag + 1 : end + 1]])
        feature_rows.append([normalize(x, lo, hi) for x, (lo, hi) in zip(features, scales)])
    return np.array(feature_rows)


def reference_predict_day(model, dataset, day):
    """``reference_day_features`` forecast by one batched forward pass, as
    ``mlp.predict_day`` forecasts a day, so the two agree bit for bit; each
    hour is denormalized and clamped at zero on its own."""
    raw = _forward_batch(model.weights, model.biases, reference_day_features(model, dataset, day))[-1][:, 0]
    lo, hi = model.norm_stats.lo[-1], model.norm_stats.hi[-1]
    return np.array([max(float(denormalize(y, lo, hi)), 0.0) for y in raw])


def reference_synth_rows(config):
    """``synth``'s columns as one dict of formatted strings per row."""
    rng = np.random.default_rng(config.seed)
    n = config.days * 24
    t = np.arange(n)
    hour = t % 24
    day = t // 24

    temperature = (
        18.0
        + 4.0 * np.sin(2 * np.pi * day / 30.0)
        + 7.0 * np.cos(2 * np.pi * (hour - 15) / 24.0)
        + rng.normal(0.0, 0.6, size=n)
    )
    wind_speed = np.clip(
        5.0
        + 2.5 * np.sin(2 * np.pi * (hour - 3) / 24.0)
        + rng.normal(0.0, 0.8, size=n),
        0.0,
        None,
    )
    dew_point = temperature - 4.0 - np.abs(rng.normal(0.0, 1.5, size=n))
    heat_index = temperature + np.maximum(0.0, 0.4 * (dew_point - 14.0))
    cold_index = temperature - 0.4 * wind_speed

    load = np.clip(
        900.0
        + 250.0 * np.cos(2 * np.pi * (hour - 17) / 24.0)   # diurnal swing, peak near 17:00
        + 12.0 * (temperature - 18.0)
        + rng.normal(0.0, 15.0, size=n),
        50.0,
        None,
    )
    price = np.clip(
        5.0
        + 6.0 * np.exp(-((hour - 18.5) ** 2) / (2 * 2.0**2))   # Gaussian bump centred near 18:30
        + rng.normal(0.0, 0.15, size=n),
        0.5,
        None,
    )

    start = datetime(2024, 1, 1)
    rows = []
    for i in range(n):
        stamp = start + timedelta(hours=i)
        row = {
            "timestamp": stamp.isoformat(),
            "wind_speed": f"{wind_speed[i]:.2f}",
            "temperature": f"{temperature[i]:.2f}",
            "heat_index": f"{heat_index[i]:.2f}",
            "cold_index": f"{cold_index[i]:.2f}",
            "dew_point": f"{dew_point[i]:.2f}",
            LOAD_COLUMN: f"{load[i]:.3f}",
        }
        if config.include_price:
            row[PRICE_COLUMN] = f"{price[i]:.3f}"
        rows.append(row)
    return rows


def reference_synth_csv(config, path):
    """Row-wise reference for ``synth.write_csv``: every row is formatted
    on its own and written by ``csv.DictWriter``."""
    fieldnames = list(REQUIRED_COLUMNS)
    if config.include_price:
        fieldnames.append(PRICE_COLUMN)
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.DictWriter(handle, fieldnames=fieldnames)
        writer.writeheader()
        writer.writerows(reference_synth_rows(config))
