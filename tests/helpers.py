"""Shared oracles for the test modules: the exact optimum of a problem, the
objective and a DE generation as plain expressions, the row-by-row grid
search, the row-wise CSV reader, and scans that find Dataset rows the slow
way; and the writer of the CLI's hourly CSVs."""

import csv
from datetime import datetime, timedelta
from typing import Optional

import numpy as np

from loadshift.errors import InsufficientData, MissingColumn, UnparseableRow
from loadshift.ingest import LOAD_COLUMN, PRICE_COLUMN, REQUIRED_COLUMNS
from loadshift.objective import evaluate_batch
from loadshift.profiles import WEATHER_FEATURES, Dataset, load_profile


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


def write_hourly_csv(path, column, values):
    """A 24-row ``hour,<column>`` CSV, as the CLI's --predicted and --prices read."""
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(["hour", column])
        for hour, value in enumerate(values, start=1):
            writer.writerow([hour, repr(float(value))])


def plain_terms(problem, schedules):
    """(4, ...) cost, shift, violation and objective of (..., 24) schedules,
    one allocating expression per term: the reference the in-place
    evaluation must match bit for bit."""
    cost = schedules @ problem.prices.values
    shift = np.abs(schedules - problem.predicted.values).sum(axis=-1)
    ratio = schedules.sum(axis=-1) / float(np.sum(problem.predicted.values))
    viol = np.maximum(ratio - 1.0, 0.0)
    obj = (problem.w1 * cost / problem.e_cmax + problem.w2 * shift / problem.l_shmax
           + problem.alpha * viol)
    return np.array([cost, shift, viol, obj])


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


_CHUNK = 65_536


def reference_grid_search(reduced):
    """Row-by-row reference for ``gridsearch.grid_search``: every grid point
    is built as a 24-hour schedule and scored with ``evaluate_batch``.

    Best schedule over the full grid, ties broken toward the
    lexicographically smallest combination (first free hour lowest).

    Candidates are enumerated in ascending lexicographic order and only a
    strictly better objective displaces the incumbent, so the first best
    point encountered wins.  Work proceeds in chunks to bound memory.
    """
    base = reduced.base
    hours = reduced.free_hours
    res = reduced.grid_resolution
    grids = [
        np.linspace(base.lower_bounds[h], base.upper_bounds[h], res) for h in hours
    ]
    pinned = reduced.pinned_schedule()

    total = reduced.n_points
    # mixed-radix decode: first free hour is the most significant digit,
    # so ascending flat index == ascending lexicographic order
    radix = np.array(
        [res ** (len(hours) - 1 - k) for k in range(len(hours))], dtype=np.int64
    )

    best_objective = np.inf
    best_schedule = None
    for start in range(0, total, _CHUNK):
        flat = np.arange(start, min(start + _CHUNK, total), dtype=np.int64)
        schedules = np.tile(pinned, (len(flat), 1))
        for k, h in enumerate(hours):
            digit = (flat // radix[k]) % res
            schedules[:, h] = grids[k][digit]
        _, _, _, obj = evaluate_batch(base, schedules)
        i = int(np.argmin(obj))
        if obj[i] < best_objective:
            best_objective = float(obj[i])
            best_schedule = schedules[i].copy()

    return load_profile(best_schedule), best_objective


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

    if split_boundary is None:
        cut = int(split_fraction * len(rows))
        split_boundary = timestamps[cut] if cut < len(rows) else timestamps[-1] + timedelta(hours=1)

    n_weather = len(WEATHER_FEATURES)
    return Dataset(
        timestamps=timestamps,
        weather=values[:, :n_weather],
        load=values[:, n_weather],
        price=values[:, n_weather + 1] if has_price else None,
        split_boundary=split_boundary,
        allow_gaps=allow_gaps,
    )


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


def scan_n_train(dataset):
    return sum(1 for ts in dataset.timestamps if ts < dataset.split_boundary)


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
