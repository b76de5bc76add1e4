"""Shared oracles for the test modules: the exact optimum of a problem, the
row-by-row grid search, and scans that find Dataset rows the slow way."""

from datetime import timedelta

import numpy as np

from loadshift.objective import evaluate_batch
from loadshift.profiles import load_profile


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
