"""Exact optimum of a day-ahead problem, and the checks built on it.

The benchmark keeps its own copy of the reference so that a change to
the program cannot also change the yardstick it is measured against.
"""

import numpy as np


class CheckFailed(Exception):
    """An output of the program failed a correctness check."""


def objective(problem, schedules):
    """The documented objective, for a (..., 24) array of schedules."""
    pred = problem.predicted.values
    cost = schedules @ problem.prices.values
    shift = np.abs(schedules - pred).sum(axis=-1)
    excess = np.maximum(schedules.sum(axis=-1) / pred.sum() - 1.0, 0.0)
    return (
        problem.w1 * cost / problem.e_cmax
        + problem.w2 * shift / problem.l_shmax
        + problem.alpha * excess
    )


def exact_optimum(problem):
    """Per-hour argmin over {lower, clip(predicted), upper}: (schedule, objective).

    Each hour's cost and shift terms are piecewise linear in that hour
    alone, so its minimum sits on one of the three candidates.  With
    nonnegative prices and weights the upper bound never wins an hour, so
    the argmin never exceeds the predicted total, the excess penalty stays
    zero and the argmin is the global minimizer.  Raises CheckFailed when
    that premise does not hold.
    """
    if getattr(problem, "symmetric_violation", False):
        raise CheckFailed("exact reference needs the one-sided excess penalty")
    lower = problem.lower_bounds
    upper = problem.upper_bounds
    pred = problem.predicted.values
    candidates = np.stack([lower, np.clip(pred, lower, upper), upper])
    per_hour = (
        problem.w1 * candidates * problem.prices.values / problem.e_cmax
        + problem.w2 * np.abs(candidates - pred) / problem.l_shmax
    )
    schedule = candidates[np.argmin(per_hour, axis=0), np.arange(len(pred))]
    if float(schedule.sum()) > float(pred.sum()) + 1e-9:
        raise CheckFailed("corner argmin exceeds the predicted total; reference does not apply")
    return schedule, float(objective(problem, schedule))


def check_result(problem, schedule, value, trace, optimum):
    """Checks every optimizer result must pass; returns the relative gap."""
    schedule = np.asarray(schedule, dtype=float)
    if np.any(schedule < problem.lower_bounds) or np.any(schedule > problem.upper_bounds):
        raise CheckFailed("schedule leaves the box")
    if value < optimum - 1e-9:
        raise CheckFailed(f"objective {value!r} is below the exact optimum {optimum!r}")
    if any(b > a for a, b in zip(trace, trace[1:])):
        raise CheckFailed("best-objective trace increases")
    return (value - optimum) / optimum if optimum > 0 else value - optimum


def check_forecast(values):
    values = np.asarray(values, dtype=float)
    if values.shape != (24,) or not np.all(np.isfinite(values)) or np.any(values < 0):
        raise CheckFailed("forecast is not 24 finite non-negative values")
    return values


def ape(predicted, actual):
    """Absolute percentage errors of one forecast day."""
    return 100.0 * np.abs(np.asarray(predicted) - actual) / actual
