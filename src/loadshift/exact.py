"""Exact optimum of a day-ahead problem, in closed form.

Each hour's cost and shift terms are piecewise linear in that hour alone,
with one kink at the predicted value, so the hour's minimum sits on one of
three candidates: the lower bound, the predicted value clipped into the
box, or the upper bound.  ``DrProblem`` refuses negative weights and
``HourlyProfile`` negative prices, so the upper bound never beats the
clipped prediction.  The per-hour argmin therefore schedules no hour above
its predicted load when every lower bound is at or below it, and the
excess penalty is exactly 0 there (rounding is monotone, so the float sum
cannot cross the predicted total either).  When the lower bounds sit
above the predicted load, every candidate is the lower bound, which also
has the least excess in the box.  Either way the argmin is the global
optimum, at O(24) per problem.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from .errors import LoadshiftError
from .objective import evaluate_batch
from .profiles import HOURS_PER_DAY, DrProblem, HourlyProfile, load_profile


def exact_optimum(problem: DrProblem) -> tuple[HourlyProfile, float]:
    """(schedule, objective) of the per-hour argmin over {lower,
    clip(predicted), upper}; ties go to the earlier candidate.  Raises
    LoadshiftError when the premise above fails, which only a problem built
    with lower bounds on both sides of the prediction can do."""
    lower, upper = problem.lower_bounds, problem.upper_bounds
    predicted = problem.predicted.values
    candidates = np.stack([lower, np.clip(predicted, lower, upper), upper])
    per_hour = (
        problem.w1 * candidates * problem.prices.values / problem.e_cmax
        + problem.w2 * np.abs(candidates - predicted) / problem.l_shmax
    )
    schedule = load_profile(candidates[np.argmin(per_hour, axis=0), np.arange(HOURS_PER_DAY)])
    _, _, violation, objective = evaluate_batch(problem, schedule.values[None])
    if violation[0] != 0.0 and not np.array_equal(schedule.values, lower):
        raise LoadshiftError(
            "the per-hour argmin schedules more energy than predicted without sitting at the "
            "lower bounds; the excess penalty couples the hours and the closed form does not apply"
        )
    return schedule, float(objective[0])


def pinned_problem(problem: DrProblem, hours) -> DrProblem:
    """``problem`` with every hour outside ``hours`` (indices 0..23) pinned to
    its predicted value clipped into the box: both of its bounds collapse to
    that value.  The normalizers are kept, so objective values stay on the
    scale of ``problem``."""
    hours = list(hours)
    pinned = np.clip(problem.predicted.values, problem.lower_bounds, problem.upper_bounds)
    lower, upper = pinned.copy(), pinned
    lower[hours], upper[hours] = problem.lower_bounds[hours], problem.upper_bounds[hours]
    return replace(problem, lower_bounds=lower, upper_bounds=upper)
