"""Exhaustive grid search over a handful of free hours.

An exhaustive reference, independent of the closed form in ``exact``:
the acceptance gate and the benchmark's smoke test judge the stochastic
optimizers against it.  All but a few hours are pinned to the predicted
profile clipped into the box, the free hours are discretized between
their bounds, and every combination is built as a 24-hour schedule and
scored.  No randomness anywhere, so the result is a fixed point for a
given problem.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import exact
from .errors import InvalidGrid
from .objective import evaluate_batch
from .profiles import HOURS_PER_DAY, DrProblem, HourlyProfile, load_profile

_CHUNK = 65_536   # grid points built and scored per step


@dataclass(frozen=True)
class ReducedProblem:
    """A DrProblem with at most four hours left free to vary.

    ``free_hours`` are hour indices 0..23; every other hour is pinned as
    ``exact.pinned_problem`` pins it, to the predicted value clamped into
    its bounds.  Each free hour gets ``grid_resolution`` evenly spaced
    candidates from its lower to its upper bound, endpoints included.
    """

    base: DrProblem
    free_hours: tuple
    grid_resolution: int

    def __post_init__(self):
        hours = tuple(int(h) for h in self.free_hours)
        if len(hours) == 0 or len(hours) > 4:
            raise InvalidGrid(f"free_hours must name 1..4 hours, got {len(hours)}")
        if len(set(hours)) != len(hours):
            raise InvalidGrid(f"free_hours must be distinct, got {hours}")
        if any(h < 0 or h >= HOURS_PER_DAY for h in hours):
            raise InvalidGrid(f"free_hours must lie in 0..23, got {hours}")
        if self.grid_resolution < 2:
            raise InvalidGrid(f"grid_resolution must be >= 2, got {self.grid_resolution}")
        object.__setattr__(self, "free_hours", tuple(sorted(hours)))

    @property
    def n_points(self) -> int:
        return self.grid_resolution ** len(self.free_hours)


def grid_search(reduced: ReducedProblem) -> tuple[HourlyProfile, float]:
    """Best schedule over the full grid, ties broken toward the
    lexicographically smallest combination (first free hour lowest).

    Grid points are enumerated in C order, the first free hour the most
    significant digit, so ascending flat index is ascending lexicographic
    order; only a strictly lower score displaces the incumbent.
    """
    base, hours, res = reduced.base, list(reduced.free_hours), reduced.grid_resolution
    grids = np.array([np.linspace(base.lower_bounds[h], base.upper_bounds[h], res) for h in hours])
    pinned = exact.pinned_problem(base, hours).lower_bounds
    best_objective = np.inf
    for start in range(0, reduced.n_points, _CHUNK):
        flat = np.arange(start, min(start + _CHUNK, reduced.n_points))
        digits = np.stack(np.unravel_index(flat, (res,) * len(hours)), axis=1)
        schedules = np.tile(pinned, (len(flat), 1))
        schedules[:, hours] = grids[np.arange(len(hours)), digits]
        obj = evaluate_batch(base, schedules)[3]
        i = int(np.argmin(obj))
        if obj[i] < best_objective:
            best_objective, best_schedule = obj[i], schedules[i].copy()
    return load_profile(best_schedule), float(best_objective)
