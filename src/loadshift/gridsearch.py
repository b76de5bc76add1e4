"""Exhaustive grid search over a handful of free hours.

An exhaustive reference, independent of the closed form in ``exact``:
the acceptance gate and the benchmark's smoke test judge the stochastic
optimizers against it.  All but a few hours are pinned to the predicted
profile, the free hours are discretized between their bounds, and every
combination is screened; the few near the screen minimum are scored
exactly.  No randomness anywhere, so the result is a fixed point for a
given problem.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce

import numpy as np

from . import exact
from .errors import GridTooLarge, InvalidGrid
from .objective import evaluate_batch
from .profiles import HOURS_PER_DAY, DrProblem, HourlyProfile, load_profile

MAX_GRID_POINTS = 10_000_000
_BLOCK = 65_536   # grid points screened (and at most rows re-scored) per step
_MARGIN = 1e-9    # re-score points within this * (screen minimum + alpha)


@dataclass(frozen=True)
class ReducedProblem:
    """A DrProblem with at most four hours left free to vary.

    ``free_hours`` are hour indices 0..23; every other hour is pinned to
    the predicted value (clamped into its bounds).  Each free hour gets
    ``grid_resolution`` evenly spaced candidates from its lower to its
    upper bound, endpoints included.
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
        if self.n_points > MAX_GRID_POINTS:
            raise GridTooLarge(f"{self.n_points} grid points exceed the {MAX_GRID_POINTS} cap")

    @property
    def n_points(self) -> int:
        return self.grid_resolution ** len(self.free_hours)

    def pinned_schedule(self) -> np.ndarray:
        """Predicted profile clamped into the box; free hours overwritten
        during the search."""
        return np.clip(self.base.predicted.values, self.base.lower_bounds, self.base.upper_bounds)


def pinned_problem(reduced: ReducedProblem) -> DrProblem:
    """The same objective restricted to the free hours: bounds of every
    pinned hour collapse to the pinned value.  Normalizers are kept from
    the base problem so objective values stay comparable."""
    return exact.pinned_problem(reduced.base, reduced.free_hours)


def _grid_sums(vectors, start: float) -> np.ndarray:
    """start + vectors[0][i] + vectors[1][j] + ... for every index tuple, in C order."""
    return reduce(np.add.outer, vectors, np.array([start])).ravel()


def grid_search(reduced: ReducedProblem) -> tuple[HourlyProfile, float]:
    """Best schedule over the full grid, ties broken toward the
    lexicographically smallest combination (first free hour lowest).

    Pinned hours add a constant, each free hour its own cost and shift
    term, and the excess penalty depends only on the total, so a screen
    sums per-hour terms over the grid in C order (flat index order is
    lexicographic).  All terms are nonnegative and the one cancellation,
    ratio - 1, is scaled by alpha, so rounding stays far inside the
    margin.  Points within it of the running screen minimum are built and
    scored with ``evaluate_batch``; only a strictly lower score displaces
    the incumbent.
    """
    base, hours, res = reduced.base, list(reduced.free_hours), reduced.grid_resolution
    grids = np.array([np.linspace(base.lower_bounds[h], base.upper_bounds[h], res) for h in hours])
    pinned = reduced.pinned_schedule()
    rest = np.delete(np.arange(HOURS_PER_DAY), hours)
    per_hour = lambda x, h: (
        base.w1 * base.prices.values[h] * x / base.e_cmax
        + base.w2 * np.abs(x - base.predicted.values[h]) / base.l_shmax
    )
    terms = per_hour(grids, np.array(hours)[:, None])
    # trailing axes that fit in one block are summed whole (inner), leading
    # ones are stepped through (outer): no step holds over _BLOCK points
    split = next(a for a in range(len(hours) + 1) if res ** (len(hours) - a) <= _BLOCK)
    outer_terms = _grid_sums(terms[:split], per_hour(pinned[rest], rest).sum())
    outer_totals = _grid_sums(grids[:split], pinned[rest].sum())
    inner_terms, inner_totals = _grid_sums(terms[split:], 0.0), _grid_sums(grids[split:], 0.0)
    step, total = max(1, _BLOCK // len(inner_terms)), np.sum(base.predicted.values)
    cutoff = lambda low: low + _MARGIN * (low + base.alpha)

    best_screen = best_objective = np.inf
    for start in range(0, len(outer_terms), step):
        block = slice(start, start + step)
        excess = np.maximum((outer_totals[block, None] + inner_totals) / total - 1.0, 0.0)
        screen = outer_terms[block, None] + inner_terms + base.alpha * excess
        if screen.min() > cutoff(best_screen):
            continue
        best_screen = min(best_screen, screen.min())
        flat = start * len(inner_terms) + np.flatnonzero(screen <= cutoff(best_screen))
        digits = np.stack(np.unravel_index(flat, (res,) * len(hours)), axis=1)
        schedules = np.tile(pinned, (len(flat), 1))
        schedules[:, hours] = grids[np.arange(len(hours)), digits]
        obj = evaluate_batch(base, schedules)[3]
        i = int(np.argmin(obj))
        if obj[i] < best_objective:
            best_objective, best_schedule = float(obj[i]), schedules[i].copy()

    return load_profile(best_schedule), best_objective
