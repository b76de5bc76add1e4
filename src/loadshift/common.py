"""Pieces shared by the population optimizers."""

from __future__ import annotations

from typing import Callable, Optional

import numpy as np

from . import objective
from .profiles import DrProblem, OptimizationResult, load_profile, peak


def init_positions(problem: DrProblem, size: int, rng: np.random.Generator) -> np.ndarray:
    """Uniform positions in the box; member 0 at the predicted profile
    (clamped in) so the search never ends worse than no shifting."""
    positions = rng.uniform(
        problem.lower_bounds, problem.upper_bounds, size=(size, len(problem.lower_bounds))
    )
    positions[0] = np.clip(problem.predicted.values, problem.lower_bounds, problem.upper_bounds)
    return positions


class Search:
    """What every population-optimizer run shares: the RNG, the initial
    positions and their scores, the iteration loop with its ``on_iteration``
    calls, the greedy keep of each scored batch, and the best schedule seen
    so far with the trace of its ``ObjectiveBreakdown``, one per iteration
    from the initial positions (iteration 0) on.

    The incumbent moves to a batch's lowest objective only when that is
    strictly lower, so on ties the earlier member keeps it.
    """

    def __init__(self, problem: DrProblem, seed: int, size: int):
        self.problem, self.seed = problem, seed
        self.rng = np.random.default_rng(seed)
        self.positions = init_positions(problem, size, self.rng)
        self.terms = objective.evaluate_batch(problem, self.positions)
        self.improved = np.empty(size, dtype=bool)
        self.trace: list[objective.ObjectiveBreakdown] = []
        self.offer(self.positions)

    def offer(self, batch: np.ndarray) -> None:
        """Append the best breakdown after ``batch``, scored in ``self.terms``,
        to the trace; the first batch offered always sets the incumbent."""
        objectives = self.terms[3]
        i = int(np.argmin(objectives))
        best = self.trace[-1] if self.trace else None
        if best is None or objectives[i] < best.objective:
            self.best_position = batch[i].copy()
            best = objective.ObjectiveBreakdown(*(float(t[i]) for t in self.terms))
        self.trace.append(best)

    def keep(self, batch: np.ndarray, kept: np.ndarray, kept_objectives: np.ndarray) -> None:
        """Score ``batch``, let each row that is strictly better than its row
        of ``kept`` replace it, and offer the batch."""
        terms = objective.evaluate_batch(self.problem, batch, out=self.terms)
        np.less(terms[3], kept_objectives, out=self.improved)
        np.copyto(kept, batch, where=self.improved[:, None])
        np.copyto(kept_objectives, terms[3], where=self.improved)
        self.offer(batch)

    def run(self, iterations: int, step: Callable[[], np.ndarray], kept: np.ndarray,
            kept_objectives: np.ndarray, on_iteration: Optional[Callable], state) -> OptimizationResult:
        """Call ``on_iteration(0, state)``, then for i = 1..iterations keep the
        batch ``step()`` returns and call ``on_iteration(i, state)``, if given."""
        if on_iteration is not None:
            on_iteration(0, state)
        for iteration in range(1, iterations + 1):
            self.keep(step(), kept, kept_objectives)
            if on_iteration is not None:
                on_iteration(iteration, state)
        return self.result()

    def result(self) -> OptimizationResult:
        """The incumbent, scored as its batch scored it: the last trace point."""
        schedule = load_profile(self.best_position)
        breakdown = self.trace[-1]
        return OptimizationResult(
            best_schedule=schedule,
            objective=breakdown.objective,
            cost_cents=breakdown.cost_cents,
            load_shift_kwh=breakdown.load_shift_kwh,
            violation=breakdown.violation,
            peak_before_kw=peak(self.problem.predicted),
            peak_after_kw=peak(schedule),
            trace=tuple(self.trace),
            rng_seed=self.seed,
        )
