"""Pieces shared by the population optimizers."""

from __future__ import annotations

import numpy as np

from .objective import evaluate
from .profiles import DrProblem, OptimizationResult, TracePoint, load_profile, peak


def init_positions(problem: DrProblem, size: int, rng: np.random.Generator) -> np.ndarray:
    """Uniform positions in the box; member 0 at the predicted profile
    (clamped in) so the search never ends worse than no shifting."""
    positions = rng.uniform(
        problem.lower_bounds, problem.upper_bounds, size=(size, len(problem.lower_bounds))
    )
    positions[0] = np.clip(problem.predicted.values, problem.lower_bounds, problem.upper_bounds)
    return positions


class Incumbent:
    """Best schedule seen so far, plus the trace of its objective terms.

    Each ``offer`` of a scored batch appends one trace point.  The
    incumbent moves to the batch's lowest objective only when that is
    strictly lower, so on ties the earlier member keeps it.
    """

    def __init__(self, batch: np.ndarray, terms: tuple):
        self.position = None
        self.terms = ()
        self.trace: list[TracePoint] = []
        self.offer(batch, terms)

    def offer(self, batch: np.ndarray, terms: tuple) -> None:
        """``terms`` is the (cost, shift, violation, objective) of ``batch``."""
        i = int(np.argmin(terms[3]))
        if self.position is None or terms[3][i] < self.terms[3]:
            self.position = batch[i].copy()
            self.terms = tuple(float(t[i]) for t in terms)
        cost, shift, viol, obj = self.terms
        self.trace.append(TracePoint(len(self.trace), obj, cost, shift, viol))

    def result(self, problem: DrProblem, seed: int) -> OptimizationResult:
        schedule = load_profile(self.position)
        breakdown = evaluate(problem, schedule)
        return OptimizationResult(
            best_schedule=schedule,
            objective=breakdown.objective,
            cost_cents=breakdown.cost_cents,
            load_shift_kwh=breakdown.load_shift_kwh,
            violation=breakdown.violation,
            peak_before_kw=peak(problem.predicted),
            peak_after_kw=peak(schedule),
            trace=tuple(self.trace),
            rng_seed=seed,
        )
