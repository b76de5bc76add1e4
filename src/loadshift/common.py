"""The run state and the loop shared by the population optimizers.

A ``Search`` allocates every buffer the two optimizers share, once per
run: the (n, 24) positions, kept positions and scratch batch, the box
tiled to (n, 24), the (4, n) scores, the kept objectives and the
improvement mask, and the block of uniforms.  It draws the initial
population too, and ``Search.keep`` is the only way a batch enters a run."""

from __future__ import annotations

import math
from typing import Callable, Iterator, Optional

import numpy as np

from . import objective
from .profiles import DrProblem, OptimizationResult, load_profile, peak

BLOCK_VALUES = 2 ** 14   # cap on the uniforms of one block: 128 KiB of float64


def block_length(iterations: int, values_per_iteration: int) -> int:
    """Iterations per block of uniforms: as many as fit ``BLOCK_VALUES``
    values, at least one and at most ``iterations``."""
    return max(1, min(iterations, BLOCK_VALUES // values_per_iteration))


class Search:
    """The state of one population-optimizer run and the loop that moves it.

    A ``Search`` owns the RNG, the positions and their scores, each
    member's best position and objective so far (``kept`` and
    ``kept_objectives``), and the best schedule seen so far with the trace
    of its ``ObjectiveBreakdown``, one per iteration from the initial
    positions (iteration 0) on; ``run`` allocates the block of uniforms.
    It also owns the search box: the problem's bounds tiled to (n, dims)
    as ``lower`` and ``upper``, which ``clamp`` applies, and one (n, dims)
    ``scratch`` batch for the step rule.  An optimizer adds its setup and
    its step rule, and reads and writes these arrays in place.

    The initial positions are the stream's first draw, uniform in the box,
    with member 0 at the predicted profile so the search never ends worse
    than no shifting; they are clamped and kept as every later batch is.

    After the set-up draws, the loop takes the uniforms of several
    iterations in one draw, a block of at most ``BLOCK_VALUES`` values and
    never past the last iteration.  One draw of k rows gives the same
    values as k draws of one row, so the stream reads as it would one
    iteration at a time.

    The incumbent moves to a batch's lowest objective only when that is
    strictly lower, so on ties the earlier member keeps it.
    """

    def __init__(self, problem: DrProblem, seed: int, size: int):
        self.problem, self.seed = problem, seed
        self.rng = np.random.default_rng(seed)
        self.lower = np.tile(problem.lower_bounds, (size, 1))
        self.upper = np.tile(problem.upper_bounds, (size, 1))
        self.scratch = np.empty_like(self.lower)
        self.positions = self.rng.uniform(problem.lower_bounds, problem.upper_bounds, size=self.lower.shape)
        self.positions[0] = problem.predicted.values
        self.clamp(self.positions, self.positions)
        self.terms = np.empty((4, size))
        self.kept = np.empty_like(self.lower)
        self.kept_objectives = np.full(size, np.inf)
        self.improved = np.empty(size, dtype=bool)
        self.trace: list[objective.ObjectiveBreakdown] = []
        self.keep(self.positions)

    def clamp(self, batch: np.ndarray, out: np.ndarray) -> np.ndarray:
        """``batch`` clamped into the box, written into ``out``."""
        np.maximum(batch, self.lower, out=out)
        return np.minimum(out, self.upper, out=out)

    def keep(self, batch: np.ndarray) -> None:
        """Score ``batch``, let each row that is strictly better than its row
        of ``kept`` replace it, and append the best breakdown after it to
        the trace; the first batch always sets the incumbent."""
        terms = objective.evaluate_batch(self.problem, batch, out=self.terms)
        objectives = terms[3]
        np.less(objectives, self.kept_objectives, out=self.improved)
        np.copyto(self.kept, batch, where=self.improved[:, None])
        np.copyto(self.kept_objectives, objectives, where=self.improved)
        i = int(np.argmin(objectives))
        best = self.trace[-1] if self.trace else None
        if best is None or objectives[i] < best.objective:
            self.best_position = batch[i].copy()
            best = objective.ObjectiveBreakdown(*(float(t[i]) for t in terms))
        self.trace.append(best)

    def run(self, iterations: int, draw_shape: tuple,
            block: Callable[[np.ndarray], Iterator[np.ndarray]],
            on_iteration: Optional[Callable], state) -> OptimizationResult:
        """Call ``on_iteration(0, state)``, then run the iterations in blocks:
        draw the uniforms of up to ``block_length`` iterations at once, one
        ``draw_shape`` row per iteration, and hand them to ``block``, which
        yields one batch per row.  Keep each batch, then call
        ``on_iteration(i, state)`` for iteration i, if given."""
        uniforms = np.empty((block_length(iterations, math.prod(draw_shape)), *draw_shape))
        if on_iteration is not None:
            on_iteration(0, state)
        iteration = 0
        while iteration < iterations:
            drawn = self.rng.random(out=uniforms[:iterations - iteration])
            for batch in block(drawn):
                self.keep(batch)
                iteration += 1
                if on_iteration is not None:
                    on_iteration(iteration, state)
        return self.result()

    def result(self) -> OptimizationResult:
        """The incumbent, whose scores are the trace's last point."""
        schedule = load_profile(self.best_position)
        return OptimizationResult(
            best_schedule=schedule,
            peak_before_kw=peak(self.problem.predicted),
            peak_after_kw=peak(schedule),
            trace=tuple(self.trace),
            rng_seed=self.seed,
        )
