"""Differential evolution (rand/1/bin) on the same problem and budget as
the swarm, for head-to-head comparisons.

The population is one (n, 24) array and each generation is built as a
whole from one (n, 5 + 24) uniform draw: per member, three columns pick
the parents, one the scale factor (uniform in ``beta_range``), one the
forced crossover component and 24 the crossover mask.  The trials are
scored in one batch, and selection is greedy and strict: a trial only
replaces its target when it is genuinely better.  Every step writes into
buffers allocated once per ``optimize`` call; the population handed to
``on_iteration`` is changed in place by the next generation, so a
callback must copy anything it keeps.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, ClassVar, Optional

import numpy as np

from .common import Search
from .errors import InvalidOptimizerConfig
from .profiles import DrProblem, OptimizationResult


@dataclass
class DeConfig:
    population_size: int = 50
    iterations: int = 100
    seed: int = 0
    beta_range: ClassVar[tuple[float, float]] = (0.2, 0.8)
    crossover_probability: ClassVar[float] = 0.7

    def __post_init__(self) -> None:
        if self.population_size < 4:
            # rand/1 needs a target plus three distinct parents
            raise InvalidOptimizerConfig(
                f"population_size must be >= 4, got {self.population_size}")
        if self.iterations < 1:
            raise InvalidOptimizerConfig(f"iterations must be >= 1, got {self.iterations}")


class Workspace:
    """Scratch arrays of one run of n members in ``len(lower)`` dimensions,
    allocated once: a generation's (n, 5 + dims) uniforms; the parent
    indices, stored one role per row as (3, n), with the spans and the
    two (n,) helpers of their draw; the gathered (3, n, dims) parents; the
    donors and the crossover mask; the forced components' flat indices;
    and the box limits repeated to (n, dims)."""

    def __init__(self, n: int, lower: np.ndarray, upper: np.ndarray):
        dims = len(lower)
        self.draws = np.empty((n, 5 + dims))
        self.parents = np.empty((3, n), dtype=np.intp)
        self.spans = np.array([[n - 1], [n - 2], [n - 3]])
        self.after = np.arange(1, n + 1)   # offsets count from member i + 1
        self.skip = np.empty(n, dtype=bool)
        self.taken = np.empty(n, dtype=np.intp)
        self.picked = np.empty((3, n, dims))
        self.donors = np.empty((n, dims))
        self.keep_target = np.empty((n, dims), dtype=bool)
        self.forced = np.empty(n, dtype=np.intp)
        self.row_starts = np.arange(0, n * dims, dims)
        self.lower = np.tile(lower, (n, 1))
        self.upper = np.tile(upper, (n, 1))


def draw_parents(uniforms: np.ndarray, work: Workspace) -> np.ndarray:
    """(n, 3) parent indices from (n, 3) uniforms in [0, 1), written into
    ``work.parents``: row i holds three distinct members in random order,
    none of them member i, each ordered triple equally likely.

    Row i counts offsets k1, k2, k3 from member i + 1 (mod n), drawn
    without replacement from 0..n-2: k1 = floor(u0 (n - 1)), then
    k2 = floor(u1 (n - 2)) raised by one if it is >= k1, then
    k3 = floor(u2 (n - 3)) raised past min(k1, k2) and then max(k1, k2)."""
    n = len(uniforms)
    k, skip, taken = work.parents, work.skip, work.taken
    # a float-to-int cast truncates, which is floor on these nonnegative products
    np.multiply(uniforms.T, work.spans, out=k, casting="unsafe")
    k1, k2, k3 = k
    np.greater_equal(k2, k1, out=skip)
    k2 += skip
    np.minimum(k1, k2, out=taken)
    np.greater_equal(k3, taken, out=skip)
    k3 += skip
    np.maximum(k1, k2, out=taken)
    np.greater_equal(k3, taken, out=skip)
    k3 += skip
    k += work.after
    np.remainder(k, n, out=k)
    return k.T


def mutate(population: np.ndarray, parents: np.ndarray, beta: np.ndarray,
           work: Workspace) -> np.ndarray:
    """Donors pop[a] + beta * (pop[b] - pop[c]) for the (a, b, c) rows of
    ``parents``, clamped into the box, written into ``work.donors``.
    ``beta`` is a column of per-donor factors.  Rows are not checked for
    repeated parents, which would only give a valid but wasted donor."""
    picked, donors = work.picked, work.donors
    np.take(population, parents.T, axis=0, out=picked)
    np.subtract(picked[1], picked[2], out=donors)
    donors *= beta
    donors += picked[0]
    np.maximum(donors, work.lower, out=donors)
    np.minimum(donors, work.upper, out=donors)
    return donors


def crossover(targets: np.ndarray, donors: np.ndarray, uniforms: np.ndarray,
              crossover_probability: float, work: Workspace) -> np.ndarray:
    """Binomial crossover of (n, dims) targets and donors, in place: the
    donors become the trials.  Column 0 of the (n, 1 + dims) ``uniforms``
    forces one donor component per row, so every trial differs from its
    target in at least one position; component j also comes from the donor
    where column 1 + j is at most ``crossover_probability``."""
    dims = donors.shape[1]
    forced, keep_target = work.forced, work.keep_target
    np.multiply(uniforms[:, 0], dims, out=forced, casting="unsafe")
    forced += work.row_starts
    np.greater(uniforms[:, 1:], crossover_probability, out=keep_target)
    np.put(keep_target, forced, False)
    np.copyto(donors, targets, where=keep_target)
    return donors


def optimize(
    problem: DrProblem,
    config: DeConfig,
    on_iteration: Optional[Callable[[int, np.ndarray], None]] = None,
) -> OptimizationResult:
    """Run DE/rand/1/bin and return the best schedule found.

    Each generation builds all trial vectors first, scores them in one
    batch, then every trial that is strictly better replaces its target.
    """
    beta_lo, beta_hi = config.beta_range
    work = Workspace(config.population_size, problem.lower_bounds, problem.upper_bounds)
    draws = work.draws
    beta = draws[:, 3:4]
    search = Search(problem, config.seed, config.population_size)
    population = search.positions
    objectives = search.terms[3].copy()

    def step() -> np.ndarray:
        search.rng.random(out=draws)
        parents = draw_parents(draws[:, :3], work)
        np.multiply(beta, beta_hi - beta_lo, out=beta)
        np.add(beta, beta_lo, out=beta)
        trials = mutate(population, parents, beta, work)
        return crossover(population, trials, draws[:, 4:], config.crossover_probability, work)

    return search.run(config.iterations, step, population, objectives, on_iteration, population)
