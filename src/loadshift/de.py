"""Differential evolution (rand/1/bin) on the same problem and budget as
the swarm, for head-to-head comparisons.

The population is one (n, 24) array and every generation is built as a
whole: one draw each of the parent triples, the scale factors, the
forced crossover indices and the crossover mask, then one batch
evaluation.  The scale factor is not fixed: each member's mutation draws
its own uniformly from ``beta_range``.  Selection is greedy and strict,
so a trial only replaces its parent when it is genuinely better.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, ClassVar, Optional

import numpy as np

from . import objective
from .common import Incumbent, init_positions
from .errors import InvalidOptimizerConfig, NonDistinctParents
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


def draw_parents(size: int, rng: np.random.Generator) -> np.ndarray:
    """(size, 3) parent indices: row i holds three distinct members in
    random order, none of them member i."""
    keys = rng.uniform(size=(size, size))
    np.fill_diagonal(keys, 2.0)  # above every draw, so never among the three smallest
    return np.argsort(keys, axis=1)[:, :3]


def mutate(
    population: np.ndarray, a, b, c, beta, lower: np.ndarray, upper: np.ndarray
) -> np.ndarray:
    """Donors pop[a] + beta * (pop[b] - pop[c]), clamped into the box.

    ``a``, ``b``, ``c`` are indices or index arrays, and ``beta`` a scalar
    or a column of per-donor factors."""
    if np.any((a == b) | (a == c) | (b == c)):
        raise NonDistinctParents(f"parent indices must be distinct, got {(a, b, c)}")
    donor = population[a] + beta * (population[b] - population[c])
    return np.clip(donor, lower, upper)


def crossover(
    targets: np.ndarray,
    donors: np.ndarray,
    crossover_probability: float,
    rng: np.random.Generator,
) -> np.ndarray:
    """Binomial crossover of (n, dims) targets and donors, with one forced
    donor component per row so every trial differs from its target in at
    least one position."""
    n, dims = targets.shape
    forced = rng.integers(dims, size=n)
    r = rng.uniform(size=(n, dims))
    take_donor = (r <= crossover_probability) | (np.arange(dims) == forced[:, None])
    return np.where(take_donor, donors, targets)


def optimize(
    problem: DrProblem,
    config: Optional[DeConfig] = None,
    on_iteration: Optional[Callable[[int, np.ndarray], None]] = None,
) -> OptimizationResult:
    """Run DE/rand/1/bin and return the best schedule found.

    Each generation builds all trial vectors first, scores them in one
    batch, then every trial that is strictly better replaces its target.
    """
    if config is None:
        config = DeConfig()
    rng = np.random.default_rng(config.seed)
    lower = problem.lower_bounds
    upper = problem.upper_bounds
    size = config.population_size
    beta_lo, beta_hi = config.beta_range

    population = init_positions(problem, size, rng)
    terms = objective.evaluate_batch(problem, population)
    objectives = terms[3].copy()
    best = Incumbent(population, terms)
    if on_iteration is not None:
        on_iteration(0, population)

    for iteration in range(1, config.iterations + 1):
        a, b, c = draw_parents(size, rng).T
        beta = rng.uniform(beta_lo, beta_hi, size=(size, 1))
        donors = mutate(population, a, b, c, beta, lower, upper)
        trials = crossover(population, donors, config.crossover_probability, rng)
        objective.evaluate_batch(problem, trials, out=terms)
        better = terms[3] < objectives
        population[better] = trials[better]
        objectives[better] = terms[3][better]
        best.offer(trials, terms)
        if on_iteration is not None:
            on_iteration(iteration, population)

    return best.result(problem, config.seed)
