"""Differential evolution (rand/1/bin) on the same problem and budget as
the swarm, for head-to-head comparisons.

The population is ``common.Search``'s ``kept`` array, (n, 24): each
member's best position so far.  Each generation reads n rows of
5 + 24 uniforms: per member, three columns pick the parents, one the
scale factor (uniform in ``beta_range``), one the forced crossover
component and 24 the crossover mask.  ``common.Search`` draws these rows
for a block of k generations at once, and the parents, the scale factors
and the crossover masks of the whole block are built from them by a few
array expressions, arrays of that block.  A generation is then left with
its gather, its donor arithmetic and clamp, the mask copy and its scoring
in one batch.  The gather writes into the (3, n, 24) parents allocated
once per ``optimize`` call; the donors, and then the trials, are
``common.Search``'s scratch batch, clamped by its ``clamp``.  Selection
is greedy and strict: a trial only replaces its target when it is
genuinely better.  The population handed to ``on_iteration`` is changed
in place by the next generation, so a callback must copy anything it
keeps.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, ClassVar, Iterator, Optional

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


def draw_parents(uniforms: np.ndarray) -> np.ndarray:
    """(k, 3, n) parent indices from the (k, n, 3) uniforms of k
    generations: column i of generation j holds three distinct members in
    random order, none of them member i, each ordered triple equally likely.

    Member i counts offsets k1, k2, k3 from member i + 1 (mod n), drawn
    without replacement from 0..n-2: k1 = floor(u0 (n - 1)), then
    k2 = floor(u1 (n - 2)) raised by one if it is >= k1, then
    k3 = floor(u2 (n - 3)) raised past min(k1, k2) and then max(k1, k2)."""
    n = uniforms.shape[1]
    # a float-to-int cast truncates, which is floor on these nonnegative
    # products; C order keeps each generation's (3, n) rows contiguous
    k = (uniforms.swapaxes(1, 2) * [[n - 1], [n - 2], [n - 3]]).astype(np.intp, order="C")
    k1, k2, k3 = k.swapaxes(0, 1)
    k2 += k2 >= k1
    k3 += k3 >= np.minimum(k1, k2)
    k3 += k3 >= np.maximum(k1, k2)
    k += np.arange(1, n + 1)
    k %= n
    return k


def mutate(population: np.ndarray, parents: np.ndarray, beta: np.ndarray,
           picked: np.ndarray, search: Search) -> np.ndarray:
    """Donors pop[a] + beta * (pop[b] - pop[c]) for the (3, n) rows a, b, c
    of ``parents``, gathered into the (3, n, dims) ``picked``, clamped
    into ``search``'s box and written into its ``scratch``.  ``beta``
    holds the per-donor factors, as a column or repeated to (n, dims).
    Donors are not checked for repeated parents, which would only give a
    valid but wasted donor."""
    donors = search.scratch
    np.take(population, parents, axis=0, out=picked)
    np.subtract(picked[1], picked[2], out=donors)
    donors *= beta
    donors += picked[0]
    return search.clamp(donors, donors)


def crossover_masks(uniforms: np.ndarray, crossover_probability: float) -> np.ndarray:
    """(k, n, dims) binomial crossover masks, True where a trial keeps its
    target's component, from the (k, n, 1 + dims) uniforms of k
    generations.  Column 0 forces one donor component per member, so every
    trial differs from its target in at least one position; component j
    also comes from the donor where column 1 + j is at most
    ``crossover_probability``."""
    keep_target = uniforms[..., 1:] > crossover_probability
    forced = (uniforms[..., :1] * keep_target.shape[2]).astype(np.intp)
    np.put_along_axis(keep_target, forced, False, axis=2)
    return keep_target


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
    search = Search(problem, config.seed, config.population_size)
    population = search.kept
    n, dims = population.shape
    picked = np.empty((3, n, dims))

    def generations(uniforms: np.ndarray) -> Iterator[np.ndarray]:
        parents = draw_parents(uniforms[..., :3])
        # repeated to (k, n, dims), the per-generation multiply is faster than from a column
        beta = np.repeat(uniforms[..., 3:4] * (beta_hi - beta_lo) + beta_lo, dims, axis=2)
        keep_target = crossover_masks(uniforms[..., 4:], config.crossover_probability)
        for j in range(len(uniforms)):
            trials = mutate(population, parents[j], beta[j], picked, search)
            np.copyto(trials, population, where=keep_target[j])
            yield trials

    return search.run(config.iterations, (n, 5 + dims), generations, on_iteration, population)
