"""Differential evolution (rand/1/bin) on the same problem and budget as
the swarm, for head-to-head comparisons.

The population is one (n, 24) array.  Each generation reads n rows of
5 + 24 uniforms: per member, three columns pick the parents, one the
scale factor (uniform in ``beta_range``), one the forced crossover
component and 24 the crossover mask.  ``common.Search`` draws these rows
for a block of k generations at once, and the parents, the scale factors
and the crossover masks of the whole block are built from them in a few
array operations.  A generation is then left with its gather, its donor
arithmetic and clamp, the mask copy and its scoring in one batch.
Selection is greedy and strict: a trial only replaces its target when it
is genuinely better.  Every step writes into buffers allocated once per
``optimize`` call; the population handed to ``on_iteration`` is changed
in place by the next generation, so a callback must copy anything it
keeps.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, ClassVar, Iterator, Optional

import numpy as np

from .common import Search, block_length
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
    allocated once and sized for blocks of up to ``generations``: the
    block's (generations, n, 5 + dims) uniforms; the parent indices, stored
    one role per row as (generations, 3, n), with the spans and the
    (generations, n) helpers of their draw; the scale factors repeated to
    (generations, n, dims); the crossover masks and the forced components'
    flat indices; the gathered (3, n, dims) parents and the donors of one
    generation; and the box limits repeated to (n, dims)."""

    def __init__(self, n: int, lower: np.ndarray, upper: np.ndarray, generations: int = 1):
        dims = len(lower)
        self.n = n
        self.uniforms = np.empty((generations, n, 5 + dims))
        self.parents = np.empty((generations, 3, n), dtype=np.intp)
        self.spans = np.array([[n - 1], [n - 2], [n - 3]])
        self.after = np.arange(1, n + 1)   # offsets count from member i + 1
        self.skip = np.empty((generations, n), dtype=bool)
        self.taken = np.empty((generations, n), dtype=np.intp)
        self.beta = np.empty((generations, n, dims))
        self.keep_target = np.empty((generations, n, dims), dtype=bool)
        self.forced = np.empty((generations, n), dtype=np.intp)
        self.row_starts = np.arange(0, generations * n * dims, dims).reshape(generations, n)
        self.picked = np.empty((3, n, dims))
        self.donors = np.empty((n, dims))
        self.lower = np.tile(lower, (n, 1))
        self.upper = np.tile(upper, (n, 1))


def draw_parents(uniforms: np.ndarray, work: Workspace) -> np.ndarray:
    """(k, 3, n) parent indices from the (k, n, 3) uniforms of k
    generations, written into ``work.parents``: column i of generation j
    holds three distinct members in random order, none of them member i,
    each ordered triple equally likely.

    Member i counts offsets k1, k2, k3 from member i + 1 (mod n), drawn
    without replacement from 0..n-2: k1 = floor(u0 (n - 1)), then
    k2 = floor(u1 (n - 2)) raised by one if it is >= k1, then
    k3 = floor(u2 (n - 3)) raised past min(k1, k2) and then max(k1, k2)."""
    generations = len(uniforms)
    k = work.parents[:generations]
    skip, taken = work.skip[:generations], work.taken[:generations]
    # a float-to-int cast truncates, which is floor on these nonnegative products
    np.multiply(uniforms.swapaxes(1, 2), work.spans, out=k, casting="unsafe")
    k1, k2, k3 = k.swapaxes(0, 1)
    np.greater_equal(k2, k1, out=skip)
    k2 += skip
    np.minimum(k1, k2, out=taken)
    np.greater_equal(k3, taken, out=skip)
    k3 += skip
    np.maximum(k1, k2, out=taken)
    np.greater_equal(k3, taken, out=skip)
    k3 += skip
    k += work.after
    np.remainder(k, work.n, out=k)
    return k


def mutate(population: np.ndarray, parents: np.ndarray, beta: np.ndarray,
           work: Workspace) -> np.ndarray:
    """Donors pop[a] + beta * (pop[b] - pop[c]) for the (3, n) rows a, b, c
    of ``parents``, clamped into the box, written into ``work.donors``.
    ``beta`` holds the per-donor factors, as a column or repeated to
    (n, dims).  Donors are not checked for repeated parents, which would
    only give a valid but wasted donor."""
    picked, donors = work.picked, work.donors
    np.take(population, parents, axis=0, out=picked)
    np.subtract(picked[1], picked[2], out=donors)
    donors *= beta
    donors += picked[0]
    np.maximum(donors, work.lower, out=donors)
    np.minimum(donors, work.upper, out=donors)
    return donors


def crossover_masks(uniforms: np.ndarray, crossover_probability: float,
                    work: Workspace) -> np.ndarray:
    """(k, n, dims) binomial crossover masks, True where a trial keeps its
    target's component, from the (k, n, 1 + dims) uniforms of k
    generations, written into ``work.keep_target``.  Column 0 forces one
    donor component per member, so every trial differs from its target in
    at least one position; component j also comes from the donor where
    column 1 + j is at most ``crossover_probability``."""
    generations, dims = len(uniforms), uniforms.shape[2] - 1
    forced, keep_target = work.forced[:generations], work.keep_target[:generations]
    np.multiply(uniforms[..., 0], dims, out=forced, casting="unsafe")
    forced += work.row_starts[:generations]
    np.greater(uniforms[..., 1:], crossover_probability, out=keep_target)
    np.put(keep_target, forced, False)
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
    n, dims = config.population_size, len(problem.lower_bounds)
    work = Workspace(n, problem.lower_bounds, problem.upper_bounds,
                     block_length(config.iterations, n * (5 + dims)))
    search = Search(problem, config.seed, n)
    population = search.positions
    objectives = search.terms[3].copy()

    def generations(uniforms: np.ndarray) -> Iterator[np.ndarray]:
        parents = draw_parents(uniforms[..., :3], work)
        beta = work.beta[:len(uniforms)]
        np.multiply(uniforms[..., 3:4], beta_hi - beta_lo, out=beta)
        np.add(beta, beta_lo, out=beta)
        keep_target = crossover_masks(uniforms[..., 4:], config.crossover_probability, work)
        for j in range(len(uniforms)):
            trials = mutate(population, parents[j], beta[j], work)
            np.copyto(trials, population, where=keep_target[j])
            yield trials

    return search.run(config.iterations, work.uniforms, generations, population, objectives,
                      on_iteration, population)
