"""Particle swarm optimizer for the day-ahead shifting problem.

Plain global-best PSO: inertia 1, both acceleration coefficients 2,
velocities clamped to a fraction of the box width per dimension.

The swarm is a set of (n, 24) arrays, row i for particle i, and every
iteration moves it as a whole: one velocity update and clamp, one
position step and clamp, one batch evaluation.  Positions that leave the
box are clamped back and the offending velocity components zeroed so
particles do not pile up on the walls.  ``common.Search`` draws the
random factors of a block of iterations at once, (n, 2, 24) per
iteration, and they are doubled for the whole block in one multiply.

``common.Search`` owns the positions and the personal bests (its
``kept`` arrays), the box and its clamp, and the scratch batch that holds
each step's differences and unclamped positions; it runs the loop,
scores each step and keeps the trace.  This module allocates the rest of
the swarm once per ``optimize`` call: the velocities, the velocity limits
repeated to (n, 24) and the clamp mask; every step writes into them.
Each step keeps the operands and the order of the plain update
expressions, so seeded runs are bit-identical to them.
The ``Swarm`` handed to ``on_iteration`` is that same state, changed in
place by the next iteration: a callback must copy anything it keeps.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, ClassVar, Iterator, Optional

import numpy as np

from .common import Search
from .errors import InvalidOptimizerConfig
from .profiles import DrProblem, OptimizationResult


@dataclass
class PsoConfig:
    swarm_size: int = 50
    iterations: int = 100
    seed: int = 0
    v_max_fraction: ClassVar[float] = 0.10  # of (upper - lower), per dimension

    def __post_init__(self) -> None:
        if self.swarm_size < 2:
            raise InvalidOptimizerConfig(f"swarm_size must be >= 2, got {self.swarm_size}")
        if self.iterations < 1:
            raise InvalidOptimizerConfig(f"iterations must be >= 1, got {self.iterations}")


@dataclass
class Swarm:
    """Whole-swarm state; row i of every array belongs to particle i.  In a
    run, ``positions``, ``best_positions`` and ``best_objectives`` are the
    ``Search``'s ``positions``, ``kept`` and ``kept_objectives``.
    ``v_max`` and ``neg_v_max`` are the velocity limits repeated to
    (n, dims), and ``clamped`` is the position step's mask."""

    positions: np.ndarray
    velocities: np.ndarray
    best_positions: np.ndarray
    best_objectives: np.ndarray
    v_max: np.ndarray
    neg_v_max: np.ndarray
    clamped: np.ndarray


def velocity_update(
    swarm: Swarm,
    gbest_position: np.ndarray,
    r: np.ndarray,
    diff: np.ndarray,
) -> None:
    """Move ``swarm.velocities`` in place, then clamp them to
    +-v_max_fraction * (upper - lower).  The inertia is 1 and each pull is
    its factor from the (n, 2, dims) ``r``, already doubled: 2 times a
    uniform.  For each particle, ``r`` holds the factors of the personal
    pull and then those of the social pull.  ``diff`` is an (n, dims)
    scratch array."""
    v = swarm.velocities
    np.subtract(swarm.best_positions, swarm.positions, out=diff)
    diff *= r[:, 0]
    v += diff
    np.subtract(gbest_position, swarm.positions, out=diff)
    diff *= r[:, 1]
    v += diff
    np.maximum(v, swarm.neg_v_max, out=v)
    np.minimum(v, swarm.v_max, out=v)


def position_update(swarm: Swarm, search: Search) -> None:
    """Step ``swarm.positions`` in place, clamped into ``search``'s box.
    Components clamped to a bound get zero velocity so the particle does
    not keep pushing into the wall."""
    moved, positions = search.scratch, swarm.positions
    np.add(positions, swarm.velocities, out=moved)
    search.clamp(moved, positions)
    np.not_equal(positions, moved, out=swarm.clamped)
    np.copyto(swarm.velocities, 0.0, where=swarm.clamped)


def optimize(
    problem: DrProblem,
    config: PsoConfig,
    on_iteration: Optional[Callable[[int, Swarm], None]] = None,
) -> OptimizationResult:
    """Run the swarm and return the best schedule found.

    Evaluation is synchronous: the whole swarm moves, then is scored in
    one batch, then every personal best that strictly improved updates.
    The trace records the global best after every iteration, starting
    with the initial swarm (iteration 0)."""
    search = Search(problem, config.seed, config.swarm_size)
    positions = search.positions
    v_max = config.v_max_fraction * (search.upper - search.lower)
    neg_v_max = -v_max
    velocities = search.rng.uniform(neg_v_max, v_max)
    swarm = Swarm(positions, velocities, search.kept, search.kept_objectives,
                  v_max, neg_v_max, np.empty(positions.shape, dtype=bool))

    def steps(factors: np.ndarray) -> Iterator[np.ndarray]:
        factors *= 2.0
        for r in factors:
            velocity_update(swarm, search.best_position, r, search.scratch)
            position_update(swarm, search)
            yield positions

    n, dims = positions.shape
    return search.run(config.iterations, (n, 2, dims), steps, on_iteration, swarm)
