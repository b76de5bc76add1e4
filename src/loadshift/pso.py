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
``kept`` arrays), runs the loop, scores each step and keeps the trace.
The velocities, a difference buffer, the clamp mask and the limits
repeated to (n, 24) are allocated once per ``optimize`` call, and every
step writes into them.  Each step keeps the operands and the order of
the plain update expressions, so seeded runs are bit-identical to them.
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
    ``Search``'s ``positions``, ``kept`` and ``kept_objectives``."""

    positions: np.ndarray
    velocities: np.ndarray
    best_positions: np.ndarray
    best_objectives: np.ndarray


class Workspace:
    """Scratch arrays of one run, allocated once: an (n, dims) difference
    buffer and clamp mask, and the velocity and box limits repeated to
    (n, dims), so that every step is a ufunc on arrays of one shape."""

    def __init__(self, n: int, lower: np.ndarray, upper: np.ndarray, v_max: np.ndarray):
        dims = len(lower)
        self.diff = np.empty((n, dims))
        self.clamped = np.empty((n, dims), dtype=bool)
        self.v_max = np.tile(v_max, (n, 1))
        self.neg_v_max = np.tile(-v_max, (n, 1))
        self.lower = np.tile(lower, (n, 1))
        self.upper = np.tile(upper, (n, 1))


def velocity_update(
    swarm: Swarm,
    gbest_position: np.ndarray,
    r: np.ndarray,
    work: Workspace,
) -> None:
    """Move ``swarm.velocities`` in place, then clamp them to
    +-v_max_fraction * (upper - lower).  The inertia is 1 and each pull is
    its factor from the (n, 2, dims) ``r``, already doubled: 2 times a
    uniform.  For each particle, ``r`` holds the factors of the personal
    pull and then those of the social pull."""
    diff, v = work.diff, swarm.velocities
    np.subtract(swarm.best_positions, swarm.positions, out=diff)
    diff *= r[:, 0]
    v += diff
    np.subtract(gbest_position, swarm.positions, out=diff)
    diff *= r[:, 1]
    v += diff
    np.maximum(v, work.neg_v_max, out=v)
    np.minimum(v, work.v_max, out=v)


def position_update(swarm: Swarm, work: Workspace) -> None:
    """Step then clamp ``swarm.positions`` in place.  Components clamped to
    a bound get zero velocity so the particle does not keep pushing into
    the wall."""
    moved, positions = work.diff, swarm.positions
    np.add(positions, swarm.velocities, out=moved)
    np.maximum(moved, work.lower, out=positions)
    np.minimum(positions, work.upper, out=positions)
    np.not_equal(positions, moved, out=work.clamped)
    np.copyto(swarm.velocities, 0.0, where=work.clamped)


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
    lower, upper = problem.lower_bounds, problem.upper_bounds
    v_max = config.v_max_fraction * (upper - lower)
    n = config.swarm_size
    work = Workspace(n, lower, upper, v_max)
    search = Search(problem, config.seed, n)
    positions = search.positions
    velocities = search.rng.uniform(-v_max, v_max, size=positions.shape)
    swarm = Swarm(positions, velocities, search.kept, search.kept_objectives)

    def steps(factors: np.ndarray) -> Iterator[np.ndarray]:
        factors *= 2.0
        for r in factors:
            velocity_update(swarm, search.best_position, r, work)
            position_update(swarm, work)
            yield positions

    return search.run(config.iterations, (n, 2, len(lower)), steps, on_iteration, swarm)
