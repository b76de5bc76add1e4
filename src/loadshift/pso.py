"""Particle swarm optimizer for the day-ahead shifting problem.

Plain global-best PSO: inertia 1, both acceleration coefficients 2,
velocities clamped to a fraction of the box width per dimension.

The swarm is a set of (n, 24) arrays, row i for particle i, and every
iteration moves it as a whole: one draw of all random factors, one
velocity update and clamp, one position step and clamp, one batch
evaluation.  Positions that leave the box are clamped back and the
offending velocity components zeroed so particles do not pile up on
the walls.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, ClassVar, Optional

import numpy as np

from .common import Incumbent, init_positions
from .objective import evaluate_batch
from .profiles import DrProblem, OptimizationResult


@dataclass
class PsoConfig:
    swarm_size: int = 50
    iterations: int = 100
    seed: int = 0
    inertia: ClassVar[float] = 1.0
    cognitive: ClassVar[float] = 2.0
    social: ClassVar[float] = 2.0
    v_max_fraction: ClassVar[float] = 0.10  # of (upper - lower), per dimension

    def __post_init__(self) -> None:
        if self.swarm_size < 2:
            raise ValueError(f"swarm_size must be >= 2, got {self.swarm_size}")
        if self.iterations < 1:
            raise ValueError(f"iterations must be >= 1, got {self.iterations}")


@dataclass
class Swarm:
    """Whole-swarm state; row i of every array belongs to particle i."""

    positions: np.ndarray
    velocities: np.ndarray
    best_positions: np.ndarray
    best_objectives: np.ndarray


def velocity_update(
    swarm: Swarm,
    gbest_position: np.ndarray,
    lower: np.ndarray,
    upper: np.ndarray,
    config: PsoConfig,
    rng: np.random.Generator,
) -> np.ndarray:
    """New velocities with fresh per-dimension random factors, clamped to
    +-v_max_fraction * (upper - lower).

    One (n, 2, dims) draw: for each particle in turn, the factors of the
    personal pull and then those of the social pull."""
    n, dims = swarm.positions.shape
    r = rng.uniform(size=(n, 2, dims))
    v = (
        config.inertia * swarm.velocities
        + config.cognitive * r[:, 0] * (swarm.best_positions - swarm.positions)
        + config.social * r[:, 1] * (gbest_position - swarm.positions)
    )
    v_max = config.v_max_fraction * (upper - lower)
    return np.clip(v, -v_max, v_max)


def position_update(
    positions: np.ndarray,
    velocities: np.ndarray,
    lower: np.ndarray,
    upper: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Step then clamp.  Components clamped to a bound get zero velocity
    so the particle does not keep pushing into the wall."""
    moved = positions + velocities
    clamped = np.clip(moved, lower, upper)
    return clamped, np.where(clamped == moved, velocities, 0.0)


def optimize(
    problem: DrProblem,
    config: Optional[PsoConfig] = None,
    on_iteration: Optional[Callable[[int, Swarm], None]] = None,
) -> OptimizationResult:
    """Run the swarm and return the best schedule found.

    Evaluation is synchronous: the whole swarm moves, then is scored in
    one batch, then every personal best that strictly improved updates.
    The trace records the global best after every iteration, starting
    with the initial swarm (iteration 0)."""
    if config is None:
        config = PsoConfig()
    rng = np.random.default_rng(config.seed)
    lower = problem.lower_bounds
    upper = problem.upper_bounds

    positions = init_positions(problem, config.swarm_size, rng)
    v_max = config.v_max_fraction * (upper - lower)
    velocities = rng.uniform(-v_max, v_max, size=positions.shape)
    terms = evaluate_batch(problem, positions)
    swarm = Swarm(positions, velocities, positions.copy(), terms[3].copy())
    best = Incumbent(positions, terms)
    if on_iteration is not None:
        on_iteration(0, swarm)

    for iteration in range(1, config.iterations + 1):
        velocities = velocity_update(swarm, best.position, lower, upper, config, rng)
        swarm.positions, swarm.velocities = position_update(
            swarm.positions, velocities, lower, upper
        )
        terms = evaluate_batch(problem, swarm.positions)
        improved = terms[3] < swarm.best_objectives
        swarm.best_positions[improved] = swarm.positions[improved]
        swarm.best_objectives[improved] = terms[3][improved]
        best.offer(swarm.positions, terms)
        if on_iteration is not None:
            on_iteration(iteration, swarm)

    return best.result(problem, config.seed)
