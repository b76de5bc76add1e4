"""Demand-response objective: normalized cost + normalized shift + penalty.

    objective = w1 * cost / e_cmax + w2 * shift / l_shmax + alpha * violation

where cost is the day's energy bill in cents, shift the summed absolute
hourly deviation from the predicted profile in kWh, and violation the
one-sided excess of total scheduled over total predicted energy.
Stateless throughout; ``evaluate_batch`` writes into a caller's buffer
only when given one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import InvalidBounds
from .profiles import DrProblem, HourlyProfile

DEFAULT_GAMMA_LO = 0.5
DEFAULT_GAMMA_HI = 1.5
DEFAULT_ALPHA = 100.0


@dataclass(frozen=True)
class ObjectiveBreakdown:
    cost_cents: float
    load_shift_kwh: float
    violation: float
    objective: float


def energy_cost(schedule: HourlyProfile, prices: HourlyProfile) -> float:
    """Day cost in cents: sum over hours of load * price."""
    return float(np.dot(schedule.values, prices.values))


def evaluate_batch(
    problem: DrProblem, schedules: np.ndarray, out: Optional[np.ndarray] = None
) -> np.ndarray:
    """(4, n) rows of cost, shift, violation and objective for an (n, 24)
    batch, written into ``out`` when given (the optimizers pass one buffer
    per run) and returned.  Schedules outside the box are scored too."""
    schedules = np.asarray(schedules, dtype=float)
    if schedules.ndim != 2 or schedules.shape[1] != 24:
        raise ValueError(f"expected an (n, 24) schedule batch, got {schedules.shape}")
    if out is None:
        out = np.empty((4, len(schedules)))
    cost, shift, viol, obj = out
    np.vecdot(schedules, problem.prices.values, out=cost)   # each row as np.dot scores it alone, in any batch
    deviation = schedules - problem.predicted.values
    np.add.reduce(np.abs(deviation, out=deviation), axis=-1, out=shift)
    np.add.reduce(schedules, axis=-1, out=viol)
    viol /= problem.predicted_total   # the ratio of scheduled to predicted energy
    viol -= 1.0
    np.maximum(viol, 0.0, out=viol)
    np.add(problem.w1 * cost / problem.e_cmax, problem.w2 * shift / problem.l_shmax, out=obj)
    obj += problem.alpha * viol
    return out


def build_problem(
    predicted: HourlyProfile,
    prices: HourlyProfile,
    w1: float,
    w2: float,
    *,
    gamma_lo: float = DEFAULT_GAMMA_LO,
    gamma_hi: float = DEFAULT_GAMMA_HI,
    peak_cap: Optional[float] = None,
    alpha: float = DEFAULT_ALPHA,
) -> DrProblem:
    """Assemble a DrProblem with per-hour box bounds and normalizers.

    Bounds are gamma_lo/gamma_hi fractions of the predicted hourly load;
    an optional global peak_cap (kWh, positive and finite) additionally
    caps every hour. The
    normalizers make both criteria at most 1 inside the box:

        e_cmax  = sum_h upper_h * price_h
        l_shmax = sum_h max(upper_h - predicted_h, predicted_h - lower_h)

    A fully pinned box (gamma_lo = gamma_hi, no slack anywhere) gets
    l_shmax = 1 so the objective stays defined; in-box shift is
    identically zero there. DrProblem checks the profiles, the weights
    and the normalizers; this checks only its own arguments.
    """
    if not 0 <= gamma_lo <= gamma_hi:   # NaN included
        raise InvalidBounds(f"need 0 <= gamma_lo <= gamma_hi, got ({gamma_lo}, {gamma_hi})")
    if peak_cap is not None and not peak_cap > 0:
        raise InvalidBounds(f"peak_cap must be positive, got {peak_cap}")
    if peak_cap == np.inf:
        raise InvalidBounds(f"peak_cap must be finite, got {peak_cap}")

    lower = gamma_lo * predicted.values
    upper = gamma_hi * predicted.values
    if peak_cap is not None:
        upper = np.minimum(upper, peak_cap)
    if np.any(upper < lower):
        raise InvalidBounds(f"peak_cap {peak_cap} pushes an upper bound below the lower bound")

    e_cmax = float(np.dot(upper, prices.values))
    l_shmax = float(np.sum(np.maximum(upper - predicted.values, predicted.values - lower)))
    if l_shmax <= 0:
        l_shmax = 1.0

    return DrProblem(
        predicted=predicted,
        prices=prices,
        lower_bounds=lower,
        upper_bounds=upper,
        w1=w1,
        w2=w2,
        alpha=alpha,
        e_cmax=e_cmax,
        l_shmax=l_shmax,
    )
