"""Optimizer runs (``run_optimizer``), weight sweeps, comparisons, tables, files.

Costs are carried in cents internally and rendered in dollars here,
matching how the numbers are usually quoted.
"""

from __future__ import annotations

import csv
import json
from dataclasses import asdict, astuple, dataclass, fields
from pathlib import Path
from typing import Sequence

from . import de as de_mod
from . import pso as pso_mod
from .errors import ZeroBaseline
from .objective import build_problem, energy_cost
from .profiles import DrProblem, HourlyProfile, OptimizationResult, peak


def cost_reduction(before_cents: float, after_cents: float) -> float:
    """Percent saved relative to the unshifted cost."""
    if before_cents <= 0:
        raise ZeroBaseline(f"baseline cost must be positive, got {before_cents}")
    return 100.0 * (before_cents - after_cents) / before_cents


@dataclass(frozen=True)
class WeightSweepRow:
    w1: float
    w2: float
    cost_dollars: float
    load_shift_kwh: float
    peak_reduction_pct: float
    violation: float

    def to_json_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class ComparisonRow:
    algorithm: str
    total_cost_dollars: float
    cost_reduction_pct: float
    peak_reduction_pct: float

    def to_json_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class ComparisonReport:
    baseline_cost_dollars: float
    baseline_peak_kw: float
    rows: tuple  # of ComparisonRow
    results: dict  # algorithm -> OptimizationResult, in row order

    def to_json_dict(self) -> dict:
        return {
            "baseline_cost_dollars": self.baseline_cost_dollars,
            "baseline_peak_kw": self.baseline_peak_kw,
            "rows": [row.to_json_dict() for row in self.rows],
            "results": {name: result.to_json_dict() for name, result in self.results.items()},
        }


def run_optimizer(name: str, problem: DrProblem, population: int, iterations: int,
                  seed: int) -> OptimizationResult:
    """Run optimizer ``name`` ("pso" or "de") with ``population`` members for
    ``iterations`` iterations.  ``optimize`` is looked up on its module at
    call time, so a wrapper installed there later is the one that runs."""
    if name == "pso":
        return pso_mod.optimize(problem, pso_mod.PsoConfig(swarm_size=population, iterations=iterations, seed=seed))
    return de_mod.optimize(problem, de_mod.DeConfig(population_size=population, iterations=iterations, seed=seed))


def weight_sweep(
    predicted: HourlyProfile,
    prices: HourlyProfile,
    weight_pairs: Sequence[tuple],
    population: int,
    iterations: int,
    seeds: Sequence[int],
    **bounds,
) -> list[WeightSweepRow]:
    """One swarm run per (w1, w2) pair, at its seed in ``seeds`` and the
    same budget, rows in input order.

    ``bounds`` are build_problem's keyword arguments (gamma_lo, gamma_hi,
    peak_cap, alpha), passed on unchanged.
    """
    rows = []
    for (w1, w2), seed in zip(weight_pairs, seeds, strict=True):
        problem = build_problem(predicted, prices, w1, w2, **bounds)
        result = run_optimizer("pso", problem, population, iterations, seed)
        rows.append(
            WeightSweepRow(
                w1=float(w1),
                w2=float(w2),
                cost_dollars=result.cost_cents / 100.0,
                load_shift_kwh=result.load_shift_kwh,
                peak_reduction_pct=result.peak_reduction_pct,
                violation=result.violation,
            )
        )
    return rows


def compare_algorithms(
    problem: DrProblem,
    population: int,
    iterations: int,
    seeds: dict,
) -> ComparisonReport:
    """One run of each optimizer in ``seeds`` (algorithm -> seed), in its
    order, all at the same budget, on one problem."""
    baseline_cents = energy_cost(problem.predicted, problem.prices)
    results = {name: run_optimizer(name, problem, population, iterations, seed) for name, seed in seeds.items()}
    rows = tuple(
        ComparisonRow(
            algorithm=name,
            total_cost_dollars=result.cost_cents / 100.0,
            cost_reduction_pct=cost_reduction(baseline_cents, result.cost_cents),
            peak_reduction_pct=result.peak_reduction_pct,
        )
        for name, result in results.items()
    )
    return ComparisonReport(
        baseline_cost_dollars=baseline_cents / 100.0,
        baseline_peak_kw=peak(problem.predicted),
        rows=rows,
        results=results,
    )


def weight_sweep_table(rows: Sequence[WeightSweepRow]) -> str:
    """Fixed-width text table, costs to 3 decimals."""
    header = f"{'w1':>5} {'w2':>5} {'cost_$':>14} {'shift_kwh':>12} {'peak_red_%':>10}"
    lines = [header, "-" * len(header)]
    for row in rows:
        lines.append(
            f"{row.w1:>5.2f} {row.w2:>5.2f} {row.cost_dollars:>14.3f}"
            f" {row.load_shift_kwh:>12.3f} {row.peak_reduction_pct:>10.2f}"
        )
    return "\n".join(lines)


def comparison_table(report: ComparisonReport) -> str:
    header = (
        f"{'algorithm':<10} {'cost_$':>14} {'cost_red_%':>10} {'peak_red_%':>10}"
    )
    lines = [
        f"baseline cost: {report.baseline_cost_dollars:.3f} $"
        f"  peak: {report.baseline_peak_kw:.3f} kW",
        header,
        "-" * len(header),
    ]
    for row in report.rows:
        lines.append(
            f"{row.algorithm:<10} {row.total_cost_dollars:>14.3f}"
            f" {row.cost_reduction_pct:>10.2f} {row.peak_reduction_pct:>10.2f}"
        )
    return "\n".join(lines)


def write_json(payload: dict, path) -> None:
    """Canonical JSON: sorted keys, two-space indent, trailing newline.
    Same payload, same bytes."""
    Path(path).write_text(
        json.dumps(payload, sort_keys=True, indent=2) + "\n", encoding="utf-8"
    )


def write_csv(path, header: Sequence[str], rows) -> None:
    """A header line, then one line per row.  Floats, numpy's among them, are
    written as ``repr(float(v))``: the shortest text that reads back to the
    same value, where numpy 2's own repr would write ``np.float64(...)``."""
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        writer.writerows([repr(float(v)) if isinstance(v, float) else v for v in row] for row in rows)


def write_weight_sweep_csv(rows: Sequence[WeightSweepRow], path) -> None:
    write_csv(path, [f.name for f in fields(WeightSweepRow)], map(astuple, rows))


def write_trace_csv(result: OptimizationResult, path) -> None:
    write_csv(
        path,
        ["iteration", "best_objective", "best_cost_cents", "best_shift_kwh", "violation"],
        ((i, p.objective, p.cost_cents, p.load_shift_kwh, p.violation) for i, p in enumerate(result.trace)),
    )
