"""Result summaries: weight sweeps, algorithm comparisons, tables, files.

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
from .seeding import derive_seed


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
    budget_matched: bool

    def to_json_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class ComparisonReport:
    baseline_cost_dollars: float
    baseline_peak_kw: float
    rows: tuple  # of ComparisonRow
    results: tuple  # of OptimizationResult, parallel to rows

    def to_json_dict(self) -> dict:
        return {
            "baseline_cost_dollars": self.baseline_cost_dollars,
            "baseline_peak_kw": self.baseline_peak_kw,
            "rows": [row.to_json_dict() for row in self.rows],
        }


def weight_sweep(
    predicted: HourlyProfile,
    prices: HourlyProfile,
    weight_pairs: Sequence[tuple],
    *,
    master_seed: int = 0,
    swarm_size: int = 50,
    iterations: int = 100,
    **bounds,
) -> list[WeightSweepRow]:
    """One swarm run per (w1, w2) pair, rows in input order.

    ``bounds`` are build_problem's keyword arguments (gamma_lo, gamma_hi,
    peak_cap, alpha), passed on unchanged. Each row gets its own seed
    derived from the master seed and the row index, so adding or removing
    a row never perturbs the others.
    """
    rows = []
    for index, (w1, w2) in enumerate(weight_pairs):
        problem = build_problem(predicted, prices, w1, w2, **bounds)
        config = pso_mod.PsoConfig(
            swarm_size=swarm_size,
            iterations=iterations,
            seed=derive_seed(master_seed, "sweep", index),
        )
        result = pso_mod.optimize(problem, config)
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
    pso_config: pso_mod.PsoConfig,
    de_config: de_mod.DeConfig,
) -> ComparisonReport:
    """Swarm vs differential evolution on one problem.

    A fair comparison spends the same number of objective evaluations on
    each side; if the configs disagree the comparison still runs, and
    every row records that in ``budget_matched``.
    """
    matched = (pso_config.swarm_size * pso_config.iterations
               == de_config.population_size * de_config.iterations)

    baseline_cents = energy_cost(problem.predicted, problem.prices)

    results = (pso_mod.optimize(problem, pso_config), de_mod.optimize(problem, de_config))
    rows = tuple(
        ComparisonRow(
            algorithm=name,
            total_cost_dollars=result.cost_cents / 100.0,
            cost_reduction_pct=cost_reduction(baseline_cents, result.cost_cents),
            peak_reduction_pct=result.peak_reduction_pct,
            budget_matched=matched,
        )
        for name, result in zip(("pso", "de"), results)
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
        flag = "" if row.budget_matched else "  (budget mismatch)"
        lines.append(
            f"{row.algorithm:<10} {row.total_cost_dollars:>14.3f}"
            f" {row.cost_reduction_pct:>10.2f} {row.peak_reduction_pct:>10.2f}{flag}"
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
