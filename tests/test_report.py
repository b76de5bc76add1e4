"""Reporting: reductions, sweeps, head-to-head runs, tables, writers."""

import csv
import json
import warnings

import numpy as np
import pytest

from loadshift import de, pso
from loadshift.errors import ZeroBaseline
from loadshift.objective import build_problem, energy_cost
from loadshift.profiles import load_profile, price_profile
from loadshift.report import (
    ComparisonReport,
    WeightSweepRow,
    compare_algorithms,
    comparison_table,
    cost_reduction,
    run_optimizer,
    weight_sweep,
    weight_sweep_table,
    write_json,
    write_trace_csv,
    write_weight_sweep_csv,
)
from loadshift.seeding import derive_seed


@pytest.fixture(scope="module")
def day():
    rng = np.random.default_rng(31)
    predicted = load_profile(rng.uniform(60.0, 140.0, size=24))
    hours = np.arange(24)
    prices = price_profile(5.0 + 6.0 * np.exp(-((hours - 18.5) ** 2) / 8.0))
    return predicted, prices


class TestCostReduction:
    def test_ten_percent(self):
        assert cost_reduction(100.0, 90.0) == pytest.approx(10.0)

    def test_no_change_is_zero(self):
        assert cost_reduction(250.0, 250.0) == 0.0

    def test_increase_goes_negative(self):
        assert cost_reduction(100.0, 120.0) == pytest.approx(-20.0)

    def test_scale_invariance(self):
        assert cost_reduction(100.0, 80.0) == pytest.approx(cost_reduction(1e6, 8e5))

    @pytest.mark.parametrize("baseline", [0.0, -5.0])
    def test_nonpositive_baseline_rejected(self, baseline):
        with pytest.raises(ZeroBaseline):
            cost_reduction(baseline, 10.0)


class TestWeightSweep:
    PAIRS = [(0.9, 0.1), (0.5, 0.5), (0.1, 0.9)]

    @staticmethod
    def seeds(master, count=3):
        """The row seeds ``loadshift sweep`` derives from its master seed."""
        return [derive_seed(master, "sweep", i) for i in range(count)]

    def test_rows_keep_input_order(self, day):
        predicted, prices = day
        rows = weight_sweep(predicted, prices, self.PAIRS, 10, 10, self.seeds(0))
        assert [(r.w1, r.w2) for r in rows] == self.PAIRS

    def test_prefix_runs_reproduce_leading_rows(self, day):
        # a row depends only on its own pair and seed, so extending the
        # list of pairs must not disturb the rows already computed
        predicted, prices = day
        full = weight_sweep(predicted, prices, self.PAIRS, 10, 10, self.seeds(7))
        prefix = weight_sweep(predicted, prices, self.PAIRS[:2], 10, 10, self.seeds(7, 2))
        assert full[:2] == prefix

    def test_same_master_seed_reproduces(self, day):
        predicted, prices = day
        a = weight_sweep(predicted, prices, self.PAIRS, 10, 10, self.seeds(0))
        b = weight_sweep(predicted, prices, self.PAIRS, 10, 10, self.seeds(0))
        assert a == b

    def test_master_seed_changes_rows(self, day):
        predicted, prices = day
        a = weight_sweep(predicted, prices, [(0.9, 0.1)], 10, 10, self.seeds(1, 1))
        b = weight_sweep(predicted, prices, [(0.9, 0.1)], 10, 10, self.seeds(2, 1))
        assert a != b

    def test_one_seed_per_pair(self, day):
        predicted, prices = day
        with pytest.raises(ValueError):
            weight_sweep(predicted, prices, self.PAIRS, 10, 10, self.seeds(0, 2))

    def test_peak_cap_shows_up_as_peak_reduction(self, day):
        predicted, prices = day
        cap = 0.9 * float(np.max(predicted.values))
        rows = weight_sweep(predicted, prices, [(0.5, 0.5)], 10, 10, self.seeds(0, 1), peak_cap=cap)
        assert rows[0].peak_reduction_pct >= 10.0 - 1e-9
        assert rows[0].violation < 0.01


class TestCompareAlgorithms:
    SEEDS = {"pso": 1, "de": 2}

    def problem(self, day):
        predicted, prices = day
        return build_problem(predicted, prices, 0.6, 0.4)

    def test_matched_budgets_run_clean(self, day):
        problem = self.problem(day)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = compare_algorithms(problem, 12, 20, self.SEEDS)
        assert [row.algorithm for row in report.rows] == ["pso", "de"]
        assert list(report.results) == ["pso", "de"]
        baseline_cents = energy_cost(problem.predicted, problem.prices)
        assert report.baseline_cost_dollars == baseline_cents / 100.0
        assert report.baseline_peak_kw == float(np.max(problem.predicted.values))
        for row, result in zip(report.rows, report.results.values()):
            assert row.total_cost_dollars == result.cost_cents / 100.0
            assert row.cost_reduction_pct == pytest.approx(
                cost_reduction(baseline_cents, result.cost_cents)
            )

    def test_each_result_is_its_optimizer_at_the_shared_budget(self, day):
        problem = self.problem(day)
        report = compare_algorithms(problem, 12, 20, {"de": 2, "pso": 1})
        assert [row.algorithm for row in report.rows] == ["de", "pso"]
        pso_run = pso.optimize(problem, pso.PsoConfig(swarm_size=12, iterations=20, seed=1))
        de_run = de.optimize(problem, de.DeConfig(population_size=12, iterations=20, seed=2))
        assert report.results["pso"].to_json_dict() == pso_run.to_json_dict()
        assert report.results["de"].to_json_dict() == de_run.to_json_dict()

    def test_json_results_are_each_results_own_dict_in_row_order(self, day):
        report = compare_algorithms(self.problem(day), 8, 10, self.SEEDS)
        payload = report.to_json_dict()
        assert list(payload["results"]) == [row.algorithm for row in report.rows]
        for row in report.rows:
            assert payload["results"][row.algorithm] == report.results[row.algorithm].to_json_dict()
        assert payload["rows"] == [row.to_json_dict() for row in report.rows]

    def test_reruns_are_identical(self, day):
        problem = self.problem(day)
        a = compare_algorithms(problem, 12, 15, {"pso": 5, "de": 6})
        b = compare_algorithms(problem, 12, 15, {"pso": 5, "de": 6})
        assert a.rows == b.rows


class TestRunOptimizer:
    @pytest.mark.parametrize("population, iterations, seed", [(12, 20, 2), (7, 3, 9)])
    def test_de_is_de_optimize_with_that_config(self, day, population, iterations, seed):
        problem = build_problem(*day, 0.6, 0.4)
        config = de.DeConfig(population_size=population, iterations=iterations, seed=seed)
        result = run_optimizer("de", problem, population, iterations, seed)
        assert result.to_json_dict() == de.optimize(problem, config).to_json_dict()

    def test_pso_is_pso_optimize_with_that_config(self, day):
        problem = build_problem(*day, 0.6, 0.4)
        config = pso.PsoConfig(swarm_size=12, iterations=20, seed=2)
        result = run_optimizer("pso", problem, 12, 20, 2)
        assert result.to_json_dict() == pso.optimize(problem, config).to_json_dict()

    def test_looks_optimize_up_at_call_time(self, day, monkeypatch):
        calls = []
        monkeypatch.setattr(de, "optimize", lambda problem, config: calls.append(config))
        run_optimizer("de", build_problem(*day, 0.6, 0.4), 5, 4, 3)
        assert calls == [de.DeConfig(population_size=5, iterations=4, seed=3)]


class TestTables:
    def test_weight_sweep_table_layout(self):
        rows = [WeightSweepRow(0.4, 0.6, 1234.5678, 89.1234, 12.3456, 0.0)]
        text = weight_sweep_table(rows)
        lines = text.splitlines()
        assert len(lines) == 3
        assert lines[0].split() == ["w1", "w2", "cost_$", "shift_kwh", "peak_red_%"]
        assert lines[2] == " 0.40  0.60       1234.568       89.123      12.35"

    def test_comparison_table_clean_when_matched(self, day):
        problem = build_problem(*day, 0.6, 0.4)
        report = compare_algorithms(problem, 8, 10, {"pso": 1, "de": 2})
        lines = comparison_table(report).splitlines()
        assert "baseline cost:" in lines[0]
        assert lines[1].split() == ["algorithm", "cost_$", "cost_red_%", "peak_red_%"]
        assert [line.split()[0] for line in lines[3:]] == ["pso", "de"]
        assert all(len(line.split()) == 4 for line in lines[3:])


class TestWriters:
    def test_json_bytes_are_canonical(self, tmp_path):
        payload = {"b": [1.5, 2.5], "a": {"y": 1, "x": 2}}
        first = tmp_path / "first.json"
        second = tmp_path / "second.json"
        write_json(payload, first)
        write_json({"a": {"x": 2, "y": 1}, "b": [1.5, 2.5]}, second)
        assert first.read_bytes() == second.read_bytes()
        text = first.read_text()
        assert text.endswith("\n")
        assert text == json.dumps(payload, sort_keys=True, indent=2) + "\n"

    def test_weight_sweep_csv_round_trips_exactly(self, tmp_path):
        rows = [
            WeightSweepRow(0.4, 0.6, 1234.56789012345, 89.0 / 7.0, 12.3456, 1e-9),
            WeightSweepRow(0.5, 0.5, 2.0 / 3.0, 0.1, 0.0, 0.0),
        ]
        path = tmp_path / "sweep.csv"
        write_weight_sweep_csv(rows, path)
        with open(path, newline="") as handle:
            records = list(csv.DictReader(handle))
        assert len(records) == 2
        for row, record in zip(rows, records):
            assert float(record["cost_dollars"]) == row.cost_dollars
            assert float(record["load_shift_kwh"]) == row.load_shift_kwh
            assert float(record["violation"]) == row.violation

    def test_trace_csv_round_trips_exactly(self, tmp_path, day):
        problem = build_problem(*day, 0.6, 0.4)
        result = pso.optimize(problem, pso.PsoConfig(swarm_size=8, iterations=12))
        path = tmp_path / "trace.csv"
        write_trace_csv(result, path)
        with open(path, newline="") as handle:
            reader = csv.reader(handle)
            header = next(reader)
            records = list(reader)
        assert header == ["iteration", "best_objective", "best_cost_cents",
                          "best_shift_kwh", "violation"]
        assert len(records) == len(result.trace)
        for iteration, (point, record) in enumerate(zip(result.trace, records)):
            assert int(record[0]) == iteration
            assert float(record[1]) == point.objective
            assert float(record[2]) == point.cost_cents
