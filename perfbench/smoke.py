"""Smoke test of the benchmark itself, kept out of the tier-1 suite.

    python3 -m pytest -q perfbench/smoke.py

Runs every workload at a tiny size, with and without tracing, and checks
that the printed metrics are exactly the ones BENCHMARK.json names; checks
the exact reference against grid search and both optimizers on a small
capped instance; and checks that the benchmark refuses to run without
the program's sources.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import run  # noqa: E402
from exact import exact_optimum  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_tiny_workload_prints_the_declared_metrics(workload, trace):
    result, record, _ = run.run(workload, seed=5, seconds=0, trace=trace, tiny=True)
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert record["errors"] == []
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {m["name"]: m["unit"] for m in declared}
    assert all(np.isfinite(m["value"]) for m in result["metrics"].values())


def test_workloads_match_the_declared_ones():
    assert sorted(WORKLOADS) == sorted(w["name"] for w in SPEC["workloads"])


@pytest.mark.parametrize("weights", [(0.4, 0.6), (0.9, 0.1)])
def test_exact_reference_is_below_grid_search_and_optimizers(tmp_path, weights):
    from loadshift import de, pso
    from loadshift.gridsearch import ReducedProblem, grid_search
    from loadshift.ingest import load_dataset
    from loadshift.objective import build_problem
    from loadshift.profiles import ProfileKind, peak
    from loadshift.synth import SynthConfig, write_csv

    write_csv(SynthConfig(days=10, seed=7), tmp_path / "data.csv")
    dataset = load_dataset(tmp_path / "data.csv")
    day = dataset.timestamps[-1].date()
    predicted = dataset.day_profile(day)
    problem = build_problem(
        predicted, dataset.day_profile(day, ProfileKind.PRICE), *weights,
        peak_cap=0.85 * peak(predicted),
    )
    _, optimum = exact_optimum(problem)
    _, grid_objective = grid_search(ReducedProblem(problem, (16, 17, 18), 21))
    assert optimum <= grid_objective
    for result in (
        pso.optimize(problem, pso.PsoConfig(swarm_size=20, iterations=30, seed=1)),
        de.optimize(problem, de.DeConfig(population_size=20, iterations=30, seed=1)),
    ):
        assert optimum <= result.objective + 1e-12


def test_refuses_to_run_without_the_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    command = SPEC["command"] + ["--workload", "dayahead-120d", "--seed", "1", "--seconds", "1", "--trace", "0"]
    done = subprocess.run(command, cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0 and done.stdout == ""
