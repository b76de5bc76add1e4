"""Acceptance gate: nine criteria, one test and one PASS/FAIL line each.

Every criterion prints a single status line so a plain pytest run reads
as a checklist.  Budgets and tolerances are fixed; a miss is a failure,
not a reason to rerun.
"""

import csv
import json
import statistics
import time

import numpy as np
from helpers import backward, forward, unit_stats

from loadshift import de, mlp, pso
from loadshift.cli import main
from loadshift.exact import pinned_problem
from loadshift.gridsearch import ReducedProblem, grid_search
from loadshift.ingest import (
    build_windows,
    fit_normalizer,
    load_dataset,
    split_windows,
)
from loadshift.objective import build_problem, energy_cost, evaluate_batch
from loadshift.profiles import load_profile, peak, price_profile, total
from loadshift.report import cost_reduction, weight_sweep
from loadshift.seeding import derive_seed
from loadshift.synth import SynthConfig, write_csv


def _report(number, ok, detail):
    print(f"[criterion {number}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {number}: {detail}"


def _param_count(sizes):
    return sum(o * i + o for i, o in zip(sizes[:-1], sizes[1:]))


def _numeric_gradients(model, x, target, eps):
    def loss(weights, biases):
        probe = mlp.MlpModel(model.layer_sizes, tuple(weights), tuple(biases),
                             norm_stats=model.norm_stats, lag=model.lag)
        diff = forward(probe, x) - target
        return 0.5 * diff * diff

    weight_grads, bias_grads = [], []
    for k in range(len(model.weights)):
        grad = np.zeros_like(model.weights[k])
        for idx in np.ndindex(*model.weights[k].shape):
            plus = [w.copy() for w in model.weights]
            minus = [w.copy() for w in model.weights]
            plus[k][idx] += eps
            minus[k][idx] -= eps
            grad[idx] = (loss(plus, model.biases) - loss(minus, model.biases)) / (2 * eps)
        weight_grads.append(grad)
        grad = np.zeros_like(model.biases[k])
        for idx in np.ndindex(*model.biases[k].shape):
            plus = [b.copy() for b in model.biases]
            minus = [b.copy() for b in model.biases]
            plus[k][idx] += eps
            minus[k][idx] -= eps
            grad[idx] = (loss(model.weights, plus) - loss(model.weights, minus)) / (2 * eps)
        bias_grads.append(grad)
    return weight_grads, bias_grads


def _write_hourly(path, column, values):
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(["hour", column])
        for hour, value in enumerate(values, start=1):
            writer.writerow([hour, repr(float(value))])


def test_c1_gradients_match_finite_differences():
    # 20 random small models, every coordinate against central
    # differences at eps=1e-5, relative error below 1e-5
    architectures = [(2, 4, 1), (3, 5, 1), (3, 4, 2, 1), (4, 4, 2, 1),
                     (5, 6, 1), (6, 6, 1), (2, 3, 3, 1)]
    started = time.perf_counter()
    worst = 0.0
    rng = np.random.default_rng(1001)
    for trial in range(20):
        sizes = architectures[int(rng.integers(len(architectures)))]
        assert _param_count(sizes) <= 50
        model = mlp.init_model(sizes, seed=int(rng.integers(2**32)), norm_stats=unit_stats())
        x = rng.uniform(-1.0, 1.0, size=sizes[0])
        target = float(rng.uniform(-1.0, 1.0))
        analytic_w, analytic_b = backward(model, x, target)
        numeric_w, numeric_b = _numeric_gradients(model, x, target, eps=1e-5)
        for a, n in zip(analytic_w + analytic_b, numeric_w + numeric_b):
            denom = np.maximum(np.maximum(np.abs(a), np.abs(n)), 1e-4)
            worst = max(worst, float(np.max(np.abs(a - n) / denom)))
    elapsed = time.perf_counter() - started
    _report(1, worst < 1e-5 and elapsed < 5.0,
            f"max relative gradient error {worst:.2e} over 20 models in {elapsed:.2f}s")


def test_c2_forecast_quality_on_synthetic_days(tmp_path):
    # fixed 120-day synthetic set; the trained net must track the test
    # partition at r >= 0.98 with normalized MSE <= 0.01
    started = time.perf_counter()
    path = tmp_path / "synth120.csv"
    write_csv(SynthConfig(days=120, seed=42), path)
    dataset = load_dataset(path)
    stats = fit_normalizer(dataset)
    windows = build_windows(dataset)
    train_windows, test_windows = split_windows(windows)
    model = mlp.init_model((29, 25, 20, 15, 1), derive_seed(42, "mlp-init"),
                           norm_stats=stats)
    config = mlp.TrainConfig(epochs=1000, seed=derive_seed(42, "mlp-shuffle"))
    _, fit = mlp.train(model, train_windows, test_windows, config)
    elapsed = time.perf_counter() - started
    ok = fit.test_correlation >= 0.98 and fit.test_mse <= 0.01 and elapsed < 120.0
    _report(2, ok,
            f"test r {fit.test_correlation:.4f}, test MSE {fit.test_mse:.5f}, "
            f"{elapsed:.1f}s")


def test_c3_cost_reduction_reference_values():
    cases = [
        (24497.938, 23250.378, 5.09),
        (31431.06, 29976.657, 4.62),
        (31389.529, 28929.995, 7.83),
    ]
    errors = [abs(cost_reduction(before, after) - expected)
              for before, after, expected in cases]
    _report(3, max(errors) <= 0.01,
            "reductions "
            + ", ".join(f"{cost_reduction(b, a):.4f}%" for b, a, _ in cases)
            + f" (worst error {max(errors):.4f} pct points)")


def test_c4_oracle_gap_on_reduced_problems():
    # 10 random problems with 2-3 free hours on 101-point grids; the
    # swarm must land within 1% of the exhaustive optimum in >= 9,
    # differential evolution within 2% in >= 8
    MASTER = 1234
    started = time.perf_counter()
    pso_hits = 0
    de_hits = 0
    for i in range(10):
        rng = np.random.default_rng(derive_seed(MASTER, "oracle-gap", i))
        predicted = rng.uniform(500.0, 1500.0, size=24)
        prices = rng.uniform(3.0, 12.0, size=24)
        w1 = float(rng.uniform(0.2, 0.8))
        k = int(rng.integers(2, 4))
        free = tuple(int(h) for h in rng.choice(24, size=k, replace=False))
        problem = build_problem(load_profile(predicted), price_profile(prices),
                                w1, 1.0 - w1)
        reduced = ReducedProblem(problem, free, 101)
        _, oracle = grid_search(reduced)
        pinned = pinned_problem(problem, free)
        pso_result = pso.optimize(
            pinned, pso.PsoConfig(seed=derive_seed(MASTER, "gap-pso", i)))
        de_result = de.optimize(
            pinned, de.DeConfig(seed=derive_seed(MASTER, "gap-de", i)))
        if (pso_result.objective - oracle) / oracle <= 0.01:
            pso_hits += 1
        if (de_result.objective - oracle) / oracle <= 0.02:
            de_hits += 1
    elapsed = time.perf_counter() - started
    ok = pso_hits >= 9 and de_hits >= 8 and elapsed < 30.0
    _report(4, ok, f"swarm {pso_hits}/10 within 1%, DE {de_hits}/10 within 2%, "
                   f"{elapsed:.1f}s")


def test_c5_every_sweep_row_beats_the_baseline(synth_day):
    # 11-point weight sweep with a peak cap: every optimized day must
    # cost strictly less than serving the predicted profile unshifted
    _, predicted, prices = synth_day
    started = time.perf_counter()
    pairs = [(round(i / 10, 1), round(1 - i / 10, 1)) for i in range(11)]
    seeds = [derive_seed(2024, "sweep", i) for i in range(len(pairs))]
    rows = weight_sweep(predicted, prices, pairs, 50, 100, seeds, peak_cap=0.85 * peak(predicted))
    baseline_dollars = energy_cost(predicted, prices) / 100.0
    elapsed = time.perf_counter() - started
    below = [row.cost_dollars < baseline_dollars for row in rows]
    ok = len(rows) == 11 and all(below) and elapsed < 120.0
    _report(5, ok,
            f"{sum(below)}/11 rows below the {baseline_dollars:.3f}$ baseline, "
            f"{elapsed:.1f}s")


def test_c6_swarm_at_least_matches_de_across_seeds(capped_problem):
    # 11 master seeds, budget-matched runs on the capped instance;
    # compare the medians of the final objectives
    started = time.perf_counter()
    pso_finals = []
    de_finals = []
    for s in range(11):
        pso_finals.append(pso.optimize(
            capped_problem, pso.PsoConfig(seed=derive_seed(s, "pso"))).objective)
        de_finals.append(de.optimize(
            capped_problem, de.DeConfig(seed=derive_seed(s, "de"))).objective)
    elapsed = time.perf_counter() - started
    pso_median = statistics.median(pso_finals)
    de_median = statistics.median(de_finals)
    ok = pso_median <= de_median and elapsed < 300.0
    _report(6, ok, f"median objective swarm {pso_median:.12f} vs DE "
                   f"{de_median:.12f}, {elapsed:.1f}s")


def test_c7_feasibility_and_invariants():
    started = time.perf_counter()
    checked = 0
    for trial in range(5):
        rng = np.random.default_rng(derive_seed(7, "invariants", trial))
        predicted = load_profile(rng.uniform(50.0, 200.0, size=24))
        prices = price_profile(rng.uniform(2.0, 15.0, size=24))
        w1 = float(rng.uniform(0.0, 1.0))
        cap = 0.9 * peak(predicted) if trial % 2 else None
        problem = build_problem(predicted, prices, w1, 1.0 - w1, peak_cap=cap)

        pso_config = pso.PsoConfig(swarm_size=20, iterations=40, seed=trial)
        v_max = pso_config.v_max_fraction * (problem.upper_bounds - problem.lower_bounds)

        def pso_audit(iteration, swarm):
            assert np.all(swarm.positions >= problem.lower_bounds)
            assert np.all(swarm.positions <= problem.upper_bounds)
            assert np.all(np.abs(swarm.velocities) <= v_max)

        def de_audit(iteration, population):
            assert np.all(population >= problem.lower_bounds)
            assert np.all(population <= problem.upper_bounds)

        for result in (
            pso.optimize(problem, pso_config, on_iteration=pso_audit),
            de.optimize(problem,
                        de.DeConfig(population_size=20, iterations=40, seed=trial),
                        on_iteration=de_audit),
        ):
            best = result.best_schedule
            assert np.all(best.values >= problem.lower_bounds)
            assert np.all(best.values <= problem.upper_bounds)
            assert result.violation == evaluate_batch(problem, best.values[None])[2, 0]
            if total(best) <= total(problem.predicted):
                assert result.violation == 0.0
            else:
                assert result.violation > 0.0
            objectives = [t.objective for t in result.trace]
            assert all(b <= a for a, b in zip(objectives, objectives[1:]))
            checked += 1
    elapsed = time.perf_counter() - started
    _report(7, checked == 10 and elapsed < 60.0,
            f"{checked} audited runs, all invariants held, {elapsed:.1f}s")


def test_c8_reruns_are_byte_identical(tmp_path, synth_day, synth30_path):
    _, predicted, prices = synth_day
    predicted_csv = tmp_path / "predicted.csv"
    prices_csv = tmp_path / "prices.csv"
    _write_hourly(predicted_csv, "predicted_kwh", predicted.values)
    _write_hourly(prices_csv, "price_c_per_kwh", prices.values)

    identical = []
    for name, argv, outputs in [
        ("optimize",
         ["optimize", "--predicted", str(predicted_csv), "--prices", str(prices_csv),
          "--w1", "0.4", "--w2", "0.6", "--population", "20", "--iterations", "30",
          "--seed", "5"],
         ["result.json"]),
        ("train",
         ["train", "--data", str(synth30_path), "--hidden", "8", "--epochs", "25",
          "--seed", "5"],
         ["model.json", "fit_report.json"]),
        ("sweep",
         ["sweep", "--predicted", str(predicted_csv), "--prices", str(prices_csv),
          "--weights", "0.8:0.2,0.5:0.5,0.2:0.8", "--population", "10",
          "--iterations", "10", "--seed", "5"],
         ["sweep.json"]),
    ]:
        first = tmp_path / f"{name}_a"
        second = tmp_path / f"{name}_b"
        for out in (first, second):
            out.mkdir()
            assert main(argv + ["--out", str(out)]) == 0
        same = all((first / f).read_bytes() == (second / f).read_bytes()
                   for f in outputs)
        identical.append((name, same))
    ok = all(same for _, same in identical)
    _report(8, ok, ", ".join(f"{name} {'identical' if same else 'DIFFERS'}"
                             for name, same in identical))


def test_c9_peak_cap_is_respected_and_reported(capped_problem):
    cap = float(np.max(capped_problem.upper_bounds))
    peak_before = peak(capped_problem.predicted)
    assert cap == 0.85 * peak_before
    result = pso.optimize(capped_problem, pso.PsoConfig(seed=0))
    reduction = 100.0 * (result.peak_before_kw - result.peak_after_kw) / result.peak_before_kw
    ok = (result.peak_after_kw <= cap * (1 + 1e-12)
          and reduction >= 15.0 - 1e-9)
    _report(9, ok, f"peak {result.peak_after_kw:.3f} kW vs cap {cap:.3f} kW, "
                   f"reduction {reduction:.2f}%")
