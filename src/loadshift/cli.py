"""Command line front end.

Every subcommand resolves its parameters (config file first, flags
override), derives per-component seeds from the single master seed, and
drops a manifest.json next to its outputs recording everything needed
to reproduce the run.  Timestamps appear only in the manifest, so every
other artifact is byte-identical across reruns.

Hours are 1..24 in every file read or written here; arrays are 0..23
inside the library.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from datetime import date, datetime
from functools import cache
from pathlib import Path
from typing import Optional

import numpy as np

from . import __version__, de, mlp, pso, report, synth
from .errors import InsufficientData, InvalidGrid, LoadshiftError, MissingColumn, MissingPrices, UnparseableRow
from .gridsearch import ReducedProblem, grid_search, pinned_problem
from .ingest import (
    DEFAULT_LAG,
    PRICE_COLUMN,
    build_windows,
    fit_normalizer,
    load_dataset,
    split_windows,
)
from .objective import (
    DEFAULT_ALPHA,
    DEFAULT_GAMMA_HI,
    DEFAULT_GAMMA_LO,
    build_problem,
)
from .profiles import load_profile, price_profile
from .report import write_json, write_trace_csv
from .seeding import derive_seed

PREDICTED_COLUMN = "predicted_kwh"

_CONFIG_BOUND_KEYS = ("alpha", "gamma_lo", "gamma_hi", "peak_cap")
_CONFIG_WEIGHT_KEYS = ("w1", "w2")

# default weighting leans toward shifting over raw cost
_DEFAULT_W1 = 0.4
_DEFAULT_W2 = 0.6


# parameter resolution -------------------------------------------------------

def _load_config_file(path) -> dict:
    raw = json.loads(Path(path).read_text(encoding="utf-8"))
    allowed = set(_CONFIG_BOUND_KEYS) | set(_CONFIG_WEIGHT_KEYS)
    unknown = sorted(set(raw) - allowed)
    if unknown:
        raise LoadshiftError(
            f"unknown config keys {unknown}; allowed: {sorted(allowed)}"
        )
    return raw


def _problem_params(args, include_weights: bool = True) -> dict:
    values = {
        "alpha": DEFAULT_ALPHA,
        "gamma_lo": DEFAULT_GAMMA_LO,
        "gamma_hi": DEFAULT_GAMMA_HI,
        "peak_cap": None,
    }
    if include_weights:
        values["w1"] = _DEFAULT_W1
        values["w2"] = _DEFAULT_W2
    if args.config:
        for key, value in _load_config_file(args.config).items():
            if key in values:
                values[key] = value
    for key in list(values):
        flag = getattr(args, key, None)
        if flag is not None:
            values[key] = flag
    return values


def _out_dir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _write_manifest(out: Path, command: str, args, parameters: dict, derived_seeds: dict) -> None:
    write_json(
        {
            "command": command,
            "version": __version__,
            "timestamp": datetime.now().astimezone().isoformat(),
            "master_seed": args.seed,
            "parameters": parameters,
            "derived_seeds": derived_seeds,
        },
        out / "manifest.json",
    )


# hourly CSV helpers ---------------------------------------------------------

def _read_hourly_column(path, column: str, missing_error) -> np.ndarray:
    """24 finite nonnegative values keyed by an 1..24 ``hour`` column, one row per hour."""
    with open(path, newline="", encoding="utf-8") as handle:
        reader = csv.DictReader(handle)
        header = reader.fieldnames or []
        for needed in ("hour", column):
            if needed not in header:
                raise MissingColumn(needed)
        values = np.full(24, np.nan)
        for line, row in enumerate(reader, start=2):
            try:
                hour = int(row["hour"])
                value = float(row[column])
            except (TypeError, ValueError) as exc:
                raise UnparseableRow(line, str(exc)) from None
            if not 1 <= hour <= 24:
                raise UnparseableRow(line, f"hour {hour} outside 1..24")
            if not np.isfinite(value):
                raise UnparseableRow(line, f"{column} {row[column]!r} is not a finite number")
            if value < 0:
                raise UnparseableRow(line, f"{column} {row[column]!r} is negative")
            if not np.isnan(values[hour - 1]):
                raise UnparseableRow(line, f"hour {hour} appears twice")
            values[hour - 1] = value
    missing = [int(h) + 1 for h in np.flatnonzero(np.isnan(values))]
    if missing:
        raise missing_error(f"{path}: no value for hours {missing}")
    return values


def _write_hourly_csv(path, columns: dict) -> None:
    names = list(columns)
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(["hour"] + names)
        for h in range(24):
            writer.writerow([h + 1] + [repr(float(columns[name][h])) for name in names])


# input resolution -----------------------------------------------------------

def _resolve_day_inputs(args) -> tuple:
    """(predicted, prices) from either a trained model + dataset + day or
    plain 24-row CSVs."""
    dataset = None
    day: Optional[date] = None
    if args.day:
        day = date.fromisoformat(args.day)

    if args.predicted:
        predicted = load_profile(
            _read_hourly_column(args.predicted, PREDICTED_COLUMN, InsufficientData)
        )
    elif args.model and args.data and day is not None:
        model = mlp.load_model(args.model)
        dataset = load_dataset(args.data)
        predicted = mlp.predict_day(model, dataset, day)
    else:
        raise LoadshiftError(
            "need a predicted profile: pass --predicted CSV, "
            "or --model with --data and --day"
        )

    if args.prices:
        prices = price_profile(
            _read_hourly_column(args.prices, PRICE_COLUMN, MissingPrices)
        )
    else:
        if dataset is None and args.data and day is not None:
            dataset = load_dataset(args.data)
        if dataset is None or dataset.price is None or day is None:
            raise MissingPrices(
                "need 24 hourly prices: pass --prices CSV, "
                "or --data with a price column and --day"
            )
        prices = price_profile(dataset.price[dataset.day_indices(day)])
    return predicted, prices


def _build_problem_from_args(args, include_weights: bool = True):
    predicted, prices = _resolve_day_inputs(args)
    params = _problem_params(args, include_weights=include_weights)
    if include_weights:
        problem = build_problem(
            predicted,
            prices,
            params["w1"],
            params["w2"],
            gamma_lo=params["gamma_lo"],
            gamma_hi=params["gamma_hi"],
            peak_cap=params["peak_cap"],
            alpha=params["alpha"],
        )
        return problem, params
    return (predicted, prices), params


# subcommands ----------------------------------------------------------------

def cmd_synth(args) -> int:
    out = _out_dir(args)
    config = synth.SynthConfig(
        days=args.days, seed=args.seed, include_price=not args.no_price
    )
    target = out / "synthetic.csv"
    synth.write_csv(config, target)
    _write_manifest(
        out, "synth", args,
        {"days": args.days, "include_price": not args.no_price, "path": str(target)},
        {},
    )
    print(f"wrote {args.days} days to {target}")
    return 0


def cmd_train(args) -> int:
    out = _out_dir(args)
    split_boundary = datetime.fromisoformat(args.split) if args.split else None
    dataset = load_dataset(
        args.data,
        split_boundary=split_boundary,
        split_fraction=args.split_fraction,
        allow_gaps=args.allow_gaps,
    )
    stats = fit_normalizer(dataset)
    windows = build_windows(dataset, lag=args.lag)
    train_windows, test_windows = split_windows(windows)

    hidden = tuple(int(s) for s in args.hidden.split(","))
    sizes = (len(dataset.weather[0]) + args.lag,) + hidden + (1,)
    init_seed = derive_seed(args.seed, "mlp-init")
    shuffle_seed = derive_seed(args.seed, "mlp-shuffle")
    model = mlp.init_model(sizes, init_seed, norm_stats=stats, lag=args.lag)
    config = mlp.TrainConfig(
        epochs=args.epochs,
        learning_rate=args.learning_rate,
        batch_size=args.batch_size,
        seed=shuffle_seed,
        momentum=args.momentum,
    )
    model, fit = mlp.train(model, train_windows, test_windows, config)

    mlp.save_model(model, out / "model.json")
    write_json(fit.to_json_dict(), out / "fit_report.json")
    with open(out / "training_curve.csv", "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(["epoch", "train_mse"])
        for epoch, mse in enumerate(fit.epoch_mse, start=1):
            writer.writerow([epoch, repr(mse)])
    _write_manifest(
        out, "train", args,
        {
            "data": str(args.data),
            "lag": args.lag,
            "layer_sizes": list(sizes),
            "epochs": args.epochs,
            "learning_rate": args.learning_rate,
            "batch_size": args.batch_size,
            "momentum": args.momentum,
            "split": args.split,
            "split_fraction": args.split_fraction,
            "train_windows": len(train_windows),
            "test_windows": len(test_windows),
        },
        {"mlp-init": init_seed, "mlp-shuffle": shuffle_seed},
    )
    print(f"train mse {fit.train_mse:.6f}  r {fit.train_correlation:.4f}")
    if fit.test_mse is not None:
        print(f"test  mse {fit.test_mse:.6f}  r {fit.test_correlation:.4f}")
    print(f"model saved to {out / 'model.json'}")
    return 0


def cmd_predict(args) -> int:
    out = _out_dir(args)
    model = mlp.load_model(args.model)
    dataset = load_dataset(args.data, allow_gaps=args.allow_gaps)
    day = date.fromisoformat(args.day)
    predicted = mlp.predict_day(model, dataset, day)
    actual = dataset.day_profile(day)
    _write_hourly_csv(
        out / "prediction.csv", {"real": actual.values, "predicted": predicted.values}
    )
    mse, r = mlp.metrics(predicted.values, actual.values)
    _write_manifest(out, "predict", args, {"model": str(args.model), "day": args.day}, {})
    print(f"{day}: mse {mse:.3f} kWh^2  r {r:.4f}")
    return 0


def cmd_optimize(args) -> int:
    out = _out_dir(args)
    problem, params = _build_problem_from_args(args)
    run_seed = derive_seed(args.seed, args.algorithm)
    if args.algorithm == "pso":
        result = pso.optimize(
            problem,
            pso.PsoConfig(
                swarm_size=args.population, iterations=args.iterations, seed=run_seed
            ),
        )
    else:
        result = de.optimize(
            problem,
            de.DeConfig(
                population_size=args.population, iterations=args.iterations, seed=run_seed
            ),
        )

    write_json(result.to_json_dict(), out / "result.json")
    write_trace_csv(result, out / "trace.csv")
    _write_hourly_csv(
        out / "load_comparison.csv",
        {
            "predicted_kwh": problem.predicted.values,
            "optimized_kwh": result.best_schedule.values,
        },
    )
    _write_hourly_csv(
        out / "cost_comparison.csv",
        {
            "predicted_cost": problem.predicted.values * problem.prices.values,
            "optimized_cost": result.best_schedule.values * problem.prices.values,
        },
    )
    _write_manifest(
        out, "optimize", args,
        {
            "algorithm": args.algorithm,
            "population": args.population,
            "iterations": args.iterations,
            **params,
        },
        {args.algorithm: run_seed},
    )
    print(
        f"{args.algorithm}: objective {result.objective:.6f}  "
        f"cost {result.cost_cents / 100.0:.3f} $  "
        f"shift {result.load_shift_kwh:.3f} kWh  violation {result.violation:.6f}"
    )
    print(
        f"peak {result.peak_before_kw:.3f} -> {result.peak_after_kw:.3f} kW"
    )
    return 0


def _parse_weights(text: str) -> list:
    pairs = []
    for chunk in text.split(","):
        w1_str, _, w2_str = chunk.partition(":")
        if not w2_str:
            raise LoadshiftError(f"weight pair {chunk!r} is not of the form w1:w2")
        pairs.append((float(w1_str), float(w2_str)))
    return pairs


def cmd_sweep(args) -> int:
    out = _out_dir(args)
    (predicted, prices), params = _build_problem_from_args(args, include_weights=False)
    if args.weights:
        pairs = _parse_weights(args.weights)
    else:
        pairs = [(round(i / 10, 1), round(1 - i / 10, 1)) for i in range(11)]
    rows = report.weight_sweep(
        predicted,
        prices,
        pairs,
        gamma_lo=params["gamma_lo"],
        gamma_hi=params["gamma_hi"],
        peak_cap=params["peak_cap"],
        alpha=params["alpha"],
        master_seed=args.seed,
        swarm_size=args.population,
        iterations=args.iterations,
    )
    write_json({"rows": [row.to_json_dict() for row in rows]}, out / "sweep.json")
    report.write_weight_sweep_csv(rows, out / "sweep.csv")
    _write_manifest(
        out, "sweep", args,
        {
            "weights": [[w1, w2] for w1, w2 in pairs],
            "population": args.population,
            "iterations": args.iterations,
            **params,
        },
        {f"sweep:{i}": derive_seed(args.seed, "sweep", i) for i in range(len(pairs))},
    )
    print(report.weight_sweep_table(rows))
    return 0


def cmd_compare(args) -> int:
    out = _out_dir(args)
    problem, params = _build_problem_from_args(args)
    pso_seed = derive_seed(args.seed, "pso")
    de_seed = derive_seed(args.seed, "de")
    comparison = report.compare_algorithms(
        problem,
        pso.PsoConfig(
            swarm_size=args.population, iterations=args.iterations, seed=pso_seed
        ),
        de.DeConfig(
            population_size=args.population, iterations=args.iterations, seed=de_seed
        ),
    )
    payload = comparison.to_json_dict()
    payload["results"] = {
        row.algorithm: result.to_json_dict()
        for row, result in zip(comparison.rows, comparison.results)
    }
    write_json(payload, out / "comparison.json")
    for row, result in zip(comparison.rows, comparison.results):
        write_trace_csv(result, out / f"{row.algorithm}_trace.csv")
    _write_manifest(
        out, "compare", args,
        {"population": args.population, "iterations": args.iterations, **params},
        {"pso": pso_seed, "de": de_seed},
    )
    print(report.comparison_table(comparison))
    return 0


def cmd_verify(args) -> int:
    out = _out_dir(args)
    problem, params = _build_problem_from_args(args)
    free_hours = tuple(int(h) for h in args.free_hours.split(","))
    for hour in free_hours:
        if not 1 <= hour <= 24:
            raise InvalidGrid(f"free hour {hour} outside 1..24")
    reduced = ReducedProblem(problem, tuple(h - 1 for h in free_hours), args.resolution)
    oracle_schedule, oracle_objective = grid_search(reduced)
    pinned = pinned_problem(reduced)

    algorithms = ["pso", "de"] if args.algorithm == "both" else [args.algorithm]
    checks = []
    failed = False
    for name in algorithms:
        run_seed = derive_seed(args.seed, f"verify-{name}")
        if name == "pso":
            result = pso.optimize(
                pinned,
                pso.PsoConfig(
                    swarm_size=args.population, iterations=args.iterations, seed=run_seed
                ),
            )
        else:
            result = de.optimize(
                pinned,
                de.DeConfig(
                    population_size=args.population, iterations=args.iterations, seed=run_seed
                ),
            )
        if oracle_objective > 1e-12:
            gap = (result.objective - oracle_objective) / oracle_objective
        else:
            gap = result.objective - oracle_objective
        ok = gap <= args.tolerance
        failed = failed or not ok
        checks.append(
            {
                "algorithm": name,
                "objective": result.objective,
                "oracle_objective": oracle_objective,
                "relative_gap": gap,
                "tolerance": args.tolerance,
                "pass": ok,
            }
        )
        print(
            f"{'PASS' if ok else 'FAIL'} {name}: objective {result.objective:.9f}"
            f"  oracle {oracle_objective:.9f}  gap {gap:.6f}  tolerance {args.tolerance}"
        )

    write_json(
        {
            "checks": checks,
            "free_hours": [h + 1 for h in reduced.free_hours],
            "grid_resolution": args.resolution,
            "oracle_schedule_kwh": [float(v) for v in oracle_schedule.values],
        },
        out / "verify.json",
    )
    _write_manifest(
        out, "verify", args,
        {
            "free_hours": [h + 1 for h in reduced.free_hours],
            "resolution": args.resolution,
            "tolerance": args.tolerance,
            "algorithm": args.algorithm,
            "population": args.population,
            "iterations": args.iterations,
            **params,
        },
        {f"verify-{name}": derive_seed(args.seed, f"verify-{name}") for name in algorithms},
    )
    return 1 if failed else 0


# parser ---------------------------------------------------------------------

@cache   # the parser holds no state that parse_args changes
def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=0, help="master seed (default 0)")
    common.add_argument("--out", default=".", help="output directory (default .)")
    common.add_argument("--config", help="JSON problem config; flags override its keys")

    day_inputs = argparse.ArgumentParser(add_help=False)
    day_inputs.add_argument("--predicted", help=f"24-row CSV hour,{PREDICTED_COLUMN}")
    day_inputs.add_argument("--model", help="trained model file (with --data and --day)")
    day_inputs.add_argument("--data", help="hourly dataset CSV")
    day_inputs.add_argument("--day", help="target day, ISO date")
    day_inputs.add_argument("--prices", help=f"24-row CSV hour,{PRICE_COLUMN}")

    bounds = argparse.ArgumentParser(add_help=False)
    bounds.add_argument("--alpha", type=float, help="violation penalty weight")
    bounds.add_argument("--gamma-lo", dest="gamma_lo", type=float,
                        help="lower bound factor on predicted load")
    bounds.add_argument("--gamma-hi", dest="gamma_hi", type=float,
                        help="upper bound factor on predicted load")
    bounds.add_argument("--peak-cap", dest="peak_cap", type=float,
                        help="hard hourly ceiling, kWh")

    weights = argparse.ArgumentParser(add_help=False)
    weights.add_argument("--w1", type=float, help="cost term weight")
    weights.add_argument("--w2", type=float, help="shift term weight")

    budget = argparse.ArgumentParser(add_help=False)
    budget.add_argument("--population", type=int, default=50,
                        help="swarm/population size (default 50)")
    budget.add_argument("--iterations", type=int, default=100,
                        help="optimizer iterations (default 100)")

    parser = argparse.ArgumentParser(
        prog="loadshift",
        description="Day-ahead load forecasting and price-driven load shifting.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", parents=[common], help="generate a synthetic dataset")
    p.add_argument("--days", type=int, default=120)
    p.add_argument("--no-price", action="store_true", help="omit the price column")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("train", parents=[common], help="train the load forecaster")
    p.add_argument("--data", required=True)
    p.add_argument("--lag", type=int, default=DEFAULT_LAG)
    p.add_argument("--hidden", default="25,20,15", help="hidden layer sizes, comma-separated")
    p.add_argument("--epochs", type=int, default=1000)
    p.add_argument("--learning-rate", dest="learning_rate", type=float, default=0.01)
    p.add_argument("--batch-size", dest="batch_size", type=int, default=32)
    p.add_argument("--momentum", type=float, default=0.9)
    p.add_argument("--split", help="train/test boundary timestamp, ISO")
    p.add_argument("--split-fraction", dest="split_fraction", type=float, default=0.85)
    p.add_argument("--allow-gaps", dest="allow_gaps", action="store_true")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("predict", parents=[common], help="predict one day's load")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--day", required=True, help="ISO date")
    p.add_argument("--allow-gaps", dest="allow_gaps", action="store_true")
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser(
        "optimize", parents=[common, day_inputs, weights, bounds, budget],
        help="optimize one day's schedule",
    )
    p.add_argument("--algorithm", choices=["pso", "de"], default="pso")
    p.set_defaults(func=cmd_optimize)

    p = sub.add_parser(
        "sweep", parents=[common, day_inputs, bounds, budget],
        help="run the weight sweep",
    )
    p.add_argument("--weights", help="pairs like 0.4:0.6,0.5:0.5 (default 11-point grid)")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser(
        "compare", parents=[common, day_inputs, weights, bounds, budget],
        help="swarm vs differential evolution",
    )
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser(
        "verify", parents=[common, day_inputs, weights, bounds, budget],
        help="check optimizer quality against exhaustive search",
    )
    p.add_argument("--free-hours", dest="free_hours", default="18,19",
                   help="comma-separated hours 1..24 left free (max 4)")
    p.add_argument("--resolution", type=int, default=101, help="grid points per free hour")
    p.add_argument("--tolerance", type=float, default=0.01, help="relative gap to pass")
    p.add_argument("--algorithm", choices=["pso", "de", "both"], default="pso")
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (LoadshiftError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
