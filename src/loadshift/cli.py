"""Command line front end.

The four problem subcommands (optimize, sweep, compare, verify) resolve
their problem parameters: flag, then key of the --config file, then
default.  Every subcommand derives per-component seeds from the single
master seed and drops a manifest.json next to its outputs.  The manifest
records every parsed argument under its argparse dest, with the problem
parameters already resolved, plus the values derived from them (layer
sizes, window counts, sweep pairs, output path) and the derived seeds.
Timestamps appear only in the manifest, so every other artifact is
byte-identical across reruns.

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

import numpy as np

from . import __version__, de, mlp, pso, report, synth
from .errors import InsufficientData, InvalidArgument, LoadshiftError, MissingColumn, MissingPrices, UnparseableRow
from .exact import exact_optimum, pinned_problem
from .ingest import (
    DEFAULT_LAG,
    PRICE_COLUMN,
    build_windows,
    fit_normalizer,
    load_dataset,
    split_windows,
)
from .objective import DEFAULT_ALPHA, DEFAULT_GAMMA_HI, DEFAULT_GAMMA_LO, build_problem
from .profiles import ProfileKind, load_profile, price_profile
from .report import write_json, write_trace_csv
from .seeding import derive_seed

PREDICTED_COLUMN = "predicted_kwh"

# the problem parameters a config file may set, with their defaults; the
# default weighting leans toward shifting over raw cost
_PROBLEM_DEFAULTS = {
    "alpha": DEFAULT_ALPHA,
    "gamma_lo": DEFAULT_GAMMA_LO,
    "gamma_hi": DEFAULT_GAMMA_HI,
    "peak_cap": None,
    "w1": 0.4,
    "w2": 0.6,
}


# parameter resolution -------------------------------------------------------

def _parse_flag(flag: str, text: str, parse):
    """``parse(text)``, with a ValueError turned into an InvalidArgument
    that names the flag and the value."""
    try:
        return parse(text)
    except ValueError as exc:
        raise InvalidArgument(f"{flag} {text!r}: {exc}") from None


def _ints(text: str) -> tuple:
    return tuple(int(item) for item in text.split(","))


def _free_hours(text: str) -> list:
    """--free-hours as sorted indices 0..23.  Each fault names the hour as
    typed, 1..24; parsing already refuses an empty list."""
    hours = _parse_flag("--free-hours", text, _ints)
    for hour in hours:
        if not 1 <= hour <= 24:
            raise InvalidArgument(f"free hour {hour} outside 1..24")
        if hours.count(hour) > 1:
            raise InvalidArgument(f"--free-hours {text!r}: hour {hour} appears twice")
    return sorted(hour - 1 for hour in hours)


def _read_config(path) -> dict:
    """A --config file: a JSON object whose values are finite numbers, or
    null for peak_cap.  Booleans are not numbers here."""
    try:
        config = json.loads(Path(path).read_text(encoding="utf-8"), parse_int=float)
    except ValueError as exc:   # JSONDecodeError and UnicodeDecodeError among them
        raise InvalidArgument(f"config {path} is not a JSON file: {exc}") from None
    if not isinstance(config, dict):
        raise InvalidArgument(f"config {path} must hold a JSON object, got {json.dumps(config)}")
    for key, value in config.items():
        if not (type(value) is float and np.isfinite(value)) and (key, value) != ("peak_cap", None):
            kind = "a finite number or null" if key == "peak_cap" else "a finite number"
            raise InvalidArgument(f"config {path}: {key!r} must be {kind}, got {json.dumps(value)}")
    return config


def _resolve_problem_parameters(args) -> None:
    """Set each problem parameter the subcommand defines on ``args``: the
    flag, else the config file key, else the default.  A config key for a
    parameter the subcommand lacks is refused, not ignored."""
    config = _read_config(args.config) if args.config else {}
    allowed = sorted(key for key in _PROBLEM_DEFAULTS if hasattr(args, key))
    unknown = sorted(set(config) - set(allowed))
    if unknown:
        raise LoadshiftError(f"config keys {unknown} are not parameters of {args.command}; allowed: {allowed}")
    for key in allowed:
        if getattr(args, key) is None:
            setattr(args, key, config.get(key, _PROBLEM_DEFAULTS[key]))


def _bounds(args) -> dict:
    """build_problem's keyword arguments: every resolved problem parameter but the weights."""
    return {key: getattr(args, key) for key in _PROBLEM_DEFAULTS if key not in ("w1", "w2")}


def _out_dir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _write_manifest(out: Path, args, derived_seeds: dict, **derived) -> None:
    parameters = {key: value for key, value in vars(args).items() if key not in ("func", "command")}
    write_json(
        {
            "command": args.command,
            "version": __version__,
            "timestamp": datetime.now().astimezone().isoformat(),
            "master_seed": args.seed,
            "parameters": {**parameters, **derived},
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
    report.write_csv(path, ["hour", *columns], zip(range(1, 25), *columns.values()))


# input resolution -----------------------------------------------------------

def _resolve_day_inputs(args) -> tuple:
    """(predicted, prices) from either a trained model + dataset + day or
    plain 24-row CSVs; then the problem parameters, resolved onto ``args``."""
    dataset = None
    day = _parse_flag("--day", args.day, date.fromisoformat) if args.day else None
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
    elif args.data and day is not None:
        if dataset is None:
            dataset = load_dataset(args.data)
        prices = dataset.day_profile(day, ProfileKind.PRICE)
    else:
        raise MissingPrices(
            "need 24 hourly prices: pass --prices CSV, "
            "or --data with a price column and --day"
        )
    _resolve_problem_parameters(args)
    return predicted, prices


def _build_problem_from_args(args):
    return build_problem(*_resolve_day_inputs(args), args.w1, args.w2, **_bounds(args))


# optimizers -----------------------------------------------------------------

def _optimizer_config(name: str, args, seed: int):
    """The ``name`` optimizer's config at the --population/--iterations budget."""
    if name == "pso":
        return pso.PsoConfig(swarm_size=args.population, iterations=args.iterations, seed=seed)
    return de.DeConfig(population_size=args.population, iterations=args.iterations, seed=seed)


def _optimize(name: str, problem, args, seed: int):
    """Run optimizer ``name`` ("pso" or "de").  ``optimize`` is looked up on its
    module at call time, so a wrapper installed there later is the one that runs."""
    module = pso if name == "pso" else de
    return module.optimize(problem, _optimizer_config(name, args, seed))


# subcommands ----------------------------------------------------------------

def cmd_synth(args) -> int:
    out = _out_dir(args)
    config = synth.SynthConfig(
        days=args.days, seed=args.seed, include_price=not args.no_price
    )
    target = out / "synthetic.csv"
    synth.write_csv(config, target)
    _write_manifest(out, args, {}, path=str(target))
    print(f"wrote {args.days} days to {target}")
    return 0


def cmd_train(args) -> int:
    split_boundary = _parse_flag("--split", args.split, datetime.fromisoformat) if args.split else None
    hidden = _parse_flag("--hidden", args.hidden, _ints)
    out = _out_dir(args)
    dataset = load_dataset(
        args.data,
        split_boundary=split_boundary,
        split_fraction=args.split_fraction,
        allow_gaps=args.allow_gaps,
    )
    stats = fit_normalizer(dataset)
    windows = build_windows(dataset, lag=args.lag)
    train_windows, test_windows = split_windows(windows)

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
    report.write_csv(out / "training_curve.csv", ["epoch", "train_mse"], enumerate(fit.epoch_mse, start=1))
    _write_manifest(
        out, args, {"mlp-init": init_seed, "mlp-shuffle": shuffle_seed},
        layer_sizes=list(sizes), train_windows=len(train_windows), test_windows=len(test_windows),
    )
    print(f"train mse {fit.train_mse:.6f}  r {fit.train_correlation:.4f}")
    if fit.test_mse is not None:
        print(f"test  mse {fit.test_mse:.6f}  r {fit.test_correlation:.4f}")
    print(f"model saved to {out / 'model.json'}")
    return 0


def cmd_predict(args) -> int:
    day = _parse_flag("--day", args.day, date.fromisoformat)
    out = _out_dir(args)
    model = mlp.load_model(args.model)
    dataset = load_dataset(args.data, allow_gaps=args.allow_gaps)
    predicted = mlp.predict_day(model, dataset, day)
    actual = dataset.day_profile(day)
    _write_hourly_csv(
        out / "prediction.csv", {"real": actual.values, "predicted": predicted.values}
    )
    mse, r = mlp.metrics(predicted.values, actual.values)
    _write_manifest(out, args, {})
    print(f"{day}: mse {mse:.3f} kWh^2  r {r:.4f}")
    return 0


def cmd_optimize(args) -> int:
    out = _out_dir(args)
    problem = _build_problem_from_args(args)
    run_seed = derive_seed(args.seed, args.algorithm)
    result = _optimize(args.algorithm, problem, args, run_seed)

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
    _write_manifest(out, args, {args.algorithm: run_seed})
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
    predicted, prices = _resolve_day_inputs(args)
    if args.weights:
        pairs = _parse_flag("--weights", args.weights, _parse_weights)
    else:
        pairs = [(round(i / 10, 1), round(1 - i / 10, 1)) for i in range(11)]
    rows = report.weight_sweep(
        predicted, prices, pairs, **_bounds(args),
        master_seed=args.seed, swarm_size=args.population, iterations=args.iterations,
    )
    write_json({"rows": [row.to_json_dict() for row in rows]}, out / "sweep.json")
    report.write_weight_sweep_csv(rows, out / "sweep.csv")
    _write_manifest(
        out, args,
        {f"sweep:{i}": derive_seed(args.seed, "sweep", i) for i in range(len(pairs))},
        pairs=[[w1, w2] for w1, w2 in pairs],
    )
    print(report.weight_sweep_table(rows))
    return 0


def cmd_compare(args) -> int:
    out = _out_dir(args)
    problem = _build_problem_from_args(args)
    seeds = {name: derive_seed(args.seed, name) for name in ("pso", "de")}
    comparison = report.compare_algorithms(
        problem, *(_optimizer_config(name, args, seed) for name, seed in seeds.items())
    )
    payload = {**comparison.to_json_dict(), "results": {}}
    for row, result in zip(comparison.rows, comparison.results):
        payload["results"][row.algorithm] = result.to_json_dict()
        write_trace_csv(result, out / f"{row.algorithm}_trace.csv")
    write_json(payload, out / "comparison.json")
    _write_manifest(out, args, seeds)
    print(report.comparison_table(comparison))
    return 0


def cmd_verify(args) -> int:
    free_hours = _free_hours(args.free_hours)
    out = _out_dir(args)
    pinned = pinned_problem(_build_problem_from_args(args), free_hours)
    oracle_schedule, oracle_objective = exact_optimum(pinned)

    algorithms = ["pso", "de"] if args.algorithm == "both" else [args.algorithm]
    seeds = {f"verify-{name}": derive_seed(args.seed, f"verify-{name}") for name in algorithms}
    checks = []
    for name in algorithms:
        result = _optimize(name, pinned, args, seeds[f"verify-{name}"])
        if oracle_objective > 1e-12:
            gap = (result.objective - oracle_objective) / oracle_objective
        else:
            gap = result.objective - oracle_objective
        ok = gap <= args.tolerance
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
            "free_hours": [h + 1 for h in free_hours],
            "oracle_schedule_kwh": [float(v) for v in oracle_schedule.values],
        },
        out / "verify.json",
    )
    _write_manifest(out, args, seeds)
    return 0 if all(check["pass"] for check in checks) else 1


# parser ---------------------------------------------------------------------

@cache   # the parser holds no state that parse_args changes
def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=0, help="master seed (default 0)")
    common.add_argument("--out", default=".", help="output directory (default .)")

    day_inputs = argparse.ArgumentParser(add_help=False)
    day_inputs.add_argument("--predicted", help=f"24-row CSV hour,{PREDICTED_COLUMN}")
    day_inputs.add_argument("--model", help="trained model file (with --data and --day)")
    day_inputs.add_argument("--data", help="hourly dataset CSV")
    day_inputs.add_argument("--day", help="target day, ISO date")
    day_inputs.add_argument("--prices", help=f"24-row CSV hour,{PRICE_COLUMN}")

    bounds = argparse.ArgumentParser(add_help=False)
    bounds.add_argument("--config", help="JSON problem config; flags override its keys")
    bounds.add_argument("--alpha", type=float, help="violation penalty weight")
    bounds.add_argument("--gamma-lo", type=float, help="lower bound factor on predicted load")
    bounds.add_argument("--gamma-hi", type=float, help="upper bound factor on predicted load")
    bounds.add_argument("--peak-cap", type=float, help="hard hourly ceiling, kWh")

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
    p.add_argument("--learning-rate", type=float, default=0.01)
    p.add_argument("--batch-size", type=int, default=32)
    p.add_argument("--momentum", type=float, default=0.9)
    p.add_argument("--split", help="train/test boundary timestamp, ISO")
    p.add_argument("--split-fraction", type=float, default=0.85)
    p.add_argument("--allow-gaps", action="store_true")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("predict", parents=[common], help="predict one day's load")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--day", required=True, help="ISO date")
    p.add_argument("--allow-gaps", action="store_true")
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
        help="check optimizer quality against the exact optimum",
    )
    p.add_argument("--free-hours", default="18,19", help="comma-separated distinct hours 1..24 left free")
    # accepted and ignored: command lines written for the grid oracle still run
    p.add_argument("--resolution", help=argparse.SUPPRESS)
    p.add_argument("--tolerance", type=float, default=0.01, help="relative gap to pass")
    p.add_argument("--algorithm", choices=["pso", "de", "both"], default="pso")
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (LoadshiftError, OSError, UnicodeDecodeError) as exc:   # the last: an input file that is not UTF-8
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
