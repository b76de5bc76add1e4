"""Command line front end.

Each parameter has one flag, and a flag the user omits takes its argparse
default.  Flag pairs where one would silently override the other
(--predicted with --model, --split with --split-fraction) are refused as
usage errors.  A day's forecast and prices each come from one source: the
24-row CSV when given, otherwise the --data dataset at --day, so --data and
--day are refused when both CSVs are given.  Every subcommand derives
per-component seeds from the single master seed and drops a manifest.json
next to its outputs.  The manifest records every parsed argument under its
argparse dest, plus the values derived from them (layer sizes, window
counts, sweep pairs, output path) and the derived seeds.
Timestamps appear only in the manifest, so every other artifact is
byte-identical across reruns.

Hours are 1..24 in every file read or written here; arrays are 0..23
inside the library.
"""

from __future__ import annotations

import argparse
import sys
from datetime import date, datetime
from functools import cache
from pathlib import Path

import numpy as np

from . import __version__, mlp, report, synth
from .errors import InsufficientData, InvalidArgument, LoadshiftError, MissingPrices
from .exact import exact_optimum, pinned_problem
from .ingest import (
    DEFAULT_LAG,
    DEFAULT_SPLIT_FRACTION,
    PRICE_COLUMN,
    build_windows,
    fit_normalizer,
    load_dataset,
    read_hourly_column,
    split_windows,
)
from .objective import DEFAULT_ALPHA, DEFAULT_GAMMA_HI, DEFAULT_GAMMA_LO, build_problem
from .profiles import ProfileKind, load_profile, price_profile
from .report import write_json, write_trace_csv
from .seeding import derive_seed

PREDICTED_COLUMN = "predicted_kwh"


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


def _bounds(args) -> dict:
    """build_problem's keyword arguments: every problem parameter but the weights."""
    return {key: getattr(args, key) for key in ("alpha", "gamma_lo", "gamma_hi", "peak_cap")}


def _out_dir(args) -> Path:
    """The ``--out`` directory, created just before a command's first write,
    so that a command that fails before it writes leaves no directory."""
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

def _write_hourly_csv(path, columns: dict) -> None:
    report.write_csv(path, ["hour", *columns], zip(range(1, 25), *columns.values()))


# input resolution -----------------------------------------------------------

def _resolve_day_inputs(args) -> tuple:
    """(predicted, prices) for one day.  Each comes from one source: its
    24-row CSV (--predicted, --prices) when given, otherwise the --data
    dataset at --day, the forecast made by --model."""
    from_data = args.predicted is None or args.prices is None
    if not from_data and (args.data is not None or args.day is not None):
        raise InvalidArgument("--data and --day are not read when --predicted and --prices are both given")
    dated = args.data is not None and args.day is not None
    if args.predicted is None and not (args.model is not None and dated):
        raise LoadshiftError("need a predicted profile: pass --predicted CSV, or --model with --data and --day")
    if args.prices is None and not dated:
        raise MissingPrices("need 24 hourly prices: pass --prices CSV, or --data with a price column and --day")

    day = _parse_flag("--day", args.day, date.fromisoformat) if from_data else None
    if args.predicted is not None:
        predicted = load_profile(read_hourly_column(args.predicted, PREDICTED_COLUMN, InsufficientData))
    else:
        model = mlp.load_model(args.model)
    dataset = load_dataset(args.data, allow_gaps=True) if from_data else None
    if args.predicted is None:
        predicted = mlp.predict_day(model, dataset, day)
    if args.prices is not None:
        return predicted, price_profile(read_hourly_column(args.prices, PRICE_COLUMN, MissingPrices))
    return predicted, dataset.day_profile(day, ProfileKind.PRICE)


def _build_problem_from_args(args):
    return build_problem(*_resolve_day_inputs(args), args.w1, args.w2, **_bounds(args))


# subcommands ----------------------------------------------------------------

def _r_text(r) -> str:
    """A correlation as printed: None, for a constant reference series, is undefined."""
    return "r undefined" if r is None else f"r {r:.4f}"


def cmd_synth(args) -> int:
    config = synth.SynthConfig(
        days=args.days, seed=args.seed, include_price=not args.no_price
    )
    out = _out_dir(args)
    target = out / "synthetic.csv"
    synth.write_csv(config, target)
    _write_manifest(out, args, {}, path=str(target))
    print(f"wrote {args.days} days to {target}")
    return 0


def cmd_train(args) -> int:
    split_boundary = _parse_flag("--split", args.split, datetime.fromisoformat) if args.split else None
    hidden = _parse_flag("--hidden", args.hidden, _ints)
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

    out = _out_dir(args)
    mlp.save_model(model, out / "model.json")
    write_json(fit.to_json_dict(), out / "fit_report.json")
    report.write_csv(out / "training_curve.csv", ["epoch", "train_mse"], enumerate(fit.epoch_mse, start=1))
    _write_manifest(
        out, args, {"mlp-init": init_seed, "mlp-shuffle": shuffle_seed},
        layer_sizes=list(sizes), train_windows=len(train_windows), test_windows=len(test_windows),
    )
    print(f"train mse {fit.train_mse:.6f}  {_r_text(fit.train_correlation)}")
    if fit.test_mse is not None:
        print(f"test  mse {fit.test_mse:.6f}  {_r_text(fit.test_correlation)}")
    print(f"model saved to {out / 'model.json'}")
    return 0


def cmd_predict(args) -> int:
    day = _parse_flag("--day", args.day, date.fromisoformat)
    model = mlp.load_model(args.model)
    dataset = load_dataset(args.data, allow_gaps=True)
    predicted = mlp.predict_day(model, dataset, day)
    actual = dataset.day_profile(day)
    out = _out_dir(args)
    _write_hourly_csv(
        out / "prediction.csv", {"real": actual.values, "predicted": predicted.values}
    )
    mse, r = mlp.metrics(predicted.values, actual.values)
    _write_manifest(out, args, {})
    print(f"{day}: mse {mse:.3f} kWh^2  {_r_text(r)}")
    return 0


def cmd_optimize(args) -> int:
    problem = _build_problem_from_args(args)
    run_seed = derive_seed(args.seed, args.algorithm)
    result = report.run_optimizer(args.algorithm, problem, args.population, args.iterations, run_seed)

    out = _out_dir(args)
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
            raise ValueError(f"weight pair {chunk!r} is not of the form w1:w2")
        pairs.append((float(w1_str), float(w2_str)))
    return pairs


def cmd_sweep(args) -> int:
    predicted, prices = _resolve_day_inputs(args)
    if args.weights is not None:
        pairs = _parse_flag("--weights", args.weights, _parse_weights)
    else:
        pairs = [(round(i / 10, 1), round(1 - i / 10, 1)) for i in range(11)]
    # a row's seed follows its index, so adding or removing a row never perturbs the others
    seeds = [derive_seed(args.seed, "sweep", i) for i in range(len(pairs))]
    rows = report.weight_sweep(predicted, prices, pairs, args.population, args.iterations, seeds,
                               **_bounds(args))
    out = _out_dir(args)
    write_json({"rows": [row.to_json_dict() for row in rows]}, out / "sweep.json")
    report.write_weight_sweep_csv(rows, out / "sweep.csv")
    _write_manifest(out, args, {f"sweep:{i}": seed for i, seed in enumerate(seeds)},
                    pairs=[[w1, w2] for w1, w2 in pairs])
    print(report.weight_sweep_table(rows))
    return 0


def cmd_compare(args) -> int:
    problem = _build_problem_from_args(args)
    seeds = {name: derive_seed(args.seed, name) for name in ("pso", "de")}
    comparison = report.compare_algorithms(problem, args.population, args.iterations, seeds)
    out = _out_dir(args)
    for name, result in comparison.results.items():
        write_trace_csv(result, out / f"{name}_trace.csv")
    write_json(comparison.to_json_dict(), out / "comparison.json")
    _write_manifest(out, args, seeds)
    print(report.comparison_table(comparison))
    return 0


def cmd_verify(args) -> int:
    free_hours = _free_hours(args.free_hours)
    if not 0 <= args.tolerance < np.inf:   # NaN included
        raise InvalidArgument(f"--tolerance {args.tolerance!r}: must be a finite number >= 0")
    pinned = pinned_problem(_build_problem_from_args(args), free_hours)
    oracle_schedule, oracle_objective = exact_optimum(pinned)

    algorithms = ["pso", "de"] if args.algorithm == "both" else [args.algorithm]
    seeds = {f"verify-{name}": derive_seed(args.seed, f"verify-{name}") for name in algorithms}
    checks = []
    for name in algorithms:
        result = report.run_optimizer(name, pinned, args.population, args.iterations, seeds[f"verify-{name}"])
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

    out = _out_dir(args)
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
    forecast = day_inputs.add_mutually_exclusive_group()
    forecast.add_argument("--predicted", help=f"24-row CSV hour,{PREDICTED_COLUMN}")
    forecast.add_argument("--model", help="trained model file (with --data and --day)")
    day_inputs.add_argument("--data", help="hourly dataset CSV")
    day_inputs.add_argument("--day", help="target day, ISO date")
    day_inputs.add_argument("--prices", help=f"24-row CSV hour,{PRICE_COLUMN}")

    bounds = argparse.ArgumentParser(add_help=False)
    bounds.add_argument("--alpha", type=float, default=DEFAULT_ALPHA,
                        help="violation penalty weight (default %(default)s)")
    bounds.add_argument("--gamma-lo", type=float, default=DEFAULT_GAMMA_LO,
                        help="lower bound factor on predicted load (default %(default)s)")
    bounds.add_argument("--gamma-hi", type=float, default=DEFAULT_GAMMA_HI,
                        help="upper bound factor on predicted load (default %(default)s)")
    bounds.add_argument("--peak-cap", type=float, help="hard hourly ceiling, kWh (default none)")

    # the default weighting leans toward shifting over raw cost
    weights = argparse.ArgumentParser(add_help=False)
    weights.add_argument("--w1", type=float, default=0.4, help="cost term weight (default 0.4)")
    weights.add_argument("--w2", type=float, default=0.6, help="shift term weight (default 0.6)")

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
    p.add_argument("--hidden", default=",".join(map(str, mlp.DEFAULT_LAYER_SIZES)),
                   help="hidden layer sizes, comma-separated")
    p.add_argument("--epochs", type=int, default=mlp.TrainConfig.epochs)
    p.add_argument("--learning-rate", type=float, default=mlp.TrainConfig.learning_rate)
    p.add_argument("--batch-size", type=int, default=mlp.TrainConfig.batch_size)
    p.add_argument("--momentum", type=float, default=mlp.TrainConfig.momentum)
    split = p.add_mutually_exclusive_group()
    split.add_argument("--split", help="train/test boundary timestamp, ISO")
    split.add_argument("--split-fraction", type=float, default=DEFAULT_SPLIT_FRACTION)
    p.add_argument("--allow-gaps", action="store_true", help="accept missing hours between rows")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("predict", parents=[common], help="predict one day's load")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--day", required=True, help="ISO date")
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
    # accepted and ignored: the benchmark's study-cli-120d command lines still pass it
    p.add_argument("--resolution", help=argparse.SUPPRESS)
    p.add_argument("--tolerance", type=float, default=0.01, help="relative gap to pass")
    p.add_argument("--algorithm", choices=["pso", "de", "both"], default="pso")
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (LoadshiftError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
