"""The three benchmark workloads.

Each is a closed loop with one caller: one operation starts when the
previous one has returned, in this process, with no threads or
subprocesses of the benchmark's own.  An operation is one day's work:

- ``forecast-3650d``: ``predict_day`` on one held-out day; every pass
  over the held-out days follows a retrain on the whole 3650-day set (the
  periodic retrain-and-forecast job).  Ingest, ``Dataset`` and the MLP do
  the work; no optimizer runs.
- ``dayahead-120d``: ``predict_day`` -> ``build_problem`` ->
  ``pso.optimize`` for one day, with a small model trained in set-up and
  retrained twice a month (the operator's daily loop).  PSO and the objective
  do the work.
- ``study-cli-120d``: one CLI command of a day's analysis, run in-process
  through ``loadshift.cli.main`` with every artifact written.  Every
  command re-parses the CSV and the model, and DE, grid search and the
  report writers run only here.

The first pass over a workload's days is fixed by the seed, so quality
figures (forecast error, optimality gaps) cover the same days on every
run; after it, days repeat until the run's time is used up.
"""

import contextlib
import csv
import filecmp
import io
import itertools
import json
import time
from dataclasses import dataclass, replace
from datetime import date, timedelta
from pathlib import Path

import numpy as np

from exact import CheckFailed, ape, check_forecast, check_result, exact_optimum

START = date(2024, 1, 1)          # first day of every synthetic set
FIRST_FORECAST_DAY = 2            # predict_day needs 48 hours of history
WEIGHTS = ((0.8, 0.2), (0.2, 0.8), (0.6, 0.4), (0.4, 0.6))   # cost- and shift-leaning
PEAK_CAP = 0.9                    # share of the predicted peak: every problem is capped
RETRAIN_DAYS = 15                 # dayahead-120d retrains its model twice a month


@dataclass(frozen=True)
class Sizes:
    days: int                     # length of the synthetic set
    epochs: int                   # MLP training epochs
    pass_days: int = 0            # distinct days in the first pass (0: all eligible)
    population: int = 50
    iterations: int = 100
    resolution: int = 101         # verify grid points per free hour
    free_hours: str = "17,18,19"


def seed_for(seed, *labels):
    """Program seed for one component, derived from the workload seed."""
    return int(np.random.default_rng([seed, *labels]).integers(2**63))


def read_hourly(path):
    """{day: (loads, prices)} parsed by the benchmark itself from a synthetic CSV."""
    loads, prices = {}, {}
    with open(path, newline="", encoding="utf-8") as handle:
        for row in csv.DictReader(handle):
            day = date.fromisoformat(row["timestamp"][:10])
            loads.setdefault(day, []).append(float(row["load_kwh"]))
            prices.setdefault(day, []).append(float(row["price_c_per_kwh"]))
    return {day: (np.array(loads[day]), np.array(prices[day])) for day in loads}


def train_model(ls, csv_path, folder, epochs, seed, between=lambda: None):
    """CSV path to a saved and reloaded model, through the library API.

    ``between`` runs between the steps: the benchmark times its reference
    task there, so a long training is measured against the machine's
    speed all along, not only at its ends.
    """
    dataset = ls.ingest.load_dataset(csv_path)
    between()
    stats = ls.ingest.fit_normalizer(dataset)
    train_windows, test_windows = ls.ingest.split_windows(ls.ingest.build_windows(dataset))
    between()
    lag = ls.ingest.DEFAULT_LAG
    sizes = (len(ls.profiles.WEATHER_FEATURES) + lag,) + ls.mlp.DEFAULT_LAYER_SIZES + (1,)
    model = ls.mlp.init_model(sizes, seed_for(seed, 1), norm_stats=stats, lag=lag)
    config = ls.mlp.TrainConfig(epochs=epochs, seed=seed_for(seed, 2))
    model, fit = ls.mlp.train(model, train_windows, test_windows, config)
    between()
    path = Path(folder) / "model.json"
    ls.mlp.save_model(model, path)
    return dataset, model, fit, ls.mlp.load_model(path)


def require(condition, message):
    if not condition:
        raise CheckFailed(message)


def check_trained(trained):
    dataset, model, fit, loaded = trained
    require(np.isfinite(fit.train_mse), "training diverged")
    require(
        all(np.array_equal(a, b) for a, b in zip(model.weights + model.biases, loaded.weights + loaded.biases)),
        "model.json does not round-trip",
    )
    return dataset, loaded


class Samples(list):
    """Latencies in ns, with each one in reference units (``ref``); a traced
    run also keeps each operation's untraced twin."""

    def __init__(self):
        super().__init__()
        self.ref = []
        self.untraced = []


class Measurement:
    """What the measured phase of a workload produced."""

    def __init__(self):
        self.op_ns = Samples()    # latency of every operation
        self.train_ns = Samples() # CSV path to saved model, per training
        self.ape = []             # absolute forecast errors, %
        self.gaps = {"pso": [], "de": []}   # relative gaps to the exact optimum


def passes(days, started, seconds):
    """(index, day, first_pass) until the first pass is done and time is up."""
    for round_ in itertools.count():
        for index, day in enumerate(days):
            if round_ and time.perf_counter() - started >= seconds:
                return
            yield index, day, round_ == 0


# forecast-3650d -----------------------------------------------------------

class Forecast:
    def __init__(self, sizes):
        self.sizes = sizes

    def setup(self, run, ls, seed, folder):
        path = Path(folder) / "data.csv"
        ls.synth.write_csv(ls.synth.SynthConfig(days=self.sizes.days, seed=seed), path)
        return path

    def measure(self, run, ls, seed, data, folder):
        """Rounds of retrain, then forecast every held-out day, until time is up.

        Repeating the whole job spreads the training samples over the run,
        so ``train_ref`` does not hinge on one moment of a noisy machine.
        """
        out = Measurement()
        started = time.perf_counter()
        # the held-out days: wholly after the default 85% chronological split
        first_test_row = int(0.85 * self.sizes.days * 24)
        days = [START + timedelta(d) for d in range(-(-first_test_row // 24), self.sizes.days)]
        for round_ in itertools.count():
            trained = run.attempt(
                "train", lambda: train_model(ls, data, folder, self.sizes.epochs, seed, run.reference),
                check_trained, out.train_ns,
            )
            if trained is None:
                return out
            dataset, model = trained
            for day in days:
                if round_ and time.perf_counter() - started >= run.seconds:
                    return out
                predicted = run.attempt(
                    f"predict {day}", lambda: ls.mlp.predict_day(model, dataset, day),
                    lambda profile: check_forecast(profile.values), out.op_ns,
                )
                if round_ == 0 and predicted is not None:
                    out.ape.extend(ape(predicted, run.hourly[day][0]))


# dayahead-120d ------------------------------------------------------------

class DayAhead:
    def __init__(self, sizes):
        self.sizes = sizes

    def setup(self, run, ls, seed, folder):
        path = Path(folder) / "data.csv"
        ls.synth.write_csv(ls.synth.SynthConfig(days=self.sizes.days, seed=seed), path)
        return path, check_trained(train_model(ls, path, folder, self.sizes.epochs, seed))

    def measure(self, run, ls, seed, state, folder):
        """Days in order; the model is retrained at the start of every 15 days.

        The retrains spread the training samples over the run, so
        ``train_ref`` does not hinge on one moment of a noisy machine.
        """
        data, (dataset, model) = state
        out = Measurement()
        started = time.perf_counter()
        days = [START + timedelta(d) for d in range(FIRST_FORECAST_DAY, self.sizes.days)]
        if self.sizes.pass_days:
            days = days[: self.sizes.pass_days]
        prices = {day: ls.profiles.price_profile(p) for day, (_, p) in run.hourly.items()}

        for index, day, first in passes(days, started, run.seconds):
            if index % RETRAIN_DAYS == 0:
                trained = run.attempt(
                    "retrain", lambda: train_model(ls, data, folder, self.sizes.epochs, seed, run.reference),
                    check_trained, out.train_ns,
                )
                if trained is not None:
                    dataset, model = trained
            w1, w2 = WEIGHTS[index % len(WEIGHTS)]
            config = ls.pso.PsoConfig(
                swarm_size=self.sizes.population, iterations=self.sizes.iterations,
                seed=seed_for(seed, 3, index),
            )

            def schedule():
                predicted = ls.mlp.predict_day(model, dataset, day)
                problem = ls.objective.build_problem(
                    predicted, prices[day], w1, w2,
                    peak_cap=PEAK_CAP * float(np.max(predicted.values)),
                )
                return predicted, problem, ls.pso.optimize(problem, config)

            def check(outcome):
                predicted, problem, result = outcome
                check_forecast(predicted.values)
                gap = check_result(
                    problem, result.best_schedule.values, result.objective,
                    [point.objective for point in result.trace], exact_optimum(problem)[1],
                )
                return predicted, gap

            checked = run.attempt(f"schedule {day}", schedule, check, out.op_ns)
            if first and checked is not None:
                out.ape.extend(ape(checked[0].values, run.hourly[day][0]))
                out.gaps["pso"].append(checked[1])
        return out


# study-cli-120d -----------------------------------------------------------

class StudyCli:
    def __init__(self, sizes):
        self.sizes = sizes

    def setup(self, run, ls, seed, folder):
        path = Path(folder) / "data.csv"
        ls.synth.write_csv(ls.synth.SynthConfig(days=self.sizes.days, seed=seed), path)
        return path

    def measure(self, run, ls, seed, reference_csv, folder):
        out = Measurement()
        s = self.sizes
        rng = np.random.default_rng([seed, 4])
        eligible_days = [START + timedelta(d) for d in range(FIRST_FORECAST_DAY, s.days)]
        picks = rng.choice(len(eligible_days), size=min(s.pass_days, len(eligible_days)), replace=False)
        days = [eligible_days[i] for i in sorted(picks)]
        budget = ["--population", str(s.population), "--iterations", str(s.iterations)]

        def cli(args):
            with contextlib.redirect_stdout(io.StringIO()):
                return ls.cli.main([str(a) for a in args] + ["--seed", str(seed)])

        def command(label, args, check, latencies=None):
            """One CLI command as an operation: it must exit 0, then pass ``check``."""
            def checked(code):
                require(code == 0, f"exit code {code}")
                return check()

            return run.attempt(label, lambda: cli(args), checked, latencies)

        def result_gap(problem, payload):
            return check_result(
                problem, payload["best_schedule_kwh"], payload["objective"],
                [point["objective"] for point in payload["trace"]], exact_optimum(problem)[1],
            )

        def day_commands(root, index, day, latencies=None):
            """predict, optimize (PSO, DE), compare, verify for one day; the optimality gaps."""
            base = root / f"day-{index}"
            data_args = [
                "--model", root / "train" / "model.json", "--data", root / "synth" / "synthetic.csv",
                "--day", day.isoformat(),
            ]
            w1, w2 = WEIGHTS[index % len(WEIGHTS)]

            def read_prediction():
                """The forecast's peak cap, and the problem the later commands solve."""
                with open(base / "predict" / "prediction.csv", newline="", encoding="utf-8") as handle:
                    predicted = check_forecast([float(row["predicted"]) for row in csv.DictReader(handle)])
                cap = PEAK_CAP * float(np.max(predicted))
                with run.untraced():
                    problem = ls.objective.build_problem(
                        ls.profiles.load_profile(predicted), ls.profiles.price_profile(run.hourly[day][1]),
                        w1, w2, peak_cap=cap,
                    )
                return cap, problem

            prediction = command(f"predict {day}", ["predict", *data_args, "--out", base / "predict"], read_prediction, latencies)
            if prediction is None:
                return None
            cap, problem = prediction
            args = [*data_args, "--w1", repr(w1), "--w2", repr(w2), "--peak-cap", repr(cap), *budget]
            gaps = {"pso": [], "de": []}

            for algorithm in ("pso", "de"):
                result_dir = base / f"optimize-{algorithm}"
                gap = command(
                    f"optimize {algorithm} {day}", ["optimize", *args, "--algorithm", algorithm, "--out", result_dir],
                    lambda: result_gap(problem, json.loads((result_dir / "result.json").read_text())),
                    latencies,
                )
                if gap is not None:
                    gaps[algorithm].append(gap)

            def compared():
                results = json.loads((base / "compare" / "comparison.json").read_text())["results"]
                return {name: result_gap(problem, results[name]) for name in ("pso", "de")}

            compare_gaps = command(f"compare {day}", ["compare", *args, "--out", base / "compare"], compared, latencies)
            for name, gap in (compare_gaps or {}).items():
                gaps[name].append(gap)

            def verified():
                report = json.loads((base / "verify" / "verify.json").read_text())
                free = [h - 1 for h in report["free_hours"]]
                pin = np.clip(problem.predicted.values, problem.lower_bounds, problem.upper_bounds)
                lower, upper = pin.copy(), pin.copy()
                lower[free] = problem.lower_bounds[free]
                upper[free] = problem.upper_bounds[free]
                pinned_optimum = exact_optimum(replace(problem, lower_bounds=lower, upper_bounds=upper))[1]
                for check in report["checks"]:
                    for key in ("objective", "oracle_objective"):
                        require(
                            check[key] >= pinned_optimum - 1e-9,
                            f"verify {key} {check[key]!r} below the exact optimum {pinned_optimum!r}",
                        )

            command(
                f"verify {day}",
                ["verify", *args, "--algorithm", "both", "--free-hours", s.free_hours,
                 "--resolution", str(s.resolution), "--out", base / "verify"],
                verified, latencies,
            )
            return gaps

        def synth_and_train(root):
            command(
                "cli synth", ["synth", "--days", s.days, "--out", root / "synth"],
                lambda: require(
                    filecmp.cmp(root / "synth" / "synthetic.csv", reference_csv, shallow=False),
                    "cli synth differs from synth.write_csv",
                ),
            )
            command(
                "cli train",
                ["train", "--data", root / "synth" / "synthetic.csv", "--epochs", s.epochs, "--out", root / "train"],
                lambda: None, out.train_ns,
            )

        started = time.perf_counter()
        first_run = Path(folder) / "a"
        synth_and_train(first_run)
        for index, day, first in passes(days, started, run.seconds):
            gaps = day_commands(first_run, index, day, out.op_ns)
            if first and gaps is not None:
                for name, values in gaps.items():
                    out.gaps[name].extend(values)

        # forecast error of the CLI's model over every eligible day, not only
        # the pass's days: 20 days alone would make the figure vary by seed
        with run.untraced():
            model = ls.mlp.load_model(first_run / "train" / "model.json")
            dataset = ls.ingest.load_dataset(first_run / "synth" / "synthetic.csv")
            for day in eligible_days:
                out.ape.extend(ape(ls.mlp.predict_day(model, dataset, day).values, run.hourly[day][0]))

        command(
            "sweep",
            ["sweep", "--model", first_run / "train" / "model.json", "--data", first_run / "synth" / "synthetic.csv",
             "--day", days[0].isoformat(), *budget, "--out", first_run / "sweep"],
            lambda: check_sweep(first_run / "sweep" / "sweep.json"),
        )

        # rerun the set-up commands and the first day into a second directory:
        # every artifact but the manifest must come out byte for byte the same
        second_run = Path(folder) / "b"
        synth_and_train(second_run)
        day_commands(second_run, 0, days[0])
        run.attempt("rerun byte identity", lambda: None, lambda _: require(
            all(identical_trees(first_run / part, second_run / part) for part in ("synth", "train", "day-0")),
            "a rerun artifact differs",
        ))
        return out


def identical_trees(left, right):
    """Same files with the same bytes, manifest.json excepted."""
    def files(root):
        return sorted(p.relative_to(root) for p in root.rglob("*") if p.is_file() and p.name != "manifest.json")

    names = files(left)
    return names == files(right) and all(filecmp.cmp(left / n, right / n, shallow=False) for n in names)


def check_sweep(path):
    rows = json.loads(Path(path).read_text())["rows"]
    require(
        len(rows) == 11 and all(np.isfinite(list(row.values())).all() for row in rows),
        "sweep.json does not hold 11 finite rows",
    )


WORKLOADS = {
    "forecast-3650d": (Forecast, Sizes(days=3650, epochs=8), Sizes(days=20, epochs=1)),
    "dayahead-120d": (
        DayAhead, Sizes(days=120, epochs=30),
        Sizes(days=6, epochs=1, pass_days=3, population=8, iterations=5),
    ),
    "study-cli-120d": (
        StudyCli, Sizes(days=120, epochs=30, pass_days=20, population=30, iterations=60),
        Sizes(days=6, epochs=1, pass_days=2, population=20, iterations=40, resolution=5),
    ),
}
