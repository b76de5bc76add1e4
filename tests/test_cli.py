"""Command line flows, file outputs, and exit codes."""

import csv
import hashlib
import importlib
import inspect
import json
from datetime import date, datetime, timedelta, timezone
from pathlib import Path

import numpy as np
import pytest
from helpers import write_hourly_csv

from loadshift import mlp
from loadshift.cli import build_parser, main
from loadshift.errors import InsufficientData, LoadshiftError
from loadshift.exact import exact_optimum
from loadshift.ingest import load_dataset, read_hourly_column
from loadshift.objective import build_problem
from loadshift.profiles import ProfileKind, load_profile, price_profile


@pytest.fixture(scope="module")
def day_inputs(tmp_path_factory):
    root = tmp_path_factory.mktemp("day_inputs")
    rng = np.random.default_rng(17)
    predicted = root / "predicted.csv"
    prices = root / "prices.csv"
    write_hourly_csv(predicted, "predicted_kwh", rng.uniform(60, 140, size=24))
    hours = np.arange(24)
    write_hourly_csv(prices, "price_c_per_kwh",
                     5.0 + 6.0 * np.exp(-((hours - 18.5) ** 2) / 8.0))
    return predicted, prices


@pytest.fixture(scope="module")
def synth_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("synth_out")
    assert main(["synth", "--days", "6", "--seed", "3", "--out", str(out)]) == 0
    return out


@pytest.fixture(scope="module")
def synth3_path(tmp_path_factory):
    """The 3-day seed-0 set: a split at 0.99 leaves one test window, at 0.67 one training window."""
    out = tmp_path_factory.mktemp("synth3_out")
    assert main(["synth", "--days", "3", "--seed", "0", "--out", str(out)]) == 0
    return out / "synthetic.csv"


@pytest.fixture(scope="module")
def trained_dir(tmp_path_factory, synth_dir):
    out = tmp_path_factory.mktemp("train_out")
    code = main([
        "train", "--data", str(synth_dir / "synthetic.csv"),
        "--hidden", "8", "--epochs", "3", "--out", str(out),
    ])
    assert code == 0
    return out


def with_byte_order_mark(path, copy):
    """``copy``, a copy of ``path`` that leads with the UTF-8 byte-order mark Excel's "CSV UTF-8" writes."""
    copy.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
    return copy


PROBLEM_COMMANDS = ["optimize", "sweep", "compare", "verify"]
COMMANDS = ["synth", "train", "predict", *PROBLEM_COMMANDS]


def narrow_input(model, width, lag):
    """Edit a model file's payload to a ``width``-unit input layer, with its
    first weights cut to match, and the given lag."""
    model["layer_sizes"][0] = width
    model["weights"][0] = [row[:width] for row in model["weights"][0]]
    model["lag"] = lag


class TestSynth:
    def test_outputs_and_manifest(self, synth_dir):
        dataset = load_dataset(synth_dir / "synthetic.csv")
        assert len(dataset.timestamps) == 144
        manifest = json.loads((synth_dir / "manifest.json").read_text())
        assert manifest["command"] == "synth"
        assert manifest["master_seed"] == 3
        assert "timestamp" in manifest

    def test_byte_determinism(self, synth_dir, tmp_path):
        assert main(["synth", "--days", "6", "--seed", "3", "--out", str(tmp_path)]) == 0
        assert (tmp_path / "synthetic.csv").read_bytes() == \
            (synth_dir / "synthetic.csv").read_bytes()


class TestTrain:
    def test_outputs(self, trained_dir):
        assert (trained_dir / "model.json").exists()
        fit = json.loads((trained_dir / "fit_report.json").read_text())
        assert "train_mse" in fit
        with open(trained_dir / "training_curve.csv", newline="") as handle:
            records = list(csv.DictReader(handle))
        assert len(records) == 3
        assert [int(r["epoch"]) for r in records] == [1, 2, 3]
        assert all(float(r["train_mse"]) >= 0 for r in records)

    def test_defaults_are_the_library_defaults(self):
        args = build_parser().parse_args(["train", "--data", "data.csv"])
        config = mlp.TrainConfig()
        assert (args.epochs, args.learning_rate, args.batch_size, args.momentum) == (
            config.epochs, config.learning_rate, config.batch_size, config.momentum)
        assert args.split_fraction == inspect.signature(load_dataset).parameters["split_fraction"].default

    def test_split_and_split_fraction_are_refused_together(self, synth3_path, tmp_path, capsys):
        # --split would silently override --split-fraction, which the manifest would still record
        with pytest.raises(SystemExit) as exc:
            main(["train", "--data", str(synth3_path), "--split", "2024-01-02T00:00:00",
                  "--split-fraction", "0.3", "--epochs", "1", "--out", str(tmp_path / "out")])
        assert exc.value.code == 2
        assert "argument --split-fraction: not allowed with argument --split" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("split, undefined", [
        (["--split-fraction", "0.99"], "test"),
        (["--split-fraction", "0.67"], "train"),
        (["--split", "2024-01-03T23:00:00"], "test"),
    ])
    def test_a_single_window_leaves_its_r_undefined(self, synth3_path, tmp_path, capsys, split, undefined):
        """One window's target is a constant series: its r is null, the model stands."""
        code = main(["train", "--data", str(synth3_path), "--epochs", "2", *split, "--out", str(tmp_path)])
        assert code == 0
        assert (tmp_path / "model.json").exists()
        fit = json.loads((tmp_path / "fit_report.json").read_text())
        defined = {"train": "test", "test": "train"}[undefined]
        assert fit[f"{undefined}_correlation"] is None
        assert -1.0 <= fit[f"{defined}_correlation"] <= 1.0
        lines = capsys.readouterr().out.splitlines()
        assert [line for line in lines if line.startswith(undefined)] == [
            f"{undefined:<5} mse {fit[f'{undefined}_mse']:.6f}  r undefined"]


class TestPredict:
    def test_outputs_full_day(self, trained_dir, synth_dir, tmp_path):
        code = main([
            "predict", "--model", str(trained_dir / "model.json"),
            "--data", str(synth_dir / "synthetic.csv"),
            "--day", "2024-01-06", "--out", str(tmp_path),
        ])
        assert code == 0
        with open(tmp_path / "prediction.csv", newline="") as handle:
            records = list(csv.DictReader(handle))
        assert [int(r["hour"]) for r in records] == list(range(1, 25))
        assert all(np.isfinite(float(r["predicted"])) for r in records)
        assert all(np.isfinite(float(r["real"])) for r in records)

    def test_data_with_a_byte_order_mark_predicts_the_same(self, trained_dir, synth_dir, tmp_path):
        plain = synth_dir / "synthetic.csv"
        for data, out in ((plain, "plain"), (with_byte_order_mark(plain, tmp_path / "bom.csv"), "bom")):
            assert main(["predict", "--model", str(trained_dir / "model.json"), "--data", str(data),
                         "--day", "2024-01-06", "--out", str(tmp_path / out)]) == 0
        assert (tmp_path / "bom" / "prediction.csv").read_bytes() == (tmp_path / "plain" / "prediction.csv").read_bytes()

    def test_model_with_a_byte_order_mark_predicts_the_same(self, trained_dir, synth_dir, tmp_path):
        plain = trained_dir / "model.json"
        for model, out in ((plain, "plain"), (with_byte_order_mark(plain, tmp_path / "bom.json"), "bom")):
            assert main(["predict", "--model", str(model), "--data", str(synth_dir / "synthetic.csv"),
                         "--day", "2024-01-06", "--out", str(tmp_path / out)]) == 0
        assert (tmp_path / "bom" / "prediction.csv").read_bytes() == (tmp_path / "plain" / "prediction.csv").read_bytes()

    def test_constant_actual_load_leaves_r_undefined(self, trained_dir, synth_dir, tmp_path, capsys):
        rows = [line.split(",") for line in (synth_dir / "synthetic.csv").read_text().splitlines()]
        assert rows[0][6] == "load_kwh"
        for row in rows:
            if row[0].startswith("2024-01-06"):
                row[6] = "900.000"
        data = tmp_path / "flat.csv"
        data.write_text("".join(",".join(row) + "\n" for row in rows))
        code = main([
            "predict", "--model", str(trained_dir / "model.json"), "--data", str(data),
            "--day", "2024-01-06", "--out", str(tmp_path / "out"),
        ])
        assert code == 0
        assert (tmp_path / "out" / "manifest.json").exists()
        with open(tmp_path / "out" / "prediction.csv", newline="") as handle:
            records = list(csv.DictReader(handle))
        assert [float(r["real"]) for r in records] == [900.0] * 24
        mse = np.mean((np.array([float(r["predicted"]) for r in records]) - 900.0) ** 2)
        assert capsys.readouterr().out == f"2024-01-06: mse {mse:.3f} kWh^2  r undefined\n"


class TestOptimize:
    def run(self, day_inputs, out, extra=()):
        predicted, prices = day_inputs
        return main([
            "optimize", "--predicted", str(predicted), "--prices", str(prices),
            "--w1", "0.4", "--w2", "0.6", "--population", "12",
            "--iterations", "15", "--out", str(out), *extra,
        ])

    @pytest.mark.parametrize("command", PROBLEM_COMMANDS)
    def test_problem_defaults_are_the_library_defaults(self, command):
        args = build_parser().parse_args([command])
        defaults = inspect.signature(build_problem).parameters
        for key in ("alpha", "gamma_lo", "gamma_hi", "peak_cap"):
            assert getattr(args, key) == defaults[key].default
        if command != "sweep":   # sweep takes its weights from --weights
            assert (args.w1, args.w2) == (0.4, 0.6)

    def test_outputs(self, day_inputs, tmp_path):
        assert self.run(day_inputs, tmp_path) == 0
        result = json.loads((tmp_path / "result.json").read_text())
        assert len(result["best_schedule_kwh"]) == 24
        assert result["cost_dollars"] == pytest.approx(result["cost_cents"] / 100.0)
        with open(tmp_path / "load_comparison.csv", newline="") as handle:
            records = list(csv.DictReader(handle))
        assert [int(r["hour"]) for r in records] == list(range(1, 25))
        assert set(records[0]) == {"hour", "predicted_kwh", "optimized_kwh"}
        with open(tmp_path / "cost_comparison.csv", newline="") as handle:
            cost_records = list(csv.DictReader(handle))
        assert len(cost_records) == 24
        assert (tmp_path / "trace.csv").exists()

    def test_reruns_are_byte_identical(self, day_inputs, tmp_path):
        first = tmp_path / "first"
        second = tmp_path / "second"
        first.mkdir()
        second.mkdir()
        assert self.run(day_inputs, first) == 0
        assert self.run(day_inputs, second) == 0
        for name in ("result.json", "trace.csv", "load_comparison.csv",
                     "cost_comparison.csv"):
            assert (first / name).read_bytes() == (second / name).read_bytes()

    def test_rerun_after_verify_is_byte_identical(self, day_inputs, tmp_path):
        # one process: the parser built for the first command serves the others
        predicted, prices = day_inputs
        assert self.run(day_inputs, tmp_path / "first") == 0
        assert main([
            "verify", "--predicted", str(predicted), "--prices", str(prices),
            "--w1", "0.4", "--w2", "0.6", "--free-hours", "18,19", "--resolution", "11",
            "--population", "12", "--iterations", "15", "--out", str(tmp_path / "verify"),
        ]) == 0
        assert self.run(day_inputs, tmp_path / "second") == 0
        for name in ("result.json", "trace.csv", "load_comparison.csv", "cost_comparison.csv"):
            assert (tmp_path / "first" / name).read_bytes() == (tmp_path / "second" / name).read_bytes()

    def test_inputs_with_a_byte_order_mark_give_the_same_result(self, day_inputs, tmp_path):
        marked = tuple(with_byte_order_mark(path, tmp_path / f"bom-{path.name}") for path in day_inputs)
        assert self.run(day_inputs, tmp_path / "plain") == 0
        assert self.run(marked, tmp_path / "bom") == 0
        assert (tmp_path / "bom" / "result.json").read_bytes() == (tmp_path / "plain" / "result.json").read_bytes()

    def test_de_algorithm_runs(self, day_inputs, tmp_path):
        assert self.run(day_inputs, tmp_path, ("--algorithm", "de")) == 0
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["parameters"]["algorithm"] == "de"

    def test_dataset_supplies_prediction_and_prices(self, trained_dir, synth_dir,
                                                    tmp_path):
        code = main([
            "optimize", "--model", str(trained_dir / "model.json"),
            "--data", str(synth_dir / "synthetic.csv"), "--day", "2024-01-06",
            "--w1", "0.4", "--w2", "0.6", "--population", "10",
            "--iterations", "10", "--out", str(tmp_path),
        ])
        assert code == 0
        assert (tmp_path / "result.json").exists()

    def test_csv_inputs_of_a_model_run_give_its_bytes(self, trained_dir, synth_dir, tmp_path):
        # --predicted from the run's own load_comparison.csv, --prices from the dataset's rows of the day
        day, budget = "2024-01-06", ["--population", "10", "--iterations", "10"]
        data = synth_dir / "synthetic.csv"
        assert main(["optimize", "--model", str(trained_dir / "model.json"), "--data", str(data), "--day", day,
                     *budget, "--out", str(tmp_path / "model")]) == 0
        prices = tmp_path / "prices.csv"
        write_hourly_csv(prices, "price_c_per_kwh", load_dataset(data).day_profile(date.fromisoformat(day),
                                                                                  ProfileKind.PRICE).values)
        assert main(["optimize", "--predicted", str(tmp_path / "model" / "load_comparison.csv"),
                     "--prices", str(prices), *budget, "--out", str(tmp_path / "csv")]) == 0
        for name in ("result.json", "trace.csv"):
            assert (tmp_path / "csv" / name).read_bytes() == (tmp_path / "model" / name).read_bytes()


class TestSweep:
    def test_rows_match_requested_pairs(self, day_inputs, tmp_path):
        predicted, prices = day_inputs
        code = main([
            "sweep", "--predicted", str(predicted), "--prices", str(prices),
            "--weights", "0.9:0.1,0.5:0.5", "--population", "10",
            "--iterations", "10", "--out", str(tmp_path),
        ])
        assert code == 0
        payload = json.loads((tmp_path / "sweep.json").read_text())
        assert [[r["w1"], r["w2"]] for r in payload["rows"]] == [[0.9, 0.1], [0.5, 0.5]]
        with open(tmp_path / "sweep.csv", newline="") as handle:
            assert len(list(csv.DictReader(handle))) == 2

    def test_default_grid_has_eleven_pairs(self, day_inputs, tmp_path):
        predicted, prices = day_inputs
        assert main([
            "sweep", "--predicted", str(predicted), "--prices", str(prices),
            "--population", "6", "--iterations", "3", "--out", str(tmp_path),
        ]) == 0
        with open(tmp_path / "sweep.csv", newline="") as handle:
            assert len(list(csv.DictReader(handle))) == 11
        pairs = json.loads((tmp_path / "manifest.json").read_text())["parameters"]["pairs"]
        assert len(pairs) == 11 and pairs[0] == [0.0, 1.0] and pairs[-1] == [1.0, 0.0]


class TestCompare:
    def test_outputs_both_algorithms(self, day_inputs, tmp_path, capsys):
        predicted, prices = day_inputs
        code = main([
            "compare", "--predicted", str(predicted), "--prices", str(prices),
            "--w1", "0.4", "--w2", "0.6", "--population", "10",
            "--iterations", "12", "--out", str(tmp_path),
        ])
        assert code == 0
        payload = json.loads((tmp_path / "comparison.json").read_text())
        assert set(payload["results"]) == {"pso", "de"}
        assert (tmp_path / "pso_trace.csv").exists()
        assert (tmp_path / "de_trace.csv").exists()
        out = capsys.readouterr().out
        assert "pso" in out and "de" in out


    def test_a_forecast_that_is_already_optimal_cuts_no_cost(self, tmp_path):
        # both optimizers return the forecast itself, and its cost must round as the baseline's does
        assert main(["synth", "--days", "30", "--seed", "11", "--out", str(tmp_path / "synth")]) == 0
        data = str(tmp_path / "synth" / "synthetic.csv")
        assert main(["train", "--data", data, "--epochs", "3", "--seed", "11", "--out", str(tmp_path / "train")]) == 0
        for day in ("2024-01-10", "2024-01-25"):
            assert main(["compare", "--model", str(tmp_path / "train" / "model.json"), "--data", data,
                         "--day", day, "--seed", "11", "--out", str(tmp_path / day)]) == 0
            rows = json.loads((tmp_path / day / "comparison.json").read_text())["rows"]
            assert [row["cost_reduction_pct"] for row in rows] == [0.0, 0.0], day


class TestVerify:
    def test_pass_path(self, day_inputs, tmp_path, capsys):
        predicted, prices = day_inputs
        code = main([
            "verify", "--predicted", str(predicted), "--prices", str(prices),
            "--w1", "0.4", "--w2", "0.6", "--free-hours", "18,19",
            "--resolution", "41", "--out", str(tmp_path),
        ])
        assert code == 0
        assert "PASS pso" in capsys.readouterr().out
        payload = json.loads((tmp_path / "verify.json").read_text())
        assert payload["checks"][0]["pass"] is True
        assert payload["free_hours"] == [18, 19]

    def test_fail_path_exits_one(self, day_inputs, tmp_path, capsys):
        predicted, prices = day_inputs
        code = main([
            "verify", "--predicted", str(predicted), "--prices", str(prices),
            "--w1", "0.8", "--w2", "0.2", "--population", "4",
            "--iterations", "1", "--tolerance", "0", "--out", str(tmp_path),
        ])
        assert code == 1
        assert "FAIL pso" in capsys.readouterr().out

    def test_zero_oracle_gap_is_absolute(self, day_inputs, tmp_path):
        # shift only: the clamped prediction scores 0 up to rounding, so no
        # relative gap exists and the gap is the absolute one
        predicted, prices = day_inputs
        assert main([
            "verify", "--predicted", str(predicted), "--prices", str(prices),
            "--w1", "0", "--w2", "1", "--resolution", "5", "--population", "6",
            "--iterations", "3", "--out", str(tmp_path),
        ]) == 0
        check = json.loads((tmp_path / "verify.json").read_text())["checks"][0]
        assert 0.0 <= check["oracle_objective"] <= 1e-12
        assert check["relative_gap"] == check["objective"] - check["oracle_objective"]

    def test_all_24_hours_free_is_the_unpinned_optimum(self, day_inputs, tmp_path):
        predicted, prices = day_inputs
        all_hours = ",".join(map(str, range(1, 25)))
        assert main([
            "verify", "--predicted", str(predicted), "--prices", str(prices),
            "--free-hours", all_hours, "--tolerance", "10", "--out", str(tmp_path),
        ]) == 0
        payload = json.loads((tmp_path / "verify.json").read_text())
        problem = build_problem(load_profile(read_hourly_column(predicted, "predicted_kwh", InsufficientData)),
                                price_profile(read_hourly_column(prices, "price_c_per_kwh", InsufficientData)),
                                0.4, 0.6)
        schedule, objective = exact_optimum(problem)
        assert payload["free_hours"] == list(range(1, 25))
        assert payload["checks"][0]["oracle_objective"] == objective
        assert payload["oracle_schedule_kwh"] == schedule.values.tolist()


class TestGoldenArtifacts:
    """Every deterministic file of a small seeded flow, pinned by sha256.

    Recorded before the optimizer dispatch, parameter resolution, manifest
    and CSV writing of the CLI were each folded into one place; a byte that
    moves in any of them shows here.  The DE files (``de/*``,
    ``compare/comparison.json`` and ``compare/de_trace.csv``) were
    re-recorded when DE moved to one uniform draw per generation; the rest
    kept their bytes, ``verify/verify.json`` too, because both optimizers
    reach the grid optimum exactly there.  ``verify/verify.json`` was
    re-recorded when the exact solver replaced the grid oracle: it lost its
    ``grid_resolution`` line and nothing else, and ``compare/comparison.json``
    when one budget came to serve both optimizers: it lost its two
    ``budget_matched`` lines and nothing else.  ``verify/verify.json`` was
    re-recorded again when a result came to take its scores from its last
    trace point: both objectives moved by one ulp, so each relative gap
    read -2e-16 instead of 0.  The PSO, DE, compare and verify files were
    re-recorded when a row's cost came to be scored as ``np.dot`` scores it
    alone, in any batch: costs moved in their last bit, and each relative
    gap reads 0 again.  The runs use the cost-heavy pair
    (0.9, 0.1), where every trace moves: at (0.4, 0.6) the clamped
    prediction is already optimal, and at (0.8, 0.2) the swarm's is flat.
    """

    RUNS = {
        "pso": ["optimize", "--algorithm", "pso", "--w1", "0.9", "--w2", "0.1"],
        "de": ["optimize", "--algorithm", "de", "--w1", "0.9", "--w2", "0.1"],
        "pso_capped": ["optimize", "--algorithm", "pso", "--w1", "0.9", "--w2", "0.1", "--peak-cap", "125"],
        "sweep": ["sweep", "--weights", "0.9:0.1,0.5:0.5,0.2:0.8", "--alpha", "50"],
        "compare": ["compare", "--w1", "0.9", "--w2", "0.1"],
        "verify": ["verify", "--algorithm", "both", "--w1", "0.9", "--w2", "0.1",
                   "--free-hours", "17,18,19", "--resolution", "21"],
    }

    GOLDEN = {
        "pso/result.json": "faffbca9720cf9999ff0b59137de2827723a0364133fa4c9cf0462b94d49438b",
        "pso/trace.csv": "b7cda3eedf3cb91b5fb3a041461d97963a8a8f4d0b7fc702fb248532e90905c6",
        "pso/load_comparison.csv": "febecf4e6465453c1cbe030bc33755dbbdce6d9b642109bb59b0d9d905448afa",
        "pso/cost_comparison.csv": "fe00b9ca478cea1a543cdfec987a6fb9ec62f4d527c9eef1ba30e48555f97441",
        "de/result.json": "d82db691a55561b0232fc975469f1238e1fb1d01fcdb26dea098e3fa50f56d59",
        "de/trace.csv": "469a4e9125e3b7274b9f28be082e644f58ccaaa33be5d3d3bc5070570c49f35f",
        "de/load_comparison.csv": "d64b3d41fb9008bdde469ac54ee27f24aae4410e35984ee1f6ea976b9af4dc42",
        "de/cost_comparison.csv": "5ffb2b543cfbf65b8355ee977e2cfa8b5f14e0eb4e36b61933d777b2cc329a6a",
        "pso_capped/result.json": "d4f2ad84233975d7549a4b4578b7d632a45ea7694d1882bff93fbd3a3746f7cd",
        "pso_capped/trace.csv": "a2df1df868c29e0e686e3ee91cb9f1c424cc4ec1fc619f29a555775699a9c851",
        "pso_capped/load_comparison.csv": "d54bea3351929f0a629e6f8d85707b88252900127f0f3e720b38752d28b1ab7b",
        "pso_capped/cost_comparison.csv": "200b17ef67c01de1d8f5118652debc4f2739fb726114f3805b4ccaf9d4e5d4f2",
        "sweep/sweep.json": "9f9e04b3c441f079cc6057f979689af3ebe3a4d39c09b53e40b704fd073276d4",
        "sweep/sweep.csv": "22591c860561005aee4550cab6c7ec9e3f0052bc6845295b43dfd024b78e431f",
        "compare/comparison.json": "f6e841528d07f752d46201d2254aec3735fb9dd7f3b31d402ad31d8aed4cfc1f",
        "compare/pso_trace.csv": "b7cda3eedf3cb91b5fb3a041461d97963a8a8f4d0b7fc702fb248532e90905c6",
        "compare/de_trace.csv": "469a4e9125e3b7274b9f28be082e644f58ccaaa33be5d3d3bc5070570c49f35f",
        "verify/verify.json": "eea071fd484dc15bd84b74236b498d28e526ad73b43ebacfa1f64c97d9c82170",
    }

    @pytest.fixture(scope="class")
    def outputs(self, tmp_path_factory, day_inputs):
        predicted, prices = day_inputs
        root = tmp_path_factory.mktemp("golden")
        for name, args in self.RUNS.items():
            assert main([
                *args, "--predicted", str(predicted), "--prices", str(prices),
                "--population", "12", "--iterations", "20", "--seed", "9", "--out", str(root / name),
            ]) == 0
        return root

    @pytest.mark.parametrize("path", sorted(GOLDEN))
    def test_bytes(self, outputs, path):
        assert hashlib.sha256((outputs / path).read_bytes()).hexdigest() == self.GOLDEN[path]

    def test_verify_finds_no_optimizer_below_the_optimum(self, outputs):
        checks = json.loads((outputs / "verify" / "verify.json").read_text())["checks"]
        assert [check["relative_gap"] for check in checks] == [0.0, 0.0]


class TestManifest:
    """manifest.json holds every parsed argument by its dest, defaults
    included, so the run can be repeated from it."""

    def test_optimize_records_its_inputs_and_defaults(self, trained_dir, synth_dir, tmp_path):
        model, data = str(trained_dir / "model.json"), str(synth_dir / "synthetic.csv")
        assert main([
            "optimize", "--model", model, "--data", data, "--day", "2024-01-06",
            "--w2", "0.5", "--population", "10", "--iterations", "10", "--out", str(tmp_path / "out"),
        ]) == 0
        parameters = json.loads((tmp_path / "out" / "manifest.json").read_text())["parameters"]
        assert {key: parameters[key] for key in ("model", "data", "day", "predicted", "prices")} == {
            "model": model, "data": data, "day": "2024-01-06", "predicted": None, "prices": None,
        }
        # flag, then default
        assert {key: parameters[key] for key in ("w1", "w2", "alpha", "gamma_lo", "gamma_hi", "peak_cap")} == {
            "w1": 0.4, "w2": 0.5, "alpha": 100.0, "gamma_lo": 0.5, "gamma_hi": 1.5, "peak_cap": None,
        }

    def test_predict_records_data_and_allow_gaps(self, trained_dir, synth_dir, tmp_path):
        """predict records its data file; train, the one command with a gap
        setting, records it."""
        data = str(synth_dir / "synthetic.csv")
        assert main([
            "predict", "--model", str(trained_dir / "model.json"), "--data", data,
            "--day", "2024-01-06", "--out", str(tmp_path / "predict"),
        ]) == 0
        parameters = json.loads((tmp_path / "predict" / "manifest.json").read_text())["parameters"]
        assert parameters["data"] == data and "allow_gaps" not in parameters
        assert main([
            "train", "--data", data, "--hidden", "4", "--epochs", "1", "--allow-gaps",
            "--out", str(tmp_path / "train"),
        ]) == 0
        parameters = json.loads((tmp_path / "train" / "manifest.json").read_text())["parameters"]
        assert parameters["data"] == data and parameters["allow_gaps"] is True

    @pytest.mark.parametrize("command", COMMANDS)
    def test_parameters_hold_every_dest(self, day_inputs, synth_dir, trained_dir, tmp_path, command):
        data = str(synth_dir / "synthetic.csv")
        day = ["--predicted", str(day_inputs[0]), "--prices", str(day_inputs[1]),
               "--population", "6", "--iterations", "3"]
        argv = {
            "synth": ["--days", "6"],
            "train": ["--data", data, "--hidden", "4", "--epochs", "1"],
            "predict": ["--model", str(trained_dir / "model.json"), "--data", data, "--day", "2024-01-06"],
            "optimize": day,
            "sweep": [*day, "--weights", "0.5:0.5"],
            "compare": day,
            "verify": [*day, "--resolution", "5", "--tolerance", "10"],
        }[command]
        assert main([command, *argv, "--out", str(tmp_path)]) == 0
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        dests = set(vars(build_parser().parse_args([command, *argv]))) - {"func", "command"}
        assert manifest["command"] == command
        assert dests <= set(manifest["parameters"])

    @pytest.mark.parametrize("flag, value", [
        ("--momentum", 0.5), ("--batch-size", 7), ("--learning-rate", 0.05), ("--gamma-hi", 1.1),
    ])
    def test_a_flag_reaches_the_manifest_and_its_artifact(self, day_inputs, synth_dir, trained_dir, tmp_path,
                                                          flag, value):
        if flag == "--gamma-hi":
            argv = ["optimize", "--predicted", str(day_inputs[0]), "--prices", str(day_inputs[1]),
                    "--w1", "0.9", "--w2", "0.1", "--population", "12", "--iterations", "15"]
        else:   # trained_dir's run, but for the flag
            argv = ["train", "--data", str(synth_dir / "synthetic.csv"), "--hidden", "8", "--epochs", "3"]
        for out, extra in (("default", []), ("flag", [flag, str(value)])):
            assert main([*argv, *extra, "--out", str(tmp_path / out)]) == 0
        parameters = json.loads((tmp_path / "flag" / "manifest.json").read_text())["parameters"]
        assert parameters[flag[2:].replace("-", "_")] == value
        if flag == "--gamma-hi":
            predicted = np.array(read_hourly_column(day_inputs[0], "predicted_kwh", InsufficientData))
            best = {out: np.array(json.loads((tmp_path / out / "result.json").read_text())["best_schedule_kwh"])
                    for out in ("default", "flag")}
            assert np.all(best["flag"] <= value * predicted)
            assert np.any(best["default"] > value * predicted)
        else:
            assert (tmp_path / "default" / "model.json").read_bytes() == (trained_dir / "model.json").read_bytes()
            assert (tmp_path / "flag" / "model.json").read_bytes() != (trained_dir / "model.json").read_bytes()


class TestGaps:
    """A meter series that misses an hour (2024-01-02 05:00 of a 10-day set).
    Only train has a gap setting; the day commands read the file and refuse
    only a day, or its 24 + lag hours of history, that lacks an hour."""

    @pytest.fixture(scope="class")
    def gappy(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("gappy")
        assert main(["synth", "--days", "10", "--seed", "1", "--out", str(root)]) == 0
        lines = (root / "synthetic.csv").read_text().splitlines(keepends=True)
        data = root / "gappy.csv"
        data.write_text("".join(line for line in lines if not line.startswith("2024-01-02T05:00")))
        assert main([
            "train", "--data", str(data), "--hidden", "4", "--epochs", "2", "--allow-gaps",
            "--out", str(root / "train"),
        ]) == 0
        return str(root / "train" / "model.json"), str(data)

    def test_train_refuses_the_gap_unless_allowed(self, gappy, tmp_path, capsys):
        argv = ["train", "--data", gappy[1], "--hidden", "4", "--epochs", "1", "--out", str(tmp_path)]
        assert main(argv) == 1
        assert capsys.readouterr().err == (
            "error: expected 2024-01-02 05:00:00 one hour after 2024-01-02 04:00:00"
            " (first offending timestamp: 2024-01-02 06:00:00)\n"
        )
        assert main([*argv, "--allow-gaps"]) == 0

    @pytest.mark.parametrize("command", ["predict", "optimize", "sweep", "compare", "verify"])
    def test_day_commands_read_the_file(self, gappy, tmp_path, command):
        model, data = gappy
        budget = [] if command == "predict" else ["--population", "6", "--iterations", "3"]
        extra = {"sweep": ["--weights", "0.5:0.5"], "verify": ["--tolerance", "10"]}.get(command, [])
        argv = [command, "--model", model, "--data", data, "--day", "2024-01-09", *budget, *extra]
        assert main([*argv, "--out", str(tmp_path)]) == 0

    @pytest.mark.parametrize("command, day, message", [
        ("predict", "2024-01-03", "missing load history 48h before 2024-01-03 05:00:00"),
        ("optimize", "2024-01-02", "dataset does not contain all 24 hours of 2024-01-02"),
    ], ids=["history", "day"])
    def test_a_day_or_its_history_without_an_hour_is_refused(self, gappy, tmp_path, capsys, command, day, message):
        model, data = gappy
        assert main([command, "--model", model, "--data", data, "--day", day, "--out", str(tmp_path)]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"


class TestErrors:
    def test_missing_data_file(self, tmp_path, capsys):
        code = main([
            "train", "--data", str(tmp_path / "nope.csv"), "--out", str(tmp_path),
        ])
        assert code == 1
        assert capsys.readouterr().err.startswith("error:")

    def test_unknown_flag_is_a_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["optimize", "--bogus"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("argv", [
        ["synth"],
        ["train", "--data", "data.csv"],
        ["predict", "--model", "model.json", "--data", "data.csv", "--day", "2024-01-06"],
        ["optimize"], ["sweep"], ["compare"], ["verify"],
    ], ids=lambda argv: argv[0])
    def test_config_is_refused_by_every_command(self, argv, capsys):
        # each problem parameter has its flag, and no file sets it
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--config", "config.json"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --config config.json" in capsys.readouterr().err

    @pytest.mark.parametrize("command", COMMANDS)
    def test_help_exits_zero(self, command, capsys):
        with pytest.raises(SystemExit) as exc:
            main([command, "--help"])
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith(f"usage: loadshift {command} ")

    @pytest.mark.parametrize("command", PROBLEM_COMMANDS)
    def test_predicted_and_model_are_refused_together(self, day_inputs, synth_dir, tmp_path, capsys, command):
        # --predicted would silently override --model, which would never be opened
        predicted, _ = day_inputs
        with pytest.raises(SystemExit) as exc:
            main([command, "--predicted", str(predicted), "--model", str(tmp_path / "absent.json"),
                  "--data", str(synth_dir / "synthetic.csv"), "--day", "2024-01-06",
                  "--population", "6", "--iterations", "3", "--out", str(tmp_path / "out")])
        assert exc.value.code == 2
        assert "argument --model: not allowed with argument --predicted" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_short_predicted_csv(self, day_inputs, tmp_path, capsys):
        _, prices = day_inputs
        short = tmp_path / "short.csv"
        write_hourly_csv(short, "predicted_kwh", np.full(23, 100.0))
        code = main([
            "optimize", "--predicted", str(short), "--prices", str(prices),
            "--w1", "0.4", "--w2", "0.6", "--out", str(tmp_path),
        ])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_duplicate_hour_names_its_line(self, day_inputs, tmp_path, capsys):
        _, prices = day_inputs
        predicted = tmp_path / "duplicate.csv"
        write_hourly_csv(predicted, "predicted_kwh", np.full(24, 100.0))
        with open(predicted, "a", newline="", encoding="utf-8") as handle:
            csv.writer(handle).writerow([5, "99999.0"])
        code = main([
            "optimize", "--predicted", str(predicted), "--prices", str(prices),
            "--w1", "0.4", "--w2", "0.6", "--out", str(tmp_path),
        ])
        assert code == 1
        err = capsys.readouterr().err
        assert "line 26" in err and "hour 5 appears twice" in err

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_value_names_its_line(self, day_inputs, tmp_path, capsys, value):
        predicted, _ = day_inputs
        prices = tmp_path / "prices.csv"
        write_hourly_csv(prices, "price_c_per_kwh", np.full(24, 8.0))
        rows = prices.read_text().splitlines()
        rows[6] = f"6,{value}"
        prices.write_text("\n".join(rows) + "\n")
        code = main([
            "optimize", "--predicted", str(predicted), "--prices", str(prices),
            "--w1", "0.4", "--w2", "0.6", "--out", str(tmp_path),
        ])
        assert code == 1
        err = capsys.readouterr().err
        assert "line 7" in err and "not a finite number" in err

    @pytest.mark.parametrize("column", ["predicted_kwh", "price_c_per_kwh"])
    def test_negative_value_names_its_line(self, day_inputs, tmp_path, capsys, column):
        inputs = dict(zip(["predicted_kwh", "price_c_per_kwh"], day_inputs))
        inputs[column] = tmp_path / "negative.csv"
        write_hourly_csv(inputs[column], column, np.full(24, 8.0))
        rows = inputs[column].read_text().splitlines()
        rows[3] = "3,-5.0"
        inputs[column].write_text("\n".join(rows) + "\n")
        code = main([
            "optimize", "--predicted", str(inputs["predicted_kwh"]), "--prices", str(inputs["price_c_per_kwh"]),
            "--w1", "0.4", "--w2", "0.6", "--out", str(tmp_path),
        ])
        assert code == 1
        err = capsys.readouterr().err
        assert "line 4" in err and "'-5.0' is negative" in err

    @pytest.mark.parametrize("flags, message", [
        (["--free-hours", "0"], "free hour 0 outside 1..24"),
        (["--free-hours", "18,18"], "--free-hours '18,18': hour 18 appears twice"),
        (["--free-hours", "18,25"], "free hour 25 outside 1..24"),
    ])
    def test_bad_verify_grid_is_a_loadshift_error(self, day_inputs, tmp_path, capsys, flags, message):
        predicted, prices = day_inputs
        argv = [
            "verify", "--predicted", str(predicted), "--prices", str(prices),
            "--w1", "0.4", "--w2", "0.6", *flags, "--out", str(tmp_path),
        ]
        args = build_parser().parse_args(argv)
        with pytest.raises(LoadshiftError) as exc:
            args.func(args)
        assert str(exc.value) == message
        assert main(argv) == 1
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize("tolerance", ["nan", "inf", "-1"])
    def test_tolerance_must_be_finite_and_nonnegative(self, day_inputs, tmp_path, capsys, tolerance):
        predicted, prices = day_inputs
        out = tmp_path / "out"
        code = main([
            "verify", "--predicted", str(predicted), "--prices", str(prices),
            "--tolerance", tolerance, "--out", str(out),
        ])
        assert code == 1
        value = repr(float(tolerance))
        assert capsys.readouterr().err == f"error: --tolerance {value}: must be a finite number >= 0\n"
        assert not out.exists()

    @pytest.mark.parametrize("argv, message", [
        (["synth", "--days", "0"], "days must be >= 3 for lag windows, got 0"),
        (["train", "--data", "{data}", "--lag", "0"], "lag must be >= 1, got 0"),
        (["predict", "--model", "{model}", "--data", "{data}", "--day", "2024-02-01"],
         "dataset does not contain all 24 hours of 2024-02-01"),
        (["optimize", "--predicted", "{predicted}", "--prices", "{prices}", "--population", "1"],
         "swarm_size must be >= 2, got 1"),
    ], ids=["synth", "train", "predict", "optimize"])
    def test_failed_command_leaves_no_out_directory(self, day_inputs, synth_dir, trained_dir, tmp_path, capsys,
                                                    argv, message):
        paths = {"data": synth_dir / "synthetic.csv", "model": trained_dir / "model.json",
                 "predicted": day_inputs[0], "prices": day_inputs[1]}
        out = tmp_path / "out"
        assert main([arg.format(**paths) for arg in argv] + ["--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    def test_naive_split_on_offset_timestamps(self, synth_dir, tmp_path, capsys):
        # 72 rows at UTC-06:00, split at a naive time
        with open(synth_dir / "synthetic.csv", newline="", encoding="utf-8") as handle:
            rows = list(csv.DictReader(handle))[:72]
        zone = timezone(timedelta(hours=-6))
        for row in rows:
            row["timestamp"] = datetime.fromisoformat(row["timestamp"]).replace(tzinfo=zone).isoformat()
        data = tmp_path / "offset.csv"
        with open(data, "w", newline="", encoding="utf-8") as handle:
            writer = csv.DictWriter(handle, fieldnames=list(rows[0]))
            writer.writeheader()
            writer.writerows(rows)
        code = main([
            "train", "--data", str(data), "--split", "2024-01-02T05:00:00",
            "--hidden", "4", "--epochs", "1", "--out", str(tmp_path),
        ])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: split boundary 2024-01-02 05:00:00") and "UTC offset" in err

    def test_mixed_naive_and_offset_timestamps_name_the_line(self, synth_dir, tmp_path, capsys):
        # 72 naive rows; only the 11th carries an offset
        with open(synth_dir / "synthetic.csv", newline="", encoding="utf-8") as handle:
            rows = list(csv.DictReader(handle))[:72]
        rows[10]["timestamp"] += "+00:00"
        data = tmp_path / "mixed.csv"
        with open(data, "w", newline="", encoding="utf-8") as handle:
            writer = csv.DictWriter(handle, fieldnames=list(rows[0]))
            writer.writeheader()
            writer.writerows(rows)
        code = main(["train", "--data", str(data), "--hidden", "4", "--epochs", "1", "--out", str(tmp_path)])
        assert code == 1
        assert capsys.readouterr().err == (
            "error: cannot parse CSV line 12: UTC offset awareness differs from the first row's\n"
        )

    def test_missing_prices(self, day_inputs, tmp_path, capsys):
        predicted, _ = day_inputs
        code = main([
            "optimize", "--predicted", str(predicted),
            "--w1", "0.4", "--w2", "0.6", "--out", str(tmp_path),
        ])
        assert code == 1
        assert "price" in capsys.readouterr().err.lower()

    @pytest.mark.parametrize("fraction", ["-0.5", "inf", "nan"])
    def test_split_fraction_outside_unit_interval(self, synth_dir, tmp_path, capsys, fraction):
        code = main([
            "train", "--data", str(synth_dir / "synthetic.csv"), "--split-fraction", fraction,
            "--hidden", "4", "--epochs", "1", "--out", str(tmp_path),
        ])
        assert code == 1
        assert capsys.readouterr().err == f"error: split_fraction must lie in [0, 1], got {float(fraction)}\n"

    def test_day_absent_from_dataset_names_the_day(self, day_inputs, synth_dir, tmp_path, capsys):
        predicted, _ = day_inputs
        argv = [
            "optimize", "--predicted", str(predicted), "--data", str(synth_dir / "synthetic.csv"),
            "--day", "2024-02-01", "--out", str(tmp_path),
        ]
        args = build_parser().parse_args(argv)
        with pytest.raises(InsufficientData):
            args.func(args)
        assert main(argv) == 1
        assert capsys.readouterr().err == "error: dataset does not contain all 24 hours of 2024-02-01\n"

    @pytest.mark.parametrize("days", ["2", "0", "-5"])
    def test_too_few_synthetic_days_names_the_fault(self, tmp_path, capsys, days):
        assert main(["synth", "--days", days, "--out", str(tmp_path)]) == 1
        assert capsys.readouterr().err == f"error: days must be >= 3 for lag windows, got {days}\n"

    def test_negative_synthetic_seed_names_the_fault(self, tmp_path, capsys):
        assert main(["synth", "--seed", "-1", "--out", str(tmp_path)]) == 1
        assert capsys.readouterr().err == "error: seed must be >= 0, got -1\n"

    @pytest.mark.parametrize("lag", ["0", "-3"])
    def test_lag_below_one_names_the_fault(self, synth30_path, tmp_path, capsys, lag):
        code = main(["train", "--data", str(synth30_path), "--lag", lag, "--out", str(tmp_path)])
        assert code == 1
        assert capsys.readouterr().err == f"error: lag must be >= 1, got {lag}\n"

    def test_file_that_is_not_utf8_text(self, day_inputs, tmp_path, capsys):
        _, prices = day_inputs
        predicted = tmp_path / "predicted.csv"
        predicted.write_bytes(b"hour,predicted_kwh\n1,\xff\n")
        code = main(["optimize", "--predicted", str(predicted), "--prices", str(prices), "--out", str(tmp_path)])
        assert code == 1
        assert capsys.readouterr().err == "error: cannot parse CSV line 2: not UTF-8 text (invalid start byte)\n"

    def test_data_file_that_is_not_utf8_text_names_its_line(self, synth_dir, tmp_path, capsys):
        data = tmp_path / "data.csv"
        lines = (synth_dir / "synthetic.csv").read_bytes().splitlines(keepends=True)
        lines[30] = lines[30].replace(b",", b"\xff,", 1)
        data.write_bytes(b"".join(lines))
        code = main(["train", "--data", str(data), "--hidden", "4", "--epochs", "1", "--out", str(tmp_path)])
        assert code == 1
        assert capsys.readouterr().err == "error: cannot parse CSV line 31: not UTF-8 text (invalid start byte)\n"

    def test_model_file_that_is_not_utf8_text_names_the_file(self, trained_dir, synth_dir, tmp_path, capsys):
        model = tmp_path / "model.json"
        model.write_bytes((trained_dir / "model.json").read_bytes().replace(b'"lag"', b'"l\xffag"'))
        code = main([
            "predict", "--model", str(model), "--data", str(synth_dir / "synthetic.csv"), "--day", "2024-01-05",
            "--out", str(tmp_path),
        ])
        assert code == 1
        assert capsys.readouterr().err.startswith(f"error: model {model} is not a JSON file: 'utf-8' codec")

    def test_model_whose_lag_disagrees_with_its_input_layer(self, trained_dir, synth_dir, tmp_path, capsys):
        payload = json.loads((trained_dir / "model.json").read_text())
        payload["lag"] -= 1
        model = tmp_path / "model.json"
        model.write_text(json.dumps(payload))
        code = main([
            "predict", "--model", str(model), "--data", str(synth_dir / "synthetic.csv"), "--day", "2024-01-05",
            "--out", str(tmp_path),
        ])
        assert code == 1
        assert capsys.readouterr().err == (f"error: lag {payload['lag']} gives {payload['lag'] + 5} features "
                                           f"but model input is {payload['layer_sizes'][0]}\n")

    @pytest.mark.parametrize("edit", [
        lambda model: model.update(lag="x"),
        lambda model: model["weights"][0][0].pop(),
        lambda model: model.update(weights=5),
        lambda model: model["layer_sizes"].__setitem__(1, "eight"),
        lambda model: model["norm_stats"]["load_kwh"].pop(),
        lambda model: model["norm_stats"].__setitem__("load_kwh", [1.0, 1.0]),
        lambda model: model["norm_stats"].pop("load_kwh"),
        lambda model: model.update(norm_stats=5),
        lambda model: (model["layer_sizes"].__setitem__(-1, 2), model["weights"][-1].append(model["weights"][-1][0]),
                       model["biases"][-1].append(0.0)),
        lambda model: model.update(layer_sizes=[29], weights=[], biases=[]),
        lambda model: narrow_input(model, 5, lag=0),
        lambda model: narrow_input(model, 2, lag=-3),
        lambda model: model["biases"][0].pop(),
        lambda model: model.update(lag=24.5),
        lambda model: model.update(lag="24"),
        lambda model: model["layer_sizes"].__setitem__(0, 29.7),
        lambda model: model["layer_sizes"].__setitem__(-1, True),
        lambda model: model.update(lag=True),
        lambda model: model.update(norm_stats={}),
        lambda model: model["norm_stats"].__setitem__("humidity", [0.0, 1.0]),
        lambda model: model["norm_stats"].__setitem__("load_kwh", ["100", "900"]),
        lambda model: model["weights"][0][0].__setitem__(0, "0.25"),
        lambda model: model["biases"][-1].__setitem__(0, True),
        lambda model: model["norm_stats"].__setitem__("load_kwh", [0.0, True]),
        lambda model: model.update(norm_stats=None),
    ], ids=["lag", "ragged-weights", "weights-number", "layer-size", "one-value-scale", "flat-scale",
            "missing-scale", "stats-number", "two-outputs", "input-only", "lag-zero", "lag-negative",
            "unchained-bias", "lag-float", "lag-string", "layer-size-float", "layer-size-true", "lag-true",
            "stats-empty", "extra-scale", "text-scale", "text-weight", "true-bias", "true-scale",
            "stats-null"])
    def test_malformed_model_value_names_the_file(self, trained_dir, synth_dir, tmp_path, capsys, edit):
        payload = json.loads((trained_dir / "model.json").read_text())
        edit(payload)
        model = tmp_path / "model.json"
        model.write_text(json.dumps(payload))
        code = main([
            "predict", "--model", str(model), "--data", str(synth_dir / "synthetic.csv"), "--day", "2024-01-05",
            "--out", str(tmp_path),
        ])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith(f"error: model {model} holds a malformed value: ")
        assert "Traceback" not in err

    @pytest.mark.parametrize("edit, fault", [
        (lambda model: model["weights"][0][0].__setitem__(0, float("nan")), "layer 0 has non-finite parameters"),
        (lambda model: model["weights"][0][0].__setitem__(0, float("inf")), "layer 0 has non-finite parameters"),
        (lambda model: (model["weights"].pop(), model["biases"].pop()), "need one weight matrix per layer transition"),
        (lambda model: model["biases"].pop(), "need one weight matrix per layer transition"),
        (lambda model: [scale.append(1.0) for scale in model["norm_stats"].values()],
         "each feature scale must be two numbers [lo, hi], got [["),
    ], ids=["nan-weight", "infinite-weight", "last-layer-dropped", "last-bias-dropped", "three-number-scale"])
    def test_malformed_model_value_names_its_fault(self, trained_dir, synth_dir, tmp_path, capsys, edit, fault):
        payload = json.loads((trained_dir / "model.json").read_text())
        edit(payload)
        model = tmp_path / "model.json"
        model.write_text(json.dumps(payload))   # a non-finite weight as the token NaN or Infinity
        out = tmp_path / "out"
        code = main([
            "predict", "--model", str(model), "--data", str(synth_dir / "synthetic.csv"), "--day", "2024-01-05",
            "--out", str(out),
        ])
        assert code == 1
        assert capsys.readouterr().err.startswith(f"error: model {model} holds a malformed value: {fault}")
        assert not out.exists()

    @pytest.mark.parametrize("command", ["train", "predict"])
    def test_repeated_row_names_its_timestamp(self, trained_dir, synth_dir, tmp_path, capsys, command):
        lines = (synth_dir / "synthetic.csv").read_text(encoding="utf-8").splitlines(keepends=True)
        assert lines[9].startswith("2024-01-01T08:00:00,")
        data = tmp_path / "data.csv"
        data.write_text("".join(lines[:10] + lines[9:]), encoding="utf-8")
        flags = {"train": ["--hidden", "4", "--epochs", "1"],
                 "predict": ["--model", str(trained_dir / "model.json"), "--day", "2024-01-05"]}[command]
        out = tmp_path / "out"
        assert main([command, "--data", str(data), *flags, "--out", str(out)]) == 1
        assert capsys.readouterr().err == ("error: duplicate or out-of-order timestamp "
                                           "(first offending timestamp: 2024-01-01 08:00:00)\n")
        assert not out.exists()

    @pytest.mark.parametrize("fraction", ["0", "0.001"])
    def test_split_without_training_rows_names_the_fault(self, synth_dir, tmp_path, capsys, fraction):
        out = tmp_path / "out"
        code = main([
            "train", "--data", str(synth_dir / "synthetic.csv"), "--split-fraction", fraction,
            "--hidden", "4", "--epochs", "1", "--out", str(out),
        ])
        assert code == 1
        assert capsys.readouterr().err == "error: need at least 2 training rows to fit scaling, have 0\n"
        assert not out.exists()

    def test_zero_epochs_names_the_fault(self, synth30_path, tmp_path, capsys):
        code = main(["train", "--data", str(synth30_path), "--epochs", "0", "--out", str(tmp_path)])
        assert code == 1
        assert capsys.readouterr().err == "error: epochs must be >= 1, got 0\n"

    @pytest.mark.parametrize("text,message", [
        ("[]", "a model file holds a JSON object, got a JSON list"),
        ('{"format": "loadshift-mlp/1"}', "model file lacks the key 'layer_sizes'"),
    ])
    def test_malformed_model_names_the_fault(self, synth30_path, tmp_path, capsys, text, message):
        model = tmp_path / "model.json"
        model.write_text(text)
        code = main([
            "predict", "--model", str(model), "--data", str(synth30_path), "--day", "2024-01-06", "--out", str(tmp_path),
        ])
        assert code == 1
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize("flags,message", [
        (["--population", "1"], "swarm_size must be >= 2, got 1"),
        (["--algorithm", "de", "--population", "3"], "population_size must be >= 4, got 3"),
        (["--iterations", "0"], "iterations must be >= 1, got 0"),
    ])
    def test_optimizer_budget_out_of_range(self, day_inputs, tmp_path, capsys, flags, message):
        predicted, prices = day_inputs
        code = main(["optimize", "--predicted", str(predicted), "--prices", str(prices),
                     *flags, "--out", str(tmp_path)])
        assert code == 1
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_model_of_another_format_names_it(self, synth30_path, tmp_path, capsys):
        model = tmp_path / "model.json"
        model.write_text('{"format": "something-else/9"}')
        code = main([
            "predict", "--model", str(model), "--data", str(synth30_path), "--day", "2024-01-06", "--out", str(tmp_path),
        ])
        assert code == 1
        assert capsys.readouterr().err == \
            "error: unsupported model format 'something-else/9'; expected 'loadshift-mlp/1'\n"

    def test_dataset_without_prices(self, day_inputs, tmp_path, capsys):
        predicted, _ = day_inputs
        assert main(["synth", "--days", "3", "--no-price", "--out", str(tmp_path)]) == 0
        code = main([
            "optimize", "--predicted", str(predicted), "--data", str(tmp_path / "synthetic.csv"),
            "--day", "2024-01-02", "--out", str(tmp_path),
        ])
        assert code == 1
        assert capsys.readouterr().err == "error: dataset has no price column\n"

    @pytest.mark.parametrize("rows, message", [
        ([["when", "predicted_kwh"], ["1", "5.0"]], "required column missing from CSV header: 'hour'"),
        ([["hour", "predicted_kwh"], ["1", "5.0"], ["two", "5.0"]], "cannot parse CSV line 3: invalid literal"),
        ([["hour", "predicted_kwh"], ["25", "5.0"]], "cannot parse CSV line 2: hour 25 outside 1..24"),
        ([["hour", "predicted_kwh"], ["1_0", "5.0"]], "cannot parse CSV line 2: '1_0' is not a plain ASCII number"),
        ([["hour", "predicted_kwh"], ["\u0661\u0661", "5.0"]],
         "cannot parse CSV line 2: '\u0661\u0661' is not a plain ASCII number"),
        ([["hour", "predicted_kwh"], ["1", "1_000"]], "cannot parse CSV line 2: '1_000' is not a plain ASCII number"),
        ([["hour", "predicted_kwh"], ["1", "\u0663\u0660"]],
         "cannot parse CSV line 2: '\u0663\u0660' is not a plain ASCII number"),
    ])
    def test_bad_hour_column(self, day_inputs, tmp_path, capsys, rows, message):
        _, prices = day_inputs
        predicted = tmp_path / "predicted.csv"
        with open(predicted, "w", newline="", encoding="utf-8") as handle:
            csv.writer(handle).writerows(rows)
        code = main(["optimize", "--predicted", str(predicted), "--prices", str(prices), "--out", str(tmp_path)])
        assert code == 1
        assert capsys.readouterr().err.startswith(f"error: {message}")

    def test_bad_hour_row_after_a_blank_line_names_its_line(self, day_inputs, tmp_path, capsys):
        _, prices = day_inputs
        predicted = tmp_path / "predicted.csv"
        predicted.write_text("hour,predicted_kwh\n1,5\n\n2,abc\n", encoding="utf-8")
        code = main(["optimize", "--predicted", str(predicted), "--prices", str(prices), "--out", str(tmp_path)])
        assert code == 1
        assert capsys.readouterr().err.startswith("error: cannot parse CSV line 4: could not convert string to float")

    @pytest.mark.parametrize("flags, message", [
        (["--w1", "nan"], "weights must be finite and nonnegative, got (nan, 0.6)"),
        (["--alpha", "inf"], "e_cmax, l_shmax and alpha must be finite and positive"),
        (["--gamma-lo", "nan"], "need 0 <= gamma_lo <= gamma_hi, got (nan, 1.5)"),
        (["--peak-cap", "nan"], "peak_cap must be positive, got nan"),
        (["--peak-cap", "inf"], "peak_cap must be finite, got inf"),
        (["--peak-cap", "1e309"], "peak_cap must be finite, got inf"),
    ])
    def test_non_finite_problem_parameter(self, day_inputs, tmp_path, capsys, flags, message):
        predicted, prices = day_inputs
        code = main([
            "optimize", "--predicted", str(predicted), "--prices", str(prices), *flags,
            "--population", "6", "--iterations", "3", "--out", str(tmp_path),
        ])
        assert code == 1
        assert capsys.readouterr().err.startswith(f"error: {message}")
        assert not (tmp_path / "result.json").exists()

    @pytest.mark.parametrize("command", PROBLEM_COMMANDS)
    def test_infinite_peak_cap_is_refused_by_every_day_command(self, day_inputs, tmp_path, capsys, command):
        # an accepted inf would end in manifest.json as the non-JSON token Infinity
        predicted, prices = day_inputs
        out = tmp_path / "out"
        code = main([
            command, "--predicted", str(predicted), "--prices", str(prices), "--peak-cap", "inf",
            "--population", "6", "--iterations", "3", "--out", str(out),
        ])
        assert code == 1
        assert capsys.readouterr().err.startswith("error: peak_cap must be finite, got inf")
        assert not out.exists()

    def test_no_predicted_profile(self, day_inputs, tmp_path, capsys):
        _, prices = day_inputs
        code = main(["optimize", "--prices", str(prices), "--out", str(tmp_path)])
        assert code == 1
        assert capsys.readouterr().err.startswith("error: need a predicted profile")

    @pytest.mark.parametrize("flags, message", [
        (["verify", "--free-hours", "a"], "--free-hours 'a': invalid literal for int() with base 10: 'a'"),
        (["sweep", "--weights", "a:b"], "--weights 'a:b': could not convert string to float: 'a'"),
        (["sweep", "--weights", "0.4"], "--weights '0.4': weight pair '0.4' is not of the form w1:w2"),
        (["sweep", "--weights", ""], "--weights '': weight pair '' is not of the form w1:w2"),
    ])
    def test_unparseable_problem_flag_names_it(self, day_inputs, tmp_path, capsys, flags, message):
        predicted, prices = day_inputs
        code = main([*flags, "--predicted", str(predicted), "--prices", str(prices), "--out", str(tmp_path)])
        assert code == 1
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize("flags, message", [
        (["predict", "--model", "model.json", "--day", "bad"], "--day 'bad': Invalid isoformat string: 'bad'"),
        (["train", "--split", "bad"], "--split 'bad': Invalid isoformat string: 'bad'"),
        (["train", "--hidden", "a"], "--hidden 'a': invalid literal for int() with base 10: 'a'"),
    ])
    def test_unparseable_data_flag_names_it(self, synth30_path, tmp_path, capsys, flags, message):
        code = main([*flags, "--data", str(synth30_path), "--out", str(tmp_path)])
        assert code == 1
        assert capsys.readouterr().err == f"error: {message}\n"


def test_console_script_runs_cli_main():
    tomllib = pytest.importorskip("tomllib")   # Python 3.11+
    with open(Path(__file__).resolve().parents[1] / "pyproject.toml", "rb") as handle:
        target = tomllib.load(handle)["project"]["scripts"]["loadshift"]
    module, _, attribute = target.partition(":")
    assert getattr(importlib.import_module(module), attribute) is main
