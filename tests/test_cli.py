"""Command line flows, file outputs, and exit codes."""

import csv
import json
from datetime import datetime, timedelta, timezone

import numpy as np
import pytest

from loadshift.cli import build_parser, main
from loadshift.errors import LoadshiftError
from loadshift.ingest import load_dataset


def write_hourly_csv(path, column, values):
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(["hour", column])
        for hour, value in enumerate(values, start=1):
            writer.writerow([hour, repr(float(value))])


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
def trained_dir(tmp_path_factory, synth_dir):
    out = tmp_path_factory.mktemp("train_out")
    code = main([
        "train", "--data", str(synth_dir / "synthetic.csv"),
        "--hidden", "8", "--epochs", "3", "--out", str(out),
    ])
    assert code == 0
    return out


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


class TestOptimize:
    def run(self, day_inputs, out, extra=()):
        predicted, prices = day_inputs
        return main([
            "optimize", "--predicted", str(predicted), "--prices", str(prices),
            "--w1", "0.4", "--w2", "0.6", "--population", "12",
            "--iterations", "15", "--out", str(out), *extra,
        ])

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
            "--w1", "0.4", "--w2", "0.6", "--population", "4",
            "--iterations", "1", "--tolerance=-1.0", "--out", str(tmp_path),
        ])
        assert code == 1
        assert "FAIL pso" in capsys.readouterr().out


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
        (["--resolution", "1"], "grid_resolution must be >= 2, got 1"),
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

    def test_unknown_config_key(self, day_inputs, tmp_path, capsys):
        predicted, prices = day_inputs
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"w1": 0.4, "w2": 0.6, "bogus": 1}))
        code = main([
            "optimize", "--predicted", str(predicted), "--prices", str(prices),
            "--config", str(config), "--out", str(tmp_path),
        ])
        assert code == 1
        assert "bogus" in capsys.readouterr().err

    def test_config_supplies_problem_parameters(self, day_inputs, tmp_path):
        predicted, prices = day_inputs
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"w1": 0.9, "w2": 0.1, "alpha": 50.0}))
        code = main([
            "optimize", "--predicted", str(predicted), "--prices", str(prices),
            "--config", str(config), "--population", "10", "--iterations", "10",
            "--out", str(tmp_path),
        ])
        assert code == 0
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["parameters"]["w1"] == 0.9
        assert manifest["parameters"]["alpha"] == 50.0
