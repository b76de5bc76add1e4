import csv
import hashlib
import math
from datetime import date, datetime, timedelta

import numpy as np
import pytest

from loadshift import mlp
from loadshift.cli import main
from loadshift.errors import (
    DimensionMismatch,
    DivergedTraining,
    EmptyTrainingSet,
    InsufficientHistory,
    InvalidArchitecture,
    ZeroVariance,
)
from loadshift.ingest import (
    FeatureScale,
    LOAD_COLUMN,
    NormalizationStats,
    Windows,
    build_windows,
    fit_normalizer,
    load_dataset,
    normalize,
    split_windows,
)
from loadshift.profiles import WEATHER_FEATURES


def unit_stats():
    """Identity-friendly stats: every feature scaled from [-1, 1]."""
    return NormalizationStats(
        {name: FeatureScale(-1.0, 1.0) for name in WEATHER_FEATURES + (LOAD_COLUMN,)}
    )


def toy_windows(n, rng, target_fn):
    """Windows shaped like real ones (5 weather + 1 lag load), all train."""
    features = np.array([rng.uniform(-1, 1, 6) for _ in range(n)])
    return Windows(
        features=features,
        targets=np.array([target_fn(f) for f in features]),
        target_rows=np.arange(n),
        is_test=np.zeros(n, dtype=bool),
    )


class TestInitModel:
    def test_same_seed_bit_identical(self):
        a = mlp.init_model((4, 3, 1), 11)
        b = mlp.init_model((4, 3, 1), 11)
        assert all(np.array_equal(x, y) for x, y in zip(a.weights, b.weights))
        assert all(np.array_equal(x, y) for x, y in zip(a.biases, b.biases))

    def test_shape_chaining(self):
        model = mlp.init_model((2, 3, 1), 0)
        assert model.weights[0].shape == (3, 2)
        assert model.weights[1].shape == (1, 3)
        assert model.biases[0].shape == (3,)

    def test_zero_size_layer_rejected(self):
        with pytest.raises(InvalidArchitecture):
            mlp.init_model((4, 0, 1), 0)

    def test_init_bounds_follow_fan_in(self):
        model = mlp.init_model((16, 8, 1), 3)
        assert np.max(np.abs(model.weights[0])) <= 1.0 / math.sqrt(16)
        assert np.max(np.abs(model.weights[1])) <= 1.0 / math.sqrt(8)
        assert all(np.all(b == 0) for b in model.biases)


class TestForward:
    def test_zero_network_outputs_zero(self):
        model = mlp.init_model((3, 2, 1), 0)
        zeroed = mlp.MlpModel(
            model.layer_sizes,
            tuple(np.zeros_like(w) for w in model.weights),
            tuple(np.zeros_like(b) for b in model.biases),
        )
        assert mlp.forward(zeroed, np.array([1.0, -2.0, 3.0])) == 0.0

    def test_single_layer_is_affine(self):
        model = mlp.MlpModel((1, 1), (np.array([[2.5]]),), (np.array([0.75]),))
        assert mlp.forward(model, np.array([2.0])) == pytest.approx(2.5 * 2.0 + 0.75)

    def test_one_hidden_unit_applies_tanh(self):
        model = mlp.MlpModel(
            (1, 1, 1),
            (np.array([[1.0]]), np.array([[1.0]])),
            (np.array([0.0]), np.array([0.0])),
        )
        # independent oracle: math.tanh evaluated directly
        assert mlp.forward(model, np.array([0.5])) == pytest.approx(
            0.46211715726000974, abs=1e-15
        )

    def test_dimension_mismatch(self):
        model = mlp.init_model((4, 2, 1), 0)
        with pytest.raises(DimensionMismatch):
            mlp.forward(model, np.ones(3))

    def test_output_bounded_by_last_layer_weights(self):
        # hidden activations live in (-1, 1), so the affine output layer
        # cannot exceed |b| + sum|w| no matter how wild the input
        rng = np.random.default_rng(5)
        model = mlp.init_model((6, 5, 4, 1), 9)
        bound = float(np.sum(np.abs(model.weights[-1])) + np.abs(model.biases[-1][0]))
        for _ in range(50):
            x = rng.uniform(-1e6, 1e6, 6)
            assert abs(mlp.forward(model, x)) <= bound + 1e-12


class TestBackward:
    def test_zero_residual_zero_gradient(self):
        model = mlp.init_model((3, 4, 1), 2)
        x = np.array([0.3, -0.2, 0.9])
        target = mlp.forward(model, x)
        weight_grads, bias_grads = mlp.backward(model, x, target)
        assert all(np.allclose(g, 0, atol=1e-12) for g in weight_grads)
        assert all(np.allclose(g, 0, atol=1e-12) for g in bias_grads)

    def test_linear_chain_rule_by_hand(self):
        model = mlp.MlpModel((1, 1), (np.array([[1.0]]),), (np.array([0.0]),))
        weight_grads, bias_grads = mlp.backward(model, np.array([2.0]), 0.0)
        # loss 0.5 (wx + b)^2: d/dw = (wx + b) x = 4, d/db = 2
        assert weight_grads[0][0, 0] == pytest.approx(4.0)
        assert bias_grads[0][0] == pytest.approx(2.0)

    @pytest.mark.parametrize("seed", range(5))
    def test_gradient_matches_central_differences(self, seed):
        rng = np.random.default_rng(seed)
        model = mlp.init_model((3, 4, 2, 1), seed)
        x = rng.uniform(-1, 1, 3)
        target = float(rng.uniform(-1, 1))
        assert_gradients_match(model, x, target)


def assert_gradients_match(model, x, target, eps=1e-5, tol=1e-5):
    weight_grads, bias_grads = mlp.backward(model, x, target)
    analytic = np.concatenate(
        [g.ravel() for g in weight_grads] + [g.ravel() for g in bias_grads]
    )

    def loss_at(flat):
        weights, biases = [], []
        k = 0
        for w in model.weights:
            weights.append(flat[k : k + w.size].reshape(w.shape))
            k += w.size
        for b in model.biases:
            biases.append(flat[k : k + b.size].reshape(b.shape))
            k += b.size
        perturbed = mlp.MlpModel(
            model.layer_sizes, tuple(weights), tuple(biases),
            norm_stats=model.norm_stats, lag=model.lag,
        )
        return 0.5 * (mlp.forward(perturbed, x) - target) ** 2

    theta = np.concatenate(
        [w.ravel() for w in model.weights] + [b.ravel() for b in model.biases]
    )
    for i in range(len(theta)):
        bump = np.zeros_like(theta)
        bump[i] = eps
        numeric = (loss_at(theta + bump) - loss_at(theta - bump)) / (2 * eps)
        denom = max(abs(numeric), abs(analytic[i]), 1e-4)
        assert abs(numeric - analytic[i]) / denom <= tol, (
            f"coordinate {i}: analytic {analytic[i]:.3e} vs numeric {numeric:.3e}"
        )


class TestTrain:
    def test_linear_targets_converge(self):
        rng = np.random.default_rng(0)
        windows = toy_windows(200, rng, lambda f: 0.6 * f[1])
        model = mlp.init_model((6, 8, 1), 1, norm_stats=unit_stats(), lag=1)
        trained, fit = mlp.train(
            model, windows, [], mlp.TrainConfig(epochs=800, seed=2)
        )
        assert fit.train_mse < 1e-4
        assert fit.test_mse is None

    def test_same_seed_identical_fit(self):
        rng = np.random.default_rng(3)
        windows = toy_windows(64, rng, lambda f: f[0] * f[2])
        model = mlp.init_model((6, 6, 1), 5, norm_stats=unit_stats(), lag=1)
        config = mlp.TrainConfig(epochs=20, seed=9)
        _, fit_a = mlp.train(model, windows, [], config)
        _, fit_b = mlp.train(model, windows, [], config)
        assert fit_a == fit_b

    def test_epoch_trace_length(self):
        rng = np.random.default_rng(3)
        windows = toy_windows(40, rng, lambda f: f[0])
        model = mlp.init_model((6, 3, 1), 0, norm_stats=unit_stats(), lag=1)
        _, fit = mlp.train(model, windows, [], mlp.TrainConfig(epochs=17, seed=0))
        assert len(fit.epoch_mse) == 17

    def test_divergence_aborts_with_epoch(self):
        rng = np.random.default_rng(4)
        windows = toy_windows(64, rng, lambda f: f[0])
        model = mlp.init_model((6, 8, 1), 1, norm_stats=unit_stats(), lag=1)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(DivergedTraining) as exc:
                mlp.train(
                    model, windows, [],
                    mlp.TrainConfig(epochs=500, learning_rate=1e9, seed=1),
                )
        assert exc.value.epoch >= 1

    def test_empty_training_set_rejected(self):
        model = mlp.init_model((6, 2, 1), 0, norm_stats=unit_stats(), lag=1)
        with pytest.raises(EmptyTrainingSet):
            mlp.train(model, [], [], mlp.TrainConfig())

    def test_bad_config_rejected(self):
        with pytest.raises(ValueError):
            mlp.TrainConfig(epochs=0)
        with pytest.raises(ValueError):
            mlp.TrainConfig(learning_rate=0.0)
        with pytest.raises(ValueError):
            mlp.TrainConfig(batch_size=0)


def sinusoid_csv(path, days):
    """Noiseless periodic load: exactly learnable from the lag window."""
    start = datetime(2024, 3, 1)
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(
            ["timestamp", "wind_speed", "temperature", "heat_index",
             "cold_index", "dew_point", LOAD_COLUMN]
        )
        for i in range(days * 24):
            h = i % 24
            ts = start + timedelta(hours=i)
            writer.writerow([
                ts.isoformat(),
                f"{3 + math.sin(i / 5):.4f}",
                f"{15 + 8 * math.sin(2 * math.pi * (h - 14) / 24):.4f}",
                f"{16 + 7 * math.sin(2 * math.pi * (h - 14) / 24):.4f}",
                f"{10 + 5 * math.cos(2 * math.pi * h / 24):.4f}",
                f"{8 + 2 * math.sin(i / 7):.4f}",
                f"{500 + 100 * math.sin(2 * math.pi * h / 24):.4f}",
            ])
    return path


class TestPredictDay:
    def test_constant_model_predicts_constant(self, synth30):
        stats = fit_normalizer(synth30)
        scale = stats[LOAD_COLUMN]
        c = 0.5 * (scale.lo + scale.hi) + 0.25 * (scale.hi - scale.lo)
        base = mlp.init_model((29, 2, 1), 0, norm_stats=stats, lag=24)
        constant = mlp.MlpModel(
            base.layer_sizes,
            tuple(np.zeros_like(w) for w in base.weights),
            (base.biases[0], np.array([normalize(c, scale)])),
            norm_stats=stats,
            lag=24,
        )
        day = synth30.timestamps[-1].date()
        profile = mlp.predict_day(constant, synth30, day)
        assert np.allclose(profile.values, c, atol=1e-9)

    def test_missing_history_rejected(self, synth30):
        model = mlp.init_model((29, 2, 1), 0, norm_stats=fit_normalizer(synth30), lag=24)
        first_day = synth30.timestamps[0].date()
        with pytest.raises(InsufficientHistory):
            mlp.predict_day(model, synth30, first_day)
        with pytest.raises(InsufficientHistory):
            mlp.predict_day(model, synth30, date(1999, 1, 1))

    def test_gap_inside_lag_window_rejected(self, tmp_path):
        path = sinusoid_csv(tmp_path / "sine.csv", 5)
        lines = path.read_text().splitlines(keepends=True)
        del lines[1 + 10]   # hour 10 of day 1: inside the lag window of day 3's first hour
        path.write_text("".join(lines))
        ds = load_dataset(path, allow_gaps=True)
        model = mlp.init_model((29, 2, 1), 0, norm_stats=fit_normalizer(ds), lag=24)
        with pytest.raises(InsufficientHistory, match="gap inside the lag window"):
            mlp.predict_day(model, ds, date(2024, 3, 3))

    def test_learns_noiseless_sinusoid(self, tmp_path):
        ds = load_dataset(sinusoid_csv(tmp_path / "sine.csv", 20))
        stats = fit_normalizer(ds)
        train, test = split_windows(build_windows(ds))
        model = mlp.init_model((29, 25, 20, 15, 1), 7, norm_stats=stats, lag=24)
        trained, _ = mlp.train(model, train, test, mlp.TrainConfig(epochs=300, seed=8))
        day = ds.timestamps[-1].date()
        predicted = mlp.predict_day(trained, ds, day)
        actual = ds.day_profile(day)
        # amplitude is 100 kWh; stay within 1% of it per hour
        assert np.max(np.abs(predicted.values - actual.values)) < 1.0


class TestGoldenForecast:
    """The forecast artifacts at a fixed seed, pinned byte for byte: a change
    to the float operations of training or prediction, or to their order,
    shows here. The digests were taken with numpy's bundled OpenBLAS on
    x86-64; another BLAS may sum a matmul in another order."""

    DAYS = {
        date(2024, 1, 3): "9465a988f2da1bcf65cdffcc5313a86b4eb085838910261859ff5369761dc629",
        date(2024, 1, 17): "e8f5210bade5999694d623551df42564f801ce2f2b0b4a290c49d608b71dff4b",
        date(2024, 1, 26): "2d43a933c346198c298a2d74cff9e21a549700d0350fbf8a0c86a4f59923a1aa",
        date(2024, 1, 30): "5bb352e5ced2e8f123dcbe1ad0c18ff3fe15af84eb542a05466cbfd053515880",
    }

    def test_model_fit_report_and_forecasts(self, synth30_path, synth30, tmp_path):
        sha256 = lambda data: hashlib.sha256(data).hexdigest()
        code = main([
            "train", "--data", str(synth30_path), "--epochs", "20", "--seed", "5", "--out", str(tmp_path),
        ])
        assert code == 0
        assert sha256((tmp_path / "model.json").read_bytes()) == \
            "9a286e8a76241bf1e5d8456fb807a9eb5a94e0fe9830ef5bb07e7e3098885e25"
        assert sha256((tmp_path / "fit_report.json").read_bytes()) == \
            "165ca9d999d137de98a62047f5e3badd07a4ad013fb22f85ef5d9c88c5f039ef"
        model = mlp.load_model(tmp_path / "model.json")
        for day, digest in self.DAYS.items():
            assert sha256(mlp.predict_day(model, synth30, day).values.tobytes()) == digest, day


class TestMetrics:
    def test_identity(self):
        series = np.array([1.0, 2.0, 3.0, 4.0])
        mse, r = mlp.metrics(series, series)
        assert mse == 0.0
        assert r == pytest.approx(1.0)

    def test_anti_correlation(self):
        actual = np.array([-2.0, -1.0, 1.0, 2.0])
        mse, r = mlp.metrics(-actual, actual)
        assert r == pytest.approx(-1.0)

    def test_constant_shift_keeps_r(self):
        actual = np.array([1.0, 5.0, 2.0, 8.0])
        mse, r = mlp.metrics(actual + 3.0, actual)
        assert r == pytest.approx(1.0)
        assert mse == pytest.approx(9.0)

    def test_zero_variance_carries_mse(self):
        with pytest.raises(ZeroVariance) as exc:
            mlp.metrics(np.array([1.0, 2.0]), np.array([3.0, 3.0]))
        assert exc.value.mse == pytest.approx(0.5 * ((1 - 3) ** 2 + (2 - 3) ** 2))

    def test_constant_prediction_gives_zero_r(self):
        mse, r = mlp.metrics(np.array([2.0, 2.0, 2.0]), np.array([1.0, 2.0, 3.0]))
        assert r == 0.0

    def test_shape_mismatch(self):
        with pytest.raises(DimensionMismatch):
            mlp.metrics(np.ones(3), np.ones(4))


class TestPersistence:
    def test_round_trip_bit_exact(self, tmp_path, synth30):
        stats = fit_normalizer(synth30)
        model = mlp.init_model((29, 5, 1), 13, norm_stats=stats, lag=24)
        path = tmp_path / "model.json"
        mlp.save_model(model, path)
        loaded = mlp.load_model(path)
        assert loaded.layer_sizes == model.layer_sizes
        assert loaded.lag == model.lag
        assert all(np.array_equal(a, b) for a, b in zip(loaded.weights, model.weights))
        assert all(np.array_equal(a, b) for a, b in zip(loaded.biases, model.biases))
        assert loaded.norm_stats == model.norm_stats

    def test_unknown_format_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"format": "something-else/9"}')
        with pytest.raises(Exception):
            mlp.load_model(path)
