import csv
import hashlib
import json
import math
import os
import re
import subprocess
import sys
from datetime import date, datetime, timedelta, timezone
from pathlib import Path

import numpy as np
import pytest
from helpers import backward, forward, reference_day_features, reference_predict_day, scan_day_indices, unit_stats
from hypothesis import given, settings
from hypothesis import strategies as st

from loadshift import mlp
from loadshift.cli import main
from loadshift.errors import (
    DimensionMismatch,
    DivergedTraining,
    EmptyTrainingSet,
    InsufficientData,
    InsufficientHistory,
    InvalidArchitecture,
    InvalidModel,
    InvalidTrainConfig,
    LoadshiftError,
)
from loadshift.ingest import (
    LOAD_COLUMN,
    Windows,
    build_windows,
    fit_normalizer,
    load_dataset,
    normalize,
    split_windows,
    window_matrix,
)
from loadshift.profiles import WEATHER_FEATURES, Dataset, time_axis


def toy_windows(n, rng, target_fn):
    """Windows shaped like real ones (5 weather + 1 lag load), all train."""
    features = np.array([rng.uniform(-1, 1, 6) for _ in range(n)])
    return Windows(
        features=features,
        targets=np.array([target_fn(f) for f in features]),
        target_rows=np.arange(n),
        n_train=n,
    )


class TestInitModel:
    def test_same_seed_bit_identical(self):
        a = mlp.init_model((4, 3, 1), 11, norm_stats=unit_stats())
        b = mlp.init_model((4, 3, 1), 11, norm_stats=unit_stats())
        assert all(np.array_equal(x, y) for x, y in zip(a.weights, b.weights))
        assert all(np.array_equal(x, y) for x, y in zip(a.biases, b.biases))

    def test_shape_chaining(self):
        model = mlp.init_model((2, 3, 1), 0, norm_stats=unit_stats())
        assert model.weights[0].shape == (3, 2)
        assert model.weights[1].shape == (1, 3)
        assert model.biases[0].shape == (3,)

    def test_zero_size_layer_rejected(self):
        with pytest.raises(InvalidArchitecture):
            mlp.init_model((4, 0, 1), 0, norm_stats=unit_stats())

    def test_init_bounds_follow_fan_in(self):
        model = mlp.init_model((16, 8, 1), 3, norm_stats=unit_stats())
        assert np.max(np.abs(model.weights[0])) <= 1.0 / math.sqrt(16)
        assert np.max(np.abs(model.weights[1])) <= 1.0 / math.sqrt(8)
        assert all(np.all(b == 0) for b in model.biases)

    def test_model_without_stats_rejected(self):
        model = mlp.init_model((6, 2, 1), 0, norm_stats=unit_stats(), lag=1)
        for stats in (None, {"load_kwh": [0.0, 1.0]}):
            with pytest.raises(InvalidModel, match=re.escape(f"no normalization stats: norm_stats is {stats!r}")):
                mlp.MlpModel(model.layer_sizes, model.weights, model.biases, norm_stats=stats, lag=1)
        with pytest.raises(TypeError, match="norm_stats"):
            mlp.init_model((6, 2, 1), 0, lag=1)


class TestForward:
    def test_zero_network_outputs_zero(self):
        model = mlp.init_model((3, 2, 1), 0, norm_stats=unit_stats())
        zeroed = mlp.MlpModel(
            model.layer_sizes,
            tuple(np.zeros_like(w) for w in model.weights),
            tuple(np.zeros_like(b) for b in model.biases),
            norm_stats=unit_stats(),
        )
        assert forward(zeroed, np.array([1.0, -2.0, 3.0])) == 0.0

    def test_single_layer_is_affine(self):
        model = mlp.MlpModel((1, 1), (np.array([[2.5]]),), (np.array([0.75]),), unit_stats())
        assert forward(model, np.array([2.0])) == pytest.approx(2.5 * 2.0 + 0.75)

    def test_one_hidden_unit_applies_tanh(self):
        model = mlp.MlpModel(
            (1, 1, 1),
            (np.array([[1.0]]), np.array([[1.0]])),
            (np.array([0.0]), np.array([0.0])),
            unit_stats(),
        )
        # independent oracle: math.tanh evaluated directly
        assert forward(model, np.array([0.5])) == pytest.approx(
            0.46211715726000974, abs=1e-15
        )

    def test_dimension_mismatch(self):
        model = mlp.init_model((4, 2, 1), 0, norm_stats=unit_stats())
        with pytest.raises(DimensionMismatch):
            forward(model, np.ones(3))

    def test_output_bounded_by_last_layer_weights(self):
        # hidden activations live in (-1, 1), so the affine output layer
        # cannot exceed |b| + sum|w| no matter how wild the input
        rng = np.random.default_rng(5)
        model = mlp.init_model((6, 5, 4, 1), 9, norm_stats=unit_stats())
        bound = float(np.sum(np.abs(model.weights[-1])) + np.abs(model.biases[-1][0]))
        for _ in range(50):
            x = rng.uniform(-1e6, 1e6, 6)
            assert abs(forward(model, x)) <= bound + 1e-12


class TestBackward:
    def test_zero_residual_zero_gradient(self):
        model = mlp.init_model((3, 4, 1), 2, norm_stats=unit_stats())
        x = np.array([0.3, -0.2, 0.9])
        target = forward(model, x)
        weight_grads, bias_grads = backward(model, x, target)
        assert all(np.allclose(g, 0, atol=1e-12) for g in weight_grads)
        assert all(np.allclose(g, 0, atol=1e-12) for g in bias_grads)

    def test_linear_chain_rule_by_hand(self):
        model = mlp.MlpModel((1, 1), (np.array([[1.0]]),), (np.array([0.0]),), unit_stats())
        weight_grads, bias_grads = backward(model, np.array([2.0]), 0.0)
        # loss 0.5 (wx + b)^2: d/dw = (wx + b) x = 4, d/db = 2
        assert weight_grads[0][0, 0] == pytest.approx(4.0)
        assert bias_grads[0][0] == pytest.approx(2.0)

    @pytest.mark.parametrize("seed", range(5))
    def test_gradient_matches_central_differences(self, seed):
        rng = np.random.default_rng(seed)
        model = mlp.init_model((3, 4, 2, 1), seed, norm_stats=unit_stats())
        x = rng.uniform(-1, 1, 3)
        target = float(rng.uniform(-1, 1))
        assert_gradients_match(model, x, target)


def assert_gradients_match(model, x, target, eps=1e-5, tol=1e-5):
    weight_grads, bias_grads = backward(model, x, target)
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
        return 0.5 * (forward(perturbed, x) - target) ** 2

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
        # 1-based, as training_curve.csv numbers epochs: the 9th epoch is the
        # first whose residuals are non-finite
        assert exc.value.epoch == 9
        assert "at epoch 9;" in str(exc.value)

    def test_divergence_in_the_last_update_is_caught(self):
        # one batch, one epoch: the residuals come from the initial weights
        # and stay finite; only the pass with the final weights overflows
        rng = np.random.default_rng(4)
        windows = toy_windows(16, rng, lambda f: f[0])
        model = mlp.init_model((6, 8, 1), 1, norm_stats=unit_stats(), lag=1)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(DivergedTraining) as exc:
                mlp.train(model, windows, [], mlp.TrainConfig(epochs=1, learning_rate=1e300, seed=1))
        assert exc.value.epoch == 1

    def test_epoch_mse_matches_plain_python_replay(self):
        rng = np.random.default_rng(6)
        windows = toy_windows(10, rng, lambda f: 0.5 * f[0] - 0.3 * f[3])
        model = mlp.init_model((6, 4, 3, 1), 2, norm_stats=unit_stats(), lag=1)
        config = mlp.TrainConfig(epochs=4, learning_rate=0.05, batch_size=4, seed=3)   # a short last batch
        _, fit = mlp.train(model, windows, [], config)
        X, y = window_matrix(windows, model.norm_stats)
        curve, final_mse = replay_training(model, X.tolist(), y.tolist(), config)
        assert fit.epoch_mse == pytest.approx(curve, rel=0, abs=1e-12)
        assert fit.train_mse == pytest.approx(final_mse, rel=0, abs=1e-12)

    def test_empty_training_set_rejected(self):
        model = mlp.init_model((6, 2, 1), 0, norm_stats=unit_stats(), lag=1)
        with pytest.raises(EmptyTrainingSet):
            mlp.train(model, [], [], mlp.TrainConfig())

    def test_bad_config_rejected(self):
        for field, value, message in [
            ("epochs", 0, "epochs must be >= 1, got 0"),
            ("learning_rate", 0.0, "learning_rate must be positive and finite, got 0.0"),
            ("learning_rate", math.nan, "learning_rate must be positive and finite, got nan"),
            ("learning_rate", math.inf, "learning_rate must be positive and finite, got inf"),
            ("batch_size", 0, "batch_size must be >= 1, got 0"),
            ("momentum", 1.0, r"momentum must be in \[0, 1\), got 1.0"),
        ]:
            with pytest.raises(InvalidTrainConfig, match=message) as exc:
                mlp.TrainConfig(**{field: value})
            assert isinstance(exc.value, LoadshiftError) and isinstance(exc.value, ValueError)


def replay_training(model, X, y, config):
    """Plain-Python replay of ``mlp.train``: (epoch MSE curve, final MSE).

    Draws the same permutations; each window's squared residual is taken
    with the weights before its batch's update, then the batch's mean
    gradient takes one momentum step.
    """
    weights = [w.tolist() for w in model.weights]
    biases = [b.tolist() for b in model.biases]
    velocity_w = [[[0.0] * len(row) for row in w] for w in weights]
    velocity_b = [[0.0] * len(b) for b in biases]
    last = len(weights) - 1

    def activations(x):
        acts = [x]
        for k, (w, b) in enumerate(zip(weights, biases)):
            z = [sum(wj * a for wj, a in zip(row, acts[-1])) + bj for row, bj in zip(w, b)]
            acts.append(z if k == last else [math.tanh(v) for v in z])
        return acts

    rng = np.random.default_rng(config.seed)
    curve = []
    for _ in range(config.epochs):
        order = rng.permutation(len(y))
        squares = 0.0
        for start in range(0, len(y), config.batch_size):
            batch = order[start : start + config.batch_size]
            grad_w = [[[0.0] * len(row) for row in w] for w in weights]
            grad_b = [[0.0] * len(b) for b in biases]
            for i in batch:
                acts = activations(X[i])
                residual = acts[-1][0] - y[i]
                squares += residual ** 2
                delta = [residual / len(batch)]
                for k in range(last, -1, -1):
                    for u, d in enumerate(delta):
                        grad_b[k][u] += d
                        for j, a in enumerate(acts[k]):
                            grad_w[k][u][j] += d * a
                    if k > 0:
                        delta = [
                            sum(d * weights[k][u][j] for u, d in enumerate(delta)) * (1.0 - a * a)
                            for j, a in enumerate(acts[k])
                        ]
            for k in range(last + 1):
                for u in range(len(biases[k])):
                    velocity_b[k][u] = config.momentum * velocity_b[k][u] - config.learning_rate * grad_b[k][u]
                    biases[k][u] += velocity_b[k][u]
                    for j in range(len(weights[k][u])):
                        velocity_w[k][u][j] = config.momentum * velocity_w[k][u][j] - config.learning_rate * grad_w[k][u][j]
                        weights[k][u][j] += velocity_w[k][u][j]
        curve.append(squares / len(y))
    final = sum((activations(x)[-1][0] - t) ** 2 for x, t in zip(X, y)) / len(y)
    return curve, final


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
        lo, hi = stats.lo[-1], stats.hi[-1]
        c = 0.5 * (lo + hi) + 0.25 * (hi - lo)
        base = mlp.init_model((29, 2, 1), 0, norm_stats=stats, lag=24)
        constant = mlp.MlpModel(
            base.layer_sizes,
            tuple(np.zeros_like(w) for w in base.weights),
            (base.biases[0], np.array([normalize(c, lo, hi)])),
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


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), hidden=st.lists(st.integers(1, 30), min_size=0, max_size=3),
       gain=st.floats(0.1, 4.0), day=st.integers(2, 29))
def test_predict_day_matches_the_one_row_reference(synth30, seed, hidden, gain, day):
    """The forecast equals the reference's bit for bit. The batched pass may
    round apart from 24 single-row passes, but only in the last places; the
    absolute bound is in normalized units, where an output can lie near zero."""
    base = mlp.init_model((29, *hidden, 1), seed, norm_stats=fit_normalizer(synth30), lag=24)
    model = mlp.MlpModel(base.layer_sizes, tuple(gain * w for w in base.weights), base.biases,
                         norm_stats=base.norm_stats, lag=24)
    day = date(2024, 1, 1) + timedelta(days=day)
    np.testing.assert_array_equal(mlp.predict_day(model, synth30, day).values,
                                  reference_predict_day(model, synth30, day))
    features = reference_day_features(model, synth30, day)
    batched = mlp._forward_batch(model.weights, model.biases, features)[-1][:, 0]
    single = [forward(model, row) for row in features]
    np.testing.assert_allclose(single, batched, rtol=1e-12, atol=1e-12)


def hourly_dataset(stamps, seed):
    """An allow_gaps Dataset on ``stamps`` with uniform random weather and load."""
    rng = np.random.default_rng(seed)
    n = len(stamps)
    return Dataset(*time_axis(stamps), weather=rng.uniform(-1, 1, (n, len(WEATHER_FEATURES))),
                   load=rng.uniform(0, 1, n), price=None, n_train=n // 2, allow_gaps=True)


def assert_predict_day_agrees_with_the_reference(model, dataset, days):
    for day in days:
        try:
            expected = reference_predict_day(model, dataset, day)
        except InsufficientHistory as fault:
            with pytest.raises(InsufficientHistory) as raised:
                mlp.predict_day(model, dataset, day)
            assert str(raised.value) == str(fault), day
        else:
            np.testing.assert_array_equal(mlp.predict_day(model, dataset, day).values, expected)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), lag=st.sampled_from([1, 5, 24, 30]),
       deleted=st.sets(st.integers(0, 143), max_size=6), late=st.sets(st.integers(0, 143), max_size=2),
       offset=st.sampled_from([None, -3.0, 0.0, 5.5]), switch=st.integers(0, 144), shift=st.sampled_from([1, -2]))
def test_predict_day_checks_history_like_the_reference(seed, lag, deleted, late, offset, switch, shift):
    """On six days with random hours deleted and some half-hour rows added,
    with naive stamps or with a UTC offset that changes by ``shift`` hours
    from some row on: a day with the full history of every hour is
    forecast as the reference forecasts it, and any other day raises the
    reference's fault."""
    start = datetime(2024, 3, 1, tzinfo=None if offset is None else timezone.utc)
    hours = [h for h in range(144) if h not in deleted]
    instants = sorted([start + timedelta(hours=h) for h in hours] + [start + timedelta(hours=h + 0.5) for h in late])
    if offset is not None:
        zone = lambda i: timezone(timedelta(hours=offset + shift * (i >= switch)))
        instants = [ts.astimezone(zone(i)) for i, ts in enumerate(instants)]
    dataset = hourly_dataset(instants, seed)
    model = mlp.init_model((5 + lag, 3, 1), seed, norm_stats=unit_stats(), lag=lag)
    assert_predict_day_agrees_with_the_reference(model, dataset, [date(2024, 2, 29) + timedelta(days=k) for k in range(8)])


def test_an_off_the_hour_row_before_the_day_leaves_its_windows_whole():
    """A half-hour row just before the day breaks the block of consecutive
    hours, but no hour's lag window holds it; the next day's windows do."""
    start = datetime(2024, 3, 1)
    stamps = [start + timedelta(hours=h) for h in range(96)]
    dataset = hourly_dataset(sorted(stamps + [datetime(2024, 3, 2, 23, 30)]), 3)
    model = mlp.init_model((29, 3, 1), 3, norm_stats=unit_stats(), lag=24)
    expected = reference_predict_day(model, dataset, date(2024, 3, 3))
    np.testing.assert_array_equal(mlp.predict_day(model, dataset, date(2024, 3, 3)).values, expected)
    with pytest.raises(InsufficientHistory, match="gap inside the lag window before 2024-03-04 00:00:00"):
        mlp.predict_day(model, dataset, date(2024, 3, 4))


def test_a_day_whose_rows_are_not_consecutive():
    """UTC offsets of +1 hour, then +2 for one row, then 0 give 2024-03-03
    the hours 0..23 in order, but with a row of the next day inside them."""
    start = datetime(2024, 3, 1, tzinfo=timezone.utc)
    instants = [start + timedelta(hours=h) for h in range(96)]
    utc = lambda day, hour: datetime(2024, 3, day, hour, tzinfo=timezone.utc)
    offset_hours = lambda ts: 2 if ts == utc(3, 22) else 1 if utc(2, 23) <= ts < utc(3, 22) else 0
    dataset = hourly_dataset([ts.astimezone(timezone(timedelta(hours=offset_hours(ts)))) for ts in instants], 5)
    rows = dataset.full_day_indices(date(2024, 3, 3))
    assert len(rows) == 24 and rows[-1] - rows[0] == 24
    model = mlp.init_model((29, 3, 1), 5, norm_stats=unit_stats(), lag=24)
    assert_predict_day_agrees_with_the_reference(model, dataset, [date(2024, 3, 3)])
    reference_predict_day(model, dataset, date(2024, 3, 3))   # the day is forecast, not refused


def test_a_day_missing_a_wall_clock_hour_is_incomplete():
    """UTC offsets that step to +1 hour at 2024-03-03 00:00 UTC and to -1 a
    day later give 2024-03-03 24 rows at the hours 1..23 and then 23 again:
    00:00 is missing, so the day is neither a profile nor forecast."""
    start = datetime(2024, 3, 1, tzinfo=timezone.utc)
    offset_hours = lambda row: 0 if row < 48 else 1 if row < 72 else -1
    dataset = hourly_dataset([(start + timedelta(hours=row)).astimezone(timezone(timedelta(hours=offset_hours(row))))
                              for row in range(120)], 7)
    day = date(2024, 3, 3)
    assert len(scan_day_indices(dataset, day)) == 24
    assert dataset.full_day_indices(day) is None
    with pytest.raises(InsufficientData, match="dataset does not contain all 24 hours of 2024-03-03"):
        dataset.day_profile(day)
    model = mlp.init_model((29, 3, 1), 7, norm_stats=unit_stats(), lag=24)
    with pytest.raises(InsufficientHistory, match="dataset does not contain all 24 hours of 2024-03-03"):
        mlp.predict_day(model, dataset, day)


class TestGoldenForecast:
    """The forecast artifacts at a fixed seed, pinned byte for byte: a change
    to the float operations of training or prediction, or to their order,
    shows here. The digests were taken with numpy's bundled OpenBLAS on
    x86-64; another BLAS may sum a matmul in another order. The forecast
    digests moved when ``predict_day`` went from 24 single-row passes to one
    batched pass, which rounds some hours apart in the last place (see
    ``test_predict_day_matches_the_one_row_reference``); the model and fit
    report digests did not."""

    DAYS = {
        date(2024, 1, 3): "746a16f784b38a528b2a20c48b4eb9b00bb1e4441553fab7c6c808425ace4d49",
        date(2024, 1, 17): "864c40f068b3568710cff9f58b8415a5baf598f8a202ce0e249d45ee5e5e9a4b",
        date(2024, 1, 26): "bf3ba705599f8acc3b9b40aef2421c36293595a68e426a0a5402a1cabd360833",
        date(2024, 1, 30): "7d2961d2ef621c605dc7f8893b0f022f98090bcbce8a83e11b2766bc8faf5365",
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
            "76454f087450c56b9f81b14638f156774474d51072ae2c8dfcb0ea0f54c3bb3a"
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
        mse, r = mlp.metrics(np.array([1.0, 2.0]), np.array([3.0, 3.0]))
        assert r is None
        assert mse == pytest.approx(0.5 * ((1 - 3) ** 2 + (2 - 3) ** 2))

    def test_constant_series_whose_mean_rounds(self):
        """Three copies of 0.1 have a mean of 0.10000000000000002, so their
        deviations from it are not zero; the series is constant all the same."""
        series = np.full(3, 0.1)
        assert series.mean() != 0.1
        assert mlp.metrics(np.array([1.0, 5.0, 2.0]), series)[1] is None
        assert mlp.metrics(series, np.array([1.0, 5.0, 2.0]))[1] == 0.0

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_r_is_none_exactly_for_a_constant_reference(self, data):
        # subnormals included; beyond 1e150 a squared error overflows float64
        values = st.floats(-1e150, 1e150)
        n = data.draw(st.integers(1, 40))
        series = lambda: data.draw(st.one_of(
            st.lists(values, min_size=n, max_size=n),
            values.map(lambda v: [v] * n),
        ))
        predicted, actual = np.array(series()), np.array(series())
        r = mlp.metrics(predicted, actual)[1]
        if np.all(actual == actual[0]):
            assert r is None
        elif np.all(predicted == predicted[0]):
            assert r == 0.0
        else:
            assert -1.0 <= r <= 1.0

    def test_constant_prediction_gives_zero_r(self):
        mse, r = mlp.metrics(np.array([2.0, 2.0, 2.0]), np.array([1.0, 2.0, 3.0]))
        assert r == 0.0

    def test_independent_of_the_blas_thread_count(self):
        """OpenBLAS splits a dot product of more than 10,000 values across
        threads, which rounds apart from one thread in the last place."""
        script = ("import numpy as np; from loadshift.mlp import metrics\n"
                  "for seed in range(5):\n"
                  "    rng = np.random.default_rng(seed); a = rng.normal(size=20_001)\n"
                  "    print(*map(float.hex, metrics(a + rng.normal(size=a.size), a)))")
        package_root = str(Path(mlp.__file__).parents[1])
        outputs = []
        for threads in ("1", "2"):
            env = {**os.environ, "OPENBLAS_NUM_THREADS": threads, "PYTHONPATH": package_root}
            outputs.append(subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                                          text=True, check=True).stdout)
        assert outputs[0] == outputs[1]

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
        assert np.array_equal(loaded.norm_stats.lo, model.norm_stats.lo)
        assert np.array_equal(loaded.norm_stats.hi, model.norm_stats.hi)

    def test_network_without_stats_writes_no_file(self, tmp_path):
        # a file with "norm_stats": null would be one that load_model refuses
        path = tmp_path / "model.json"
        with pytest.raises(TypeError, match="norm_stats"):
            mlp.save_model(mlp.init_model((6, 2, 1), 0, lag=1), path)
        assert not path.exists()

    def test_unknown_format_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"format": "something-else/9"}')
        with pytest.raises(InvalidModel, match="unsupported model format 'something-else/9'"):
            mlp.load_model(path)

    @pytest.mark.parametrize("text,message", [
        ("[]", "a model file holds a JSON object, got a JSON list"),
        ('"loadshift-mlp/1"', "a model file holds a JSON object, got a JSON str"),
    ])
    def test_top_level_that_is_not_an_object_rejected(self, tmp_path, text, message):
        path = tmp_path / "bad.json"
        path.write_text(text)
        with pytest.raises(InvalidModel, match=message):
            mlp.load_model(path)

    @pytest.mark.parametrize("key", ["layer_sizes", "weights", "biases", "lag"])
    def test_missing_key_rejected(self, tmp_path, key):
        path = tmp_path / "model.json"
        mlp.save_model(mlp.init_model((6, 2, 1), 0, norm_stats=unit_stats(), lag=1), path)
        payload = json.loads(path.read_text())
        del payload[key]
        path.write_text(json.dumps(payload))
        with pytest.raises(InvalidModel, match=f"model file lacks the key '{key}'"):
            mlp.load_model(path)
