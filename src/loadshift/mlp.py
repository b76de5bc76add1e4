"""From-scratch feed-forward network for 24-hour-ahead load prediction.

Hidden layers apply tanh, the output layer is identity, and training is
plain mini-batch gradient descent with momentum on mean squared error.
Inputs and targets are scaled to [-1, 1] with the stats carried by the
model, so predictions denormalize back to kWh.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace
from datetime import date
from typing import Optional, Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import (
    DimensionMismatch,
    DivergedTraining,
    EmptyTrainingSet,
    InsufficientHistory,
    InvalidArchitecture,
    ZeroVariance,
)
from .ingest import (
    DEFAULT_LAG,
    HORIZON_HOURS,
    LOAD_COLUMN,
    NormalizationStats,
    Windows,
    denormalize,
    normalize_features,
    window_matrix,
)
from .profiles import Dataset, HourlyProfile, load_profile

MODEL_FORMAT = "loadshift-mlp/1"

DEFAULT_LAYER_SIZES = (25, 20, 15)   # hidden sizes; input is 5 + lag, output is 1


@dataclass(frozen=True)
class MlpModel:
    """Immutable network: sizes, parameters, and input/output scaling."""

    layer_sizes: tuple
    weights: tuple          # weights[k] has shape (layer_sizes[k+1], layer_sizes[k])
    biases: tuple           # biases[k] has shape (layer_sizes[k+1],)
    norm_stats: Optional[NormalizationStats] = None
    lag: int = DEFAULT_LAG

    def __post_init__(self):
        sizes = tuple(int(s) for s in self.layer_sizes)
        object.__setattr__(self, "layer_sizes", sizes)
        frozen_w, frozen_b = [], []
        for k, (w, b) in enumerate(zip(self.weights, self.biases)):
            w = np.asarray(w, dtype=float).copy()
            b = np.asarray(b, dtype=float).copy()
            if w.shape != (sizes[k + 1], sizes[k]) or b.shape != (sizes[k + 1],):
                raise InvalidArchitecture(
                    f"layer {k}: weight shape {w.shape} / bias shape {b.shape} "
                    f"do not chain {sizes[k]} -> {sizes[k + 1]}"
                )
            if not (np.all(np.isfinite(w)) and np.all(np.isfinite(b))):
                raise InvalidArchitecture(f"layer {k} has non-finite parameters")
            w.flags.writeable = False
            b.flags.writeable = False
            frozen_w.append(w)
            frozen_b.append(b)
        if len(frozen_w) != len(sizes) - 1:
            raise InvalidArchitecture("need one weight matrix per layer transition")
        object.__setattr__(self, "weights", tuple(frozen_w))
        object.__setattr__(self, "biases", tuple(frozen_b))


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 1000
    learning_rate: float = 0.01
    batch_size: int = 32
    seed: int = 0
    momentum: float = 0.9

    def __post_init__(self):
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if not 0.0 <= self.momentum < 1.0:
            raise ValueError("momentum must be in [0, 1)")


@dataclass(frozen=True)
class FitReport:
    """Fit quality in normalized units, plus the per-epoch training curve."""

    train_mse: float
    test_mse: Optional[float]
    train_correlation: float
    test_correlation: Optional[float]
    epoch_mse: tuple = field(default_factory=tuple)

    def to_json_dict(self) -> dict:
        return {
            "train_mse": self.train_mse,
            "test_mse": self.test_mse,
            "train_correlation": self.train_correlation,
            "test_correlation": self.test_correlation,
            "epoch_mse": list(self.epoch_mse),
        }


def init_model(
    layer_sizes: Sequence[int],
    seed: int,
    *,
    norm_stats: Optional[NormalizationStats] = None,
    lag: int = DEFAULT_LAG,
) -> MlpModel:
    """Seeded uniform init: weights in +-1/sqrt(fan_in), biases zero."""
    sizes = tuple(int(s) for s in layer_sizes)
    if len(sizes) < 2:
        raise InvalidArchitecture("need at least an input and an output layer")
    if any(s < 1 for s in sizes):
        raise InvalidArchitecture(f"zero-size layer in {sizes}")
    if sizes[-1] != 1:
        raise InvalidArchitecture("output layer must have exactly one unit")
    rng = np.random.default_rng(seed)
    weights, biases = [], []
    for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
        bound = 1.0 / math.sqrt(fan_in)
        weights.append(rng.uniform(-bound, bound, size=(fan_out, fan_in)))
        biases.append(np.zeros(fan_out))
    return MlpModel(sizes, tuple(weights), tuple(biases), norm_stats=norm_stats, lag=lag)


def _forward_batch(weights, biases, X, out=None):
    """Activations per layer for a (batch, input) matrix; last is identity.

    With ``out``, one (rows, units) buffer per layer, each activation is
    written into the leading rows of its buffer instead of a new array.
    """
    activations = [X]
    last = len(weights) - 1
    for k, (w, b) in enumerate(zip(weights, biases)):
        z = np.matmul(activations[k], w.T, out=None if out is None else out[k][: len(X)])
        z += b
        activations.append(z if k == last else np.tanh(z, out=z))
    return activations


def forward(model: MlpModel, features) -> float:
    """Single-sample prediction in normalized units."""
    x = np.asarray(features, dtype=float)
    if x.shape != (model.layer_sizes[0],):
        raise DimensionMismatch(
            f"expected feature vector of length {model.layer_sizes[0]}, got shape {x.shape}"
        )
    return float(_forward_batch(model.weights, model.biases, x[None, :])[-1][0, 0])


def backward(model: MlpModel, features, target: float):
    """Gradient of 0.5 * (forward(features) - target)^2 via backpropagation.

    Returns (weight_grads, bias_grads) with the same shapes as the model
    parameters.
    """
    x = np.asarray(features, dtype=float)
    if x.shape != (model.layer_sizes[0],):
        raise DimensionMismatch(
            f"expected feature vector of length {model.layer_sizes[0]}, got shape {x.shape}"
        )
    activations = _forward_batch(model.weights, model.biases, x[None, :])
    residual = activations[-1] - float(target)   # d(loss)/d(output), shape (1, 1)
    return _backprop(model.weights, activations, residual)


def _backprop(weights, activations, delta, out=None):
    """Shared reverse pass; ``delta`` is d(loss)/d(pre-activation output).

    Returns (weight_grads, bias_grads), written into ``out`` (the same pair
    of lists) when given. Overwrites the hidden activations.
    """
    weight_grads, bias_grads = out or ([None] * len(weights), [None] * len(weights))
    for k in range(len(weights) - 1, -1, -1):
        weight_grads[k] = np.matmul(delta.T, activations[k], out=weight_grads[k])
        bias_grads[k] = np.sum(delta, axis=0, out=bias_grads[k])
        if k > 0:
            # tanh'(z) = 1 - tanh(z)^2, and activations[k] already is tanh(z)
            slope = np.square(activations[k], out=activations[k])
            np.subtract(1.0, slope, out=slope)
            delta = delta @ weights[k]
            delta *= slope
    return weight_grads, bias_grads


def train(
    model: MlpModel,
    train_windows: Windows,
    test_windows: Windows,
    config: TrainConfig,
) -> tuple:
    """Mini-batch gradient descent with momentum; returns (model, FitReport).

    Deterministic for a fixed (model, data, config): the shuffle order is
    drawn from config.seed and gradients reduce in fixed array order.
    """
    if not train_windows:
        raise EmptyTrainingSet("no training windows")
    if model.norm_stats is None:
        raise ValueError("model has no normalization stats; fit them before training")

    X, y = window_matrix(train_windows, model.norm_stats)
    if X.shape[1] != model.layer_sizes[0]:
        raise DimensionMismatch(
            f"windows have {X.shape[1]} features but model input is {model.layer_sizes[0]}"
        )
    X_test = y_test = None
    if test_windows:
        X_test, y_test = window_matrix(test_windows, model.norm_stats)

    # flat parameter, gradient and velocity arrays, viewed per layer: one momentum step is 4 array ops
    shapes = [p.shape for p in model.weights + model.biases]
    ends = np.cumsum([math.prod(shape) for shape in shapes])
    views = lambda flat: [flat[end - math.prod(shape) : end].reshape(shape) for shape, end in zip(shapes, ends)]
    params = np.concatenate([p.ravel() for p in model.weights + model.biases])
    grads, velocity = np.empty_like(params), np.zeros_like(params)
    n_layers = len(model.weights)
    weights, biases = views(params)[:n_layers], views(params)[n_layers:]
    grad_views = (views(grads)[:n_layers], views(grads)[n_layers:])
    rng = np.random.default_rng(config.seed)
    n = len(y)
    layers = [np.empty((min(config.batch_size, n), w.shape[0])) for w in weights]

    epoch_mse = []
    for epoch in range(config.epochs):
        order = rng.permutation(n)
        for start in range(0, n, config.batch_size):
            batch = order[start : start + config.batch_size]
            activations = _forward_batch(weights, biases, X[batch], layers)
            residual = activations[-1]
            residual -= y[batch][:, None]
            residual /= len(batch)
            _backprop(weights, activations, residual, grad_views)
            velocity *= config.momentum
            grads *= config.learning_rate
            velocity -= grads
            params += velocity
        preds = _forward_batch(weights, biases, X)[-1][:, 0]
        mse = float(np.mean((preds - y) ** 2))
        if not np.isfinite(mse):
            raise DivergedTraining(epoch)
        epoch_mse.append(mse)

    fitted = replace(model, weights=tuple(weights), biases=tuple(biases))
    train_mse, train_r = metrics(preds, y)   # the last epoch's predictions
    test_mse = test_r = None
    if X_test is not None:
        test_pred = _forward_batch(weights, biases, X_test)[-1][:, 0]
        test_mse, test_r = metrics(test_pred, y_test)
    report = FitReport(
        train_mse=train_mse,
        test_mse=test_mse,
        train_correlation=train_r,
        test_correlation=test_r,
        epoch_mse=tuple(epoch_mse),
    )
    return fitted, report


def predict_day(model: MlpModel, dataset: Dataset, day: date) -> HourlyProfile:
    """Predicted load for each of the 24 hours of ``day``, in kWh.

    Needs the day's weather rows plus a contiguous ``lag``-hour load
    history ending 24 hours before each target hour. Negative raw
    predictions clamp to zero: load cannot be negative.
    """
    if model.norm_stats is None:
        raise ValueError("model has no normalization stats")
    day_rows = dataset.day_indices(day)
    if len(day_rows) != 24:
        raise InsufficientHistory(f"dataset does not contain all 24 hours of {day}")

    lag_ends = dataset.shifted_rows(day_rows, -HORIZON_HOURS)
    lag_starts = lag_ends - model.lag + 1      # negative when lag_ends is -1: no such row
    faulty = (lag_starts < 0) | ~dataset.contiguous(np.maximum(lag_starts, 0), lag_ends)
    if faulty.any():
        h = int(np.argmax(faulty))
        fault = f"missing load history {HORIZON_HOURS + model.lag}h" if lag_starts[h] < 0 else "gap inside the lag window"
        raise InsufficientHistory(f"{fault} before {dataset.timestamps[day_rows[h]]}")
    lagged = sliding_window_view(dataset.load, model.lag)[lag_starts]
    features = np.hstack([dataset.weather[day_rows], lagged])
    # one single-row pass per hour: a batched matmul may round differently
    raw = np.array([forward(model, x) for x in normalize_features(features, model.norm_stats)])
    predictions = denormalize(raw, model.norm_stats[LOAD_COLUMN])
    return load_profile(np.maximum(predictions, 0.0))


def metrics(predicted, actual) -> tuple:
    """(mean squared error, Pearson r) between two equal-length series.

    Raises ZeroVariance (carrying the MSE) when the reference series is
    constant. A constant *predicted* series gets r = 0.0: there is no
    linear dependence to measure.
    """
    p = np.asarray(predicted, dtype=float)
    a = np.asarray(actual, dtype=float)
    if p.shape != a.shape or p.ndim != 1 or p.size == 0:
        raise DimensionMismatch(f"need equal nonzero-length 1-d series, got {p.shape} vs {a.shape}")
    mse = float(np.mean((p - a) ** 2))
    a_dev = a - a.mean()
    p_dev = p - p.mean()
    a_ss = float(np.dot(a_dev, a_dev))
    p_ss = float(np.dot(p_dev, p_dev))
    if a_ss == 0.0:
        raise ZeroVariance(mse)
    if p_ss == 0.0:
        return mse, 0.0
    r = float(np.dot(p_dev, a_dev) / math.sqrt(p_ss * a_ss))
    return mse, max(-1.0, min(1.0, r))


def save_model(model: MlpModel, path) -> None:
    """Versioned decimal-text persistence; round-trips bit exactly."""
    payload = {
        "format": MODEL_FORMAT,
        "activation": "tanh",
        "layer_sizes": list(model.layer_sizes),
        "lag": model.lag,
        "weights": [w.tolist() for w in model.weights],
        "biases": [b.tolist() for b in model.biases],
        "norm_stats": model.norm_stats.to_json_dict() if model.norm_stats else None,
    }
    with open(path, "w") as handle:
        json.dump(payload, handle, sort_keys=True, indent=1)
        handle.write("\n")


def load_model(path) -> MlpModel:
    with open(path) as handle:
        payload = json.load(handle)
    if payload.get("format") != MODEL_FORMAT:
        raise ValueError(f"unsupported model format {payload.get('format')!r}")
    stats = payload.get("norm_stats")
    return MlpModel(
        layer_sizes=tuple(payload["layer_sizes"]),
        weights=tuple(np.array(w) for w in payload["weights"]),
        biases=tuple(np.array(b) for b in payload["biases"]),
        norm_stats=NormalizationStats.from_json_dict(stats) if stats else None,
        lag=int(payload["lag"]),
    )
