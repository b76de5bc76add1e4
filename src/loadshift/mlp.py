"""From-scratch feed-forward network for 24-hour-ahead load prediction.

Hidden layers apply tanh, the output layer is identity, and training is
plain mini-batch gradient descent with momentum on mean squared error.
Inputs and targets are scaled to [-1, 1] with the stats carried by the
model, so predictions denormalize back to kWh.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field, replace
from datetime import date
from functools import cached_property
from itertools import chain
from typing import Optional, Sequence

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .errors import (
    DimensionMismatch,
    DivergedTraining,
    EmptyTrainingSet,
    InsufficientHistory,
    InvalidArchitecture,
    InvalidModel,
    InvalidTrainConfig,
)
from .ingest import (
    DEFAULT_LAG,
    HORIZON_HOURS,
    NormalizationStats,
    Windows,
    denormalize,
    normalize_features,
    window_matrix,
)
from .profiles import WEATHER_FEATURES, Dataset, HourlyProfile, load_profile

MODEL_FORMAT = "loadshift-mlp/1"

DEFAULT_LAYER_SIZES = (25, 20, 15)   # hidden sizes; input is 5 + lag, output is 1
_SCORE_ROWS = 256   # OpenBLAS keeps a block this small on one thread, so no row's rounding follows the thread count


def check_architecture(sizes: tuple, lag: int) -> None:
    """Raise InvalidArchitecture, naming the rule, for a network no forecast can use."""
    if len(sizes) < 2:
        raise InvalidArchitecture("need at least an input and an output layer")
    if any(s < 1 for s in sizes):
        raise InvalidArchitecture(f"every layer needs at least one unit, got {sizes}")
    if sizes[-1] != 1:
        raise InvalidArchitecture("output layer must have exactly one unit")
    if lag < 1:
        raise InvalidArchitecture(f"lag must be >= 1, got {lag}")


@dataclass(frozen=True)
class MlpModel:
    """Immutable network: sizes, parameters, and input/output scaling."""

    layer_sizes: tuple
    weights: tuple          # weights[k] has shape (layer_sizes[k+1], layer_sizes[k])
    biases: tuple           # biases[k] has shape (layer_sizes[k+1],)
    norm_stats: NormalizationStats
    lag: int = DEFAULT_LAG

    def __post_init__(self):
        if not isinstance(self.norm_stats, NormalizationStats):
            raise InvalidModel(f"model has no normalization stats: norm_stats is {self.norm_stats!r}")
        sizes = tuple(int(s) for s in self.layer_sizes)
        check_architecture(sizes, self.lag)
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

    @cached_property
    def scaling(self) -> tuple:
        """``norm_stats.columns`` of the model's input columns, built on first use."""
        return self.norm_stats.columns(self.lag)


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 1000
    learning_rate: float = 0.01
    batch_size: int = 32
    seed: int = 0
    momentum: float = 0.9

    def __post_init__(self):
        if self.epochs < 1:
            raise InvalidTrainConfig(f"epochs must be >= 1, got {self.epochs}")
        if not 0 < self.learning_rate < math.inf:   # NaN included
            raise InvalidTrainConfig(f"learning_rate must be positive and finite, got {self.learning_rate}")
        if self.batch_size < 1:
            raise InvalidTrainConfig(f"batch_size must be >= 1, got {self.batch_size}")
        if not 0.0 <= self.momentum < 1.0:
            raise InvalidTrainConfig(f"momentum must be in [0, 1), got {self.momentum}")


@dataclass(frozen=True)
class FitReport:
    """Fit quality in normalized units, plus the per-epoch training curve."""

    train_mse: float
    test_mse: Optional[float]
    train_correlation: Optional[float]
    test_correlation: Optional[float]
    epoch_mse: tuple = field(default_factory=tuple)

    def to_json_dict(self) -> dict:
        return asdict(self)


def init_model(
    layer_sizes: Sequence[int],
    seed: int,
    *,
    norm_stats: NormalizationStats,
    lag: int = DEFAULT_LAG,
) -> MlpModel:
    """Seeded uniform init: weights in +-1/sqrt(fan_in), biases zero."""
    sizes = tuple(int(s) for s in layer_sizes)
    check_architecture(sizes, lag)
    rng = np.random.default_rng(seed)
    weights, biases = [], []
    for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
        bound = 1.0 / math.sqrt(fan_in)
        weights.append(rng.uniform(-bound, bound, size=(fan_out, fan_in)))
        biases.append(np.zeros(fan_out))
    return MlpModel(sizes, tuple(weights), tuple(biases), norm_stats=norm_stats, lag=lag)


def _forward_batch(weights, biases, X, out=None):
    """Activations per layer for a (batch, input) matrix; last is identity.

    With ``out``, one (len(X), units) buffer per layer, each activation is
    written into its buffer instead of a new array.
    """
    activations = [X]
    last = len(weights) - 1
    for k, (w, b) in enumerate(zip(weights, biases)):
        z = np.dot(activations[k], w.T, out=None if out is None else out[k])
        z += b
        activations.append(z if k == last else np.tanh(z, out=z))
    return activations


def _score(weights, biases, X):
    """The network's output for each row of ``X``, run ``_SCORE_ROWS`` rows at a time."""
    scores = np.empty(len(X))
    for start in range(0, len(X), _SCORE_ROWS):
        block = X[start : start + _SCORE_ROWS]
        scores[start : start + len(block)] = _forward_batch(weights, biases, block)[-1][:, 0]
    return scores


def _backprop(weights, activations, delta, out, deltas):
    """Reverse pass; ``delta`` is d(loss)/d(pre-activation output).

    Returns (weight_grads, bias_grads), written into ``out``, the same pair
    of per-layer lists. The delta passed back into layer k is written into
    ``deltas[k]``, one (len(delta), units) buffer per layer. A None entry
    in either gets a new array. Overwrites the hidden activations.
    """
    weight_grads, bias_grads = out
    for k in range(len(weights) - 1, -1, -1):
        weight_grads[k] = np.dot(delta.T, activations[k], out=weight_grads[k])
        bias_grads[k] = np.add.reduce(delta, axis=0, out=bias_grads[k])
        if k > 0:
            # tanh'(z) = 1 - tanh(z)^2, and activations[k] already is tanh(z)
            slope = np.square(activations[k], out=activations[k])
            np.subtract(1.0, slope, out=slope)
            delta = np.dot(delta, weights[k], out=deltas[k])
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
    drawn from config.seed and gradients reduce in fixed array order. An
    epoch's MSE is the mean over its batches of each window's squared
    residual before that batch's update; ``train_mse`` and ``test_mse``
    come from the final weights scored in 256-row blocks, so they do not
    depend on the BLAS thread count. A non-finite loss raises
    DivergedTraining with the 1-based epoch.
    """
    if not train_windows:
        raise EmptyTrainingSet("no training windows")
    X, y = window_matrix(train_windows, model.norm_stats)
    if X.shape[1] != model.layer_sizes[0]:
        raise DimensionMismatch(
            f"windows have {X.shape[1]} features but model input is {model.layer_sizes[0]}"
        )

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
    y_column = y[:, None]
    # per-layer output and delta buffers, sliced once for a full batch and once for the short last one
    full = min(config.batch_size, n)
    outputs = [np.empty((full, w.shape[0])) for w in weights]
    deltas = [np.empty((full, w.shape[1])) for w in weights]
    buffers = {rows: ([o[:rows] for o in outputs], [d[:rows] for d in deltas]) for rows in {full, n % full or full}}
    # each window's residual, taken before its batch's update: the epoch's MSE without another pass
    residuals = np.empty((n, 1))

    epoch_mse = []
    for epoch in range(1, config.epochs + 1):
        order = rng.permutation(n)
        for start in range(0, n, config.batch_size):
            rows = slice(start, start + config.batch_size)
            batch = order[rows]
            batch_outputs, batch_deltas = buffers[len(batch)]
            activations = _forward_batch(weights, biases, X.take(batch, axis=0), batch_outputs)
            residual = np.subtract(activations[-1], y_column.take(batch, axis=0), out=residuals[rows])
            residual = np.divide(residual, len(batch), out=activations[-1])
            _backprop(weights, activations, residual, grad_views, batch_deltas)
            velocity *= config.momentum
            grads *= config.learning_rate
            velocity -= grads
            params += velocity
        mse = float(np.mean(np.square(residuals)))
        if not np.isfinite(mse):
            raise DivergedTraining(epoch)
        epoch_mse.append(mse)

    preds = _score(weights, biases, X)
    train_mse, train_r = metrics(preds, y)
    if not np.isfinite(train_mse):
        raise DivergedTraining(config.epochs)
    fitted = replace(model, weights=tuple(weights), biases=tuple(biases))
    test_mse = test_r = None
    if test_windows:
        X_test, y_test = window_matrix(test_windows, model.norm_stats)
        test_pred = _score(weights, biases, X_test)
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
    predictions clamp to zero: load cannot be negative. When the day's rows
    and the ``24 + lag`` before them are consecutive hours, the lag windows
    are one strided view of the load; otherwise each is found and checked.
    """
    n_features = len(WEATHER_FEATURES) + model.lag
    if n_features != model.layer_sizes[0]:
        raise DimensionMismatch(f"lag {model.lag} gives {n_features} features but model input is "
                                f"{model.layer_sizes[0]}")
    day_rows = dataset.full_day_indices(day)
    if day_rows is None:
        raise InsufficientHistory(f"dataset does not contain all 24 hours of {day}")

    first, last = day_rows[0] - HORIZON_HOURS - model.lag + 1, day_rows[-1]
    if last - day_rows[0] == 23 and first >= 0 and dataset.contiguous(first, last):
        lagged = as_strided(dataset.load[first:], (24, model.lag), dataset.load.strides * 2, writeable=False)
    else:
        lag_ends = dataset.shifted_rows(day_rows, -HORIZON_HOURS)
        lag_starts = lag_ends - model.lag + 1      # negative when lag_ends is -1: no such row
        faulty = (lag_starts < 0) | ~dataset.contiguous(np.maximum(lag_starts, 0), lag_ends)
        if faulty.any():
            h = int(np.argmax(faulty))
            fault = f"missing load history {HORIZON_HOURS + model.lag}h" if lag_starts[h] < 0 else "gap inside the lag window"
            raise InsufficientHistory(f"{fault} before {dataset.timestamp(day_rows[h])}")
        lagged = dataset.load[lag_starts[:, None] + np.arange(model.lag)]
    features = np.concatenate([dataset.weather[day_rows], lagged], axis=1)
    raw = _forward_batch(model.weights, model.biases, normalize_features(features, model.scaling, out=features))[-1][:, 0]
    predictions = denormalize(raw, model.norm_stats.lo[-1], model.norm_stats.hi[-1])
    try:
        return load_profile(np.maximum(predictions, 0.0))
    except ValueError:   # HourlyProfile refuses non-finite values; finite weights can still overflow
        raise InvalidModel(f"model forecasts a non-finite load for {day}") from None


def _scaled_deviations(x):
    """``x`` less its mean, times the power of two that brings the largest
    magnitude into [0.5, 1): exact, so r keeps its bits, and no sum of
    squares underflows to zero or overflows."""
    deviations = x - x.mean()
    return np.ldexp(deviations, -np.frexp(np.abs(deviations).max())[1])


def metrics(predicted, actual) -> tuple:
    """(mean squared error, Pearson r) between two equal-length series.

    r is None when the reference series is constant: it is undefined
    there, while the MSE still stands. A constant *predicted* series gets
    r = 0.0: there is no linear dependence to measure.
    """
    p = np.asarray(predicted, dtype=float)
    a = np.asarray(actual, dtype=float)
    if p.shape != a.shape or p.ndim != 1 or p.size == 0:
        raise DimensionMismatch(f"need equal nonzero-length 1-d series, got {p.shape} vs {a.shape}")
    # numpy's sums, not np.dot: BLAS splits a long dot product across threads, which moves its last bits
    mse = float(np.mean((p - a) ** 2))
    # judged on the values: the deviations from a rounded mean of a constant series need not be zero
    if a.min() == a.max():
        return mse, None
    if p.min() == p.max():
        return mse, 0.0
    a_dev, p_dev = _scaled_deviations(a), _scaled_deviations(p)
    r = float(np.sum(p_dev * a_dev) / math.sqrt(np.sum(p_dev * p_dev) * np.sum(a_dev * a_dev)))
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
        "norm_stats": model.norm_stats.to_json_dict(),
    }
    with open(path, "w") as handle:
        json.dump(payload, handle, sort_keys=True, indent=1)
        handle.write("\n")


def load_model(path) -> MlpModel:
    try:
        with open(path, encoding="utf-8-sig") as handle:
            payload = json.load(handle)
    except ValueError as exc:   # JSONDecodeError and UnicodeDecodeError among them
        raise InvalidModel(f"model {path} is not a JSON file: {exc}") from None
    if not isinstance(payload, dict):
        raise InvalidModel(f"a model file holds a JSON object, got a JSON {type(payload).__name__}")
    if payload.get("format") != MODEL_FORMAT:
        raise InvalidModel(f"unsupported model format {payload.get('format')!r}; expected {MODEL_FORMAT!r}")
    for key in ("layer_sizes", "weights", "biases", "lag", "norm_stats"):
        if key not in payload:
            raise InvalidModel(f"model file lacks the key {key!r}")
    stats = payload["norm_stats"]
    try:
        if not isinstance(stats, dict):   # null included: a model needs its scales
            raise ValueError(f"norm_stats must be a JSON object of feature scales, got {json.dumps(stats)}")
        leaves = chain(chain.from_iterable(chain.from_iterable(payload["weights"])),
                       chain.from_iterable(payload["biases"]), chain.from_iterable(stats.values()))
        if not set(map(type, leaves)) <= {int, float}:   # numpy would read "0.25" and a JSON true as numbers
            raise ValueError("a weight, bias or norm_stats scale is not a JSON number")
        sizes, lag = tuple(payload["layer_sizes"]), payload["lag"]
        if not all(type(value) is int for value in (lag, *sizes)):   # a JSON true is a bool, not an int
            raise ValueError(f"lag {json.dumps(lag)} or a layer size in {json.dumps(sizes)} is not a JSON integer")
        return MlpModel(
            layer_sizes=sizes,
            weights=tuple(np.array(w) for w in payload["weights"]),
            biases=tuple(np.array(b) for b in payload["biases"]),
            norm_stats=NormalizationStats.from_json_dict(stats),
            lag=lag,
        )
    except (InvalidArchitecture, ValueError, TypeError) as exc:   # a wrong type or shape, or a broken rule
        raise InvalidModel(f"model {path} holds a malformed value: {exc}") from None
