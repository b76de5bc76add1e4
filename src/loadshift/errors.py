"""Exception types shared across the toolkit.

Everything raised on purpose derives from LoadshiftError so the CLI can
map library failures to exit code 1 while genuine bugs still surface as
ordinary tracebacks.
"""


class LoadshiftError(Exception):
    """Base class for all errors raised by this package."""


# data ingestion ------------------------------------------------------------

class MissingColumn(LoadshiftError):
    def __init__(self, column: str):
        super().__init__(f"required column missing from CSV header: {column!r}")
        self.column = column


class NonHourlyCadence(LoadshiftError):
    def __init__(self, timestamp, message: str):
        super().__init__(f"{message} (first offending timestamp: {timestamp})")
        self.timestamp = timestamp


class UnparseableRow(LoadshiftError):
    def __init__(self, line_number: int, reason: str):
        super().__init__(f"cannot parse CSV line {line_number}: {reason}")
        self.line_number = line_number


class DegenerateFeature(LoadshiftError):
    def __init__(self, name: str):
        super().__init__(f"feature {name!r} is constant on the training rows; "
                         "min/max scaling is undefined")
        self.name = name


class InsufficientData(LoadshiftError, ValueError):
    pass


class InvalidSynthConfig(LoadshiftError, ValueError):
    """A synthetic data set too short to hold one lag window, or a negative seed."""


class MixedTimezones(LoadshiftError):
    """A naive split boundary on offset timestamps, or the other way round."""


class InsufficientHistory(LoadshiftError):
    pass


# forecaster ----------------------------------------------------------------

class InvalidArchitecture(LoadshiftError):
    pass


class DimensionMismatch(LoadshiftError):
    pass


class EmptyTrainingSet(LoadshiftError):
    pass


class InvalidTrainConfig(LoadshiftError, ValueError):
    """A training setting or a lag out of range."""


class InvalidModel(LoadshiftError, ValueError):
    """A model file that is not a JSON object, is of another format, lacks a
    key or holds a malformed value, or a model without normalization stats."""


class DivergedTraining(LoadshiftError):
    """The loss went non-finite; ``epoch`` is 1-based, as in training_curve.csv."""

    def __init__(self, epoch: int):
        super().__init__(f"non-finite loss encountered at epoch {epoch}; "
                         "lower the learning rate")
        self.epoch = epoch


# objective / problem construction ------------------------------------------

class ZeroPredictedTotal(LoadshiftError, ValueError):
    pass


class InvalidBounds(LoadshiftError, ValueError):
    pass


# optimizers ----------------------------------------------------------------

class InvalidOptimizerConfig(LoadshiftError, ValueError):
    """A swarm or population size, or an iteration count, out of range."""


class InvalidGrid(LoadshiftError, ValueError):
    """Free hours or grid resolution outside what the grid search takes."""


# reporting -----------------------------------------------------------------

class ZeroBaseline(LoadshiftError):
    pass


class MissingPrices(LoadshiftError, ValueError):
    pass


# command line --------------------------------------------------------------

class InvalidArgument(LoadshiftError):
    """A flag value or a ``--config`` file the command line cannot use; the
    message names the flag and its value, or the file and the key."""
