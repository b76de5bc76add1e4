import numpy as np
import pytest

from loadshift.ingest import load_dataset
from loadshift.objective import build_problem
from loadshift.profiles import ProfileKind, load_profile, peak, price_profile
from loadshift.synth import SynthConfig, write_csv


@pytest.fixture(scope="session")
def synth30_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "synth30.csv"
    write_csv(SynthConfig(days=30, seed=7), path)
    return path


@pytest.fixture(scope="session")
def synth30(synth30_path):
    return load_dataset(synth30_path)


@pytest.fixture(scope="session")
def synth_day(synth30):
    """(day, predicted, prices) for the last full day of the 30-day set.

    The day's actual load stands in for a forecast: the optimizer tests
    exercise scheduling, not the forecaster.
    """
    day = synth30.timestamps[-1].date()
    predicted = synth30.day_profile(day)
    prices = synth30.day_profile(day, ProfileKind.PRICE)
    return day, predicted, prices


@pytest.fixture(scope="session")
def capped_problem(synth_day):
    """Flagship instance: preferred weights plus a binding 85% peak cap."""
    _, predicted, prices = synth_day
    return build_problem(
        predicted, prices, 0.4, 0.6, peak_cap=0.85 * peak(predicted)
    )


@pytest.fixture
def flat_problem():
    """Flat 10 kWh / 10 cents instance with the default half-to-1.5x box."""
    predicted = load_profile(np.full(24, 10.0))
    prices = price_profile(np.full(24, 10.0))
    return build_problem(predicted, prices, 0.5, 0.5)
