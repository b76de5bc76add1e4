"""Synthetic dataset generator: determinism, realism, compatibility."""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import reference_synth_csv
from loadshift.errors import InvalidSynthConfig
from loadshift.ingest import LOAD_COLUMN, PRICE_COLUMN, load_dataset
from loadshift.synth import SynthConfig, generate_columns, write_csv


def same_columns(a, b):
    return a.keys() == b.keys() and all(np.array_equal(a[name], b[name]) for name in a)


class TestConfig:
    def test_too_few_days_rejected(self):
        with pytest.raises(ValueError):
            SynthConfig(days=2)

    def test_three_days_is_the_floor(self):
        assert SynthConfig(days=3).days == 3

    def test_negative_seed_rejected(self):
        # numpy's generator refuses it with a bare ValueError; the config names the fault first
        with pytest.raises(InvalidSynthConfig, match=r"^seed must be >= 0, got -1$"):
            SynthConfig(seed=-1)


class TestGenerateRows:
    """The hourly rows, generated as whole columns."""

    def test_row_count_and_cadence(self):
        stamps = generate_columns(SynthConfig(days=4, seed=1))["timestamp"]
        assert len(stamps) == 96
        assert stamps[0] == "2024-01-01T00:00:00"
        assert stamps[25] == "2024-01-02T01:00:00"

    def test_same_seed_same_rows(self):
        a = generate_columns(SynthConfig(days=5, seed=9))
        b = generate_columns(SynthConfig(days=5, seed=9))
        assert same_columns(a, b)

    def test_different_seed_different_rows(self):
        a = generate_columns(SynthConfig(days=5, seed=1))
        b = generate_columns(SynthConfig(days=5, seed=2))
        assert not same_columns(a, b)

    def test_loads_stay_positive(self):
        loads = generate_columns(SynthConfig(days=10, seed=3))[LOAD_COLUMN]
        assert np.all(loads >= 50.0)

    def test_prices_stay_positive(self):
        prices = generate_columns(SynthConfig(days=10, seed=3))[PRICE_COLUMN]
        assert np.all(prices >= 0.5)

    def test_temperature_couples_into_load(self):
        columns = generate_columns(SynthConfig(days=30, seed=4))
        temps = columns["temperature"]
        loads = columns[LOAD_COLUMN]
        # remove the shared diurnal cycle by correlating within each hour
        corrs = []
        hours = np.arange(len(loads)) % 24
        for h in range(24):
            mask = hours == h
            corrs.append(np.corrcoef(temps[mask], loads[mask])[0, 1])
        assert np.mean(corrs) > 0.3

    def test_evening_price_peak(self):
        prices = generate_columns(SynthConfig(days=30, seed=5))[PRICE_COLUMN]
        hours = np.arange(len(prices)) % 24
        evening = prices[(hours >= 17) & (hours <= 20)].mean()
        night = prices[(hours >= 1) & (hours <= 4)].mean()
        assert evening > night + 2.0

    def test_price_column_can_be_dropped(self):
        columns = generate_columns(SynthConfig(days=3, seed=1, include_price=False))
        assert PRICE_COLUMN not in columns


class TestWriteCsv:
    def test_output_is_byte_deterministic(self, tmp_path):
        config = SynthConfig(days=5, seed=11)
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        write_csv(config, a)
        write_csv(config, b)
        assert a.read_bytes() == b.read_bytes()

    def test_generated_file_loads_cleanly(self, tmp_path):
        path = tmp_path / "synth.csv"
        write_csv(SynthConfig(days=6, seed=12), path)
        dataset = load_dataset(path)
        assert len(dataset.timestamps) == 144
        assert dataset.price is not None

    def test_priceless_file_loads_without_price(self, tmp_path):
        path = tmp_path / "synth.csv"
        write_csv(SynthConfig(days=6, seed=12, include_price=False), path)
        dataset = load_dataset(path)
        assert dataset.price is None

    # sha256 of the 6-day seed-12 file with and without the price column: the
    # generator's constants, draw order and formatting all show in these bytes
    GOLDEN = {
        True: "000b37d3c810eecbdbbe26376cf0df6cbba008459e2f6860031941ddff6bbbc8",
        False: "31a0d1920bdfaf1748944c8d8b65c573bcc0f78e29e416cdcfd752475d09ab4d",
    }

    @pytest.mark.parametrize("include_price", [True, False])
    def test_golden_bytes(self, tmp_path, include_price):
        path = tmp_path / "synth.csv"
        write_csv(SynthConfig(days=6, seed=12, include_price=include_price), path)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == self.GOLDEN[include_price]

    @settings(max_examples=40, deadline=None)
    @given(days=st.integers(3, 400), seed=st.integers(0, 2**32 - 1), include_price=st.booleans())
    def test_same_bytes_as_the_row_wise_writer(self, tmp_path_factory, days, seed, include_price):
        config = SynthConfig(days=days, seed=seed, include_price=include_price)
        folder = tmp_path_factory.mktemp("synth")
        write_csv(config, folder / "columns.csv")
        reference_synth_csv(config, folder / "rows.csv")
        assert (folder / "columns.csv").read_bytes() == (folder / "rows.csv").read_bytes()

    def test_a_negative_zero_field_is_written_as_the_row_wise_writer_writes_it(self, tmp_path):
        """Seed 210's 30 days hold a dew point in (-0.005, 0), which both
        writers print as -0.00."""
        config = SynthConfig(days=30, seed=210)
        write_csv(config, tmp_path / "columns.csv")
        reference_synth_csv(config, tmp_path / "rows.csv")
        data = (tmp_path / "columns.csv").read_bytes()
        assert b",-0.00," in data
        assert data == (tmp_path / "rows.csv").read_bytes()
