"""Synthetic weather/load/price generator.

Produces schema-conformant hourly CSV with a learnable structure: load
follows a diurnal cycle coupled to temperature plus a little noise, and
price has an evening peak.  Everything is driven by one seeded
generator.  The file is written from whole columns in one formatted pass
with fixed formatting, so a given config always yields byte-identical
output; tests pin those bytes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidSynthConfig
from .ingest import LOAD_COLUMN, PRICE_COLUMN


@dataclass(frozen=True)
class SynthConfig:
    days: int = 30
    seed: int = 0
    include_price: bool = True

    def __post_init__(self):
        if self.days < 3:
            raise InvalidSynthConfig(f"days must be >= 3 for lag windows, got {self.days}")
        if self.seed < 0:
            raise InvalidSynthConfig(f"seed must be >= 0, got {self.seed}")


def generate_columns(config: SynthConfig) -> dict:
    """Column name -> array of its ``days * 24`` hourly values, in file order."""
    rng = np.random.default_rng(config.seed)
    n = config.days * 24
    t = np.arange(n)
    hour = t % 24
    day = t // 24

    temperature = (
        18.0
        + 4.0 * np.sin(2 * np.pi * day / 30.0)
        + 7.0 * np.cos(2 * np.pi * (hour - 15) / 24.0)
        + rng.normal(0.0, 0.6, size=n)
    )
    wind_speed = np.clip(
        5.0
        + 2.5 * np.sin(2 * np.pi * (hour - 3) / 24.0)
        + rng.normal(0.0, 0.8, size=n),
        0.0,
        None,
    )
    dew_point = temperature - 4.0 - np.abs(rng.normal(0.0, 1.5, size=n))
    heat_index = temperature + np.maximum(0.0, 0.4 * (dew_point - 14.0))
    cold_index = temperature - 0.4 * wind_speed

    load = np.clip(
        900.0
        + 250.0 * np.cos(2 * np.pi * (hour - 17) / 24.0)   # diurnal swing, peak near 17:00
        + 12.0 * (temperature - 18.0)
        + rng.normal(0.0, 15.0, size=n),
        50.0,
        None,
    )
    price = np.clip(
        5.0
        + 6.0 * np.exp(-((hour - 18.5) ** 2) / (2 * 2.0**2))   # Gaussian bump centred near 18:30
        + rng.normal(0.0, 0.15, size=n),
        0.5,
        None,
    )

    columns = {
        "timestamp": np.datetime_as_string(np.datetime64("2024-01-01T00", "h") + t, unit="s"),
        "wind_speed": wind_speed,
        "temperature": temperature,
        "heat_index": heat_index,
        "cold_index": cold_index,
        "dew_point": dew_point,
        LOAD_COLUMN: load,
    }
    if config.include_price:
        columns[PRICE_COLUMN] = price
    return columns


def write_csv(config: SynthConfig, path) -> None:
    """Write the config's columns as CSV lines ending in ``\\r\\n``: weather
    to 2 decimals, load and price to 3."""
    columns = generate_columns(config)
    # zipping the arrays themselves keeps the peak at the arrays' own size:
    # np.float64 is a float, so %.2f formats it as it would the float
    fmt = "%s," + "%.2f," * 5 + "%.3f" + (",%.3f" if config.include_price else "") + "\r\n"
    with open(path, "w", newline="", encoding="utf-8") as handle:
        handle.write(",".join(columns) + "\r\n")
        handle.writelines(map(fmt.__mod__, zip(*columns.values())))
