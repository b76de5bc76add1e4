"""Synthetic weather/load/price generator.

Produces schema-conformant hourly CSV with a learnable structure: load
follows a diurnal cycle coupled to temperature plus a little noise, and
price has an evening peak.  Everything is driven by one seeded
generator and written with fixed formatting, so a given config always
yields byte-identical output.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from datetime import datetime, timedelta

import numpy as np

from .ingest import LOAD_COLUMN, PRICE_COLUMN, REQUIRED_COLUMNS


@dataclass(frozen=True)
class SynthConfig:
    days: int = 30
    seed: int = 0
    include_price: bool = True

    def __post_init__(self):
        if self.days < 3:
            raise ValueError(f"need at least 3 days for lag windows, got {self.days}")


def generate_rows(config: SynthConfig) -> list[dict]:
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

    start = datetime(2024, 1, 1)
    rows = []
    for i in range(n):
        stamp = start + timedelta(hours=i)
        row = {
            "timestamp": stamp.isoformat(),
            "wind_speed": f"{wind_speed[i]:.2f}",
            "temperature": f"{temperature[i]:.2f}",
            "heat_index": f"{heat_index[i]:.2f}",
            "cold_index": f"{cold_index[i]:.2f}",
            "dew_point": f"{dew_point[i]:.2f}",
            LOAD_COLUMN: f"{load[i]:.3f}",
        }
        if config.include_price:
            row[PRICE_COLUMN] = f"{price[i]:.3f}"
        rows.append(row)
    return rows


def write_csv(config: SynthConfig, path) -> None:
    fieldnames = list(REQUIRED_COLUMNS)
    if config.include_price:
        fieldnames.append(PRICE_COLUMN)
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.DictWriter(handle, fieldnames=fieldnames)
        writer.writeheader()
        writer.writerows(generate_rows(config))
