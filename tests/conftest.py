"""Shared fixtures and builders for the test suite."""

from __future__ import annotations

import csv
import io
from pathlib import Path

import pytest

from vpsband.model import (
    SAMPLE_CSV_FIELDS,
    Bandwidth,
    Delay,
    DelaySample,
    Hop,
    PacketSize,
    PathModel,
    ProbePair,
    sample_to_row,
)
from vpsband.simulate import SimConfig

DATA_DIR = Path(__file__).parent / "data"

W1 = PacketSize(100)
W2 = PacketSize(1100)


@pytest.fixture
def data_dir() -> Path:
    return DATA_DIR


def make_pair(
    small_delay_s: float,
    large_delay_s: float,
    serial_base: int = 0,
    sent_at: float = 0.0,
    w1: PacketSize = W1,
    w2: PacketSize = W2,
) -> ProbePair:
    """Build a probe pair with the given delays and defaults elsewhere."""
    return ProbePair(
        small=DelaySample(
            packet_size=w1,
            delay=Delay(small_delay_s),
            serial=serial_base + 1,
            sent_at=sent_at,
        ),
        large=DelaySample(
            packet_size=w2,
            delay=Delay(large_delay_s),
            serial=serial_base + 2,
            sent_at=sent_at + 0.05,
        ),
    )


def csv_module_text(samples) -> str:
    """The samples CSV as the csv module writes it: the reference for write_samples_csv."""
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(SAMPLE_CSV_FIELDS)
    writer.writerows(sample_to_row(s) for s in samples)
    return buf.getvalue()


def ten_mbit_path(var_delay_rate: float = 1000.0) -> PathModel:
    """Single 10 Mbit/s hop with no propagation delay.

    With 100/1100-byte probes the true delay difference is 0.8 ms.
    """
    return PathModel(
        hops=(Hop(capacity=Bandwidth(10e6), propagation_delay=Delay(0.0)),),
        var_delay_rate=var_delay_rate,
    )


def reference_sim_config(
    seed: int = 42,
    n_pairs: int = 3000,
    n_trials: int = 10_000,
    var_delay_rate: float = 1000.0,
) -> SimConfig:
    return SimConfig(
        path=ten_mbit_path(var_delay_rate),
        packet_sizes=(W1, W2),
        n_pairs=n_pairs,
        n_trials=n_trials,
        seed=seed,
    )
