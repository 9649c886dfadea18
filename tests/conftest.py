"""Shared fixtures and builders for the test suite."""

from __future__ import annotations

import csv
import io
from array import array
from pathlib import Path

import pytest
from hypothesis import settings

from vpsband.model import (
    SAMPLE_CSV_FIELDS,
    SAMPLE_DIRECTION,
    Delay,
    DelaySample,
    PacketSize,
    PathModel,
    ProbePair,
    format_delay_s,
)
from vpsband.planner import REFERENCE_SIZES
from vpsband.simulate import SimConfig, reference_config
from vpsband.testbox import ParsedLog

DATA_DIR = Path(__file__).parent / "data"

W1, W2 = REFERENCE_SIZES

# `pytest --hypothesis-profile=ci` gives property tests ten times hypothesis' default examples,
# and those that set their count through `examples(n)` ten times theirs.
settings.register_profile("ci", max_examples=10 * settings.get_profile("default").max_examples)


def examples(n: int) -> int:
    """A test's example count: ``n`` under the default profile, scaled with the loaded one."""
    return n * settings.default.max_examples // settings.get_profile("default").max_examples


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


def sample_row(sample: DelaySample) -> list[str]:
    """The CSV fields of one sample, as the samples format defines them."""
    return [
        SAMPLE_DIRECTION,
        str(sample.serial),
        f"{sample.sent_at:.6f}",
        str(sample.packet_size.bytes),
        format_delay_s(sample.delay.seconds),
    ]


def csv_module_text(samples) -> str:
    """The samples CSV as the csv module writes it: the reference for write_samples_csv."""
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(SAMPLE_CSV_FIELDS)
    writer.writerows(sample_row(s) for s in samples)
    return buf.getvalue()


def reference_sim_config(seed: int = 42, var_delay_rate: float | None = None, **counts) -> SimConfig:
    """The reference experiment at ``seed``, with any of its counts or its variable-delay rate replaced."""
    ref = reference_config(seed)
    path = ref.path if var_delay_rate is None else PathModel(ref.path.hops, var_delay_rate)
    return SimConfig(path, **{"packet_sizes": ref.packet_sizes, "seed": seed, **counts})


def parsed_log(typecodes: str, rows) -> ParsedLog:
    """A ParsedLog with no malformed lines whose columns hold ``rows``."""
    columns = tuple(map(array, typecodes))
    for row in rows:
        for column, value in zip(columns, row):
            column.append(value)
    return ParsedLog(columns, [])


def sender_log(records) -> ParsedLog:
    """What ``parse_sender_file`` gives for the lines of these ``SenderRecord``s."""
    return parsed_log("QdH", records)


def receiver_log(records) -> ParsedLog:
    """What ``parse_receiver_file`` gives for the lines of these ``ReceiverRecord``s."""
    return parsed_log("Qd", records)


def log_rows(log: ParsedLog) -> list[tuple]:
    """Each parsed record's values, in file order."""
    return list(zip(*log.columns))
