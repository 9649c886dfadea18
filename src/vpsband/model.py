"""Core value types, unit conventions, and sample serialization.

Unit conventions, used package-wide:

- packet sizes are UDP payload bytes (IP/UDP headers excluded);
- delays are seconds;
- bandwidth is bit/s, displayed as Mbit/s with two decimals.

Byte-to-bit conversion happens in exactly one place (``bytes_to_bits``)
so the factor of 8 cannot be applied twice.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from typing import Iterable, TextIO

BITS_PER_BYTE = 8
MAX_UDP_PAYLOAD = 65507          # 65535 - 8 UDP - 20 IP
MAX_UNFRAGMENTED_PAYLOAD = 1472  # 1500 MTU - 20 IP - 8 UDP

SAMPLE_CSV_FIELDS = ("direction", "serial", "sent_at", "bytes", "delay_s")
SAMPLE_DIRECTION = "forward"  # the only value of the direction column; round trips too
MAX_SERIAL = 2**64 - 1


def bytes_to_bits(n_bytes: float) -> float:
    """Convert a byte count (or byte difference) to bits."""
    return BITS_PER_BYTE * n_bytes


# ---------------------------------------------------------------------------
# scalar wrappers
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PacketSize:
    """Probe packet payload size in bytes."""

    bytes: int

    def __post_init__(self):
        if not isinstance(self.bytes, int) or isinstance(self.bytes, bool):
            raise ValueError(f"packet size must be an integer byte count, got {self.bytes!r}")
        if not 1 <= self.bytes <= MAX_UDP_PAYLOAD:
            raise ValueError(f"packet size must be in [1, {MAX_UDP_PAYLOAD}] bytes, got {self.bytes}")


@dataclass(frozen=True)
class Delay:
    """One-way or round-trip delay in seconds."""

    seconds: float

    def __post_init__(self):
        if not math.isfinite(self.seconds) or self.seconds < 0:
            raise ValueError(f"delay must be finite and >= 0 s, got {self.seconds!r}")


@dataclass(frozen=True)
class Bandwidth:
    """A bandwidth in bit/s."""

    bits_per_second: float

    def __post_init__(self):
        if not math.isfinite(self.bits_per_second) or self.bits_per_second <= 0:
            raise ValueError(f"bandwidth must be finite and > 0 bit/s, got {self.bits_per_second!r}")

    @property
    def mbps(self) -> float:
        return self.bits_per_second / 1e6

    def __str__(self) -> str:
        return f"{self.mbps:.2f} Mbit/s"


# ---------------------------------------------------------------------------
# measurement records
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DelaySample:
    """One delay measurement of one probe packet."""

    packet_size: PacketSize
    delay: Delay
    serial: int
    sent_at: float  # seconds since the epoch

    def __post_init__(self):
        if not 0 <= self.serial <= MAX_SERIAL:
            raise ValueError(f"serial must fit an unsigned 64-bit integer, got {self.serial}")
        if not math.isfinite(self.sent_at):
            raise ValueError(f"sent_at must be finite, got {self.sent_at!r}")


@dataclass(frozen=True)
class ProbePair:
    """A small-packet and a large-packet sample measured close in time."""

    small: DelaySample
    large: DelaySample

    def __post_init__(self):
        if self.small.packet_size.bytes >= self.large.packet_size.bytes:
            raise ValueError(
                f"pair requires small < large packet size, got "
                f"{self.small.packet_size.bytes} >= {self.large.packet_size.bytes}"
            )

    @property
    def size_diff_bytes(self) -> int:
        return self.large.packet_size.bytes - self.small.packet_size.bytes

    @property
    def delay_diff_s(self) -> float:
        return self.large.delay.seconds - self.small.delay.seconds


# ---------------------------------------------------------------------------
# path description
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Hop:
    """One link of a path: capacity plus its size-independent delay."""

    capacity: Bandwidth
    propagation_delay: Delay


@dataclass(frozen=True)
class PathModel:
    """Multi-hop path with exponentially distributed variable delay.

    ``var_delay_rate`` is the rate (1/s) of the exponential queueing
    delay, i.e. the inverse of its mean.
    """

    hops: tuple[Hop, ...]
    var_delay_rate: float

    def __post_init__(self):
        if len(self.hops) < 1:
            raise ValueError("path needs at least one hop")
        if not math.isfinite(self.var_delay_rate) or self.var_delay_rate <= 0:
            raise ValueError(f"var_delay_rate must be > 0 per second, got {self.var_delay_rate!r}")


# ---------------------------------------------------------------------------
# estimation result
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BandwidthEstimate:
    """Batched two-size bandwidth estimate with its spread.

    ``sd_bps`` and ``relative_error`` are absent when only one batch was
    available; ``sd_bps`` is the spread of the batch bandwidth estimates,
    while ``relative_error`` is the spread of the batch delay differences
    over their mean — the convention used by the planner's reference
    error table.
    """

    value: Bandwidth
    n_pairs: int
    sd_bps: float | None
    relative_error: float | None
    mean_delay_diff_s: float

    def __post_init__(self):
        if self.n_pairs < 1:
            raise ValueError("an estimate must use at least one pair")
        if self.sd_bps is not None and (not math.isfinite(self.sd_bps) or self.sd_bps < 0):
            raise ValueError(f"sd_bps must be finite and >= 0, got {self.sd_bps!r}")
        if (self.sd_bps is None) != (self.relative_error is None):
            raise ValueError("sd_bps and relative_error must be absent together")

    def to_json_dict(self) -> dict:
        return {
            "bps": self.value.bits_per_second,
            "mbps": round(self.value.mbps, 2),
            "n_pairs": self.n_pairs,
            "sd_bps": self.sd_bps,
            "relative_error": self.relative_error,
            "mean_delay_diff_s": self.mean_delay_diff_s,
        }


# ---------------------------------------------------------------------------
# CSV sample serialization
# ---------------------------------------------------------------------------

def format_delay_s(seconds: float) -> str:
    """Render a delay with at most 9 fractional digits (1 ns)."""
    text = f"{seconds:.9f}".rstrip("0")
    return text + "0" if text.endswith(".") else text


def ascii_number(text: str, kind=float):
    """``kind(text)`` for a number written in ASCII, as files of this package are.

    ``int()`` and ``float()`` also take other scripts' digits and ``_``
    separators; those raise ValueError here like any other bad number.
    Text that ``kind`` rejects anyway fails with ``kind``'s own message.
    """
    value = kind(text)
    if not text.isascii() or "_" in text:
        raise ValueError(f"expected ASCII digits without '_', got {text!r}")
    return value


def sample_to_row(sample: DelaySample) -> list[str]:
    return [
        SAMPLE_DIRECTION,
        str(sample.serial),
        f"{sample.sent_at:.6f}",
        str(sample.packet_size.bytes),
        format_delay_s(sample.delay.seconds),
    ]


def sample_from_row(row: list[str]) -> DelaySample:
    direction, serial, sent_at, nbytes, delay_s = row
    if direction != SAMPLE_DIRECTION:
        raise ValueError(f"direction must be {SAMPLE_DIRECTION!r}, got {direction!r}")
    return DelaySample(
        packet_size=PacketSize(ascii_number(nbytes, int)),
        delay=Delay(ascii_number(delay_s)),
        serial=ascii_number(serial, int),
        sent_at=ascii_number(sent_at),
    )


def write_samples_csv(samples: Iterable[DelaySample], fp: TextIO) -> None:
    """Write samples in the package CSV format, header included."""
    writer = csv.writer(fp)
    writer.writerow(SAMPLE_CSV_FIELDS)
    for sample in samples:
        writer.writerow(sample_to_row(sample))


def read_samples_csv(fp: TextIO) -> list[DelaySample]:
    """Read samples written by :func:`write_samples_csv`.

    Raises ValueError with the offending line number on a bad header or row.
    """
    reader = csv.reader(fp)
    try:
        header = next(reader, None)
        if header != list(SAMPLE_CSV_FIELDS):
            raise ValueError(f"line 1: expected header {','.join(SAMPLE_CSV_FIELDS)!r}, got {header!r}")
        samples = []
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(SAMPLE_CSV_FIELDS):
                raise ValueError(f"line {lineno}: expected {len(SAMPLE_CSV_FIELDS)} fields, got {len(row)}")
            try:
                samples.append(sample_from_row(row))
            except ValueError as exc:
                raise ValueError(f"line {lineno}: {exc}") from exc
    except csv.Error as exc:
        raise ValueError(f"line {reader.line_num}: {exc}") from exc
    return samples
