"""Monte-Carlo delay simulator for two-size probing.

A packet's delay is the path's size-dependent fixed part plus an
exponential variable part drawn by inverse transform ``-ln(1-u)/rate``
with ``u`` uniform in [0, 1).  All randomness flows from the config
seed through named sub-streams, so every output is reproducible and
independent of call order.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from typing import Iterable, NamedTuple, Sequence, TextIO

import numpy as np

from .model import (
    Bandwidth,
    Delay,
    DelaySample,
    Hop,
    PacketSize,
    PathModel,
    ProbePair,
    ascii_number,
    bytes_to_bits,
)

# seconds between consecutive simulated pairs, and between the two
# packets of a pair; synthetic timestamps only matter for pairing
PAIR_SPACING_S = 0.1
INTRA_PAIR_GAP_S = 0.05

# sub-stream tags so pair generation and SD replications never share draws
_PAIRS_STREAM = 0
_SD_STREAM = 1


@dataclass(frozen=True)
class SimConfig:
    """Everything a simulation run needs, including its seed."""

    path: PathModel
    packet_sizes: tuple[PacketSize, PacketSize]
    n_pairs: int = 3000
    n_trials: int = 10_000
    seed: int = 0

    def __post_init__(self):
        w1, w2 = self.packet_sizes
        if w1.bytes >= w2.bytes:
            raise ValueError(f"packet_sizes must increase, got {w1.bytes} >= {w2.bytes}")
        if self.n_pairs < 1:
            raise ValueError(f"n_pairs must be >= 1, got {self.n_pairs}")
        if self.n_trials < 1:
            raise ValueError(f"n_trials must be >= 1, got {self.n_trials}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")


# ---------------------------------------------------------------------------
# delay model
# ---------------------------------------------------------------------------

def fixed_delay(path: PathModel, size: PacketSize) -> Delay:
    """Size-dependent fixed delay: propagation plus serialization on every hop."""
    serialization = bytes_to_bits(size.bytes) * sum(
        1.0 / hop.capacity.bits_per_second for hop in path.hops
    )
    propagation = sum(hop.propagation_delay.seconds for hop in path.hops)
    return Delay(propagation + serialization)


def variable_delays(rate_per_s: float, shape, rng: np.random.Generator) -> np.ndarray:
    """Exponential variable delays of the given shape, seconds, by inverse transform."""
    return -np.log1p(-rng.random(shape)) / rate_per_s


# ---------------------------------------------------------------------------
# simulation runs
# ---------------------------------------------------------------------------

def simulate_pairs(cfg: SimConfig) -> list[ProbePair]:
    """Draw ``cfg.n_pairs`` probe pairs with independent delays per packet."""
    w1, w2 = cfg.packet_sizes
    fixed1 = fixed_delay(cfg.path, w1).seconds
    fixed2 = fixed_delay(cfg.path, w2).seconds
    rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, _PAIRS_STREAM]))
    var1 = variable_delays(cfg.path.var_delay_rate, cfg.n_pairs, rng)
    var2 = variable_delays(cfg.path.var_delay_rate, cfg.n_pairs, rng)

    pairs = []
    for i in range(cfg.n_pairs):
        t0 = i * PAIR_SPACING_S
        small = DelaySample(
            packet_size=w1,
            delay=Delay(fixed1 + var1[i]),
            serial=2 * i + 1,
            sent_at=t0,
        )
        large = DelaySample(
            packet_size=w2,
            delay=Delay(fixed2 + var2[i]),
            serial=2 * i + 2,
            sent_at=t0 + INTRA_PAIR_GAP_S,
        )
        pairs.append(ProbePair(small=small, large=large))
    return pairs


def sd_of_delay_diff(cfg: SimConfig, n: int) -> float:
    """Spread of the averaged delay difference over ``cfg.n_trials`` runs.

    Each replication draws ``n`` pairs and averages their delay
    difference; returned is the sample standard deviation of those
    averages, in seconds.  Results are deterministic per ``(seed, n)``
    regardless of which other ``n`` values were computed before.
    """
    if n < 2:
        raise ValueError(f"n must be >= 2 pairs, got {n}")
    if cfg.n_trials < 2:
        raise ValueError(f"need n_trials >= 2 for a standard deviation, got {cfg.n_trials}")
    w1, w2 = cfg.packet_sizes
    fixed_diff = fixed_delay(cfg.path, w2).seconds - fixed_delay(cfg.path, w1).seconds
    rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, _SD_STREAM, n]))
    var1 = variable_delays(cfg.path.var_delay_rate, (cfg.n_trials, n), rng)
    var2 = variable_delays(cfg.path.var_delay_rate, (cfg.n_trials, n), rng)
    mean_diffs = fixed_diff + (var2 - var1).mean(axis=1)
    return float(np.std(mean_diffs, ddof=1))


class ErrorPoint(NamedTuple):
    """Expected relative estimate error when averaging ``n`` pairs."""

    n: int
    sd_s: float
    rel_error: float


def error_vs_n(cfg: SimConfig, ns: Sequence[int]) -> list[ErrorPoint]:
    """Relative error of the averaged delay difference for each ``n``.

    The error is the simulated spread over the true (noise-free) delay
    difference of the two packet sizes.
    """
    w1, w2 = cfg.packet_sizes
    true_diff = fixed_delay(cfg.path, w2).seconds - fixed_delay(cfg.path, w1).seconds
    if true_diff <= 0:
        raise ValueError("path model gives no positive delay difference between sizes")
    points = []
    for n in ns:
        sd = sd_of_delay_diff(cfg, n)
        points.append(ErrorPoint(n=n, sd_s=sd, rel_error=sd / true_diff))
    return points


def write_error_table_csv(points: Iterable[ErrorPoint], fp: TextIO) -> None:
    writer = csv.writer(fp)
    writer.writerow(("n", "sd_s", "eta"))
    for p in points:
        writer.writerow((p.n, repr(p.sd_s), repr(p.rel_error)))


# ---------------------------------------------------------------------------
# config file format
# ---------------------------------------------------------------------------

_REQUIRED_KEYS = ("capacity_bps", "var_delay_rate", "w1_bytes", "w2_bytes")
_ALL_KEYS = _REQUIRED_KEYS + (
    "propagation_s",
    "n_pairs",
    "n_trials",
    "seed",
    "ns",
)

DEFAULT_NS = (5, 10, 20, 30, 50, 100, 200)


def parse_config(text: str) -> tuple[SimConfig, tuple[int, ...]]:
    """Parse the flat key=value simulation config format.

    Keys mirror the simulation fields: per-hop ``capacity_bps`` and
    ``propagation_s`` as comma lists, ``var_delay_rate``,
    ``w1_bytes``/``w2_bytes``, ``n_pairs``,
    ``n_trials``, ``seed``, and the sample counts ``ns`` for the error
    table.  ``#`` starts a comment.
    """
    values: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"config line {lineno}: expected key = value, got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        if key not in _ALL_KEYS:
            raise ValueError(f"config line {lineno}: unknown key {key!r} (known: {', '.join(_ALL_KEYS)})")
        if key in values:
            raise ValueError(f"config line {lineno}: duplicate key {key!r}")
        values[key] = value.strip()

    for key in _REQUIRED_KEYS:
        if key not in values or not values[key]:
            raise ValueError(f"config is missing required key {key!r}")

    capacities = [ascii_number(v) for v in values["capacity_bps"].split(",") if v.strip()]
    if "propagation_s" in values and values["propagation_s"]:
        propagations = [ascii_number(v) for v in values["propagation_s"].split(",") if v.strip()]
        if len(propagations) != len(capacities):
            raise ValueError("propagation_s must list one value per capacity_bps entry")
    else:
        propagations = [0.0] * len(capacities)

    path = PathModel(
        hops=tuple(
            Hop(capacity=Bandwidth(c), propagation_delay=Delay(p))
            for c, p in zip(capacities, propagations)
        ),
        var_delay_rate=ascii_number(values["var_delay_rate"]),
    )
    cfg = SimConfig(
        path=path,
        packet_sizes=(PacketSize(ascii_number(values["w1_bytes"], int)),
                      PacketSize(ascii_number(values["w2_bytes"], int))),
        n_pairs=ascii_number(values.get("n_pairs", "3000"), int),
        n_trials=ascii_number(values.get("n_trials", "10000"), int),
        seed=ascii_number(values.get("seed", "0"), int),
    )
    if values.get("ns"):
        ns = tuple(ascii_number(v, int) for v in values["ns"].split(",") if v.strip())
    else:
        ns = DEFAULT_NS
    if any(n < 2 for n in ns):
        raise ValueError(f"ns values must be >= 2 pairs, got {min(ns)}")
    return cfg, ns


def load_config(path: str) -> tuple[SimConfig, tuple[int, ...]]:
    with open(path, "r", encoding="utf-8") as fp:
        return parse_config(fp.read())
