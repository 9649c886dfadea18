"""Monte-Carlo delay simulator for two-size probing.

A packet's delay is the path's size-dependent fixed part plus an
exponential variable part drawn by inverse transform ``-ln(1-u)/rate``
with ``u`` uniform in [0, 1).  The spread of an n-pair average does
not draw the n pairs: each replication's class mean is drawn from its
exact law, Gamma(n, 1/(n*rate)).  All randomness flows from the config
seed through named sub-streams, so every output is reproducible and
independent of call order.
"""

from __future__ import annotations

import math
from typing import Iterable, NamedTuple, Sequence, TextIO

import numpy as np

from .model import (
    Bandwidth,
    Delay,
    Hop,
    PacketSize,
    Pairs,
    PathModel,
    Samples,
    _finite,
    _shown,
    _Value,
    _whole,
    ascii_int,
    ascii_number,
    bytes_to_bits,
    check_size_order,
)
from .planner import REFERENCE_CAPACITY_BPS, REFERENCE_ROWS, REFERENCE_SIZES, REFERENCE_VAR_DELAY_RATE

# seconds between consecutive simulated pairs, and between the two
# packets of a pair; synthetic timestamps only matter for pairing
PAIR_SPACING_S = 0.1
INTRA_PAIR_GAP_S = 0.05

# sub-stream tags so pair generation and SD replications never share draws
_PAIRS_STREAM = 0
_SD_STREAM = 1

# the largest variable delay at rate 1/s: -ln(1 - u) at the largest u below 1
_MAX_UNIT_DRAW = -math.log1p(-(1.0 - 2.0**-53))

# The fewest ulps of the values a spread is taken over (the delay difference and the class means,
# about 1/rate) that the law's spread may span.  Below it rounding, not sampling, sets the spread:
# swept over four paths, |sd/law - 1| reads 7-16% at 4-8 ulps, and from 64 ulps on it is within
# what it reads at 2**20 ulps (2000 trials: at most 2.3% against 3.5%; 20000: 0.78% against 0.77%).
_ROUNDING_ULPS = 64


class SimConfig(_Value):
    """Everything a simulation run needs, including its seed."""

    __slots__ = ("path", "packet_sizes", "n_pairs", "n_trials", "seed")

    def __init__(self, path: PathModel, packet_sizes: tuple[PacketSize, PacketSize], n_pairs: int = 3000,
                 n_trials: int = 10_000, seed: int = 0):
        w1, w2 = packet_sizes
        check_size_order(w1, w2)
        if not _whole(n_pairs) or n_pairs < 1:
            raise ValueError(f"n_pairs must be >= 1, got {_shown(n_pairs)}")
        if not _whole(n_trials) or n_trials < 1:
            raise ValueError(f"n_trials must be >= 1, got {_shown(n_trials)}")
        if not _whole(seed) or seed < 0:
            raise ValueError(f"seed must be >= 0, got {_shown(seed)}")
        if not fixed_delay(path, w2).seconds > fixed_delay(path, w1).seconds:
            raise ValueError("path model gives no positive delay difference between sizes")
        # the spread sums n_trials squared deviations, each below (2 * largest draw)**2
        largest = _MAX_UNIT_DRAW / path.var_delay_rate
        if not (_finite(n_trials) and _finite(4 * largest * largest * n_trials)):
            raise ValueError(
                f"var_delay_rate {path.var_delay_rate!r} per second is too small for "
                f"{_shown(n_trials)} trials: delay draws reach {largest!r} s, and their spread passes float range"
            )
        self._assign(path, packet_sizes, n_pairs, n_trials, seed)


def reference_config(seed: int) -> SimConfig:
    """The paper's reference experiment (see ``planner``) at the given seed."""
    path = PathModel(
        hops=(Hop(capacity=Bandwidth(REFERENCE_CAPACITY_BPS), propagation_delay=Delay(0.0)),),
        var_delay_rate=REFERENCE_VAR_DELAY_RATE,
    )
    return SimConfig(path=path, packet_sizes=REFERENCE_SIZES, seed=seed)


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

def simulate_pairs(cfg: SimConfig) -> Pairs:
    """Draw ``cfg.n_pairs`` probe pairs, small then large, with independent delays per packet."""
    w1, w2 = cfg.packet_sizes
    rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, _PAIRS_STREAM]))
    # rows: the smalls' draws, then the larges', as two calls drew them; .T interleaves them
    fixed = np.array([[fixed_delay(cfg.path, w1).seconds], [fixed_delay(cfg.path, w2).seconds]])
    delays = (fixed + variable_delays(cfg.path.var_delay_rate, (2, cfg.n_pairs), rng)).T.ravel()
    sent_at = np.arange(cfg.n_pairs)[:, None] * PAIR_SPACING_S + np.array([0.0, INTRA_PAIR_GAP_S])

    samples = Samples()
    samples.serial.extend(range(1, 2 * cfg.n_pairs + 1))
    samples.sent_at.frombytes(sent_at.tobytes())
    samples.bytes.extend((w1.bytes, w2.bytes) * cfg.n_pairs)
    samples.delay.frombytes(delays.tobytes())
    return Pairs.interleaved(samples, (w1.bytes, w2.bytes))


def sd_of_delay_diff(cfg: SimConfig, n: int) -> float:
    """Spread of the averaged delay difference over ``cfg.n_trials`` runs.

    Each replication averages the delay difference of ``n`` pairs.  The
    mean of ``n`` exponential variable delays is drawn directly from
    its law, Gamma(n, 1/(n*rate)), so time and memory are O(n_trials)
    whatever ``n``.  Returned is the sample standard deviation of those
    averages, in seconds.  Results are deterministic per ``(seed, n)``
    regardless of which other ``n`` values were computed before.  A
    spread past float range, or one the law puts below ``_ROUNDING_ULPS``
    ulps of the values it is taken over, raises ValueError.
    """
    if not _whole(n) or n < 2:
        raise ValueError(f"n must be >= 2 pairs, got {_shown(n)}")
    if not (_finite(n) and _finite(n * cfg.path.var_delay_rate)):
        raise ValueError(f"n times var_delay_rate {cfg.path.var_delay_rate!r} per second must be a finite float")
    if cfg.n_trials < 2:
        raise ValueError(f"need n_trials >= 2 for a standard deviation, got {cfg.n_trials}")
    w1, w2 = cfg.packet_sizes
    fixed_diff = fixed_delay(cfg.path, w2).seconds - fixed_delay(cfg.path, w1).seconds
    rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, _SD_STREAM, n]))
    scale = 1.0 / (n * cfg.path.var_delay_rate)
    mean1 = rng.gamma(n, scale, cfg.n_trials)
    mean2 = rng.gamma(n, scale, cfg.n_trials)
    with np.errstate(over="ignore", invalid="ignore"):  # refused below, not warned about
        sd = float(np.std(fixed_diff + (mean2 - mean1), ddof=1))
    if not math.isfinite(sd):
        raise ValueError(f"the spread of {n}-pair averages passes float range (delay difference {fixed_diff!r} s)")
    mean_delay = 1.0 / cfg.path.var_delay_rate  # about what each class mean is
    law = math.sqrt(2.0 / n) * mean_delay
    if law < _ROUNDING_ULPS * math.ulp(max(fixed_diff, mean_delay)) or (sd == 0.0 and np.ptp(mean2 - mean1) > 0):
        raise ValueError(
            f"the spread of {n}-pair averages, {law!r} s by the law, is lost in rounding "
            f"the delay difference {fixed_diff!r} s and the mean delay {mean_delay!r} s"
        )
    return sd


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
    points = []
    for n in ns:
        sd = sd_of_delay_diff(cfg, n)
        points.append(ErrorPoint(n=n, sd_s=sd, rel_error=sd / true_diff))
    return points


def write_error_table_csv(points: Iterable[ErrorPoint], fp: TextIO) -> None:
    """Write ``n,sd_s,eta`` rows, floats as ``repr`` gives them, ended with CRLF as ``csv.writer`` ends them."""
    fp.write("n,sd_s,eta\r\n")
    for p in points:
        fp.write(f"{p.n},{p.sd_s!r},{p.rel_error!r}\r\n")


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

DEFAULT_NS = tuple(n for n, _ in REFERENCE_ROWS)


def _entries(key: str, text: str) -> list[str]:
    """The entries of a comma list; an empty one is an error, not skipped."""
    entries = text.split(",")
    if not all(entry.strip() for entry in entries):
        raise ValueError(f"{key} has an empty entry in {text!r}")
    return entries


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

    capacities = [ascii_number(v) for v in _entries("capacity_bps", values["capacity_bps"])]
    if "propagation_s" in values and values["propagation_s"]:
        propagations = [ascii_number(v) for v in _entries("propagation_s", values["propagation_s"])]
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
        packet_sizes=(PacketSize(ascii_int(values["w1_bytes"], "w1_bytes")),
                      PacketSize(ascii_int(values["w2_bytes"], "w2_bytes"))),
        # an absent count takes SimConfig's default; a present one must parse
        **{key: ascii_int(values[key], key) for key in ("n_pairs", "n_trials", "seed") if key in values},
    )
    if values.get("ns"):
        if not values["ns"].replace(",", "").strip():
            raise ValueError(f"ns must list at least one n, got {values['ns']!r}")
        ns = tuple(ascii_int(v, "ns") for v in _entries("ns", values["ns"]))
    else:
        ns = DEFAULT_NS
    if any(n < 2 for n in ns):
        raise ValueError(f"ns values must be >= 2 pairs, got {min(ns)}")
    for n in ns:
        if not (_finite(n) and _finite(n * path.var_delay_rate)):
            raise ValueError(
                f"ns values times var_delay_rate must be a finite float, got an n of {len(str(n))} digits"
            )
    return cfg, ns


def load_config(path: str) -> tuple[SimConfig, tuple[int, ...]]:
    with open(path, "r", encoding="utf-8") as fp:
        return parse_config(fp.read())
