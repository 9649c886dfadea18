"""The object-per-sample pipeline, as it was before samples became columns.

``sample_from_row``, ``match_sessions`` and ``pair_by_size`` here build
one ``DelaySample`` (with its ``PacketSize`` and ``Delay``) per sample and
one ``ProbePair`` per pair, and so do the producers ``simulate_pairs``
and ``probe_pairs`` (the pairs ``prober.probe`` built from its timings).
They are the reference the differential tests hold the columnar pipeline
to: same samples, pairs, counts and messages.

``pair_by_size`` is kept beside ``test_testbox.rescan_pairs``, the windowed
rescan, because the two part where a large's distances to two smalls on
its one side differ by less than an ulp: the rescan compares the rounded
distances and keeps the first small, while this copy, like the package,
takes the latest unpaired small before the large by send order (smalls at
0.0 and 4.9e-114, a large at 1.0, window 1.0).
"""

from __future__ import annotations

from bisect import bisect_left
from operator import attrgetter

import numpy as np

from vpsband import simulate
from vpsband.errors import NoPairsFound
from vpsband.model import (
    MAX_SERIAL,
    MAX_UDP_PAYLOAD,
    SAMPLE_DIRECTION,
    Delay,
    DelaySample,
    PacketSize,
    ProbePair,
    ascii_int,
    ascii_number,
)

_SENT_AT = attrgetter("sent_at")
_SEND_ORDER = attrgetter("sent_at", "serial")


def sample_from_row(row: list[str]) -> DelaySample:
    direction, serial, sent_at, nbytes, delay_s = row
    if direction != SAMPLE_DIRECTION:
        raise ValueError(f"direction must be {SAMPLE_DIRECTION!r}, got {direction!r}")
    return DelaySample(
        packet_size=PacketSize(ascii_int(nbytes, "packet size", MAX_UDP_PAYLOAD)),
        delay=Delay(ascii_number(delay_s)),
        serial=ascii_int(serial, "serial", MAX_SERIAL),
        sent_at=ascii_number(sent_at),
    )


def match_sessions(sent, received) -> tuple[list[DelaySample], int, int, int, int]:
    """Samples, unmatched sent, unmatched received, duplicate sent, duplicate received."""
    by_serial = {}
    duplicate_sent = 0
    for rec in sent:
        if rec.serial in by_serial:
            duplicate_sent += 1
        else:
            by_serial[rec.serial] = rec

    samples = []
    sizes: dict[int, PacketSize] = {}
    seen: set[int] = set()
    duplicate_received = 0
    unmatched_received = 0
    for rec in received:
        if rec.serial in seen:
            duplicate_received += 1
            continue
        snd = by_serial.get(rec.serial)
        if snd is None:
            unmatched_received += 1
            continue
        seen.add(rec.serial)
        size = sizes.get(snd.packet_bytes)
        if size is None:
            size = sizes[snd.packet_bytes] = PacketSize(snd.packet_bytes)
        samples.append(DelaySample(size, Delay(rec.delay_s), rec.serial, snd.timestamp))
    samples.sort(key=_SEND_ORDER)
    return samples, len(by_serial) - len(seen), unmatched_received, duplicate_sent, duplicate_received


def pair_by_size(samples, w1: PacketSize, w2: PacketSize, window_s: float) -> tuple[list[ProbePair], int, int, int]:
    """Pairs, unpaired small, unpaired large, other sizes; NoPairsFound as the package raises it."""
    ordered = sorted(samples, key=_SEND_ORDER)
    small_bytes, large_bytes = w1.bytes, w2.bytes
    smalls: list[DelaySample] = []
    larges: list[DelaySample] = []
    for sample in ordered:
        nbytes = sample.packet_size.bytes
        if nbytes == small_bytes:
            smalls.append(sample)
        elif nbytes == large_bytes:
            larges.append(sample)
    other = len(ordered) - len(smalls) - len(larges)

    pairs = []
    left: list[DelaySample] = []
    nxt = 0
    for large in larges:
        t = large.sent_at
        while nxt < len(smalls) and smalls[nxt].sent_at <= t:
            left.append(smalls[nxt])
            nxt += 1
        k = -1
        if left and left[-1].sent_at >= t - window_s:
            k = bisect_left(left, left[-1].sent_at, key=_SENT_AT)
        if nxt < len(smalls) and smalls[nxt].sent_at <= t + window_s and (
            k < 0 or smalls[nxt].sent_at - t < t - left[k].sent_at
        ):
            pairs.append(ProbePair(small=smalls[nxt], large=large))
            nxt += 1
        elif k >= 0:
            pairs.append(ProbePair(small=left.pop(k), large=large))

    if not pairs:
        raise NoPairsFound(
            f"no pairs of {w1.bytes}/{w2.bytes} bytes "
            f"({len(smalls)} small, {len(larges)} large samples)"
        )
    return pairs, len(smalls) - len(pairs), len(larges) - len(pairs), other


def simulate_pairs(cfg) -> list[ProbePair]:
    """Draw ``cfg.n_pairs`` probe pairs with independent delays per packet."""
    w1, w2 = cfg.packet_sizes
    fixed1 = simulate.fixed_delay(cfg.path, w1).seconds
    fixed2 = simulate.fixed_delay(cfg.path, w2).seconds
    rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, simulate._PAIRS_STREAM]))
    var1 = simulate.variable_delays(cfg.path.var_delay_rate, cfg.n_pairs, rng).tolist()
    var2 = simulate.variable_delays(cfg.path.var_delay_rate, cfg.n_pairs, rng).tolist()

    pairs = []
    for i in range(cfg.n_pairs):
        t0 = i * simulate.PAIR_SPACING_S
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
            sent_at=t0 + simulate.INTRA_PAIR_GAP_S,
        )
        pairs.append(ProbePair(small=small, large=large))
    return pairs


def probe_pairs(cfg, rtt_ns: dict[int, int], send_ns: list[int], wall0: float, mono0: int) -> list[ProbePair]:
    """The pairs of a probe session: ``rtt_ns`` by serial, ``send_ns`` by serial - 1,
    and the session's wall-clock and monotonic start."""
    def sample(serial: int, size: PacketSize) -> DelaySample:
        return DelaySample(
            packet_size=size,
            delay=Delay(rtt_ns[serial] / 1e9),
            serial=serial,
            sent_at=wall0 + (send_ns[serial - 1] - mono0) / 1e9,
        )

    return [
        ProbePair(small=sample(s, cfg.w1), large=sample(s + 1, cfg.w2))
        for s in range(1, 2 * cfg.count, 2)
        if s in rtt_ns and s + 1 in rtt_ns
    ]
