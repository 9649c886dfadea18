"""Parsing and pairing of test-box probe logs.

Two line formats are understood, one per log side:

sender (SNDP)::

    SNDP 9 1263374005 -h tt146.example.net -p 6000 -n 100 -s 1353080554

receiver (RCDP)::

    RCDP 12 2 89.186.245.200 55730 193.233.1.69 6000 1263374005.779364 \
        0.009001 0X2107 0X2107 1353080554 0.000001 0.000001

Sender and receiver records join on the packet serial.  Parsing is
total: any input line yields either a record or ``MalformedLine`` with
the byte offset of the first field that failed, never another
exception.
"""

from __future__ import annotations

import math
import re
from bisect import bisect_left
from dataclasses import dataclass
from operator import attrgetter
from typing import BinaryIO, Iterable, NamedTuple

from .errors import InsufficientData, MalformedLine, MixedPacketSizes, NoPairsFound
from .model import Delay, DelaySample, PacketSize, ProbePair

DEFAULT_PAIR_WINDOW_S = 60.0
_SENT_AT = attrgetter("sent_at")

_TOKEN_RE = re.compile(r"\S+")
_UINT_RE = re.compile(r"[0-9]+\Z")  # ASCII digits only: int() takes any Unicode digit
_UFLOAT_RE = re.compile(r"[0-9]+(\.[0-9]+)?\Z")
_ESCAPED_RE = re.compile("[\udc80-\udcff]+")


class SenderRecord(NamedTuple):
    serial: int
    host: str
    packet_bytes: int
    timestamp: float


class ReceiverRecord(NamedTuple):
    serial: int
    delay_s: float
    src_addr: tuple[str, int]
    received_at: float


# ---------------------------------------------------------------------------
# line parsing
# ---------------------------------------------------------------------------

def _unescape(match: re.Match) -> str:
    return match.group().encode("utf-8", errors="surrogateescape").decode("utf-8", errors="replace")


def _tokenize(line: str) -> list[tuple[str, int]]:
    """Split on whitespace, keeping each token's byte offset.

    Files are decoded with ``surrogateescape``, one character per
    undecodable byte, so offsets count the line's raw bytes; the tokens
    themselves come back as ``errors="replace"`` decoding gives them.
    """
    if line.isascii():
        return [(m.group(), m.start()) for m in _TOKEN_RE.finditer(line)]
    return [
        (_ESCAPED_RE.sub(_unescape, m.group()), len(line[: m.start()].encode("utf-8", errors="replace")))
        for m in _TOKEN_RE.finditer(line)
    ]


def _fail(offset: int, why: str) -> MalformedLine:
    return MalformedLine(f"offset {offset}: {why}", offset=offset)


def _end_offset(line: str) -> int:
    return len(line.encode("utf-8", errors="replace"))


def _take(tokens: list[tuple[str, int]], idx: int, line: str, what: str) -> tuple[str, int]:
    if idx >= len(tokens):
        raise _fail(_end_offset(line), f"missing {what}")
    return tokens[idx]


def _uint(text: str, offset: int, what: str) -> int:
    if not _UINT_RE.match(text):
        raise _fail(offset, f"{what} must be an unsigned integer, got {text!r}")
    return int(text)


def _ufloat(text: str, offset: int, what: str) -> float:
    if not _UFLOAT_RE.match(text):
        raise _fail(offset, f"{what} must be a non-negative decimal, got {text!r}")
    return float(text)


def parse_sender_line(line: str) -> SenderRecord:
    """Parse one SNDP sender-log line."""
    tokens = _tokenize(line)
    tag, tag_off = _take(tokens, 0, line, "record tag")
    if tag != "SNDP":
        raise _fail(tag_off, f"expected tag 'SNDP', got {tag!r}")
    _take(tokens, 1, line, "format field")
    ts_text, ts_off = _take(tokens, 2, line, "timestamp")
    timestamp = float(_uint(ts_text, ts_off, "timestamp"))

    # remaining tokens are -flag value pairs; -h, -n and -s are required
    options: dict[str, tuple[str, int]] = {}
    idx = 3
    while idx < len(tokens):
        flag, flag_off = tokens[idx]
        if not (len(flag) == 2 and flag[0] == "-" and flag[1].isalpha()):
            raise _fail(flag_off, f"expected an option flag like -h, got {flag!r}")
        value, value_off = _take(tokens, idx + 1, line, f"value for {flag}")
        options.setdefault(flag[1], (value, value_off))
        idx += 2

    for needed in "hns":
        if needed not in options:
            raise _fail(_end_offset(line), f"missing option -{needed}")
    nbytes_text, nbytes_off = options["n"]
    nbytes = _uint(nbytes_text, nbytes_off, "packet size")
    if nbytes < 1:
        raise _fail(nbytes_off, "packet size must be positive")
    serial_text, serial_off = options["s"]
    return SenderRecord(
        serial=_uint(serial_text, serial_off, "serial"),
        host=options["h"][0],
        packet_bytes=nbytes,
        timestamp=timestamp,
    )


def parse_receiver_line(line: str) -> ReceiverRecord:
    """Parse one RCDP receiver-log line."""
    tokens = _tokenize(line)
    tag, tag_off = _take(tokens, 0, line, "record tag")
    if tag != "RCDP":
        raise _fail(tag_off, f"expected tag 'RCDP', got {tag!r}")
    for idx, what in ((1, "format field"), (2, "format field")):
        _take(tokens, idx, line, what)
    src_ip, _ = _take(tokens, 3, line, "source address")
    port_text, port_off = _take(tokens, 4, line, "source port")
    src_port = _uint(port_text, port_off, "source port")
    _take(tokens, 5, line, "destination address")
    _take(tokens, 6, line, "destination port")
    recv_text, recv_off = _take(tokens, 7, line, "receive timestamp")
    received_at = _ufloat(recv_text, recv_off, "receive timestamp")
    delay_text, delay_off = _take(tokens, 8, line, "delay")
    delay_s = _ufloat(delay_text, delay_off, "delay")
    for idx in (9, 10):
        flags, flags_off = _take(tokens, idx, line, "status flags")
        if not flags.startswith("0X"):
            raise _fail(flags_off, f"expected hex status flags, got {flags!r}")
    serial_text, serial_off = _take(tokens, 11, line, "serial")
    return ReceiverRecord(
        serial=_uint(serial_text, serial_off, "serial"),
        delay_s=delay_s,
        src_addr=(src_ip, src_port),
        received_at=received_at,
    )


# ---------------------------------------------------------------------------
# file parsing
# ---------------------------------------------------------------------------

@dataclass
class ParsedLog:
    """Records from one log file plus the lines that failed."""

    records: list
    malformed: list[tuple[int, MalformedLine]]

    @property
    def n_parsed(self) -> int:
        return len(self.records)

    @property
    def n_malformed(self) -> int:
        return len(self.malformed)


def _parse_lines(raw: BinaryIO, parse_line) -> ParsedLog:
    records = []
    malformed = []
    for lineno, raw_line in enumerate(raw, start=1):
        line = raw_line.rstrip(b"\r\n").decode("utf-8", errors="surrogateescape")
        if not line.strip():
            continue
        try:
            records.append(parse_line(line))
        except MalformedLine as exc:
            malformed.append((lineno, exc))
    return ParsedLog(records=records, malformed=malformed)


def parse_sender_file(raw: BinaryIO) -> ParsedLog:
    return _parse_lines(raw, parse_sender_line)


def parse_receiver_file(raw: BinaryIO) -> ParsedLog:
    return _parse_lines(raw, parse_receiver_line)


# ---------------------------------------------------------------------------
# joining and pairing
# ---------------------------------------------------------------------------

@dataclass
class MatchResult:
    """Delay samples joined on serial, with bookkeeping counters."""

    samples: list[DelaySample]
    unmatched_sent: int
    unmatched_received: int
    duplicate_sent: int
    duplicate_received: int

    @property
    def matched(self) -> int:
        return len(self.samples)


def match_sessions(sent: Iterable[SenderRecord], received: Iterable[ReceiverRecord]) -> MatchResult:
    """Join sender and receiver records on serial.

    Duplicate serials on either side resolve to the first occurrence;
    the surplus is counted.  Unmatched records are dropped and counted.
    Returned samples are sorted by send time.
    """
    by_serial: dict[int, SenderRecord] = {}
    duplicate_sent = 0
    for rec in sent:
        if rec.serial in by_serial:
            duplicate_sent += 1
        else:
            by_serial[rec.serial] = rec

    samples = []
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
        samples.append(
            DelaySample(
                packet_size=PacketSize(snd.packet_bytes),
                delay=Delay(rec.delay_s),
                serial=rec.serial,
                sent_at=snd.timestamp,
            )
        )
    samples.sort(key=lambda s: (s.sent_at, s.serial))
    return MatchResult(
        samples=samples,
        unmatched_sent=len(by_serial) - len(seen),
        unmatched_received=unmatched_received,
        duplicate_sent=duplicate_sent,
        duplicate_received=duplicate_received,
    )


@dataclass
class PairResult:
    """Probe pairs formed from two size classes, with leftovers counted."""

    pairs: list[ProbePair]
    unpaired_small: int
    unpaired_large: int
    other_sizes: int


def pair_by_size(
    samples: Iterable[DelaySample],
    w1: PacketSize,
    w2: PacketSize,
    window_s: float = DEFAULT_PAIR_WINDOW_S,
) -> PairResult:
    """Pair samples of the two size classes into probe pairs.

    Larges are taken in ``(sent_at, serial)`` order.  Each takes the
    unpaired small nearest in time within the closed window
    ``[t - window_s, t + window_s]``; at equal distance the earlier
    small wins.  No sample is used twice.  Apart from the sort, time
    per sample does not grow with how many probes share the window.
    """
    if w1.bytes >= w2.bytes:
        raise ValueError(f"w1 must be smaller than w2, got {w1.bytes} >= {w2.bytes}")
    if not (math.isfinite(window_s) and window_s > 0):
        raise ValueError(f"window_s must be finite and > 0, got {window_s!r}")

    ordered = sorted(samples, key=lambda s: (s.sent_at, s.serial))
    smalls = [s for s in ordered if s.packet_size == w1]
    larges = [s for s in ordered if s.packet_size == w2]
    other = len(ordered) - len(smalls) - len(larges)

    # Unpaired smalls sent at or before the large wait in `left`; the
    # nearest is the earliest at its latest time.  Smalls taken as an
    # earlier large's later candidate are a prefix of those sent after
    # this large, so smalls[nxt] is the first unpaired one.
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
    return PairResult(
        pairs=pairs,
        unpaired_small=len(smalls) - len(pairs),
        unpaired_large=len(larges) - len(pairs),
        other_sizes=other,
    )


# ---------------------------------------------------------------------------
# variable-delay rate estimation
# ---------------------------------------------------------------------------

def estimate_var_delay_rate(samples: Iterable[DelaySample]) -> float:
    """Variable-delay rate (1/s) from delays of a single size class.

    The smallest observed delay stands in for the fixed-delay floor, so
    the rate comes out as 1/(mean - min).  With few samples the floor
    is overestimated and the rate with it; feed enough samples that the
    minimum has stabilized.
    """
    samples = list(samples)
    delays = [s.delay.seconds for s in samples]
    sizes = {s.packet_size.bytes for s in samples}
    if len(sizes) > 1:
        raise MixedPacketSizes(f"rate estimation needs one size class, got {sorted(sizes)}")
    if len(delays) < 2:
        raise InsufficientData(f"need at least 2 samples, got {len(delays)}")
    spread = sum(delays) / len(delays) - min(delays)
    if spread <= 0:
        raise InsufficientData("delays show no variable part (mean equals minimum)")
    return 1.0 / spread
