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
exception.  Numbers out of range are malformed too: a serial above
2**64 - 1, a packet size outside 1..65507, a source port above 65535,
or a time or delay too long to be a finite float.

A record holds its log's column values in column order: serial, sent_at
and bytes for the sender, serial and delay for the receiver.  The host,
source port and receive time are checked, not kept.  A log file is read
a block of lines at a time into a ``ParsedLog`` of ``array`` columns,
and ``match_sessions`` joins two of them.
"""

from __future__ import annotations

import math
import re
from array import array
from bisect import bisect_left
from itertools import compress, islice, repeat
from operator import eq
from typing import BinaryIO, Iterable, NamedTuple

from .errors import InsufficientData, MalformedLine, MixedPacketSizes, NoPairsFound
from . import model
from .model import MAX_PORT, MAX_SERIAL, MAX_UDP_PAYLOAD, DelaySample, PacketSize, Pairs, Samples

DEFAULT_PAIR_WINDOW_S = 60.0

_TOKEN_RE = re.compile(r"\S+")
_UINT_RE = re.compile(r"[0-9]+\Z")  # ASCII digits only: int() takes any Unicode digit
_UFLOAT_RE = re.compile(r"[0-9]+(\.[0-9]+)?\Z")
_ESCAPED_RE = re.compile("[\udc80-\udcff]+")


class SenderRecord(NamedTuple):
    serial: int
    timestamp: float
    packet_bytes: int


class ReceiverRecord(NamedTuple):
    serial: int
    delay_s: float


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
    tokens, offset, last = [], 0, 0
    for m in _TOKEN_RE.finditer(line):
        # each character encodes on its own, so the offsets add up one stretch at a time
        offset += len(line[last : m.start()].encode("utf-8", errors="replace"))
        last = m.start()
        tokens.append((_ESCAPED_RE.sub(_unescape, m.group()), offset))
    return tokens


def _fail(offset: int, why: str) -> MalformedLine:
    return MalformedLine(f"offset {offset}: {why}", offset=offset)


def _end_offset(line: str) -> int:
    return len(line.encode("utf-8", errors="replace"))


def _take(tokens: list[tuple[str, int]], idx: int, line: str, what: str) -> tuple[str, int]:
    if idx >= len(tokens):
        raise _fail(_end_offset(line), f"missing {what}")
    return tokens[idx]


def _shaped(pattern: re.Pattern, text: str, offset: int, what: str, shape: str) -> str:
    if not pattern.match(text):
        raise _fail(offset, f"{what} must be {shape}, got {text!r}")
    return text


def _uint(text: str, offset: int, what: str, top: int) -> int:
    digits = _shaped(_UINT_RE, text, offset, what, "an unsigned integer").lstrip("0") or "0"
    # a run longer than top's is out of range, and may be past int()'s digit limit
    if len(digits) > len(str(top)) or int(digits) > top:
        raise _fail(offset, f"{what} must be at most {top}")
    return int(digits)


def _ufloat(
    text: str, offset: int, what: str, pattern: re.Pattern = _UFLOAT_RE, shape: str = "a non-negative decimal"
) -> float:
    value = float(_shaped(pattern, text, offset, what, shape))
    if not math.isfinite(value):  # float() rounds a long enough digit run to inf
        raise _fail(offset, f"{what} must be finite")
    return value


def parse_sender_line(line: str) -> SenderRecord:
    """Parse one SNDP sender-log line."""
    tokens = _tokenize(line)
    tag, tag_off = _take(tokens, 0, line, "record tag")
    if tag != "SNDP":
        raise _fail(tag_off, f"expected tag 'SNDP', got {tag!r}")
    _take(tokens, 1, line, "format field")
    ts_text, ts_off = _take(tokens, 2, line, "timestamp")
    timestamp = _ufloat(ts_text, ts_off, "timestamp", _UINT_RE, "an unsigned integer")

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
    nbytes = _uint(nbytes_text, nbytes_off, "packet size", MAX_UDP_PAYLOAD)
    if nbytes < 1:
        raise _fail(nbytes_off, "packet size must be positive")
    return SenderRecord(_uint(*options["s"], "serial", MAX_SERIAL), timestamp, nbytes)


def parse_receiver_line(line: str) -> ReceiverRecord:
    """Parse one RCDP receiver-log line."""
    tokens = _tokenize(line)
    tag, tag_off = _take(tokens, 0, line, "record tag")
    if tag != "RCDP":
        raise _fail(tag_off, f"expected tag 'RCDP', got {tag!r}")
    for idx, what in ((1, "format field"), (2, "format field"), (3, "source address")):
        _take(tokens, idx, line, what)
    _uint(*_take(tokens, 4, line, "source port"), "source port", MAX_PORT)
    _take(tokens, 5, line, "destination address")
    _take(tokens, 6, line, "destination port")
    _ufloat(*_take(tokens, 7, line, "receive timestamp"), "receive timestamp")
    delay_text, delay_off = _take(tokens, 8, line, "delay")
    delay_s = _ufloat(delay_text, delay_off, "delay")
    for idx in (9, 10):
        flags, flags_off = _take(tokens, idx, line, "status flags")
        if not flags.startswith("0X"):
            raise _fail(flags_off, f"expected hex status flags, got {flags!r}")
    return ReceiverRecord(_uint(*_take(tokens, 11, line, "serial"), "serial", MAX_SERIAL), delay_s)


# ---------------------------------------------------------------------------
# file parsing
# ---------------------------------------------------------------------------

class ParsedLog(NamedTuple):
    """The records of one log file as columns, plus the lines that failed.

    A sender log's columns are serial (``Q``), sent_at (``d``, the SNDP
    timestamp) and bytes (``H``); a receiver log's are serial and delay
    (``d``, seconds): the fields of a ``SenderRecord`` or ``ReceiverRecord``.
    Item ``i`` of each column is the ``i``-th record's, in file order.
    """

    columns: tuple[array, ...]
    malformed: list[tuple[int, MalformedLine]]

    @property
    def n_parsed(self) -> int:
        return len(self.columns[0])

    @property
    def n_malformed(self) -> int:
        return len(self.malformed)


# Canonical lines, matched on the raw bytes: printable-ASCII fields split
# by spaces or tabs.  Integer parts of at most 308 digits keep every time
# and delay below 10**308, so finite; serials, sizes and ports are
# range-checked a run at a time after the match.  A line that misses, and
# each line of a run that fails a check, goes to parse_*_line, the one
# source of MalformedLine texts and offsets.
# Only the newline that ends each alternative matches a line break, so a
# block of lines gives one match per line: a canonical line's values, or
# empty groups for any other line.
_TOKEN = rb"[!-~]+"
_SECONDS = rb"[0-9]{1,308}(?:\.[0-9]{1,308})?"


def _block_pattern(*fields: bytes) -> re.Pattern:
    return re.compile(rb"[ \t]*" + rb"[ \t]+".join(fields) + rb"[ \t]*\r?(?:\n|\Z)|[^\n]*\n|[^\n]+")


_SENDER_LINES = _block_pattern(
    rb"SNDP", _TOKEN, rb"([0-9]{1,308})", rb"-h", _TOKEN, rb"-p", _TOKEN,
    rb"-n", rb"([0-9]{1,5})", rb"-s", rb"([0-9]{1,20})",
)
_RECEIVER_LINES = _block_pattern(
    rb"RCDP", _TOKEN, _TOKEN, _TOKEN, rb"([0-9]{1,5})", _TOKEN, _TOKEN,
    _SECONDS, rb"(" + _SECONDS + rb")", rb"0X[!-~]*", rb"0X[!-~]*", rb"([0-9]{1,20})(?:[ \t]+" + _TOKEN + rb")*",
)


def _sender_columns(rows: list[tuple[bytes, ...]]) -> tuple[array, ...] | None:
    """``model.run_columns`` of canonical SNDP rows."""
    timestamps, nbytes, serials = zip(*rows)
    return model.run_columns(serials, timestamps, nbytes)


def _receiver_columns(rows: list[tuple[bytes, ...]]) -> tuple[array, ...] | None:
    """The serial and delay columns of canonical RCDP rows, or None if a
    source port or serial is out of range."""
    ports, delays, serials = zip(*rows)
    if max(map(int, set(ports))) > MAX_PORT:
        return None
    try:  # past 2**64 - 1 the column refuses the value
        return array("Q", map(int, serials)), array("d", map(float, delays))
    except OverflowError:
        return None


def _parse_file(raw: Iterable[bytes], lines_re: re.Pattern, typecodes: str, canonical_columns,
                parse_line) -> ParsedLog:
    """Parse ``raw`` a block of lines at a time into columns of ``typecodes``.

    Each run of canonical lines becomes columns at once through
    ``canonical_columns``.  Any other line, and each line of a run it
    refuses, goes alone through ``parse_line``, whose record is one value
    per column.
    """
    log = ParsedLog(tuple(map(array, typecodes)), [])

    def parse_alone(raw_line: bytes, lineno: int) -> None:
        line = raw_line.rstrip(b"\r\n").decode("utf-8", errors="surrogateescape")
        if not line.strip():
            return
        try:
            record = parse_line(line)
        except MalformedLine as exc:
            # without its traceback, which would keep the parser's frames and their lines alive
            log.malformed.append((lineno, exc.with_traceback(None)))
        else:
            for column, value in zip(log.columns, record):
                column.append(value)

    items, first = iter(raw), 1
    while block := list(islice(items, model._BLOCK_LINES)):
        rows = lines_re.findall(b"".join(block))
        if len(rows) != len(block):  # an item of raw was not one newline-ended line: each goes alone
            rows = [(b"",)] * len(block)
        start = 0
        for end in [i for i, row in enumerate(rows) if not row[0]] + [len(block)]:
            if start < end:
                run = canonical_columns(rows[start:end])
                if run is None:  # a value out of range: every line of the run goes alone
                    for i in range(start, end):
                        parse_alone(block[i], first + i)
                else:
                    for column, values in zip(log.columns, run):
                        column.extend(values)
            if end < len(block):
                parse_alone(block[end], first + end)
            start = end + 1
        first += len(block)
    return log


def parse_sender_file(raw: BinaryIO) -> ParsedLog:
    """Parse an SNDP log into serial, sent_at and bytes columns."""
    return _parse_file(raw, _SENDER_LINES, "QdH", _sender_columns, parse_sender_line)


def parse_receiver_file(raw: BinaryIO) -> ParsedLog:
    """Parse an RCDP log into serial and delay columns."""
    return _parse_file(raw, _RECEIVER_LINES, "Qd", _receiver_columns, parse_receiver_line)


# ---------------------------------------------------------------------------
# joining and pairing
# ---------------------------------------------------------------------------

class MatchResult(NamedTuple):
    """Delay samples joined on serial, with bookkeeping counters."""

    samples: Samples
    unmatched_sent: int
    unmatched_received: int
    duplicate_sent: int
    duplicate_received: int

    @property
    def matched(self) -> int:
        return len(self.samples)


def match_sessions(sent: ParsedLog, received: ParsedLog) -> MatchResult:
    """Join a sender and a receiver log on serial.

    Duplicate serials on either side resolve to the first occurrence;
    the surplus is counted.  Unmatched records are dropped and counted.
    Returned samples are sorted by send time, then serial.
    """
    serial, sent_at, _ = sent.columns
    received_serial, delay = received.columns
    # each serial's index of first occurrence
    first_sent = dict(zip(reversed(serial), reversed(range(len(serial)))))
    first_received = dict(zip(reversed(received_serial), reversed(range(len(received_serial)))))
    # in send order: the joined serials are unique, so (sent_at, serial) orders every row
    joined = first_sent.keys() & first_received.keys()
    rows = model.send_order(serial, sent_at, list(map(first_sent.__getitem__, joined)))
    samples = Samples()
    samples.serial, samples.sent_at, samples.bytes = (model.gather(column, rows) for column in sent.columns)
    samples.delay = model.gather(delay, list(map(first_received.__getitem__, samples.serial)))

    received_of_sent = sum(map(first_sent.__contains__, received_serial))  # records, duplicates included
    return MatchResult(
        samples=samples,
        unmatched_sent=len(first_sent) - len(rows),
        unmatched_received=len(received_serial) - received_of_sent,
        duplicate_sent=len(serial) - len(first_sent),
        duplicate_received=received_of_sent - len(rows),
    )


class PairResult(NamedTuple):
    """Probe pairs formed from two size classes, with leftovers counted."""

    pairs: Pairs
    unpaired_small: int
    unpaired_large: int
    other_sizes: int


def pair_by_size(
    samples: Samples | Iterable[DelaySample],
    w1: PacketSize,
    w2: PacketSize,
    window_s: float = DEFAULT_PAIR_WINDOW_S,
) -> PairResult:
    """Pair samples of the two size classes into probe pairs.

    Larges are taken in ``(sent_at, serial)`` order.  Each takes the
    unpaired small nearest in time within the closed window
    ``[t - window_s, t + window_s]``; at equal distance the earlier
    small wins.  No sample is used twice.  Apart from the sort, which
    samples already in strict send order skip, time per sample does not
    grow with how many probes share the window.
    """
    model.check_size_order(w1, w2)
    if not (model._finite(window_s) and window_s > 0):
        raise ValueError(f"window_s must be finite and > 0, got {model._shown(window_s)!r}")

    samples = Samples.of(samples)
    order = model.send_order(samples.serial, samples.sent_at, range(len(samples)))
    sizes = model.items(samples.bytes, order)
    smalls = list(compress(order, map(eq, sizes, repeat(w1.bytes))))
    larges = list(compress(order, map(eq, sizes, repeat(w2.bytes))))
    del sizes  # about 20 B a sample, not to be held through the loop
    other = len(order) - len(smalls) - len(larges)

    # Positions in `smalls` of the unpaired smalls sent at or before the
    # large wait in `left`; the nearest is the earliest at its latest
    # time, which only a tie with the one before it needs a search for.
    # Smalls taken as an earlier large's later candidate are a prefix of
    # those sent after this large, so smalls[nxt] is the first unpaired one.
    times = model.items(samples.sent_at, smalls)
    n_smalls = len(times)
    paired_small: list[int] = []
    paired_large: list[int] = []
    left: list[int] = []
    nxt = 0
    for large, t in zip(larges, model.items(samples.sent_at, larges)):
        while nxt < n_smalls and times[nxt] <= t:
            left.append(nxt)
            nxt += 1
        k = -1
        if left:
            latest = times[left[-1]]
            if latest >= t - window_s:
                k = len(left) - 1
                if k and times[left[k - 1]] == latest:
                    k = bisect_left(left, latest, key=times.__getitem__)
        if nxt < n_smalls and times[nxt] <= t + window_s and (k < 0 or times[nxt] - t < t - latest):
            paired_small.append(smalls[nxt])
            nxt += 1
        elif k >= 0:
            paired_small.append(smalls[left.pop(k)])
        else:
            continue
        paired_large.append(large)

    if not paired_large:
        raise NoPairsFound(
            f"no pairs of {w1.bytes}/{w2.bytes} bytes "
            f"({len(smalls)} small, {len(larges)} large samples)"
        )
    return PairResult(
        pairs=Pairs(samples, array("Q", paired_small), array("Q", paired_large), (w1.bytes, w2.bytes)),
        unpaired_small=len(smalls) - len(paired_large),
        unpaired_large=len(larges) - len(paired_large),
        other_sizes=other,
    )


# ---------------------------------------------------------------------------
# variable-delay rate estimation
# ---------------------------------------------------------------------------

def estimate_var_delay_rate(samples: Samples | Iterable[DelaySample]) -> float:
    """Variable-delay rate (1/s) from delays of a single size class.

    The smallest observed delay stands in for the fixed-delay floor, so
    the rate comes out as 1/(mean - min).  With few samples the floor
    is overestimated and the rate with it; feed enough samples that the
    minimum has stabilized.
    """
    samples = Samples.of(samples)
    delays = samples.delay
    sizes = set(samples.bytes)
    if len(sizes) > 1:
        raise MixedPacketSizes(f"rate estimation needs one size class, got {sorted(sizes)}")
    if len(delays) < 2:
        raise InsufficientData(f"need at least 2 samples, got {len(delays)}")
    floor = min(delays)
    spread = math.fsum(d - floor for d in delays) / len(delays)
    if spread <= 0:
        raise InsufficientData("delays show no variable part (mean equals minimum)")
    return 1.0 / spread
