"""Core value types, unit conventions, and sample serialization.

Unit conventions, used package-wide:

- packet sizes are UDP payload bytes (IP/UDP headers excluded);
- delays are seconds;
- bandwidth is bit/s, displayed as Mbit/s with two decimals.

Byte-to-bit conversion happens in exactly one place (``bytes_to_bits``)
so the factor of 8 cannot be applied twice.

``_Value`` is the package's one way to declare a checked value: the
value types here and the configs of ``planner``, ``simulate`` and
``prober`` are slotted classes on it, which gives them what a frozen
dataclass would.  Importing ``dataclasses`` and compiling the methods it
writes per class took half the time of ``import vpsband.cli``.  Results
that check nothing are named tuples.  The package's two number checks are
``_finite``, for a real, and ``_whole``, for a count; a refusal formats the
number it was given through ``_shown``.
"""

from __future__ import annotations

import io
import itertools
import math
import re
import sys
from array import array
from operator import itemgetter, lt
from typing import Iterable, Iterator, Sequence, TextIO

BITS_PER_BYTE = 8
MAX_UDP_PAYLOAD = 65507          # 65535 - 8 UDP - 20 IP
MAX_UNFRAGMENTED_PAYLOAD = 1472  # 1500 MTU - 20 IP - 8 UDP

SAMPLE_CSV_FIELDS = ("direction", "serial", "sent_at", "bytes", "delay_s")
SAMPLE_DIRECTION = "forward"  # the only value of the direction column; round trips too
MAX_SERIAL = 2**64 - 1
MAX_PORT = 65535


def bytes_to_bits(n_bytes: float) -> float:
    """Convert a byte count (or byte difference) to bits."""
    return BITS_PER_BYTE * n_bytes


def _finite(x: float) -> bool:
    """Whether ``x`` is a finite number: not a bool, nor an int past float range."""
    try:
        return not isinstance(x, bool) and math.isfinite(x)
    except OverflowError:
        return False


def _whole(x: int) -> bool:
    """Whether ``x`` is a count: an ``int`` that is not a ``bool``."""
    return isinstance(x, int) and not isinstance(x, bool)


class _Digits(str):
    """Text standing for an int too long to format; ``repr`` gives the text unquoted."""

    __slots__ = ()
    __repr__ = str.__str__


def _shown(x):
    """``x`` for a refusal to format, or, for an int past ``sys.get_int_max_str_digits()``,
    which ``str`` and ``repr`` refuse, text giving its digit count."""
    try:
        repr(x)
    except ValueError:  # such an int
        size = abs(x)
        digits = int((size.bit_length() - 1) * math.log10(2)) - 1  # at most its digit count
        while 10**digits <= size:
            digits += 1
        return _Digits(f"{'a negative' if x < 0 else 'an'} int of {digits} digits")
    return x


class _Value:
    """Base of the immutable value types; each subclass names the fields it adds in ``__slots__``.

    Equality, hash and ``repr`` are over the fields, in order, as for a
    frozen dataclass.  Assignment and deletion raise AttributeError, and
    copies and pickles are made through ``__init__``, which checks them.
    """

    __slots__ = ()

    def __init_subclass__(cls):
        # the fields of every class in the line, base first, as a dataclass subclass inherits them
        cls.__match_args__ = tuple(name for c in reversed(cls.__mro__) for name in c.__dict__.get("__slots__", ()))

    def _assign(self, *values) -> None:
        """Set the fields, in order, to ``values``: the last step of each ``__init__``."""
        for name, value in zip(self.__match_args__, values, strict=True):
            object.__setattr__(self, name, value)

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__match_args__])

    def __eq__(self, other):
        return self._values() == other._values() if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join([f"{name}={getattr(self, name)!r}" for name in self.__match_args__])
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return self.__class__, self._values()


# ---------------------------------------------------------------------------
# scalar wrappers
# ---------------------------------------------------------------------------

class PacketSize(_Value):
    """Probe packet payload size in bytes."""

    __slots__ = ("bytes",)

    def __init__(self, bytes: int):
        if not _whole(bytes):
            raise ValueError(f"packet size must be an integer byte count, got {_shown(bytes)!r}")
        if not 1 <= bytes <= MAX_UDP_PAYLOAD:
            raise ValueError(f"packet size must be in [1, {MAX_UDP_PAYLOAD}] bytes, got {_shown(bytes)}")
        self._assign(bytes)


def check_size_order(w1: PacketSize, w2: PacketSize) -> None:
    """Refuse a size pair whose large probe is not larger: the one rule under 8*(w2 - w1)/diff."""
    if w1.bytes >= w2.bytes:
        raise ValueError(f"w1 must be smaller than w2, got {w1.bytes} >= {w2.bytes}")


class Delay(_Value):
    """One-way or round-trip delay in seconds."""

    __slots__ = ("seconds",)

    def __init__(self, seconds: float):
        if not _finite(seconds) or seconds < 0:
            raise ValueError(f"delay must be finite and >= 0 s, got {_shown(seconds)!r}")
        self._assign(seconds)


class Bandwidth(_Value):
    """A bandwidth in bit/s."""

    __slots__ = ("bits_per_second",)

    def __init__(self, bits_per_second: float):
        if not _finite(bits_per_second) or bits_per_second <= 0:
            raise ValueError(f"bandwidth must be finite and > 0 bit/s, got {_shown(bits_per_second)!r}")
        self._assign(bits_per_second)

    @property
    def mbps(self) -> float:
        return self.bits_per_second / 1e6

    def __str__(self) -> str:
        return f"{self.mbps:.2f} Mbit/s"


# ---------------------------------------------------------------------------
# measurement records
# ---------------------------------------------------------------------------

class DelaySample(_Value):
    """One delay measurement of one probe packet; ``sent_at`` is in seconds since the epoch."""

    __slots__ = ("packet_size", "delay", "serial", "sent_at")

    def __init__(self, packet_size: PacketSize, delay: Delay, serial: int, sent_at: float):
        if not _whole(serial) or not 0 <= serial <= MAX_SERIAL:
            raise ValueError(f"serial must fit an unsigned 64-bit integer, got {_shown(serial)!r}")
        if not _finite(sent_at):
            raise ValueError(f"sent_at must be finite, got {_shown(sent_at)!r}")
        self._assign(packet_size, delay, serial, sent_at)


class ProbePair(_Value):
    """A small-packet and a large-packet sample measured close in time."""

    __slots__ = ("small", "large")

    def __init__(self, small: DelaySample, large: DelaySample):
        check_size_order(small.packet_size, large.packet_size)
        self._assign(small, large)

    @property
    def delay_diff_s(self) -> float:
        return self.large.delay.seconds - self.small.delay.seconds


# ---------------------------------------------------------------------------
# samples and pairs as columns
# ---------------------------------------------------------------------------

def send_order(serial: Sequence[int], sent_at: Sequence[float], indices: Sequence[int]) -> Sequence[int]:
    """``indices`` in ``(sent_at, serial)`` order of the two columns; ties keep their order.

    Indices along which ``sent_at`` strictly rises are in that order already,
    and come back as they are.
    """
    times = items(sent_at, indices)
    if all(map(lt, times, itertools.islice(times, 1, None))):
        return indices
    order = sorted(indices, key=serial.__getitem__)
    order.sort(key=sent_at.__getitem__)
    return order


def items(column: Sequence, indices: Sequence[int]) -> tuple | list:
    """``column[i]`` for each of ``indices`` in turn, each boxed once, for loops to index."""
    if indices == range(len(column)):  # every item in turn, with no index to look up
        return tuple(column)
    # itemgetter of one index gives its item bare, and of none is an error
    return itemgetter(*indices)(column) if len(indices) > 1 else [column[i] for i in indices]


def gather(column: array, indices: Sequence[int]) -> array:
    """``column[i]`` for each of ``indices`` in turn, as a column of ``column``'s type."""
    return array(column.typecode, items(column, indices))


class Samples:
    """Delay samples held as four ``array.array`` columns, one entry per sample.

    ``serial`` (``Q``), ``sent_at`` (``d``), ``bytes`` (``H``) and
    ``delay`` (``d``, seconds) hold about 26 bytes per sample and no
    object the garbage collector tracks.  Item ``i``, and each item in
    turn when iterated, is a :class:`DelaySample` built when asked for.
    """

    __slots__ = ("serial", "sent_at", "bytes", "delay")

    def __init__(self):
        self.serial = array("Q")
        self.sent_at = array("d")
        self.bytes = array("H")
        self.delay = array("d")

    @classmethod
    def of(cls, samples: Samples | Iterable[DelaySample]) -> Samples:
        """``samples`` as they are if they are columns already, else the columns
        of the ``DelaySample`` objects, whose constructor checked their values."""
        if isinstance(samples, cls):
            return samples
        out = cls()
        for s in samples:
            out.append(s)
        return out

    def append(self, sample: DelaySample) -> None:
        """Add one sample, as its ``DelaySample`` view, whose constructor checked its values."""
        self.serial.append(sample.serial)  # the view refused whatever a column would, so the four stay one length
        self.sent_at.append(sample.sent_at)
        self.bytes.append(sample.packet_size.bytes)
        self.delay.append(sample.delay.seconds)

    def columns(self) -> tuple[array, array, array, array]:
        """The serial, sent_at, bytes and delay columns, in that order."""
        return self.serial, self.sent_at, self.bytes, self.delay

    def __len__(self) -> int:
        return len(self.serial)

    def __getitem__(self, i: int) -> DelaySample:
        return DelaySample(PacketSize(self.bytes[i]), Delay(self.delay[i]), self.serial[i], self.sent_at[i])


class Pairs:
    """Probe pairs as two index columns into one :class:`Samples`.

    Pair ``i``, and each pair in turn when iterated, is the
    :class:`ProbePair` of ``samples[small[i]]`` and ``samples[large[i]]``,
    built when asked for.  A slice is the :class:`Pairs` of those pairs
    over the same ``samples``, with the same ``sizes``.

    ``sizes`` is the small and the large payload in bytes that every
    pair holds, as the producer that paired them by those sizes states
    it, or None when nobody stated it.  Nothing checks stated sizes
    against the samples: whoever states them answers for them.
    """

    __slots__ = ("samples", "small", "large", "sizes")

    def __init__(self, samples: Samples, small: array, large: array, sizes: tuple[int, int] | None = None):
        self.samples = samples
        self.small = small
        self.large = large
        self.sizes = sizes

    @classmethod
    def of(cls, pairs: Pairs | Iterable[ProbePair]) -> Pairs:
        """``pairs`` as they are if they are columns already, else their columns."""
        if isinstance(pairs, cls):
            return pairs
        return cls.interleaved(Samples.of(s for pair in pairs for s in (pair.small, pair.large)))

    @classmethod
    def interleaved(cls, samples: Samples, sizes: tuple[int, int] | None = None) -> Pairs:
        """The pairs of samples 0 and 1, 2 and 3, and so on: each small followed by its large."""
        return cls(samples, array("Q", range(0, len(samples), 2)), array("Q", range(1, len(samples), 2)), sizes)

    def __len__(self) -> int:
        return len(self.small)

    def __getitem__(self, i: int | slice) -> ProbePair | Pairs:
        if isinstance(i, slice):
            return Pairs(self.samples, self.small[i], self.large[i], self.sizes)
        return ProbePair(self.samples[self.small[i]], self.samples[self.large[i]])


# ---------------------------------------------------------------------------
# path description
# ---------------------------------------------------------------------------

class Hop(_Value):
    """One link of a path: capacity plus its size-independent delay."""

    __slots__ = ("capacity", "propagation_delay")

    def __init__(self, capacity: Bandwidth, propagation_delay: Delay):
        self._assign(capacity, propagation_delay)


class PathModel(_Value):
    """Multi-hop path with exponentially distributed variable delay.

    ``var_delay_rate`` is the rate (1/s) of the exponential queueing
    delay, i.e. the inverse of its mean.
    """

    __slots__ = ("hops", "var_delay_rate")

    def __init__(self, hops: tuple[Hop, ...], var_delay_rate: float):
        if len(hops) < 1:
            raise ValueError("path needs at least one hop")
        if not _finite(var_delay_rate) or var_delay_rate <= 0:
            raise ValueError(f"var_delay_rate must be > 0 per second, got {_shown(var_delay_rate)!r}")
        self._assign(hops, var_delay_rate)


# ---------------------------------------------------------------------------
# estimation result
# ---------------------------------------------------------------------------

class BandwidthEstimate(_Value):
    """Batched two-size bandwidth estimate with its spread.

    ``sd_bps`` and ``relative_error`` are absent when only one batch was
    available; ``sd_bps`` is the spread of the batch bandwidth estimates,
    while ``relative_error`` is the spread of the batch delay differences
    over their mean — the convention used by the planner's reference
    error table.
    """

    __slots__ = ("value", "n_pairs", "sd_bps", "relative_error", "mean_delay_diff_s")

    def __init__(self, value: Bandwidth, n_pairs: int, sd_bps: float | None, relative_error: float | None,
                 mean_delay_diff_s: float):
        if not _whole(n_pairs) or n_pairs < 1:
            raise ValueError("an estimate must use at least one pair")
        if sd_bps is not None and (not _finite(sd_bps) or sd_bps < 0):
            raise ValueError(f"sd_bps must be finite and >= 0, got {_shown(sd_bps)!r}")
        if (sd_bps is None) != (relative_error is None):
            raise ValueError("sd_bps and relative_error must be absent together")
        self._assign(value, n_pairs, sd_bps, relative_error, mean_delay_diff_s)

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


_INT_TEXT = re.compile(r"\s*([+-]?)0*([0-9]+)\s*", re.ASCII)


def ascii_int(text: str, what: str, top: int | None = None) -> int:
    """``ascii_number(text, int)``, naming ``what`` where ``int()``'s digit limit stops it.

    Unsigned digits that, leading zeros aside, outnumber ``top``'s are reported as above ``top``.
    """
    try:
        return ascii_number(text, int)
    except ValueError:
        m = _INT_TEXT.fullmatch(text)
        if m is None:  # malformed, not too long: ascii_number's own message
            raise
        sign, digits = m.groups()
        if top is not None and sign != "-" and len(digits) > len(str(top)):
            raise ValueError(f"{what} must be at most {top}") from None
        raise ValueError(f"{what} must have at most {sys.get_int_max_str_digits()} digits") from None


def sample_from_row(row: list[str]) -> DelaySample:
    """A CSV row's sample, its fields parsed and checked in the view's order: size,
    delay, serial, sent_at, so a row bad in two fields fails on the first of them."""
    direction, serial, sent_at, nbytes, delay_s = row
    if direction != SAMPLE_DIRECTION:
        raise ValueError(f"direction must be {SAMPLE_DIRECTION!r}, got {direction!r}")
    return DelaySample(PacketSize(ascii_int(nbytes, "packet size", MAX_UDP_PAYLOAD)), Delay(ascii_number(delay_s)),
                       ascii_int(serial, "serial", MAX_SERIAL), ascii_number(sent_at))


_SAMPLE_ROW = SAMPLE_DIRECTION + ",%d,%.6f,%d,%s\r\n"


def write_samples_csv(samples: Samples | Iterable[DelaySample], fp: TextIO) -> None:
    """Write samples in the package CSV format, header included.

    No field ever needs quoting, so rows are formatted by hand, a block
    at a time, and ended with CRLF as ``csv.writer`` ends them.  Each
    delay is written as :func:`format_delay_s` writes it.
    """
    samples = Samples.of(samples)
    fp.write(",".join(SAMPLE_CSV_FIELDS) + "\r\n")
    serial, sent_at, nbytes, delay = samples.columns()
    for start in range(0, len(samples), _BLOCK_LINES):
        block = slice(start, start + _BLOCK_LINES)
        serials, delays = serial[block], delay[block]
        delay_text = map(str.rstrip, ("%.9f\n" * len(delays) % tuple(delays)).split(), itertools.repeat("0"))
        rows = zip(serials, sent_at[block], nbytes[block], delay_text)
        text = _SAMPLE_ROW * len(serials) % tuple(itertools.chain.from_iterable(rows))
        # sent_at always has six decimals, so only a delay trimmed to its point ends a row in "."
        fp.write(text.replace(".\r\n", ".0\r\n"))


# Canonical rows, as write_samples_csv writes them, are read a chunk of
# about _CHUNK_CHARS characters at a time, ended at a line end.  A chunk
# is checked by its skeleton: its ASCII bytes with every digit deleted
# and "\r\n" read as "\n", which canonical rows make _ROW_SKELETON once
# each.  So each field but the direction is digits, with a "." in
# sent_at and the delay, and each row ends in "\r\n" or "\n" (or, last
# in the file, in a lone "\r" or nothing).  A digit in a direction
# vanishes from the skeleton, so the directions are compared too.  A
# header other than the canonical one, or a chunk that fails the check,
# holds an empty number (int() and float() refuse it), a serial or size
# out of range, or an integer part of 309 digits or more (which reads as
# inf), goes from its first line with the rest of the file to the
# csv.reader route, the one source of messages.  A row holds four commas
# and no line break, so the chunk's fields, split at commas and at each
# "\n", fall five to a row; float() strips the "\r" left on a delay.
_HEADER_LINE = re.compile(",".join(SAMPLE_CSV_FIELDS) + r"(?:\r?\n)?")
_ROW_SKELETON = (SAMPLE_DIRECTION + ",,.,,.\n").encode()
_CHUNK_CHARS = 1 << 16  # characters per read of the samples CSV reader
_BLOCK_LINES = 1024  # lines per block of the samples CSV writer and the log readers of testbox


def run_columns(serials: Sequence, sent_at: Sequence, nbytes: Sequence) -> tuple[array, array, array] | None:
    """The serial, sent_at and bytes columns of a run of canonical texts (``str``
    or ``bytes``), or None if a serial or size is out of range."""
    sizes = {text: int(text) for text in set(nbytes)}  # a capture holds few distinct sizes
    if not all(1 <= size <= MAX_UDP_PAYLOAD for size in sizes.values()):
        return None
    try:  # past 2**64 - 1 the column refuses the value
        serials = array("Q", map(int, serials))
    except OverflowError:
        return None
    return serials, array("d", map(float, sent_at)), array("H", map(sizes.__getitem__, nbytes))


def _canonical_columns(chunk: str) -> tuple[array, array, array, array] | None:
    """The serial, sent_at, bytes and delay columns of ``chunk``'s lines, or None
    if a line is not a canonical row or holds a serial, size, time or delay out of range."""
    if not chunk.isascii():
        return None
    data = chunk.encode("ascii")
    skeleton = data.translate(None, b"0123456789").replace(b"\r\n", b"\n")
    if not skeleton.endswith(b"\n"):  # the file's last row, ended by a lone "\r" or by nothing
        skeleton = skeleton.removesuffix(b"\r") + b"\n"
    rows = len(skeleton) // len(_ROW_SKELETON)
    if skeleton != _ROW_SKELETON * rows:
        return None
    fields = data.replace(b"\n", b",").split(b",")
    if fields[0::5].count(SAMPLE_DIRECTION.encode()) != rows:
        return None
    try:  # an empty number, or a serial or size past int()'s digit limit
        columns = run_columns(fields[1::5], fields[2::5], fields[3::5])
        delays = array("d", map(float, fields[4::5]))
    except ValueError:
        return None
    if columns is None or math.inf in (max(columns[1]), max(delays)):
        return None
    return *columns, delays


def read_samples_csv(fp: TextIO) -> Samples:
    """Read samples written by :func:`write_samples_csv`.

    ``fp`` reads universal newlines (a file opened with ``newline=""``, as for
    ``csv.reader``) or ends its lines at ``"\n"`` alone (an ``io.StringIO``).
    Raises ValueError with the offending line number on a bad header or row.
    """
    samples = Samples()
    chunk, lineno = fp.readline(), 1
    if _HEADER_LINE.fullmatch(chunk):
        lineno = 2
        while chunk := fp.read(_CHUNK_CHARS):
            if not chunk.endswith("\n"):
                chunk += fp.readline()  # the rest of the line the read cut
            columns = _canonical_columns(chunk)
            if columns is None:
                break
            for column, values in zip(samples.columns(), columns):
                column.extend(values)
            lineno += len(columns[0])
        else:
            return samples
    # the refused text's lines as iterating fp gives them: a stream that reads
    # universal newlines, the one kind that also ends a line at a lone "\r",
    # has set fp.newlines by the time it has read one
    lines = io.StringIO(chunk, newline="" if fp.newlines else "\n")
    _read_csv_rows(itertools.chain(lines, fp), lineno, samples)
    return samples


def _read_csv_rows(lines: Iterable[str], first: int, samples: Samples) -> None:
    """Append to ``samples`` the rows of ``lines``, the file from its line ``first`` on.

    Line ``first`` is the header when ``first`` is 1.  Every line before
    it was one record, so line numbers carry on from ``first``.
    """
    import csv  # the reference reader's alone: canonical rows never reach it
    offset = first - 1
    reader = csv.reader(_without_nul(lines, first))
    try:
        if first == 1:
            header = next(reader, None)
            if header != list(SAMPLE_CSV_FIELDS):
                raise ValueError(f"line 1: expected header {','.join(SAMPLE_CSV_FIELDS)!r}, got {header!r}")
            first = 2
        for lineno, row in enumerate(reader, start=first):
            if not row:
                continue
            if len(row) != len(SAMPLE_CSV_FIELDS):
                raise ValueError(f"line {lineno}: expected {len(SAMPLE_CSV_FIELDS)} fields, got {len(row)}")
            try:
                samples.append(sample_from_row(row))
            except ValueError as exc:
                raise ValueError(f"line {lineno}: {exc}") from exc
    except csv.Error as exc:
        raise ValueError(f"line {offset + reader.line_num}: {exc}") from exc


def _without_nul(lines: Iterable[str], first: int) -> Iterator[str]:
    """``lines``, the file's from its line ``first`` on, up to the first that holds a NUL,
    which is refused as ``csv`` refuses it on Python 3.10; from 3.11 on it reads NUL as text."""
    for lineno, line in enumerate(lines, start=first):
        if "\0" in line:
            raise ValueError(f"line {lineno}: line contains NUL")
        yield line
