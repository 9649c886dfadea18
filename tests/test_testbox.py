"""Log-line parsing, serial matching, and size-class pairing."""

import io
import math
import re
import time
import tracemalloc
from bisect import bisect_left, bisect_right
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from vpsband.errors import (
    InsufficientData,
    MalformedLine,
    MixedPacketSizes,
    NoPairsFound,
)
from vpsband import model, testbox
from vpsband.model import MAX_PORT, MAX_SERIAL, MAX_UDP_PAYLOAD, Delay, DelaySample, PacketSize, read_samples_csv
from vpsband.testbox import (
    ReceiverRecord,
    SenderRecord,
    estimate_var_delay_rate,
    match_sessions,
    pair_by_size,
    parse_receiver_file,
    parse_receiver_line,
    parse_sender_file,
    parse_sender_line,
)

from conftest import examples, log_rows, receiver_log, sender_log

SENDER_LINE = "SNDP 9 1263374005 -h tt01.ripe.net -p 6000 -n 1024 -s 1353080538"
RECEIVER_LINE = (
    "RCDP 12 2 89.186.245.200 55730 193.233.1.69 6000 "
    "1263374005.779364 0.009001 0X2107 0X2107 1353080554 0.000001 0.000001"
)


# Lines whose numbers overflowed or broke a later invariant instead of
# parsing as malformed: (line, text of the field at fault).
OUT_OF_RANGE_SENDER = {
    "timestamp-400-digits": (SENDER_LINE.replace("1263374005", "1" * 400), "1" * 400),  # float(int) overflowed
    "serial-2**64": (SENDER_LINE.replace("1353080538", str(2**64)), str(2**64)),  # DelaySample raised
    "size-70000": (SENDER_LINE.replace("-n 1024", "-n 70000"), "70000"),  # PacketSize raised
    "serial-5000-digits": (SENDER_LINE.replace("1353080538", "1" * 5000), "1" * 5000),  # int()'s digit limit
    "size-5000-digits": (SENDER_LINE.replace("6000 -n 1024", "6000 -n " + "1" * 5000), "1" * 5000),
}
OUT_OF_RANGE_RECEIVER = {  # ((old, new) in RECEIVER_LINE, text of the field at fault)
    "delay-400-digits": (("0.009001", "9" * 400), "9" * 400),  # Delay raised on inf
    "receive-time-400-digits": (("1263374005.779364", "9" * 400 + ".5"), "9" * 400 + ".5"),
    "serial-2**64": (("1353080554", str(2**64)), str(2**64)),
    "serial-5000-digits": (("1353080554", "1" * 5000), "1" * 5000),
    "port-5000-digits": (("55730", "1" * 5000), "1" * 5000),
    "port-65536": (("55730", "65536"), "65536"),
}


def sample(nbytes, delay_s, serial, sent_at):
    return DelaySample(
        packet_size=PacketSize(nbytes),
        delay=Delay(delay_s),
        serial=serial,
        sent_at=sent_at,
    )


# ---------------------------------------------------------------------------
# sender lines
# ---------------------------------------------------------------------------

def test_parse_sender_golden_line():
    rec = parse_sender_line(SENDER_LINE)
    assert rec == SenderRecord(serial=1353080538, timestamp=1263374005.0, packet_bytes=1024)


def test_sender_options_are_order_independent():
    rec = parse_sender_line("SNDP 9 77 -s 5 -n 100 -h a.example")
    assert rec == SenderRecord(serial=5, timestamp=77.0, packet_bytes=100)


def test_sender_unknown_options_are_carried_past():
    rec = parse_sender_line("SNDP 9 77 -h a -x whatever -n 100 -s 5")
    assert rec.packet_bytes == 100


def test_sender_duplicate_option_first_wins():
    rec = parse_sender_line("SNDP 9 77 -h a -n 100 -n 999 -s 5")
    assert rec.packet_bytes == 100


@pytest.mark.parametrize(
    "line,offset_of",
    [
        ("XNDP 9 77 -h a -n 100 -s 5", "XNDP"),       # wrong tag
        ("SNDP 9 x77 -h a -n 100 -s 5", "x77"),       # timestamp not an integer
        ("SNDP 9 77 -h a -n 1_2 -s 5", "1_2"),        # underscore is not a digit
        ("SNDP 9 77 -h a -n -5 -s 5", "-5 -s"),       # negative size rejected
        ("SNDP 9 77 -h a -n 0 -s 5", "0 -s"),         # zero size
        ("SNDP 9 77 -h a -n 100 -s 5x", "5x"),        # serial not an integer
        ("SNDP 9 77 -h a noflag 100 -s 5", "noflag"),  # option without dash
        ("SNDP 9 \u0661\u0662 -h a -n 100 -s 5", "\u0661"),   # Arabic-Indic digits
        ("SNDP 9 77 -h a -n 100 -s \uff15", "\uff15"),         # full-width digit
    ]
    + [pytest.param(*case, id=name) for name, case in OUT_OF_RANGE_SENDER.items()],
)
def test_sender_malformed_offsets_point_at_the_field(line, offset_of):
    with pytest.raises(MalformedLine) as exc_info:
        parse_sender_line(line)
    assert exc_info.value.offset == line.index(offset_of)


@pytest.mark.parametrize("line", ["", "SNDP", "SNDP 9", "SNDP 9 77", "SNDP 9 77 -h a -n 100"])
def test_sender_truncated_lines_fail_at_line_end(line):
    with pytest.raises(MalformedLine) as exc_info:
        parse_sender_line(line)
    assert exc_info.value.offset == len(line.encode())


def test_sender_offsets_count_utf8_bytes():
    # The accented host takes 10 bytes but 9 characters; the offset of the
    # bad serial must be the byte position.
    line = "SNDP 9 100 -h héllo.net -n 100 -s x"
    with pytest.raises(MalformedLine) as exc_info:
        parse_sender_line(line)
    assert exc_info.value.offset == len(line.encode()) - 1


# ---------------------------------------------------------------------------
# receiver lines
# ---------------------------------------------------------------------------

def test_parse_receiver_golden_line():
    rec = parse_receiver_line(RECEIVER_LINE)
    assert rec == ReceiverRecord(serial=1353080554, delay_s=0.009001)


@pytest.mark.parametrize(
    "mutation,bad",
    [
        (("RCDP", "RXDP"), "RXDP"),
        (("55730", "557a0"), "557a0"),
        (("0.009001", "-0.009001"), "-0.009001"),   # negative delay
        (("0.009001", "inf"), "inf"),
        (("0.009001", "1e-3"), "1e-3"),             # exponent form not allowed
        (("0X2107 0X2107", "2107 0X2107"), "2107 0X2107"),  # flags lost the 0X
        (("1353080554", "nope"), "nope"),
        (("55730", "557\u06630"), "557\u06630"),              # Arabic-Indic digit
        (("0.009001", "0.00\uff19001"), "0.00\uff19001"),     # full-width digit
    ]
    + [pytest.param(*case, id=name) for name, case in OUT_OF_RANGE_RECEIVER.items()],
)
def test_receiver_malformed_offsets_point_at_the_field(mutation, bad):
    old, new = mutation
    line = RECEIVER_LINE.replace(old, new, 1)
    with pytest.raises(MalformedLine) as exc_info:
        parse_receiver_line(line)
    assert exc_info.value.offset == line.index(bad.split()[0] if " " in bad else bad)


def test_receiver_truncated_line_fails_at_line_end():
    line = " ".join(RECEIVER_LINE.split()[:11])  # serial and beyond missing
    with pytest.raises(MalformedLine) as exc_info:
        parse_receiver_line(line)
    assert exc_info.value.offset == len(line.encode())


# ---------------------------------------------------------------------------
# parsing never raises anything but MalformedLine
# ---------------------------------------------------------------------------

@given(st.text(max_size=200))
@example(OUT_OF_RANGE_SENDER["timestamp-400-digits"][0])
@example(OUT_OF_RANGE_SENDER["serial-2**64"][0])
@example(OUT_OF_RANGE_SENDER["size-70000"][0])
@example(OUT_OF_RANGE_SENDER["serial-5000-digits"][0])
@example(OUT_OF_RANGE_SENDER["size-5000-digits"][0])
def test_sender_line_parsing_is_total(line):
    try:
        rec = parse_sender_line(line)
    except MalformedLine as exc:
        assert 0 <= exc.offset <= len(line.encode("utf-8", errors="replace"))
    else:
        assert 0 <= rec.serial <= MAX_SERIAL
        assert 1 <= rec.packet_bytes <= MAX_UDP_PAYLOAD
        assert math.isfinite(rec.timestamp)


@given(st.text(max_size=200))
@example(RECEIVER_LINE.replace(*OUT_OF_RANGE_RECEIVER["delay-400-digits"][0]))
@example(RECEIVER_LINE.replace(*OUT_OF_RANGE_RECEIVER["receive-time-400-digits"][0]))
@example(RECEIVER_LINE.replace(*OUT_OF_RANGE_RECEIVER["serial-2**64"][0]))
@example(RECEIVER_LINE.replace(*OUT_OF_RANGE_RECEIVER["serial-5000-digits"][0]))
@example(RECEIVER_LINE.replace(*OUT_OF_RANGE_RECEIVER["port-5000-digits"][0]))
@example(RECEIVER_LINE.replace(*OUT_OF_RANGE_RECEIVER["port-65536"][0]))
def test_receiver_line_parsing_is_total(line):
    try:
        rec = parse_receiver_line(line)
    except MalformedLine as exc:
        assert 0 <= exc.offset <= len(line.encode("utf-8", errors="replace"))
    else:
        tokens = [text for text, _ in testbox._tokenize(line)]  # the port and receive time are checked, not kept
        assert 0 <= rec.serial <= MAX_SERIAL
        assert 0 <= int(tokens[4]) <= MAX_PORT
        assert math.isfinite(rec.delay_s) and rec.delay_s >= 0
        assert math.isfinite(float(tokens[7]))


@pytest.mark.parametrize(
    "line,value",
    [
        (SENDER_LINE.replace("1353080538", str(MAX_SERIAL)), MAX_SERIAL),
        (SENDER_LINE.replace("1353080538", "0" * 5000 + "7"), 7),   # leading zeros are not range
        (SENDER_LINE.replace("1263374005", "1" + "0" * 308), 1e308),  # finite at 309 digits
    ],
    ids=["serial-max", "serial-5001-digits", "timestamp-309-digits"],
)
def test_numbers_at_their_bounds_still_parse(line, value):
    rec = parse_sender_line(line)
    assert value in (rec.serial, rec.timestamp)
    assert log_rows(parse_sender_file(io.BytesIO(line.encode()))) == [rec]


@given(st.binary(max_size=400))
@example(b"SNDP \xff x -h a -n 100 -s 5")
@example(b"\rSNDP 9 x -h a -n 100 -s 5")
@example(b"SNDP \xff\xff\xff")
def test_file_parsing_is_total_on_arbitrary_bytes(blob):
    parsed = parse_sender_file(io.BytesIO(blob))
    assert parsed.n_parsed + parsed.n_malformed <= blob.count(b"\n") + 1
    raw_lines = io.BytesIO(blob).readlines()
    for log in (parsed, parse_receiver_file(io.BytesIO(blob))):
        for lineno, exc in log.malformed:
            assert 0 <= exc.offset <= len(raw_lines[lineno - 1].rstrip(b"\r\n"))


@pytest.mark.parametrize(
    "line,offset",
    [
        (b"SNDP \xff x -h a -n 100 -s 5", 7),   # one undecodable byte before the bad timestamp
        (b"\rSNDP 9 x -h a -n 100 -s 5", 8),    # a leading carriage return is part of the line
        (b"SNDP \xff\xff\xff", 8),              # missing timestamp: the end of the 8-byte line
    ],
)
def test_file_offsets_index_the_raw_line_bytes(line, offset):
    for ending in (b"", b"\n", b"\r\n"):
        [(_, exc)] = parse_sender_file(io.BytesIO(line + ending)).malformed
        assert exc.offset == offset


# ---------------------------------------------------------------------------
# the tokenizer against its prefix-encoding formula
# ---------------------------------------------------------------------------

LINE_CHARACTERS = st.one_of(
    st.characters(codec="ascii"),
    st.sampled_from("\t \u00a0\u0085\u3000"),  # whitespace, ASCII and not
    st.characters(categories=["L"], min_codepoint=0x80),  # non-ASCII letters: 2, 3 and 4 bytes in UTF-8
    st.sampled_from("\u00e9\u4e2d\U0001f600"),
    st.integers(0xDC80, 0xDCFF).map(chr),  # undecodable bytes, as surrogateescape reads them
    st.integers(0xD800, 0xDFFF).map(chr),  # any lone surrogate
)


def _replaced(token):
    return re.sub(
        "[\udc80-\udcff]+",
        lambda m: m.group().encode("utf-8", errors="surrogateescape").decode("utf-8", errors="replace"),
        token,
    )


@settings(max_examples=examples(100), deadline=None)
@given(st.text(LINE_CHARACTERS, max_size=60))
@example("SNDP \udcff x\u00a0-h h\u00e9llo \ud800 \U0001f600 -s 5")
def test_tokenize_matches_the_prefix_encoding(line):
    # each token's offset is the byte length of the line before it, encoded as the file reader counts bytes
    expected = [
        (_replaced(m.group()), len(line[: m.start()].encode("utf-8", errors="replace")))
        for m in re.finditer(r"\S+", line)
    ]
    assert testbox._tokenize(line) == expected


def test_a_long_line_with_an_undecodable_byte_parses_in_linear_time():
    # Encoding the prefix before each token anew costs time in the square
    # of the line's length: 16x for a line 4x longer.  Linear is 4x.
    def best_s(n_tokens):
        blob = b"SNDP \xff " + b"x " * n_tokens
        runs = []
        for _ in range(3):
            start = time.perf_counter()
            [(_, exc)] = parse_sender_file(io.BytesIO(blob)).malformed
            runs.append(time.perf_counter() - start)
        assert exc.offset == 7  # the timestamp, after the 7 bytes "SNDP \xff "
        return min(runs)

    assert best_s(80_000) < 8 * best_s(20_000)


# ---------------------------------------------------------------------------
# the block parser against the line parsers
# ---------------------------------------------------------------------------

def reference_parse(blob, parse_line):
    """Every line through parse_line: what parse_*_file gave before its fast paths.

    Returns each record, which is its column values, and (lineno,
    message, offset) of each malformed line.
    """
    records, malformed = [], []
    for lineno, raw_line in enumerate(io.BytesIO(blob), start=1):
        line = raw_line.rstrip(b"\r\n").decode("utf-8", errors="surrogateescape")
        if not line.strip():
            continue
        try:
            records.append(parse_line(line))
        except MalformedLine as exc:
            malformed.append((lineno, str(exc), exc.offset))
    return records, malformed


# Digit runs at and past the fast path's bounds: 308 digits are always a
# finite float, 309 may or may not be.
BOUND_DIGITS = [b"9" * 308, b"9" * 309, b"1" + b"0" * 308, b"2" + b"0" * 308, b"0" * 308 + b"1", b"1" * 5000]
TIMESTAMPS = st.one_of(
    st.integers(0, 2**40).map(lambda n: str(n).encode()),
    st.sampled_from(BOUND_DIGITS + [b"12x", b"1.5", b"\xd9\xa1"]),
)
SECONDS = st.one_of(
    st.floats(0, 2e9).map(lambda x: f"{x:.6f}".encode()),
    st.sampled_from(BOUND_DIGITS + [b"9" * 308 + b"." + b"9" * 308, b"1." + b"0" * 400, b"5", b"-0.5", b"1e-3", b"inf"]),
)
SERIALS = st.one_of(
    st.integers(0, 2**64 + 5).map(lambda n: str(n).encode()),
    st.sampled_from([str(2**64 - 1).encode(), str(2**64).encode(), b"0" * 20 + b"5", b"1" * 5000, b"5x"]),
)
SIZES = st.sampled_from([b"0", b"1", b"100", b"1100", b"65507", b"65508", b"99999", b"100000", b"0100", b"-5"])
PORTS = st.sampled_from([b"6000", b"55730", b"0", b"65535", b"65536", b"99999", b"055730", b"port"])
HOSTS = st.sampled_from([b"tt146.example.net", "h\u00e9llo.net".encode(), b"\xff\xfe", b"a-b", b"-s", b"-n"])
FLAGS = st.sampled_from([b"0X2107", b"0X", b"2107", b"0x2107", "0X\u00e9".encode()])
TRAILING = st.sampled_from([b"0.000001", b"x", "\u00b5s".encode(), b"\xff"])
EXTRA_OPTIONS = st.sampled_from([(b"-x", b"whatever"), (b"-n", b"999"), (b"-s", b"1"), (b"nope", b"1")])
SEPARATORS = st.sampled_from([b" ", b"\t", b"  ", b" \t", b"\x0b", b"\x1c", "\u00a0".encode()])


@st.composite
def laid_out(draw, fields):
    """Fields joined into one raw line: canonical, or with mutated blanks and ending."""
    if draw(st.booleans()):
        return b" ".join(fields) + b"\n"
    seps = draw(st.lists(SEPARATORS, min_size=len(fields) - 1, max_size=len(fields) - 1))
    line = draw(st.sampled_from([b"", b" ", b"\t", b"\r"]))
    for field, sep in zip(fields, seps + [draw(st.sampled_from([b"", b" ", b"\t", b"\x0b"]))]):
        line += field + sep
    return line + draw(st.sampled_from([b"\n", b"\r\n", b"\r\r\n", b"", b"\r"]))


@st.composite
def sender_lines(draw):
    options = [(b"-h", draw(HOSTS)), (b"-p", draw(PORTS)), (b"-n", draw(SIZES)), (b"-s", draw(SERIALS))]
    if draw(st.booleans()):
        options = draw(st.permutations(options + draw(st.lists(EXTRA_OPTIONS, max_size=2))))
    fields = [b"SNDP", draw(st.sampled_from([b"9", b"x"])), draw(TIMESTAMPS)]
    fields += [part for option in options for part in option]
    if draw(st.integers(0, 7)) == 0:
        fields = fields[: draw(st.integers(1, len(fields) - 1))]
    return draw(laid_out(fields))


@st.composite
def receiver_lines(draw):
    fields = [
        b"RCDP", b"12", b"2", draw(st.sampled_from([b"89.186.245.200", "h\u00f4te".encode(), b"\xff"])),
        draw(PORTS), b"193.233.1.69", b"6000", draw(SECONDS), draw(SECONDS), draw(FLAGS), draw(FLAGS),
        draw(SERIALS),
    ] + draw(st.lists(TRAILING, max_size=3))
    if draw(st.integers(0, 7)) == 0:
        fields = fields[: draw(st.integers(1, len(fields) - 1))]
    return draw(laid_out(fields))


PARSERS = ((parse_sender_file, parse_sender_line), (parse_receiver_file, parse_receiver_line))


@settings(max_examples=examples(300), deadline=None)
@given(
    st.lists(st.one_of(sender_lines(), receiver_lines(), st.sampled_from([b"\n", b" \r\n"])), max_size=8)
    .flatmap(lambda lines: st.permutations(lines + lines[:2])),  # duplicated and reordered lines
    st.integers(1, 4),
)
@example([b"SNDP 9 77 -h a -p 6000 -n 100 -s 5\n", b"RCDP 12 2 a 1 b 2 3.5 0.01 0X1 0X1 5\n"], 1024)
@example([b"SNDP 9 77 -h a -p 6000 -n 65508 -s 5\n", b"SNDP 9 77 -h a -p 6000 -n 1 -s 18446744073709551616"], 1024)
@example([b"SNDP 9 77 -h a -p 6000 -n 100 -s 5\n"] * 3 + [b"SNDP 9 77 -h a -p 6000 -n 0 -s 6\n"], 2)
def test_file_parsing_matches_the_line_parsers(lines, block_lines):
    with mock.patch.object(model, "_BLOCK_LINES", block_lines):
        assert_file_parsing_matches_the_line_parsers(b"".join(lines))


def assert_file_parsing_matches_the_line_parsers(blob):
    for parse_file, parse_line in PARSERS:
        parsed = parse_file(io.BytesIO(blob))
        malformed = [(lineno, str(exc), exc.offset) for lineno, exc in parsed.malformed]
        assert (log_rows(parsed), malformed) == reference_parse(blob, parse_line)


# One field of a canonical line swapped for a value at or past a bound
# of the fast path: (text to replace, replacements).
SENDER_SWAPS = [
    (b"1263374005", BOUND_DIGITS),
    (b"1024", [b"0", b"1", b"65507", b"65508", b"0100", b"00000"]),
    (b"1353080538", [str(MAX_SERIAL).encode(), str(2**64).encode(), b"0" * 20 + b"5"]),
    (b"tt01.ripe.net", ["h\u00e9llo".encode(), b"\xff", b"-s"]),
    (b"-p", [b"-q", b"-n"]),
    (b"-s", [b"-x", b"-ss"]),
]
RECEIVER_SWAPS = [
    (b"55730", [b"0", b"65535", b"65536", b"055730", b"123456"]),
    (b"1263374005.779364", BOUND_DIGITS + [b"9" * 308 + b"." + b"9" * 308, b"1." + b"0" * 400]),
    (b"0.009001", BOUND_DIGITS + [b"1e-3", b"0.", b".5"]),
    (b"0X2107 0X2107", [b"0X 0X", b"0X2107 2107", b"0x2107 0X2107"]),
    (b"1353080554", [str(MAX_SERIAL).encode(), str(2**64).encode(), b"0" * 20 + b"5"]),
    (b"89.186.245.200", ["h\u00f4te".encode(), b"\xff"]),
    (b" 0.000001 0.000001", [b"", "\u00b5s".encode(), b" \xff", b" \x0b"]),
]
AT_THE_BOUNDS = [
    line.replace(old, new, 1)
    for line, swaps in ((SENDER_LINE.encode(), SENDER_SWAPS), (RECEIVER_LINE.encode(), RECEIVER_SWAPS))
    for old, news in swaps
    for new in news
]


@pytest.mark.parametrize("line", AT_THE_BOUNDS, ids=range(len(AT_THE_BOUNDS)))
def test_file_parsing_matches_the_line_parsers_at_the_bounds(line):
    for ending in (b"", b"\n", b"\r\n"):
        assert_file_parsing_matches_the_line_parsers(line + ending)


CANONICAL_SENDER = [
    SENDER_LINE.encode() + b"\n",
    b"SNDP\t9\t1263374005\t-h\ta\t-p\t6000\t-n\t1\t-s\t0\r\n",
    b"  SNDP 9 " + b"9" * 308 + b" -h -s -p -n -n 65507 -s " + str(MAX_SERIAL).encode() + b" \t\r\n",
    b"SNDP 9 0 -h a -p 1 -n 0100 -s 00000000000000000005",  # no final newline
]
CANONICAL_RECEIVER = [
    RECEIVER_LINE.encode() + b"\n",
    b"RCDP 12 2 89.186.245.200 55730 193.233.1.69 6000 1263374005.779364 0.009001 0X2107 0X2107 7\r\n",
    b"\tRCDP 1 2 a 65535 b c " + b"9" * 308 + b"." + b"9" * 308 + b" 0 0X 0X " + str(MAX_SERIAL).encode() + b"\n",
    b"RCDP 1 2 a 0 b c 5 0.5 0X1 0X1 5 x y z",
]


def test_canonical_lines_never_reach_the_line_parsers(monkeypatch):
    def unreachable(line):
        raise AssertionError(f"canonical line sent to the tokenizer: {line!r}")

    monkeypatch.setattr(testbox, "parse_sender_line", unreachable)
    monkeypatch.setattr(testbox, "parse_receiver_line", unreachable)
    for line in CANONICAL_SENDER:
        assert parse_sender_file(io.BytesIO(line)).n_parsed == 1
    for line in CANONICAL_RECEIVER:
        assert parse_receiver_file(io.BytesIO(line)).n_parsed == 1
    with pytest.raises(AssertionError, match="canonical line"):  # the patch is live
        parse_sender_file(io.BytesIO(b"SNDP 9 77 -s 5 -n 100 -h a\n"))


# Malformed lines canonical in shape but out of range; then those and one plainly malformed, per side.
OUT_OF_RANGE_CANONICAL = [
    SENDER_LINE.replace("-n 1024", "-n 0"),
    SENDER_LINE.replace("-n 1024", "-n 65508"),
    SENDER_LINE.replace("1353080538", str(2**64)),
    RECEIVER_LINE.replace("55730", "65536"),
    RECEIVER_LINE.replace("1353080554", str(2**64)),
]
OFF_THE_FAST_PATH = OUT_OF_RANGE_CANONICAL + [
    SENDER_LINE.replace("1263374005", "1263374005x"),
    RECEIVER_LINE.replace("0X2107 0X2107", "2107 0X2107"),
]


def assert_only_the_line_off_the_fast_path_takes_the_line_parser(bad, at, block_lines):
    # nine lines, the bad one at line `at`, parsed in blocks of `block_lines`
    sender = bad.startswith("SNDP")
    lines = [(SENDER_LINE if sender else RECEIVER_LINE).replace("13530805", str(10 + i)) for i in range(9)]
    lines[at] = bad
    blob = "\n".join(lines).encode()
    parse_file, parse_line = PARSERS[0 if sender else 1]
    name = parse_line.__name__
    with mock.patch.object(model, "_BLOCK_LINES", block_lines), \
            mock.patch.object(testbox, name, wraps=parse_line) as line_parser:
        parsed = parse_file(io.BytesIO(blob))
    if bad in OUT_OF_RANGE_CANONICAL:  # the fast path refuses the run, its block: each line goes alone
        start = at - at % block_lines
        assert line_parser.call_args_list == list(map(mock.call, lines[start:start + block_lines]))
    else:
        assert line_parser.call_args_list == [mock.call(bad)]
    malformed = [(lineno, str(exc), exc.offset) for lineno, exc in parsed.malformed]
    assert (log_rows(parsed), malformed) == reference_parse(blob, parse_line)
    assert [lineno for lineno, _ in parsed.malformed] == [at + 1]


@pytest.mark.parametrize("block_lines", [1, 4, 1024])
@pytest.mark.parametrize("at", [0, 3, 4, 8])
@pytest.mark.parametrize("bad", OFF_THE_FAST_PATH)
def test_only_the_line_off_the_fast_path_takes_the_line_parser(bad, at, block_lines):
    # the bad line first, last, or just before or after a block edge
    assert_only_the_line_off_the_fast_path_takes_the_line_parser(bad, at, block_lines)


@pytest.mark.parametrize("bad", OFF_THE_FAST_PATH)
@settings(max_examples=examples(30), deadline=None)
@given(at=st.integers(0, 8), block_lines=st.integers(1, 1024))
def test_only_the_line_off_the_fast_path_takes_the_line_parser_anywhere(bad, at, block_lines):
    # the bad line anywhere, in blocks of any size
    assert_only_the_line_off_the_fast_path_takes_the_line_parser(bad, at, block_lines)


def test_items_that_are_not_whole_lines_parse_one_by_one():
    # an iterable of lines without their newlines, which joined would run together
    lines = [SENDER_LINE.replace("1353080538", str(i)).encode() for i in range(5)]
    lines[2] = b"SNDP 9"
    with mock.patch.object(model, "_BLOCK_LINES", 4):
        parsed = parse_sender_file(lines)
    blob = b"\n".join(lines)
    malformed = [(lineno, str(exc), exc.offset) for lineno, exc in parsed.malformed]
    assert (log_rows(parsed), malformed) == reference_parse(blob, parse_sender_line)


@pytest.mark.parametrize("block_lines, chunk_chars", [(1, 1), (4, 24), (4, 46), (1024, model._CHUNK_CHARS)])
def test_log_readers_take_blocks_of_lines_and_the_samples_reader_chunks_cut_at_line_ends(block_lines, chunk_chars):
    n = 10
    log = b"".join(SENDER_LINE.replace("1353080538", str(i)).encode() + b"\n" for i in range(n))
    csv_rows = [f"forward,{i},1.5,100,0.01\n" for i in range(n)]  # 23 characters each
    csv_text = "direction,serial,sent_at,bytes,delay_s\n" + "".join(csv_rows)
    with mock.patch.object(model, "_BLOCK_LINES", block_lines), mock.patch.object(model, "_CHUNK_CHARS", chunk_chars), \
            mock.patch.object(testbox, "_sender_columns", wraps=testbox._sender_columns) as log_runs, \
            mock.patch.object(model, "_canonical_columns", wraps=model._canonical_columns) as csv_chunks:
        assert parse_sender_file(io.BytesIO(log)).n_parsed == len(read_samples_csv(io.StringIO(csv_text))) == n
    blocks = [min(block_lines, n - start) for start in range(0, n, block_lines)]
    assert [len(rows) for (rows,), _ in log_runs.call_args_list] == blocks
    # each chunk is a read of chunk_chars characters and the rest of the row it cut
    chunks = [chunk for (chunk,), _ in csv_chunks.call_args_list]
    assert "".join(chunks) == "".join(csv_rows)
    per_chunk = -(-chunk_chars // len(csv_rows[0]))
    assert [chunk.count("\n") for chunk in chunks] == [min(per_chunk, n - start) for start in range(0, n, per_chunk)]


def test_malformed_lines_hold_no_traceback_and_parsing_little_memory():
    # 10**4 lines, 1% malformed.  A kept traceback would hold the parser's
    # frames, and through them lines of the log, for as long as the log.
    n = 10_000
    lines = [f"SNDP 9 {1263374005 + i // 10} -h tt146.example.net -p 6000 -n {100 + 1000 * (i % 2)} -s {i}\n"
             for i in range(n)]
    lines[::100] = ["SNDP 9\n"] * (n // 100)
    raw = io.BytesIO("".join(lines).encode())
    tracemalloc.start()
    try:
        parsed = parse_sender_file(raw)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (parsed.n_parsed, parsed.n_malformed) == (n - n // 100, n // 100)
    assert all(exc.__traceback__ is None for _, exc in parsed.malformed)
    assert peak / n <= 100  # bytes per line


# ---------------------------------------------------------------------------
# file-level parsing and the bundled logs
# ---------------------------------------------------------------------------

def test_parse_sender_file_counts(data_dir):
    with open(data_dir / "sender.log", "rb") as fp:
        parsed = parse_sender_file(fp)
    assert parsed.n_parsed == 4
    assert parsed.n_malformed == 0


def test_parse_file_collects_malformed_lines_with_numbers():
    blob = b"SNDP 9 77 -h a -n 100 -s 5\n\ngarbage\nSNDP 9 77 -h a -n 100 -s 6\n"
    parsed = parse_sender_file(io.BytesIO(blob))
    assert parsed.n_parsed == 2
    assert [lineno for lineno, _ in parsed.malformed] == [3]


def test_match_bundled_logs(data_dir):
    with open(data_dir / "sender.log", "rb") as fp:
        sent = parse_sender_file(fp)
    with open(data_dir / "receiver.log", "rb") as fp:
        received = parse_receiver_file(fp)

    result = match_sessions(sent, received)
    assert result.matched == 2
    assert result.unmatched_sent == 2
    assert result.unmatched_received == 0
    assert result.duplicate_sent == 0
    assert result.duplicate_received == 1  # second 1353080554 discarded

    by_serial = {s.serial: s for s in result.samples}
    assert by_serial[1353080554].delay.seconds == 0.009001  # first occurrence kept
    assert by_serial[1353080554].packet_size.bytes == 100
    assert by_serial[1353091581].delay.seconds == 0.027033
    assert by_serial[1353091581].packet_size.bytes == 1100


def test_bundled_logs_chain_to_a_delay_difference(data_dir):
    with open(data_dir / "sender.log", "rb") as fp:
        sent = parse_sender_file(fp)
    with open(data_dir / "receiver.log", "rb") as fp:
        received = parse_receiver_file(fp)
    matched = match_sessions(sent, received)
    paired = pair_by_size(matched.samples, PacketSize(100), PacketSize(1100))
    assert len(paired.pairs) == 1
    assert paired.pairs[0].delay_diff_s == pytest.approx(0.018032, abs=1e-12)


def test_match_counts_duplicate_sent():
    sent = sender_log([
        SenderRecord(serial=1, timestamp=10.0, packet_bytes=100),
        SenderRecord(serial=1, timestamp=11.0, packet_bytes=100),
    ])
    received = receiver_log([ReceiverRecord(serial=1, delay_s=0.01)])
    result = match_sessions(sent, received)
    assert result.duplicate_sent == 1
    assert result.matched == 1
    assert result.samples[0].sent_at == 10.0  # first occurrence kept


def test_match_sorts_samples_by_send_time():
    sent = sender_log([
        SenderRecord(serial=2, timestamp=20.0, packet_bytes=100),
        SenderRecord(serial=1, timestamp=10.0, packet_bytes=100),
    ])
    received = receiver_log([
        ReceiverRecord(serial=2, delay_s=0.01),
        ReceiverRecord(serial=1, delay_s=0.01),
    ])
    result = match_sessions(sent, received)
    assert [s.serial for s in result.samples] == [1, 2]


def test_match_breaks_send_time_ties_by_serial():
    # whole-second sender stamps: four probes share one sent_at, and the
    # receiver logs them in reverse
    sent = sender_log([SenderRecord(serial=s, timestamp=10.0, packet_bytes=100) for s in (1, 2, 3, 4)])
    received = receiver_log([ReceiverRecord(serial=s, delay_s=0.01) for s in (4, 3, 2, 1)])
    result = match_sessions(sent, received)
    assert [s.serial for s in result.samples] == [1, 2, 3, 4]


@pytest.mark.parametrize(
    "order",
    [
        [0, 1, 2, 3, 4, 5],  # a sender log in send order, whole-second stamps shared
        [0, 1, 3, 2, 4, 5],  # two serials swapped within one second
        [2, 3, 0, 1, 4, 5],  # a second logged late
    ],
)
def test_match_puts_every_log_in_send_order(order):
    sent = sender_log([SenderRecord(serial=s, timestamp=10.0 + s // 2, packet_bytes=100) for s in order])
    received = receiver_log([ReceiverRecord(s, 0.01 * s) for s in (5, 4, 3, 2, 1, 0)])
    result = match_sessions(sent, received)
    assert [(s.serial, s.delay.seconds) for s in result.samples] == [(s, 0.01 * s) for s in range(6)]


# ---------------------------------------------------------------------------
# pairing
# ---------------------------------------------------------------------------

W1, W2 = PacketSize(100), PacketSize(1100)


def test_nearest_pairing_picks_closest_small():
    samples = [
        sample(100, 0.010, serial=1, sent_at=0.0),
        sample(100, 0.011, serial=3, sent_at=10.0),
        sample(1100, 0.020, serial=2, sent_at=9.0),
    ]
    result = pair_by_size(samples, W1, W2)
    assert len(result.pairs) == 1
    assert result.pairs[0].small.serial == 3
    assert result.unpaired_small == 1
    assert result.unpaired_large == 0


def test_nearest_pairing_tie_goes_to_earlier_small():
    samples = [
        sample(100, 0.010, serial=1, sent_at=4.0),
        sample(100, 0.011, serial=3, sent_at=6.0),
        sample(1100, 0.020, serial=2, sent_at=5.0),
    ]
    result = pair_by_size(samples, W1, W2)
    assert result.pairs[0].small.serial == 1


def test_nearest_pairing_never_reuses_a_small():
    samples = [
        sample(100, 0.010, serial=1, sent_at=0.0),
        sample(1100, 0.020, serial=2, sent_at=1.0),
        sample(1100, 0.021, serial=4, sent_at=2.0),
    ]
    result = pair_by_size(samples, W1, W2)
    assert len(result.pairs) == 1
    assert result.unpaired_large == 1


def test_nearest_pairing_respects_window():
    samples = [
        sample(100, 0.010, serial=1, sent_at=0.0),
        sample(1100, 0.020, serial=2, sent_at=120.0),
    ]
    with pytest.raises(NoPairsFound):
        pair_by_size(samples, W1, W2, window_s=60.0)
    result = pair_by_size(samples, W1, W2, window_s=200.0)
    assert len(result.pairs) == 1


def serials(result):
    return [(p.small.serial, p.large.serial) for p in result.pairs]


# The edge tests below use dyadic times and windows, so every t - window,
# t + window and distance is exact in floating point.

def test_pairing_window_is_closed_at_both_ends():
    samples = [
        sample(100, 0.010, serial=1, sent_at=1.5),
        sample(1100, 0.020, serial=2, sent_at=2.0),
        sample(1100, 0.021, serial=3, sent_at=2.0),
        sample(100, 0.011, serial=4, sent_at=2.5),
    ]
    result = pair_by_size(samples, W1, W2, window_s=0.5)
    assert serials(result) == [(1, 2), (4, 3)]


def test_pairing_equal_time_smalls_go_to_the_lowest_serial():
    samples = [
        sample(100, 0.010, serial=7, sent_at=1.0),
        sample(100, 0.011, serial=5, sent_at=1.0),
        sample(1100, 0.020, serial=6, sent_at=1.25),
        sample(100, 0.012, serial=9, sent_at=3.0),
        sample(100, 0.013, serial=8, sent_at=3.0),
        sample(1100, 0.021, serial=4, sent_at=2.75),
    ]
    result = pair_by_size(samples, W1, W2)
    assert serials(result) == [(5, 6), (8, 4)]


def test_pairing_never_offers_a_later_small_twice():
    # the first large takes the small after it; that small is nearest to
    # the second large too, but is gone
    samples = [
        sample(100, 0.010, serial=1, sent_at=0.0),
        sample(1100, 0.020, serial=2, sent_at=1.0),
        sample(100, 0.011, serial=3, sent_at=1.25),
        sample(1100, 0.021, serial=4, sent_at=1.5),
        sample(100, 0.012, serial=5, sent_at=3.5),
    ]
    result = pair_by_size(samples, W1, W2)
    assert serials(result) == [(3, 2), (1, 4)]
    assert result.unpaired_small == 1


def test_pairing_takes_the_latest_small_before_a_large_where_rounded_distances_tie():
    # 1.0 - 1e-300 == 1.0 - 0.0, so a rescan that compares rounded distances
    # keeps serial 1; the rule goes by send order, where serial 2 is nearer
    samples = [
        sample(100, 0.010, serial=1, sent_at=0.0),
        sample(100, 0.011, serial=2, sent_at=1e-300),
        sample(1100, 0.020, serial=3, sent_at=1.0),
    ]
    result = pair_by_size(samples, W1, W2, window_s=1.0)
    assert serials(result) == [(2, 3)]


def rescan_pairs(samples, w1, w2, window_s):
    """The nearest-in-time rule as a windowed rescan: the reference for pair_by_size.

    For each large in (sent_at, serial) order, scan every small in the
    closed window in ascending order and keep the first at the smallest
    distance.  Quadratic in density, but plainly the rule.
    """
    ordered = sorted(samples, key=lambda s: (s.sent_at, s.serial))
    smalls = [s for s in ordered if s.packet_size == w1]
    larges = [s for s in ordered if s.packet_size == w2]
    times = [s.sent_at for s in smalls]
    taken = [False] * len(smalls)
    pairs = []
    for large in larges:
        lo = bisect_left(times, large.sent_at - window_s)
        hi = bisect_right(times, large.sent_at + window_s)
        best, best_dt = -1, 0.0
        for k in range(lo, hi):
            dt = abs(times[k] - large.sent_at)
            if not taken[k] and (best < 0 or dt < best_dt):
                best, best_dt = k, dt
        if best >= 0:
            taken[best] = True
            pairs.append((smalls[best], large))
    other = len(ordered) - len(smalls) - len(larges)
    return pairs, len(smalls) - len(pairs), len(larges) - len(pairs), other


EPOCH_US = 1263374005_779364

# (time of grid tick k, grid step in seconds).  Windows are whole steps,
# so window edges fall on grid times: exactly on the dyadic grids, and
# to within rounding on epoch microseconds, as in parsed logs.
GRIDS = {
    "whole seconds": (float, 1.0),
    "eighths": (lambda k: k / 8, 0.125),
    "epoch microseconds": (lambda k: (EPOCH_US + k) / 1e6, 1e-6),
}


PAIR_SIZES = st.sampled_from([100, 1100, 512])
# (grid tick, size, serial) rows, in the order the samples are given
ANY_ROWS = st.lists(st.tuples(st.integers(0, 40), PAIR_SIZES, st.integers(0, 5)), max_size=40)
# distinct ticks in rising order: already in send order, so the sort is skipped
SENT_ORDER_ROWS = st.lists(
    st.tuples(st.integers(0, 80), PAIR_SIZES, st.integers(0, 5)), max_size=40, unique_by=lambda row: row[0]
).map(sorted)
# runs of smalls and larges on shared ticks: a large finds several unpaired
# smalls at the latest time, and takes the earliest of them
TIED_ROWS = st.lists(
    st.tuples(st.integers(0, 20), st.integers(0, 4), st.integers(0, 2), st.integers(0, 5)), max_size=12
).map(lambda runs: [
    (tick, nbytes, serial + k)
    for tick, n_small, n_large, serial in runs
    for nbytes, n in ((100, n_small), (1100, n_large))
    for k in range(n)
])


@settings(max_examples=examples(300), deadline=None)
@given(
    grid=st.sampled_from(sorted(GRIDS)),
    rows=st.one_of(ANY_ROWS, SENT_ORDER_ROWS, TIED_ROWS),
    window_steps=st.integers(1, 12),
)
def test_pairing_matches_the_windowed_rescan(grid, rows, window_steps):
    at, step = GRIDS[grid]
    window_s = window_steps * step
    samples = [
        sample(nbytes, 0.001 * (i + 1), serial=serial, sent_at=at(tick))
        for i, (tick, nbytes, serial) in enumerate(rows)
    ]
    pairs, unpaired_small, unpaired_large, other = rescan_pairs(samples, W1, W2, window_s)
    if not pairs:
        with pytest.raises(NoPairsFound):
            pair_by_size(samples, W1, W2, window_s=window_s)
        return
    result = pair_by_size(samples, W1, W2, window_s=window_s)
    assert [(p.small, p.large) for p in result.pairs] == pairs
    assert (result.unpaired_small, result.unpaired_large, result.other_sizes) == (
        unpaired_small, unpaired_large, other)


def dense_samples(n, seed=7):
    """n probes at 1000 pkt/s, sizes alternating, 10% lost, all inside one 60 s window."""
    rng = np.random.default_rng(seed)
    kept = np.flatnonzero(rng.random(n) >= 0.1)
    return [
        sample(100 if i % 2 == 0 else 1100, 0.01, serial=int(i), sent_at=(EPOCH_US + 1000 * int(i)) / 1e6)
        for i in kept
    ]


def test_pairing_time_per_sample_does_not_grow_with_density():
    # A windowed rescan costs time per sample in proportion to the probes
    # in the window: 8x more probes in the window cost ~6x more per sample.
    # The pairing rule needs none of that, so allow 3x for timer noise.
    # CPU time of this process, which other processes' load does not stretch.
    def best_us_per_sample(samples):
        runs = []
        for _ in range(3):
            start = time.process_time()
            pair_by_size(samples, W1, W2)
            runs.append(time.process_time() - start)
        return min(runs) / len(samples) * 1e6

    small, large = dense_samples(2_000), dense_samples(16_000)
    assert best_us_per_sample(large) <= 3 * best_us_per_sample(small)


def test_pairing_counts_other_sizes():
    samples = [
        sample(100, 0.010, serial=1, sent_at=0.0),
        sample(1100, 0.020, serial=2, sent_at=1.0),
        sample(512, 0.015, serial=3, sent_at=2.0),
    ]
    result = pair_by_size(samples, W1, W2)
    assert result.other_sizes == 1


def test_pairing_validates_inputs():
    samples = [sample(100, 0.010, serial=1, sent_at=0.0)]
    with pytest.raises(ValueError, match="w1 must be smaller"):
        pair_by_size(samples, W2, W1)
    for window_s in (0.0, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="window_s"):
            pair_by_size(samples, W1, W2, window_s=window_s)


def test_pairing_raises_when_nothing_pairs():
    with pytest.raises(NoPairsFound, match="0 small, 1 large"):
        pair_by_size([sample(1100, 0.02, serial=2, sent_at=0.0)], W1, W2)


# ---------------------------------------------------------------------------
# variable-delay rate estimation
# ---------------------------------------------------------------------------

def test_rate_estimate_recovers_synthetic_rate():
    rng = np.random.default_rng(1)
    fixed = 0.009
    delays = fixed + rng.exponential(1e-3, size=5000)
    samples = [sample(100, float(d), serial=i, sent_at=float(i)) for i, d in enumerate(delays)]
    assert estimate_var_delay_rate(samples) == pytest.approx(1000.0, rel=0.05)


def test_rate_estimate_rejects_mixed_sizes():
    samples = [
        sample(100, 0.010, serial=1, sent_at=0.0),
        sample(1100, 0.011, serial=2, sent_at=1.0),
    ]
    with pytest.raises(MixedPacketSizes):
        estimate_var_delay_rate(samples)
    with pytest.raises(MixedPacketSizes):
        estimate_var_delay_rate(s for s in samples)  # read once


def test_rate_estimate_needs_spread_and_samples():
    with pytest.raises(InsufficientData, match="at least 2"):
        estimate_var_delay_rate([sample(100, 0.010, serial=1, sent_at=0.0)])
    constant = [sample(100, 0.010, serial=i, sent_at=float(i)) for i in range(5)]
    with pytest.raises(InsufficientData, match="no variable part"):
        estimate_var_delay_rate(constant)


def test_rate_estimate_sees_a_variable_part_below_the_rounding_of_a_summed_mean():
    # sum / n rounds below the minimum, 0.7; each excess over it is exact
    step = 10 * math.ulp(0.7)
    delays = [0.7] * 32 + [0.7 + step]
    samples = [sample(100, d, serial=i, sent_at=float(i)) for i, d in enumerate(delays)]
    assert estimate_var_delay_rate(samples) == 33 / step
