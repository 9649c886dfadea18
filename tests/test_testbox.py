"""Log-line parsing, serial matching, and size-class pairing."""

import io

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from vpsband.errors import (
    InsufficientData,
    MalformedLine,
    MixedPacketSizes,
    NoPairsFound,
)
from vpsband.model import Delay, DelaySample, PacketSize
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

SENDER_LINE = "SNDP 9 1263374005 -h tt01.ripe.net -p 6000 -n 1024 -s 1353080538"
RECEIVER_LINE = (
    "RCDP 12 2 89.186.245.200 55730 193.233.1.69 6000 "
    "1263374005.779364 0.009001 0X2107 0X2107 1353080554 0.000001 0.000001"
)


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
    assert rec == SenderRecord(
        serial=1353080538,
        host="tt01.ripe.net",
        packet_bytes=1024,
        timestamp=1263374005.0,
    )


def test_sender_options_are_order_independent():
    rec = parse_sender_line("SNDP 9 77 -s 5 -n 100 -h a.example")
    assert rec == SenderRecord(serial=5, host="a.example", packet_bytes=100, timestamp=77.0)


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
    ],
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
    assert rec == ReceiverRecord(
        serial=1353080554,
        delay_s=0.009001,
        src_addr=("89.186.245.200", 55730),
        received_at=1263374005.779364,
    )


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
    ],
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
def test_sender_line_parsing_is_total(line):
    try:
        rec = parse_sender_line(line)
    except MalformedLine as exc:
        assert 0 <= exc.offset <= len(line.encode("utf-8", errors="replace"))
    else:
        assert rec.serial >= 0


@given(st.text(max_size=200))
def test_receiver_line_parsing_is_total(line):
    try:
        rec = parse_receiver_line(line)
    except MalformedLine as exc:
        assert 0 <= exc.offset <= len(line.encode("utf-8", errors="replace"))
    else:
        assert rec.delay_s >= 0


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
        sent = parse_sender_file(fp).records
    with open(data_dir / "receiver.log", "rb") as fp:
        received = parse_receiver_file(fp).records

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
        sent = parse_sender_file(fp).records
    with open(data_dir / "receiver.log", "rb") as fp:
        received = parse_receiver_file(fp).records
    matched = match_sessions(sent, received)
    paired = pair_by_size(matched.samples, PacketSize(100), PacketSize(1100))
    assert len(paired.pairs) == 1
    assert paired.pairs[0].delay_diff_s == pytest.approx(0.018032, abs=1e-12)


def test_match_counts_duplicate_sent():
    sent = [
        SenderRecord(serial=1, host="a", packet_bytes=100, timestamp=10.0),
        SenderRecord(serial=1, host="a", packet_bytes=100, timestamp=11.0),
    ]
    received = [ReceiverRecord(serial=1, delay_s=0.01, src_addr=("1.2.3.4", 1), received_at=10.5)]
    result = match_sessions(sent, received)
    assert result.duplicate_sent == 1
    assert result.matched == 1
    assert result.samples[0].sent_at == 10.0  # first occurrence kept


def test_match_sorts_samples_by_send_time():
    sent = [
        SenderRecord(serial=2, host="a", packet_bytes=100, timestamp=20.0),
        SenderRecord(serial=1, host="a", packet_bytes=100, timestamp=10.0),
    ]
    received = [
        ReceiverRecord(serial=2, delay_s=0.01, src_addr=("1.2.3.4", 1), received_at=20.5),
        ReceiverRecord(serial=1, delay_s=0.01, src_addr=("1.2.3.4", 1), received_at=10.5),
    ]
    result = match_sessions(sent, received)
    assert [s.serial for s in result.samples] == [1, 2]


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


def test_sequential_pairing_zips_in_send_order():
    samples = [
        sample(1100, 0.020, serial=4, sent_at=3.0),
        sample(100, 0.010, serial=1, sent_at=0.0),
        sample(1100, 0.021, serial=2, sent_at=1.0),
        sample(100, 0.011, serial=3, sent_at=2.0),
    ]
    result = pair_by_size(samples, W1, W2, policy="sequential")
    assert [(p.small.serial, p.large.serial) for p in result.pairs] == [(1, 2), (3, 4)]


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
    with pytest.raises(ValueError, match="unknown policy"):
        pair_by_size(samples, W1, W2, policy="eager")
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
