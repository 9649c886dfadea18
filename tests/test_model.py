"""Value-type validation and sample serialization round trips."""

import argparse
import csv
import io
import math
import sys
from decimal import Decimal
from typing import Callable, NamedTuple
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from vpsband import cli, estimator, model, prober, simulate, testbox
from vpsband.errors import InvalidQuery, NonPositiveDelayDifference, ZeroPrecision
from vpsband.model import (
    Bandwidth,
    BandwidthEstimate,
    Delay,
    DelaySample,
    Hop,
    MAX_PORT,
    MAX_SERIAL,
    MAX_UDP_PAYLOAD,
    SAMPLE_CSV_FIELDS,
    PacketSize,
    PathModel,
    ProbePair,
    Samples,
    bytes_to_bits,
    format_delay_s,
    read_samples_csv,
    sample_from_row,
    write_samples_csv,
)
from vpsband.planner import PlanQuery
from vpsband.simulate import _MAX_UNIT_DRAW

import object_pipeline
from conftest import csv_module_text, examples, make_pair, reference_sim_config, sample_row


def row_round_trip(sample: DelaySample) -> DelaySample:
    """``sample`` written as a CSV row and read back."""
    return sample_from_row(sample_row(sample))


def test_bytes_to_bits():
    assert bytes_to_bits(1000) == 8000
    assert bytes_to_bits(1) == 8
    assert bytes_to_bits(0.5) == 4.0


class TestPacketSize:
    def test_accepts_full_udp_range(self):
        assert PacketSize(1).bytes == 1
        assert PacketSize(MAX_UDP_PAYLOAD).bytes == MAX_UDP_PAYLOAD

    @pytest.mark.parametrize("bad", [0, -1, MAX_UDP_PAYLOAD + 1])
    def test_rejects_out_of_range(self, bad):
        with pytest.raises(ValueError):
            PacketSize(bad)

    @pytest.mark.parametrize("bad", [100.0, "100", True, None])
    def test_rejects_non_integers(self, bad):
        with pytest.raises(ValueError):
            PacketSize(bad)


class TestDelay:
    @pytest.mark.parametrize("bad", [-1e-9, float("nan"), float("inf")])
    def test_rejects_negative_and_non_finite(self, bad):
        with pytest.raises(ValueError):
            Delay(bad)

    def test_zero_is_fine(self):
        assert Delay(0.0).seconds == 0.0


class TestBandwidth:
    def test_mbps_and_str(self):
        bw = Bandwidth(9_815_950.92)
        assert bw.mbps == pytest.approx(9.81595092)
        assert str(bw) == "9.82 Mbit/s"

    @pytest.mark.parametrize("bad", [0.0, -10.0, float("inf"), float("nan")])
    def test_rejects_non_positive(self, bad):
        with pytest.raises(ValueError):
            Bandwidth(bad)


class TestProbePair:
    def test_diff_properties(self):
        pair = make_pair(0.009001, 0.009816)
        assert pair.delay_diff_s == pytest.approx(0.000815)

    def test_rejects_equal_or_inverted_sizes(self):
        sample = DelaySample(PacketSize(500), Delay(0.01), serial=1, sent_at=0.0)
        with pytest.raises(ValueError, match="w1 must be smaller than w2, got 500 >= 500"):
            ProbePair(small=sample, large=sample)


SIZE_ORDER_CALLERS = {
    "ProbePair": lambda w1, w2: ProbePair(DelaySample(w1, Delay(0.01), 1, 0.0), DelaySample(w2, Delay(0.02), 2, 0.0)),
    "pair_by_size": lambda w1, w2: testbox.pair_by_size(Samples(), w1, w2),
    "ProbeConfig": lambda w1, w2: prober.ProbeConfig("127.0.0.1", 6000, w1, w2),
    "SimConfig": lambda w1, w2: reference_sim_config(seed=0, packet_sizes=(w1, w2)),
    "upper_measurable_bandwidth": lambda w1, w2: estimator.upper_measurable_bandwidth(w1, w2, 1e-6, 0.1),
    "estimate-flags": lambda w1, w2: cli._flag_sizes(argparse.Namespace(w1=w1.bytes, w2=w2.bytes)),
}


@pytest.mark.parametrize("sizes", [(1100, 100), (100, 100)], ids=["inverted", "equal"])
@pytest.mark.parametrize("caller", SIZE_ORDER_CALLERS.values(), ids=SIZE_ORDER_CALLERS.keys())
def test_every_caller_refuses_unordered_sizes_in_one_message(caller, sizes):
    w1, w2 = map(PacketSize, sizes)
    with pytest.raises((ValueError, argparse.ArgumentError)) as refused:
        caller(w1, w2)
    assert str(refused.value) == f"w1 must be smaller than w2, got {w1.bytes} >= {w2.bytes}"


class TestPathModel:
    def test_needs_a_hop(self):
        with pytest.raises(ValueError, match="at least one hop"):
            PathModel(hops=(), var_delay_rate=1000.0)

    def test_needs_positive_rate(self):
        hop = Hop(Bandwidth(10e6), Delay(0.0))
        with pytest.raises(ValueError, match="var_delay_rate"):
            PathModel(hops=(hop,), var_delay_rate=0.0)


class TestBandwidthEstimate:
    def test_sd_and_relative_error_absent_together(self):
        with pytest.raises(ValueError, match="absent together"):
            BandwidthEstimate(
                value=Bandwidth(1e6),
                n_pairs=10,
                sd_bps=1e5,
                relative_error=None,
                mean_delay_diff_s=8e-4,
            )

    @pytest.mark.parametrize(
        "n_pairs,sd_bps,message",
        [
            (0, None, "an estimate must use at least one pair"),
            (10, -1.0, "sd_bps must be finite and >= 0, got -1.0"),
            (10, float("nan"), "sd_bps must be finite and >= 0, got nan"),
        ],
    )
    def test_refuses_no_pairs_and_a_bad_spread(self, n_pairs, sd_bps, message):
        with pytest.raises(ValueError) as refused:
            BandwidthEstimate(
                value=Bandwidth(1e6),
                n_pairs=n_pairs,
                sd_bps=sd_bps,
                relative_error=None if sd_bps is None else 0.1,
                mean_delay_diff_s=8e-4,
            )
        assert str(refused.value) == message

    def test_json_keys_and_mbps_rounding(self):
        est = BandwidthEstimate(
            value=Bandwidth(9_815_950.92),
            n_pairs=1,
            sd_bps=None,
            relative_error=None,
            mean_delay_diff_s=0.000815,
        )
        d = est.to_json_dict()
        assert list(d) == ["bps", "mbps", "n_pairs", "sd_bps", "relative_error", "mean_delay_diff_s"]
        assert d["mbps"] == 9.82
        assert d["sd_bps"] is None


HOP = Hop(Bandwidth(10e6), Delay(0.0))

# each finiteness check, with what it raises; ``{bad!r}`` is the refused value
FINITE_CHECKS = {
    "Delay": (Delay, ValueError, "delay must be finite and >= 0 s, got {bad!r}"),
    "sent_at": (lambda x: DelaySample(PacketSize(100), Delay(0.01), 1, x), ValueError,
                "sent_at must be finite, got {bad!r}"),
    "Bandwidth": (Bandwidth, ValueError, "bandwidth must be finite and > 0 bit/s, got {bad!r}"),
    "PathModel": (lambda x: PathModel((HOP,), x), ValueError, "var_delay_rate must be > 0 per second, got {bad!r}"),
    "BandwidthEstimate": (lambda x: BandwidthEstimate(Bandwidth(1e6), 10, x, 0.1, 8e-4), ValueError,
                          "sd_bps must be finite and >= 0, got {bad!r}"),
    "PlanQuery-rate": (lambda x: PlanQuery(x, 8e-4, 0.244), InvalidQuery,
                       "var_delay_rate must be > 0 per second, got {bad!r}"),
    "PlanQuery-diff": (lambda x: PlanQuery(1000.0, x, 0.244), InvalidQuery,
                       "mean_delay_diff_s must be > 0 s, got {bad!r}"),
    "PlanQuery-target": (lambda x: PlanQuery(1000.0, 8e-4, x), InvalidQuery,
                         "target_error must be in (0, 1), got {bad!r}"),
    "ProbeConfig-spacing": (lambda x: prober.ProbeConfig("127.0.0.1", 6000, spacing_s=x), ValueError,
                            "spacing_s and timeout_s must be finite and > 0"),
    "ProbeConfig-timeout": (lambda x: prober.ProbeConfig("127.0.0.1", 6000, timeout_s=x), ValueError,
                            "spacing_s and timeout_s must be finite and > 0"),
}


@pytest.mark.parametrize("bad", [True, False, 10**400, -(10**400)], ids=["True", "False", "10**400", "-10**400"])
@pytest.mark.parametrize("check", FINITE_CHECKS.values(), ids=FINITE_CHECKS.keys())
def test_finiteness_checks_refuse_a_bool_and_an_int_past_float_range_in_their_own_words(check, bad):
    build, error, message = check
    with pytest.raises(error) as refused:
        build(bad)
    assert type(refused.value) is error
    assert str(refused.value) == message.format(bad=bad)


def is_count(x) -> bool:
    return type(x) is int


def is_finite_real(x) -> bool:
    try:
        return type(x) in (int, float) and math.isfinite(float(x))
    except OverflowError:
        return False


def shown(x) -> str:
    """``x`` as a refusal shows it: its repr, or an int too long for ``repr`` by its digit
    count, counted here through ``Decimal``, which the int digit limit does not bind."""
    if is_count(x) and abs(x) >= 10 ** sys.get_int_max_str_digits():
        return f"{'a negative' if x < 0 else 'an'} int of {Decimal(abs(x)).adjusted() + 1} digits"
    return repr(x)


SIM = reference_sim_config(seed=0, n_trials=20)
RATE = SIM.path.var_delay_rate
LARGEST_DRAW = _MAX_UNIT_DRAW / RATE
FOUR_PAIRS = simulate.simulate_pairs(reference_sim_config(seed=0, n_pairs=4, n_trials=2))
SIM_TEXT = "capacity_bps = 10e6\nvar_delay_rate = 1000\nw1_bytes = 100\nw2_bytes = 1100\nns = {x}\n"


class NumberCheck(NamedTuple):
    """A caller-given number's check: the call, what it raises, the refusal of ``x`` (None if
    accepted) as the site's predicate and bound state it, and an in-range int it accepts."""

    call: Callable
    error: type
    refusal: Callable
    in_range: int


NUMBER_CHECKS = {
    "PacketSize": NumberCheck(
        PacketSize, ValueError,
        lambda x: (f"packet size must be an integer byte count, got {shown(x)}" if not is_count(x)
                   else None if 1 <= x <= MAX_UDP_PAYLOAD
                   else f"packet size must be in [1, {MAX_UDP_PAYLOAD}] bytes, got {shown(x)}"),
        100),
    "serial": NumberCheck(
        lambda x: DelaySample(PacketSize(100), Delay(0.01), x, 0.0), ValueError,
        lambda x: (None if is_count(x) and 0 <= x <= MAX_SERIAL
                   else f"serial must fit an unsigned 64-bit integer, got {shown(x)}"),
        MAX_SERIAL),
    "BandwidthEstimate-n_pairs": NumberCheck(
        lambda x: BandwidthEstimate(Bandwidth(1e6), x, None, None, 8e-4), ValueError,
        lambda x: None if is_count(x) and x >= 1 else "an estimate must use at least one pair", 1),
    "SimConfig-n_pairs": NumberCheck(
        lambda x: reference_sim_config(n_pairs=x), ValueError,
        lambda x: None if is_count(x) and x >= 1 else f"n_pairs must be >= 1, got {shown(x)}", 1),
    "SimConfig-n_trials": NumberCheck(
        lambda x: reference_sim_config(n_trials=x), ValueError,
        lambda x: (f"n_trials must be >= 1, got {shown(x)}" if not (is_count(x) and x >= 1)
                   else None if is_finite_real(x) and is_finite_real(4 * LARGEST_DRAW * LARGEST_DRAW * x)
                   else f"var_delay_rate {RATE!r} per second is too small for {shown(x)} trials: delay draws "
                        f"reach {LARGEST_DRAW!r} s, and their spread passes float range"),
        10**300),
    "SimConfig-seed": NumberCheck(
        lambda x: reference_sim_config(seed=x), ValueError,
        lambda x: None if is_count(x) and x >= 0 else f"seed must be >= 0, got {shown(x)}", 0),
    "ProbeConfig-port": NumberCheck(
        lambda x: prober.ProbeConfig("127.0.0.1", x), ValueError,
        lambda x: (None if is_count(x) and 1 <= x <= MAX_PORT
                   else f"port must be in [1, {MAX_PORT}], got {shown(x)}"),
        1),
    "ProbeConfig-count": NumberCheck(
        lambda x: prober.ProbeConfig("127.0.0.1", 6000, count=x), ValueError,
        lambda x: None if is_count(x) and x >= 0 else f"count must be >= 0, got {shown(x)}", 0),
    "estimate_batch": NumberCheck(
        lambda x: estimator.estimate_batch(FOUR_PAIRS, x), ValueError,
        lambda x: None if is_count(x) and x >= 1 else f"batch_size must be >= 1, got {shown(x)}", 2),
    "sd_of_delay_diff": NumberCheck(
        lambda x: simulate.sd_of_delay_diff(SIM, x), ValueError,
        lambda x: (f"n must be >= 2 pairs, got {shown(x)}" if not (is_count(x) and x >= 2)
                   else None if is_finite_real(x) and is_finite_real(x * RATE)
                   else f"n times var_delay_rate {RATE!r} per second must be a finite float"),
        2),
    "relative_error-precision": NumberCheck(
        lambda x: estimator.relative_error(x, 1e-3), ValueError,
        lambda x: (None if is_finite_real(x) and x >= 0
                   else f"precision must be finite and >= 0 s, got {shown(x)}"),
        0),
    "relative_error-diff": NumberCheck(
        lambda x: estimator.relative_error(1e-6, x), NonPositiveDelayDifference,
        lambda x: (None if is_finite_real(x) and x > 0
                   else f"mean delay difference must be finite and > 0 s, got {shown(x)}"),
        1),
    "upper_measurable_bandwidth": NumberCheck(
        lambda x: estimator.upper_measurable_bandwidth(PacketSize(100), PacketSize(1100), x, 0.1), ZeroPrecision,
        lambda x: None if is_finite_real(x) and x > 0 else f"precision must be finite and > 0 s, got {shown(x)}", 1),
    "pair_by_size": NumberCheck(
        lambda x: testbox.pair_by_size(FOUR_PAIRS.samples, PacketSize(100), PacketSize(1100), x), ValueError,
        lambda x: None if is_finite_real(x) and x > 0 else f"window_s must be finite and > 0, got {shown(x)}", 1),
    # ns is read from text, so only ints reach the check
    "parse_config-ns": NumberCheck(
        lambda x: simulate.parse_config(SIM_TEXT.format(x=x)), ValueError,
        lambda x: (f"ns values must be >= 2 pairs, got {x}" if x < 2
                   else None if is_finite_real(x) and is_finite_real(x * 1000.0)
                   else f"ns values times var_delay_rate must be a finite float, got an n of {len(str(x))} digits"),
        2),
}

WHOLE_NUMBERS = st.one_of(st.integers(-10**400, 10**400), st.integers(-2, MAX_PORT + 2))
# ints to +-10**5000, past repr's digit limit, and each side of that limit: not for ns, which
# a config's text holds; built from small draws, which hypothesis can show while it shrinks
LONG_INTS = st.one_of(
    st.builds(lambda digits, low, sign: sign * (10**digits + low),
              st.integers(400, 5000), st.integers(0, 10**400), st.sampled_from([1, -1])),
    st.sampled_from([10**4299, 10**4300, -10**4300]),
)
NUMBERS = st.one_of(st.booleans(), st.floats(), WHOLE_NUMBERS, LONG_INTS)


@pytest.mark.parametrize("name", NUMBER_CHECKS)
@given(data=st.data())
def test_every_number_check_refuses_what_its_predicate_and_bound_refuse_in_its_own_words(name, data):
    check = NUMBER_CHECKS[name]
    x = data.draw(WHOLE_NUMBERS if name == "parse_config-ns" else NUMBERS, label="x")
    message = check.refusal(x)
    try:
        check.call(x)
    except Exception as exc:  # what refused it, whatever it is, is compared below
        refused = exc
    else:
        refused = None
    if message is None:  # accepted, though a later step may still refuse the call in its own words
        assert not isinstance(refused, (TypeError, OverflowError))
        assert refused is None or str(refused) != message
    else:
        assert type(refused) is check.error
        assert str(refused) == message


@pytest.mark.parametrize("check", NUMBER_CHECKS.values(), ids=NUMBER_CHECKS.keys())
def test_every_number_check_accepts_an_int_in_range(check):
    assert check.refusal(check.in_range) is None
    check.call(check.in_range)


@pytest.mark.parametrize(
    "seconds,expected",
    [
        (0.000815, "0.000815"),
        (0.0, "0.0"),
        (1e-9, "0.000000001"),
        (0.1, "0.1"),
        (0.009001, "0.009001"),
        (1.5, "1.5"),
    ],
)
def test_format_delay_s(seconds, expected):
    assert format_delay_s(seconds) == expected


def test_sample_row_round_trip():
    sample = DelaySample(
        packet_size=PacketSize(1100),
        delay=Delay(0.027033),
        serial=1353091581,
        sent_at=1263374005.779364,
    )
    assert row_round_trip(sample) == sample


def test_csv_round_trip_quantizes_to_nanoseconds(tmp_path):
    # Writing clips delays to 9 fractional digits; everything else is exact.
    samples = [
        DelaySample(PacketSize(100), Delay(0.0090011234567), serial=7, sent_at=123.25),
        DelaySample(PacketSize(1100), Delay(0.0278), serial=8, sent_at=123.30),
    ]
    path = tmp_path / "samples.csv"
    with open(path, "w", newline="") as fp:
        write_samples_csv(samples, fp)
    with open(path, newline="") as fp:
        parsed = read_samples_csv(fp)

    assert len(parsed) == len(samples)
    for got, want in zip(parsed, samples):
        assert got.serial == want.serial
        assert got.packet_size == want.packet_size
        assert abs(got.delay.seconds - want.delay.seconds) <= 5e-10
        assert abs(got.sent_at - want.sent_at) <= 5e-7

    # A second write/read cycle must be a fixed point: no further drift.
    buf = io.StringIO()
    write_samples_csv(parsed, buf)
    buf.seek(0)
    assert list(read_samples_csv(buf)) == list(parsed)


SAMPLES = st.lists(
    st.builds(
        DelaySample,
        packet_size=st.builds(PacketSize, st.integers(1, MAX_UDP_PAYLOAD)),
        delay=st.builds(Delay, st.floats(min_value=0.0, allow_infinity=False)),
        serial=st.integers(0, MAX_SERIAL),
        sent_at=st.floats(allow_nan=False, allow_infinity=False),
    ),
    max_size=20,
)


@given(SAMPLES, st.integers(1, 4))
@example([], 1024)
@example([DelaySample(PacketSize(MAX_UDP_PAYLOAD), Delay(1e300), serial=MAX_SERIAL, sent_at=-1e300)], 1024)
def test_write_samples_csv_matches_the_csv_module(samples, block_lines):
    buf = io.StringIO()
    with mock.patch.object(model, "_BLOCK_LINES", block_lines):
        write_samples_csv(samples, buf)
    assert buf.getvalue() == csv_module_text(samples)


# Delays whose text ends at the point before its ".0", or rounds at a ns tie
WRITER_DELAYS = [0.0, 1.0, 1e20, 5e-324, 0.5e-9, 1.5e-9, 2.5e-9, 0.0000000125, 0.009001, 1e300]


@pytest.mark.parametrize("block_lines", [1, 3, 4, 1024])
@pytest.mark.parametrize("extra", [-1, 0, 1])
def test_write_samples_csv_at_the_block_edges(block_lines, extra):
    # 0 or 1 rows, and one row short of, exactly at and one past whole blocks
    for n in {0, 1, max(0, block_lines + extra), max(0, 2 * block_lines + extra)}:
        samples = [
            DelaySample(PacketSize(1 + i % MAX_UDP_PAYLOAD), Delay(WRITER_DELAYS[i % len(WRITER_DELAYS)]),
                        serial=MAX_SERIAL - i, sent_at=i / 3)
            for i in range(n)
        ]
        buf = io.StringIO()
        with mock.patch.object(model, "_BLOCK_LINES", block_lines):
            write_samples_csv(samples, buf)
        assert buf.getvalue() == csv_module_text(samples)


def test_read_samples_csv_rejects_wrong_header():
    buf = io.StringIO("serial,bytes,delay\n1,100,0.001\n")
    with pytest.raises(ValueError, match="line 1"):
        read_samples_csv(buf)


def test_read_samples_csv_reports_bad_row_line():
    buf = io.StringIO(
        "direction,serial,sent_at,bytes,delay_s\n"
        "forward,1,0.0,100,0.001\n"
        "forward,2,0.0,100,not-a-delay\n"
    )
    with pytest.raises(ValueError, match="line 3"):
        read_samples_csv(buf)


@given(
    st.floats(min_value=0.0, max_value=10.0, allow_nan=False),
    st.integers(min_value=1, max_value=MAX_UDP_PAYLOAD),
    st.integers(min_value=0, max_value=2**64 - 1),
)
def test_row_round_trip_never_grows_error(delay_s, nbytes, serial):
    sample = DelaySample(PacketSize(nbytes), Delay(delay_s), serial=serial, sent_at=0.0)
    once = row_round_trip(sample)
    assert abs(once.delay.seconds - delay_s) <= 6e-10  # half a nanosecond plus float slack
    # quantization is idempotent
    twice = row_round_trip(once)
    assert twice == once


def test_value_objects_have_no_instance_dict():
    sample = DelaySample(PacketSize(100), Delay(0.01), serial=1, sent_at=0.0)
    pair = make_pair(0.009, 0.0098)
    for value in (sample, sample.packet_size, sample.delay, pair):
        assert not hasattr(value, "__dict__")


# ---------------------------------------------------------------------------
# the canonical-row fast path against the csv reader
# ---------------------------------------------------------------------------

def csv_only_read(fp):
    """Every row through csv.reader and sample_from_row: what read_samples_csv did before its fast path."""
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
                samples.append(object_pipeline.sample_from_row(row))
            except ValueError as exc:
                raise ValueError(f"line {lineno}: {exc}") from exc
    except csv.Error as exc:
        raise ValueError(f"line {reader.line_num}: {exc}") from exc
    return samples


def read_outcome(read, blob):
    """``read``'s samples from ``blob`` decoded as ``vpsband estimate`` decodes a file, or its ValueError text."""
    fp = io.TextIOWrapper(io.BytesIO(blob), encoding="utf-8", errors="surrogateescape", newline="")
    try:
        return list(read(fp))
    except ValueError as exc:
        return str(exc)


# Digit runs at and past the fast path's bounds, and fields of other
# shapes that csv.reader and sample_from_row take or reject.
OFF_SHAPE = [b"+1", b" 1", b"1 ", b"1_0", b"nan", b"-1", b"", b'"1"', b'"1\n0"', b"\xd9\xa1", b"\xff", b"1e3"]
SERIAL_TEXT = st.one_of(
    st.integers(0, 2**64 + 5).map(lambda n: str(n).encode()),
    st.sampled_from([b"0" * 19 + b"7", b"9" * 20, b"0" * 20 + b"7", b"1" * 21, str(2**64 - 1).encode()] + OFF_SHAPE),
)
SENT_AT_TEXT = st.one_of(
    st.floats(0, 2e9).map(lambda x: f"{x:.6f}".encode()),
    st.sampled_from(
        [b"9" * 308 + b".5", b"9" * 309 + b".5", b"1." + b"9" * 308, b"1." + b"9" * 309, b"12", b"12."] + OFF_SHAPE
    ),
)
SIZE_TEXT = st.sampled_from([b"0", b"1", b"100", b"1100", b"65507", b"65508", b"99999", b"100000", b"0100"] + OFF_SHAPE)
DELAY_TEXT = st.one_of(
    st.floats(0, 10).map(lambda x: format_delay_s(x).encode()),
    st.sampled_from([b"9" * 308, b"9" * 309, b"9" * 308 + b"." + b"9" * 308, b"0." + b"0" * 309, b"5"] + OFF_SHAPE),
)


@st.composite
def sample_lines(draw):
    """One samples-CSV line: mostly five fields, with an ending or none."""
    direction = draw(st.sampled_from([b"forward", b"forward", b"reverse", b'"forward"', b"Forward"]))
    fields = [direction, draw(SERIAL_TEXT), draw(SENT_AT_TEXT), draw(SIZE_TEXT), draw(DELAY_TEXT)]
    if draw(st.integers(0, 7)) == 0:
        fields = fields[: draw(st.integers(0, 4))] + draw(st.lists(SIZE_TEXT, max_size=2))
    return b",".join(fields) + draw(st.sampled_from([b"\r\n", b"\r\n", b"\n", b"\r", b""]))


HEADER = ",".join(SAMPLE_CSV_FIELDS).encode()
HEADERS = st.sampled_from(
    [HEADER + b"\r\n", HEADER + b"\n", HEADER + b"\r", HEADER, b'"direction"' + HEADER[9:] + b"\r\n",
     HEADER + b",x\r\n", b"\r\n", b""]
)


# Characters per read: from one, where every line is cut, to the default
CHUNK_CHARS = st.one_of(st.integers(1, 64), st.just(model._CHUNK_CHARS))
ROW = b"forward,1,0.5,100,0.009"  # 23 characters
CHUNK_EDGES = [
    # a canonical row cut by a chunk edge, then a malformed row
    (HEADER + b"\r\n", [ROW + b"\r\n", b"forward,2,0.5,1100,x\r\n"], 10),
    # a row longer than a chunk
    (HEADER + b"\r\n", [ROW + b"\r\n", b"forward,2,0.5,1100," + b"9" * 100 + b".5\r\n", ROW + b"\r\n"], 64),
    # "\r\n" split by a chunk edge, on the fast path and on the csv.reader route
    (HEADER + b"\r\n", [ROW + b"\r\n", ROW + b"\r\n", b"forward,3,0.5,1100,x\r\n"], 24),
    (HEADER + b"\r\n", [b"forward,1,0.5,100,x\r\n", ROW + b"\r\n"], 20),
    # a lone "\r" ending the file, or ending a chunk before a malformed row
    (HEADER + b"\r\n", [ROW + b"\r\n", ROW + b"\r"], 3),
    (HEADER + b"\r\n", [ROW + b"\r", b"x\r\n"], 3),
    # a header with no rows
    (HEADER + b"\r\n", [], model._CHUNK_CHARS),
]


def chunk_edges(test):
    """``test(header, lines, chunk_chars)`` with each of ``CHUNK_EDGES`` as an example."""
    for case in CHUNK_EDGES:
        test = example(*case)(test)
    return test


@settings(max_examples=examples(300), deadline=None)
@given(
    HEADERS,
    st.lists(st.one_of(sample_lines(), st.sampled_from([b"\r\n", b"\n", b'"\n"\r\n'])), max_size=8),
    CHUNK_CHARS,
)
@chunk_edges
@example(HEADER + b"\r\n", [b"forward,1,0.5,100,0.009\r\n", b"forward,2,0.5,1100,0.0098"], model._CHUNK_CHARS)
@example(HEADER + b"\r\n", [b"forward,1,0.5,100,0.009\r\n", b'forward,2,0.5,"11\n00",0.0098\r\n', b"x,\"\r\n"],
         model._CHUNK_CHARS)
@example(HEADER + b"\n", [b"forward,1,0.5,100,0.009\n", b"\n", b"forward,18446744073709551616,0.5,100,0.009\n"],
         model._CHUNK_CHARS)
@example(HEADER + b"\r\n", [b"forward,1,0.5,65508,0.009\r\n"], model._CHUNK_CHARS)
@example(HEADER + b"\r\n", [b"forward,x,0.5,0,0.009\r\n"], model._CHUNK_CHARS)  # bad in two fields: the size is named
@example(HEADER + b"\r\n", [b"forward,1,0.5,100,0.009\r\n", b"forward,2,0.5,1100," + b"9" * 200_000],  # csv.Error
         model._CHUNK_CHARS)
@example(HEADER + b"\r\n", [b"forward,1,0.5,100,0.009\r", b"forward,2,0.5,1100,0.0098\r"], model._CHUNK_CHARS)
def test_read_samples_csv_matches_the_csv_reader(header, lines, chunk_chars):
    blob = header + b"".join(lines)
    with mock.patch.object(model, "_CHUNK_CHARS", chunk_chars):
        got = read_outcome(read_samples_csv, blob)
    assert got == read_outcome(csv_only_read, blob)


NUL_HEADER = HEADER + b"\r\n"
NUL_ROW = b"forward,1,0.000001,100,0.01\r\n"


# What Python 3.10's csv.reader says of each; from 3.11 on it reads a NUL as text.
@pytest.mark.parametrize("blob,line", [
    pytest.param(b"direction,serial,sent_at,bytes,delay_s\nforward,1,0.0,100,0.01\x00\n", 2, id="row"),
    pytest.param(b"direction,serial\x00,sent_at,bytes,delay_s\r\n" + NUL_ROW, 1, id="header"),
    pytest.param(NUL_HEADER + NUL_ROW * 5000 + b"forward,2,0.5,100,\x000.01\r\n" + NUL_ROW, 5002, id="later-chunk"),
    pytest.param(NUL_HEADER + NUL_ROW + b'forward,"1\r\n\x002",0.5,100,0.01\r\n', 4, id="quoted-second-line"),
    pytest.param(NUL_HEADER + NUL_ROW + b"\x00\r\n" + NUL_ROW, 3, id="nul-alone"),
    pytest.param(NUL_HEADER + NUL_ROW + b"forward,1,0.5,100,0.01\r\x00\r\n", 4, id="after-lone-cr"),
])
def test_a_nul_byte_is_refused_in_the_same_words_on_every_python(blob, line):
    assert read_outcome(read_samples_csv, blob) == f"line {line}: line contains NUL"


def test_a_bad_row_before_a_nul_is_refused_first():
    blob = NUL_HEADER + b"forward,x,0.5,100,0.01\r\n\x00\r\n"
    assert read_outcome(read_samples_csv, blob) == "line 2: invalid literal for int() with base 10: 'x'"


def test_canonical_rows_never_reach_sample_from_row(monkeypatch, tmp_path):
    samples = [
        DelaySample(PacketSize(1), Delay(0.0), serial=0, sent_at=0.0),
        DelaySample(PacketSize(100), Delay(0.009001), serial=1353080554, sent_at=1263374005.779364),
        DelaySample(PacketSize(MAX_UDP_PAYLOAD), Delay(1e300), serial=MAX_SERIAL, sent_at=1e300),
        DelaySample(PacketSize(1100), Delay(12.5), serial=7, sent_at=0.1),
    ]
    samples *= 300  # about 230 kB, so several chunks
    expected = [row_round_trip(s) for s in samples]
    path = tmp_path / "samples.csv"
    with open(path, "w", encoding="utf-8", newline="") as fp:
        write_samples_csv(samples, fp)
    assert path.stat().st_size > 3 * model._CHUNK_CHARS

    def refuse(row):
        raise AssertionError(f"canonical row {row!r} took the csv.reader route")

    monkeypatch.setattr(model, "sample_from_row", refuse)
    written = path.read_bytes()
    for end in [b"\r\n", b"\r", b""]:  # as written, or the last row ended by a lone "\r" or by nothing
        path.write_bytes(written.removesuffix(b"\r\n") + end)
        with open(path, encoding="utf-8", errors="surrogateescape", newline="") as fp:
            assert list(read_samples_csv(fp)) == expected
