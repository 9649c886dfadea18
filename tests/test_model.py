"""Value-type validation and sample serialization round trips."""

import io

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from vpsband.model import (
    Bandwidth,
    BandwidthEstimate,
    Delay,
    DelaySample,
    Hop,
    MAX_SERIAL,
    MAX_UDP_PAYLOAD,
    PacketSize,
    PathModel,
    ProbePair,
    bytes_to_bits,
    format_delay_s,
    read_samples_csv,
    sample_from_row,
    sample_to_row,
    write_samples_csv,
)

from conftest import csv_module_text, make_pair


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
        assert pair.size_diff_bytes == 1000
        assert pair.delay_diff_s == pytest.approx(0.000815)

    def test_rejects_equal_or_inverted_sizes(self):
        sample = DelaySample(PacketSize(500), Delay(0.01), serial=1, sent_at=0.0)
        with pytest.raises(ValueError, match="small < large"):
            ProbePair(small=sample, large=sample)


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
    assert sample_from_row(sample_to_row(sample)) == sample


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
    assert read_samples_csv(buf) == parsed


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


@given(SAMPLES)
@example([])
@example([DelaySample(PacketSize(MAX_UDP_PAYLOAD), Delay(1e300), serial=MAX_SERIAL, sent_at=-1e300)])
def test_write_samples_csv_matches_the_csv_module(samples):
    buf = io.StringIO()
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
    once = sample_from_row(sample_to_row(sample))
    assert abs(once.delay.seconds - delay_s) <= 6e-10  # half a nanosecond plus float slack
    # quantization is idempotent
    twice = sample_from_row(sample_to_row(once))
    assert twice == once
