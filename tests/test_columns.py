"""Samples as columns: the same results as the object-per-sample pipeline,
in memory and time per sample that do not grow with the input.

``object_pipeline`` holds the reference: ``match_sessions``,
``pair_by_size`` and ``simulate_pairs`` as they were when every sample
was a ``DelaySample``.  The samples reader is held to
``test_model.csv_only_read``, every row through ``csv.reader``.
"""

from __future__ import annotations

import io
import math
import random
import time
import tracemalloc
from array import array
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from vpsband import model, simulate
from vpsband.errors import NoPairsFound, VpsbandError
from vpsband.estimator import estimate_batch
from vpsband.model import (
    MAX_SERIAL,
    Bandwidth,
    Delay,
    DelaySample,
    Hop,
    PacketSize,
    Pairs,
    PathModel,
    ProbePair,
    Samples,
    read_samples_csv,
    write_samples_csv,
)
from vpsband.testbox import ReceiverRecord, SenderRecord, match_sessions, pair_by_size

import object_pipeline
from conftest import examples, receiver_log, reference_sim_config, sender_log
from test_model import CHUNK_CHARS, HEADER, HEADERS, chunk_edges, csv_only_read, sample_lines

W1, W2 = PacketSize(100), PacketSize(1100)


def columns(samples: Samples) -> list[tuple]:
    """Each sample's values as the columns hold them."""
    return list(zip(*samples.columns()))


def values(samples) -> list[tuple]:
    """Each DelaySample's values, in the columns' order."""
    return [(s.serial, s.sent_at, s.packet_size.bytes, s.delay.seconds) for s in samples]


# ---------------------------------------------------------------------------
# the Samples and Pairs types
# ---------------------------------------------------------------------------

def test_samples_columns_and_views():
    samples = Samples.of([
        DelaySample(PacketSize(100), Delay(0.01), serial=MAX_SERIAL, sent_at=2.5),
        DelaySample(PacketSize(65507), Delay(0.0), serial=0, sent_at=-1.0),
    ])
    assert [c.typecode for c in samples.columns()] == list("QdHd")
    assert columns(samples) == [(MAX_SERIAL, 2.5, 100, 0.01), (0, -1.0, 65507, 0.0)]
    assert len(samples) == 2
    assert samples[1] == DelaySample(PacketSize(65507), Delay(0.0), serial=0, sent_at=-1.0)
    assert list(samples) == [samples[0], samples[1]]
    assert Samples.of(samples) is samples


# Producers build each sample's DelaySample, which Samples.append stores unchecked: these are
# the values a column would store wrongly (a bool as 1) or refuse with another error.
@pytest.mark.parametrize(
    "serial,sent_at,nbytes,delay_s,field",
    [
        (1, 0.0, 0, 0.01, "packet size"),
        (1, 0.0, 65508, 0.01, "packet size"),
        (1, 0.0, 100.0, 0.01, "packet size"),
        (1, 0.0, True, 0.01, "packet size"),
        (1, 0.0, 100, -1e-9, "delay"),
        (1, 0.0, 100, float("nan"), "delay"),
        (1, 0.0, 100, float("inf"), "delay"),
        (-1, 0.0, 100, 0.01, "serial"),
        (MAX_SERIAL + 1, 0.0, 100, 0.01, "serial"),
        (1.5, 0.0, 100, 0.01, "serial"),  # a float the serial column refuses with TypeError
        (True, 0.0, 100, 0.01, "serial"),  # a bool the serial column stores as 1
        (1, float("nan"), 100, 0.01, "sent_at"),
        (1, float("-inf"), 100, 0.01, "sent_at"),
        (MAX_SERIAL + 1, float("nan"), 0, -1.0, "packet size"),  # every field bad: the size is named first
        (1, 0.0, 100, True, "delay"),  # bools the columns store as 1.0
        (1, True, 100, 0.01, "sent_at"),
        # ints that math.isfinite refuses with OverflowError
        pytest.param(1, 0.0, 100, 10**400, "delay", id="delay-10**400"),
        pytest.param(1, 10**400, 100, 0.01, "sent_at", id="sent_at-10**400"),
        pytest.param(1, -(10**400), 100, 0.01, "sent_at", id="sent_at--10**400"),
    ],
)
def test_a_sample_view_refuses_what_the_columns_would_store_wrongly(serial, sent_at, nbytes, delay_s, field):
    with pytest.raises(ValueError) as refused:
        DelaySample(PacketSize(nbytes), Delay(delay_s), serial, sent_at)
    assert type(refused.value) is ValueError
    assert str(refused.value).startswith(f"{field} must ")


@pytest.mark.parametrize("serial", [1.5, True])
def test_samples_of_refuses_a_serial_that_is_not_an_integer(serial):
    with pytest.raises(ValueError, match=f"serial must fit an unsigned 64-bit integer, got {serial!r}"):
        Samples.of(DelaySample(PacketSize(100), Delay(0.01), s, 0.0) for s in (1, serial))


def test_pairs_of_probe_pairs_and_views():
    pairs = [
        ProbePair(DelaySample(W1, Delay(0.01), 1, 0.0), DelaySample(W2, Delay(0.02), 2, 0.1)),
        ProbePair(DelaySample(W1, Delay(0.03), 3, 1.0), DelaySample(W2, Delay(0.04), 4, 1.1)),
    ]
    columnar = Pairs.of(pairs)
    assert (list(columnar.small), list(columnar.large)) == ([0, 2], [1, 3])
    assert len(columnar) == 2
    assert columnar[1] == pairs[1]
    assert columnar[-2] == pairs[0]
    assert list(columnar) == pairs
    assert Pairs.of(columnar) is columnar


def test_send_order_sorts_by_time_then_serial_and_keeps_ties():
    samples = Samples()
    for serial, sent_at in [(5, 2.0), (3, 1.0), (9, 1.0), (3, 1.0), (1, 2.0)]:
        samples.append(DelaySample(W1, Delay(0.01), serial, sent_at))
    assert model.send_order(samples.serial, samples.sent_at, range(len(samples))) == [1, 3, 2, 4, 0]
    assert model.send_order(samples.serial, samples.sent_at, [3, 4, 1]) == [3, 1, 4]  # the tie keeps 3 first


SUBNORMALS = [5e-324, -5e-324, 2.225073858507201e-308]
COLUMN_VALUES = {
    "Q": st.one_of(st.integers(0, MAX_SERIAL), st.sampled_from([0, MAX_SERIAL])),
    "d": st.one_of(st.floats(), st.sampled_from([0.0, -0.0] + SUBNORMALS)),
    "H": st.one_of(st.integers(0, 65535), st.sampled_from([0, 65535])),
}
COLUMNS = st.sampled_from("QdH").flatmap(
    lambda code: st.tuples(st.just(code), st.lists(COLUMN_VALUES[code], min_size=1, max_size=20))
)
POSITIONS = st.lists(st.integers(0, 10**6), max_size=2) | st.lists(st.integers(0, 10**6), max_size=200)


SENT_AT = COLUMN_VALUES["d"].filter(math.isfinite)


@st.composite
def send_order_inputs(draw):
    """Serial and sent_at columns, and indices into them: any, or along which
    sent_at strictly rises, so that they are in send order already."""
    times = draw(st.lists(SENT_AT, max_size=30) | st.lists(SENT_AT, max_size=30, unique=True).map(sorted))
    serials = draw(st.lists(COLUMN_VALUES["Q"], min_size=len(times), max_size=len(times)))
    every = range(len(times))
    subset = st.lists(st.sampled_from(every), unique=True) if times else st.just([])
    indices = draw(st.one_of(st.just(every), subset, subset.map(sorted)))
    return array("Q", serials), array("d", times), indices


@settings(max_examples=examples(300), deadline=None)
@given(send_order_inputs())
@example((array("Q", [5, 3]), array("d", [0.0, -0.0]), range(2)))  # equal times: the serial decides
@example((array("Q", [5, 3]), array("d", [-5e-324, 5e-324]), range(2)))
def test_send_order_is_the_stable_sort_by_time_then_serial(inputs):
    serial, sent_at, indices = inputs
    order = model.send_order(serial, sent_at, indices)
    assert list(order) == sorted(indices, key=lambda i: (sent_at[i], serial[i]))
    if all(sent_at[i] < sent_at[j] for i, j in zip(indices, indices[1:])):
        assert order is indices  # in send order already: returned unsorted


@settings(max_examples=examples(300), deadline=None)
@given(COLUMNS, POSITIONS)
@example(("Q", [0, MAX_SERIAL, 7]), [])
@example(("H", [0, 65535]), [1])
@example(("d", [-0.0, *SUBNORMALS]), [1, 0])
@example(("d", [-0.0, 0.0, *SUBNORMALS]), [4, 0, 0, 1, 2, 1, 3, 0])
@example(("Q", [MAX_SERIAL]), [0] * 50)
def test_gather_matches_indexing_item_by_item(column, positions):
    code, values = column
    column = array(code, values)
    indices = [p % len(values) for p in positions]  # repeated and in any order
    got = model.gather(column, indices)
    assert got.typecode == code
    assert got.tobytes() == array(code, [column[i] for i in indices]).tobytes()  # tells -0.0 and NaNs apart


# ---------------------------------------------------------------------------
# the references and the columns give the same results
# ---------------------------------------------------------------------------

def lf_read_outcome(read, blob):
    """``read``'s samples from ``blob`` in an ``io.StringIO``, whose lines end at "\\n" alone, or its ValueError text."""
    try:
        return list(read(io.StringIO(blob.decode("utf-8", "surrogateescape"))))
    except ValueError as exc:
        return str(exc)


@settings(max_examples=examples(300), deadline=None)
@given(
    HEADERS,
    st.lists(st.one_of(sample_lines(), st.sampled_from([b"\r\n", b"\n", b'"\n"\r\n'])), max_size=12),
    CHUNK_CHARS,
)
@chunk_edges
# rows of 25 characters, one to three to a chunk, then one out of range
@example(HEADER + b"\r\n", [b"forward,1,0.5,100,0.009\r\n"] * 3 + [b"forward,2,0.5,0,0.0098\r\n"], 50)
@example(HEADER + b"\r\n", [b"forward,1,0.5,100,0.009\r\n"] * 3 + [b"forward,18446744073709551616,0.5,1,0\r\n"], 75)
@example(HEADER + b"\r\n", [b"forward,1,0.5,100,0.009\r\n"] * 2 + [b"forward,2,0.5,70000,0\r\n"], 25)
@example(HEADER + b"\n", [b"forward,1,0.5,100,0.009\r", b"forward,2,0.5,100,0.009\n", b"\n"], 48)
def test_read_samples_csv_of_a_stream_whose_lines_end_at_lf_matches_the_csv_reader(header, lines, chunk_chars):
    blob = header + b"".join(lines)
    with mock.patch.object(model, "_CHUNK_CHARS", chunk_chars):
        got = lf_read_outcome(read_samples_csv, blob)
    assert got == lf_read_outcome(csv_only_read, blob)


SERIAL = st.one_of(st.integers(0, 30), st.integers(MAX_SERIAL - 3, MAX_SERIAL))
SENDER_RECORDS = st.lists(
    st.builds(SenderRecord, SERIAL, st.one_of(st.integers(0, 5).map(float), st.floats(0, 5)),
              st.sampled_from([100, 1100, 512])),
    max_size=30,
)
RECEIVER_RECORDS = st.lists(
    st.builds(ReceiverRecord, SERIAL, st.floats(0, 1)),
    max_size=30,
)


@settings(max_examples=examples(300), deadline=None)
@given(SENDER_RECORDS, RECEIVER_RECORDS)
def test_match_sessions_matches_the_object_join(sent, received):
    result = match_sessions(sender_log(sent), receiver_log(received))
    samples, *counts = object_pipeline.match_sessions(sent, received)
    assert columns(result.samples) == values(samples)
    assert list(result.samples) == samples
    assert [result.unmatched_sent, result.unmatched_received, result.duplicate_sent,
            result.duplicate_received] == counts


DELAY_SAMPLES = st.lists(
    st.builds(
        DelaySample,
        st.sampled_from([W1, W2, PacketSize(512)]),
        st.floats(0, 1).map(Delay),
        SERIAL,
        st.one_of(st.integers(0, 12).map(float), st.floats(-1, 12)),
    ),
    max_size=40,
)


@settings(max_examples=300, deadline=None)
@given(DELAY_SAMPLES, st.sampled_from([0.25, 1.0, 3.0, 60.0]), st.booleans())
def test_pair_by_size_matches_the_object_pairing(samples, window_s, as_columns):
    given_samples = Samples.of(samples) if as_columns else samples
    try:
        expected = object_pipeline.pair_by_size(samples, W1, W2, window_s)
    except NoPairsFound as exc:
        with pytest.raises(NoPairsFound) as got:
            pair_by_size(given_samples, W1, W2, window_s)
        assert str(got.value) == str(exc)
        return
    result = pair_by_size(given_samples, W1, W2, window_s)
    pairs, *counts = expected
    assert list(result.pairs) == pairs
    assert [result.unpaired_small, result.unpaired_large, result.other_sizes] == counts
    assert estimate_outcome(result.pairs) == estimate_outcome(pairs)


def estimate_outcome(pairs, batch_size=1):
    try:
        return estimate_batch(pairs, batch_size)
    except VpsbandError as exc:
        return type(exc), str(exc)


SLICE_BOUNDS = st.one_of(st.none(), st.integers(-12, 12))


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 10), SLICE_BOUNDS, SLICE_BOUNDS, st.one_of(st.none(), st.integers(-3, 3).filter(bool)),
       st.integers(1, 3))
def test_a_slice_of_pairs_is_pairs_over_the_same_samples(n_pairs, start, stop, step, batch_size):
    pairs = simulate.simulate_pairs(reference_sim_config(seed=n_pairs, n_pairs=n_pairs, var_delay_rate=1e5))
    sliced = pairs[start:stop:step]
    assert isinstance(sliced, Pairs) and sliced.samples is pairs.samples
    assert list(sliced) == list(pairs)[start:stop:step]
    assert estimate_outcome(sliced, batch_size) == estimate_outcome(list(pairs)[start:stop:step], batch_size)


# ---------------------------------------------------------------------------
# the producers give the pairs the object producers gave
# ---------------------------------------------------------------------------

HOPS = st.lists(st.tuples(st.floats(1e4, 1e10), st.floats(0, 1)), min_size=1, max_size=3)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 300), HOPS, st.floats(1.0, 1e6), st.integers(0, 2**64),
       st.integers(1, 1000), st.integers(1, 1000))
def test_simulate_pairs_matches_the_object_producer(n_pairs, hops, rate, seed, w1, gap):
    path = PathModel(tuple(Hop(Bandwidth(c), Delay(p)) for c, p in hops), rate)
    cfg = simulate.SimConfig(path, (PacketSize(w1), PacketSize(w1 + gap)), n_pairs=n_pairs, n_trials=2, seed=seed)
    pairs = simulate.simulate_pairs(cfg)
    expected = object_pipeline.simulate_pairs(cfg)
    assert list(pairs) == expected
    got, want = io.StringIO(), io.StringIO()
    write_samples_csv(pairs.samples, got)
    write_samples_csv((s for pair in expected for s in (pair.small, pair.large)), want)
    assert got.getvalue() == want.getvalue()


# ---------------------------------------------------------------------------
# memory and time per sample
# ---------------------------------------------------------------------------

def csv_text(n: int, seed: int = 7) -> str:
    """A samples CSV of n probes at 1000 pkt/s, sizes alternating, 10% lost."""
    rng = random.Random(seed)
    lines = [",".join(model.SAMPLE_CSV_FIELDS) + "\r\n"]
    for i in range(n):
        if rng.random() < 0.1:
            continue
        nbytes = 100 if i % 2 == 0 else 1100
        delay = 0.01 + nbytes * 8e-7 + rng.expovariate(1000.0)
        lines.append(f"forward,{i},{1263374005.779364 + i / 1000:.6f},{nbytes},{delay:.9f}\r\n")
    return "".join(lines)


def test_read_holds_at_most_40_bytes_per_sample():
    text = csv_text(100_000)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        samples = read_samples_csv(io.StringIO(text))
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert held / len(samples) <= 40


def test_read_from_a_file_peaks_at_most_2_mb_above_its_columns(tmp_path):
    # A chunk at a time: reading the whole 5 MB file at once would show here.
    path = tmp_path / "samples.csv"
    path.write_text(csv_text(100_000), encoding="utf-8")
    with open(path, encoding="utf-8", errors="surrogateescape", newline="") as fp:
        tracemalloc.start()
        try:
            samples = read_samples_csv(fp)
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
    assert len(samples) > 85_000
    assert peak - held <= 2 * 2**20


def test_estimate_time_per_sample_does_not_grow_with_length():
    # Read, pair and estimate at 2*10**5 samples against 10**4, in turn,
    # best of three each.  Objects per sample would make the garbage
    # collector's walks grow with the input; columns hold none.  CPU time
    # of this process, which other processes' load does not stretch.
    def us_per_sample(text):
        start = time.process_time()
        samples = read_samples_csv(io.StringIO(text))
        estimate_batch(pair_by_size(samples, W1, W2).pairs, 50)
        return (time.process_time() - start) / len(samples) * 1e6

    short, long = csv_text(10_000), csv_text(200_000)
    runs = [(us_per_sample(short), us_per_sample(long)) for _ in range(3)]
    assert min(r[1] for r in runs) <= 1.5 * min(r[0] for r in runs)
