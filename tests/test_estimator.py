"""Estimator arithmetic, batching behaviour, and statistical sanity."""

import math
import statistics
import sys
from array import array
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from vpsband.errors import (
    EmptyInput,
    MixedPacketSizes,
    NonPositiveDelayDifference,
    InvalidEta,
    NoPairsFound,
    VpsbandError,
    ZeroPrecision,
)
from vpsband.estimator import (
    _stdev,
    estimate_batch,
    estimate_pair,
    relative_error,
    upper_measurable_bandwidth,
)
from vpsband.model import (MAX_UNFRAGMENTED_PAYLOAD, Bandwidth, BandwidthEstimate, Delay, DelaySample, PacketSize,
                           Pairs, ProbePair, Samples)
from vpsband.planner import REFERENCE_CAPACITY_BPS, REFERENCE_TARGET_ERROR
from vpsband.prober import MIN_PROBE_BYTES, ProbeConfig, Reflector, probe
from vpsband.simulate import simulate_pairs
from vpsband.testbox import pair_by_size

from conftest import examples, make_pair, reference_sim_config
from test_testbox import ANY_ROWS, GRIDS, SENT_ORDER_ROWS, TIED_ROWS, sample


# ---------------------------------------------------------------------------
# single-pair arithmetic
# ---------------------------------------------------------------------------

def test_single_pair_uses_factor_eight_exactly_once():
    # 1000 extra bytes arriving 815 us later: 8000 bits / 0.000815 s.
    bw = estimate_pair(make_pair(0.009001, 0.009816))
    assert math.floor(bw.bits_per_second) == 9_815_950
    assert round(bw.mbps, 1) == 9.8


def test_single_pair_slower_path():
    bw = estimate_pair(make_pair(0.009001, 0.010870))  # diff 1.869 ms
    assert round(bw.mbps, 2) == 4.28


@pytest.mark.parametrize("small,large", [(0.010, 0.010), (0.011, 0.010)])
def test_single_pair_rejects_non_positive_diff(small, large):
    with pytest.raises(NonPositiveDelayDifference, match="serials 1/2"):
        estimate_pair(make_pair(small, large))


def test_single_pair_refuses_a_difference_too_small_for_a_finite_bandwidth():
    with pytest.raises(NonPositiveDelayDifference, match="too small for a finite bandwidth"):
        estimate_pair(make_pair(0.0, 2.2250738585e-313))


@given(st.floats(min_value=1e-6, max_value=1.0, allow_nan=False))
def test_estimate_scales_inversely_with_delay_diff(diff_s):
    base = estimate_pair(make_pair(0.01, 0.01 + diff_s)).bits_per_second
    halved = estimate_pair(make_pair(0.01, 0.01 + 2 * diff_s)).bits_per_second
    assert halved == pytest.approx(base / 2, rel=1e-9)


# ---------------------------------------------------------------------------
# batching
# ---------------------------------------------------------------------------

def test_batch_averages_delays_before_dividing():
    # Two batches of two pairs.  Batch 1 diffs: 0.001 and 0.003.  Averaging
    # the delays first gives 8000/0.002 = 4e6 exactly; averaging per-pair
    # estimates instead would give (8e6 + 8e6/3)/2 ~= 5.33e6.
    pairs = [
        make_pair(0.010, 0.011, serial_base=0),
        make_pair(0.010, 0.013, serial_base=2),
        make_pair(0.010, 0.012, serial_base=4),
        make_pair(0.010, 0.012, serial_base=6),
    ]
    est = estimate_batch(pairs, batch_size=2)
    assert est.value.bits_per_second == pytest.approx(4e6, rel=1e-12)
    assert est.n_pairs == 4
    assert est.mean_delay_diff_s == pytest.approx(0.002, rel=1e-12)


def test_batch_headline_is_a_ratio_of_means():
    # Batch diffs of 1 and 3 ms: 8000 bits over their mean, 2 ms, is
    # 4 Mbit/s; the mean of the per-batch estimates, (8 + 8/3)/2 = 5.33
    # Mbit/s, is what noise in single batches biases upward.
    pairs = [make_pair(0.010, 0.011, serial_base=0), make_pair(0.010, 0.013, serial_base=2)]
    est = estimate_batch(pairs, batch_size=1)
    assert est.value.bits_per_second == pytest.approx(4e6, rel=1e-12)
    assert est.value.bits_per_second == pytest.approx(8000 / est.mean_delay_diff_s, rel=1e-15)
    assert est.sd_bps == pytest.approx(statistics.stdev([8e6, 8e6 / 3]))
    assert est.relative_error == pytest.approx(statistics.stdev([0.001, 0.003]) / 0.002)


def test_batch_drops_trailing_partial_batch():
    pairs = [make_pair(0.010, 0.011, serial_base=2 * i) for i in range(7)]
    est = estimate_batch(pairs, batch_size=3)
    assert est.n_pairs == 6  # seventh pair ignored


def test_batch_uses_the_leading_pairs():
    # only the last pair differs, so batches cut from the tail would see it
    pairs = [make_pair(0.010, 0.011, serial_base=2 * i) for i in range(6)]
    pairs.append(make_pair(0.010, 0.014, serial_base=12))
    est = estimate_batch(pairs, batch_size=3)
    assert est.mean_delay_diff_s == pytest.approx(0.001, rel=1e-9)
    assert est.value.bits_per_second == pytest.approx(8e6, rel=1e-9)


def test_single_batch_has_no_spread():
    pairs = [make_pair(0.010, 0.011, serial_base=2 * i) for i in range(5)]
    est = estimate_batch(pairs, batch_size=5)
    assert est.sd_bps is None
    assert est.relative_error is None


def test_batch_spread_fields_use_their_own_conventions():
    # sd_bps spreads the batch bandwidths; relative_error spreads the
    # batch delay differences (the reference-table convention).  With
    # three-plus batches the two ratios genuinely differ.
    pairs = [
        make_pair(0.010, 0.011, serial_base=0),
        make_pair(0.010, 0.012, serial_base=2),
        make_pair(0.010, 0.013, serial_base=4),
    ]
    est = estimate_batch(pairs, batch_size=1)
    assert est.sd_bps == pytest.approx(statistics.stdev([8e6, 4e6, 8e6 / 3]))
    assert est.relative_error == pytest.approx(
        statistics.stdev([0.001, 0.002, 0.003]) / 0.002
    )
    assert est.relative_error != pytest.approx(est.sd_bps / est.value.bits_per_second)


def test_batch_spread_near_reference_row():
    # 3000 pairs at the reference conditions, batches of 50: the relative
    # error should land on the n=50 reference row (24.4%).
    pairs = simulate_pairs(reference_sim_config(seed=42))
    est = estimate_batch(pairs, batch_size=50)
    assert abs(est.relative_error - REFERENCE_TARGET_ERROR) < 0.05


def test_batch_rejects_empty_and_undersized_input():
    with pytest.raises(EmptyInput):
        estimate_batch([], batch_size=10)
    pairs = [make_pair(0.010, 0.011)]
    with pytest.raises(EmptyInput, match="fewer than one batch"):
        estimate_batch(pairs, batch_size=2)


def test_batch_rejects_bad_batch_size():
    with pytest.raises(ValueError, match="batch_size"):
        estimate_batch([make_pair(0.010, 0.011)], batch_size=0)


def test_batch_rejects_mixed_size_classes():
    pairs = [
        make_pair(0.010, 0.011),
        make_pair(0.010, 0.011, w1=PacketSize(200), w2=PacketSize(1200)),
    ]
    assert Pairs.of(pairs).sizes is None  # views state no sizes, so their own are gathered and checked
    with pytest.raises(MixedPacketSizes, match=r"^pairs mix size classes \[\(100, 1100\), \(200, 1200\)\]; batch them"):
        estimate_batch(pairs, batch_size=1)


def test_stated_sizes_are_trusted_unchecked():
    # the mixed pairs above, stated by hand as 100 and 600 bytes: the statement, not the samples, sets the 4000 bits
    pairs = Pairs.of([make_pair(0.010, 0.011), make_pair(0.010, 0.011, w1=PacketSize(200), w2=PacketSize(1200))])
    stated = Pairs(pairs.samples, pairs.small, pairs.large, (100, 600))
    assert estimate_batch(stated, batch_size=1).value == Bandwidth(4000 / (0.011 - 0.010))


def batch_reference(pairs: list[ProbePair], batch_size: int) -> BandwidthEstimate:
    """``estimate_batch`` over ``ProbePair`` views, each batch's delays summed pair by pair."""
    sizes = {(p.small.packet_size.bytes, p.large.packet_size.bytes) for p in pairs}
    if len({small for small, _ in sizes}) > 1 or len({large for _, large in sizes}) > 1:
        raise MixedPacketSizes(f"pairs mix size classes {sorted(sizes)}; batch them separately")
    n_batches = len(pairs) // batch_size
    if n_batches == 0:
        raise EmptyInput(f"{len(pairs)} pairs is fewer than one batch of {batch_size}")
    ((small, large),) = sizes
    diff_bits = 8 * (large - small)
    diffs, values = [], []
    for b in range(n_batches):
        batch = pairs[b * batch_size : (b + 1) * batch_size]
        diff = (math.fsum(p.large.delay.seconds for p in batch) / batch_size
                - math.fsum(p.small.delay.seconds for p in batch) / batch_size)
        if diff <= 0:
            raise NonPositiveDelayDifference(f"batch {b}: mean delay difference {diff:.9f} s is not positive")
        if diff_bits / diff == math.inf:
            raise NonPositiveDelayDifference(
                f"batch {b}: mean delay difference {diff!r} s is too small for a finite bandwidth")
        diffs.append(diff)
        values.append(diff_bits / diff)
    mean = math.fsum(diffs) / n_batches
    sd = _stdev(values) if n_batches >= 2 else None
    return BandwidthEstimate(Bandwidth(diff_bits / mean), n_batches * batch_size, sd,
                             None if sd is None else _stdev(diffs) / mean, mean)


@st.composite
def column_pairs(draw):
    """``Pairs`` over samples in shuffled positions; now and then of two small or two large sizes."""
    small_sizes = draw(st.sampled_from([[100]] * 3 + [[100, 200]]))
    large_sizes = draw(st.sampled_from([[1100]] * 3 + [[1100, 1200]]))
    n = draw(st.integers(1, 30))
    position = draw(st.permutations(range(2 * n)))
    # differences that are all positive, or that include ones a batch mean may not survive
    edges = st.floats(-1e-4, 1e-2) | st.sampled_from([0.0, 5e-324])
    diff = edges if draw(st.booleans()) else st.floats(1e-5, 1e-2)
    samples = [None] * (2 * n)
    for i in range(n):
        small_delay = draw(st.floats(0, 0.1))
        large_delay = max(0.0, small_delay + draw(diff))
        samples[position[2 * i]] = DelaySample(PacketSize(draw(st.sampled_from(small_sizes))), Delay(small_delay),
                                               2 * i, 0.0)
        samples[position[2 * i + 1]] = DelaySample(PacketSize(draw(st.sampled_from(large_sizes))),
                                                   Delay(large_delay), 2 * i + 1, 0.0)
    return Pairs(Samples.of(samples), array("Q", position[::2]), array("Q", position[1::2]))


def outcome(estimate, *args):
    try:
        return estimate(*args)
    except VpsbandError as exc:
        return type(exc), str(exc)


@settings(max_examples=examples(200), deadline=None)
@given(column_pairs(), st.integers(1, 8))
def test_batches_match_the_per_pair_reference(pairs, batch_size):
    assert pairs.sizes is None and pairs[1:].sizes is None  # built by hand: the gather route and its refusal
    assert outcome(estimate_batch, pairs, batch_size) == outcome(batch_reference, list(pairs), batch_size)


@pytest.fixture(scope="module")
def reflector():
    with Reflector(host="127.0.0.1") as running:
        yield running


SLICE_BOUNDS = st.one_of(st.none(), st.integers(-35, 35))


@settings(max_examples=examples(200), deadline=None)
@given(producer=st.sampled_from(["pair_by_size", "simulate_pairs", "probe"]),
       sizes=st.lists(st.integers(MIN_PROBE_BYTES, MAX_UNFRAGMENTED_PAYLOAD), min_size=3, max_size=3, unique=True),
       data=st.data())
def test_every_producer_states_the_sizes_its_pairs_hold(reflector, producer, sizes, data):
    w1, w2 = map(PacketSize, sorted(sizes[:2]))
    if producer == "pair_by_size":
        # the pairing test's rows, ties and rows in send order included, their small, large and other size renamed
        at, step = GRIDS[data.draw(st.sampled_from(sorted(GRIDS)))]
        renamed = {100: w1.bytes, 1100: w2.bytes, 512: sizes[2]}
        rows = data.draw(st.one_of(ANY_ROWS, SENT_ORDER_ROWS, TIED_ROWS))
        samples = [sample(renamed[nbytes], 0.001 * (i + 1), serial, at(tick))
                   for i, (tick, nbytes, serial) in enumerate(rows)]
        try:
            pairs = pair_by_size(samples, w1, w2, window_s=data.draw(st.integers(1, 12)) * step).pairs
        except NoPairsFound:
            return
    elif producer == "simulate_pairs":
        pairs = simulate_pairs(reference_sim_config(seed=data.draw(st.integers(0, 2**32)), packet_sizes=(w1, w2),
                                                    n_pairs=data.draw(st.integers(1, 30))))
    else:
        cfg = ProbeConfig("127.0.0.1", reflector.address[1], w1, w2, count=data.draw(st.integers(0, 4)),
                          spacing_s=1e-4, timeout_s=0.5)
        pairs = probe(cfg).pairs
    gathered = {(p.small.packet_size.bytes, p.large.packet_size.bytes) for p in pairs}
    assert pairs.sizes == (w1.bytes, w2.bytes)
    assert gathered == ({pairs.sizes} if pairs else set())

    batch_size = data.draw(st.integers(1, 8))
    for part in pairs, pairs[data.draw(SLICE_BOUNDS):data.draw(SLICE_BOUNDS)], pairs[len(pairs):]:
        assert part.sizes == pairs.sizes
        unstated = Pairs(part.samples, part.small, part.large)
        assert outcome(estimate_batch, part, batch_size) == outcome(estimate_batch, unstated, batch_size)


def test_batch_raises_on_non_positive_batch_mean():
    pairs = [
        make_pair(0.010, 0.012, serial_base=0),
        make_pair(0.012, 0.010, serial_base=2),
    ]
    with pytest.raises(NonPositiveDelayDifference, match="batch 1"):
        estimate_batch(pairs, batch_size=1)


def test_batch_refuses_a_difference_too_small_for_a_finite_bandwidth():
    # 8000 bits over a subnormal difference overflowed Bandwidth with a bare ValueError
    pairs = [make_pair(0.010, 0.012, serial_base=0), make_pair(0.0, 2.2250738585e-313, serial_base=2)]
    with pytest.raises(NonPositiveDelayDifference, match="batch 1: .* too small for a finite bandwidth"):
        estimate_batch(pairs, batch_size=1)


@given(st.floats(min_value=0.1, max_value=10.0))
def test_batch_estimate_is_scale_invariant(scale):
    # Scaling every delay difference by k scales the estimate by 1/k.
    base_pairs = [make_pair(0.010, 0.010 + 0.001 * (i + 1), serial_base=2 * i) for i in range(6)]
    scaled_pairs = [
        make_pair(0.010, 0.010 + scale * 0.001 * (i + 1), serial_base=2 * i) for i in range(6)
    ]
    base = estimate_batch(base_pairs, batch_size=2)
    scaled = estimate_batch(scaled_pairs, batch_size=2)
    assert scaled.value.bits_per_second == pytest.approx(
        base.value.bits_per_second / scale, rel=1e-9
    )
    assert scaled.relative_error == pytest.approx(base.relative_error, rel=1e-9)


# ---------------------------------------------------------------------------
# the spread: the exact sample standard deviation, correctly rounded
# ---------------------------------------------------------------------------

POSITIVE = st.floats(min_value=5e-324, max_value=1e308)


@given(st.one_of(
    st.lists(POSITIVE, min_size=2, max_size=60),
    st.builds(lambda value, k: [value] * k, POSITIVE, st.integers(2, 60)),  # sd 0.0
    st.builds(lambda value, steps: [value + step * math.ulp(value) for step in steps],  # near ties
              POSITIVE, st.lists(st.integers(0, 8), min_size=2, max_size=60)),
))
# a subnormal spread that a float root, rounded once more on scaling, would round wrong
@example([8.8197617845647e-311, 1.76395235691294e-310])
def test_spread_is_the_exact_sample_sd_correctly_rounded(values):
    mean = sum(map(Fraction, values)) / len(values)
    variance = sum((Fraction(value) - mean) ** 2 for value in values) / (len(values) - 1)
    sd = _stdev(values)
    # the exact root lies between the halfway points to sd's neighbours, on a tie at an even sd
    below = (Fraction(sd) + Fraction(math.nextafter(sd, 0.0))) / 2
    above = (Fraction(sd) + Fraction(math.nextafter(sd, math.inf))) / 2
    assert below ** 2 <= variance <= above ** 2
    if variance in (below ** 2, above ** 2):
        assert Fraction(sd) / Fraction(math.ulp(sd)) % 2 == 0
    if sys.version_info >= (3, 11):
        assert sd == statistics.stdev(values)


# ---------------------------------------------------------------------------
# statistical behaviour on simulated data
# ---------------------------------------------------------------------------

def test_spread_shrinks_with_batch_size():
    # sd of a mean of b iid diffs falls like 1/sqrt(b).
    pairs = simulate_pairs(reference_sim_config(seed=7, n_pairs=4000, var_delay_rate=2000.0))
    sd20 = estimate_batch(pairs, batch_size=20).sd_bps
    sd100 = estimate_batch(pairs, batch_size=100).sd_bps
    expected_ratio = math.sqrt(100 / 20)
    assert sd20 / sd100 == pytest.approx(expected_ratio, rel=0.30)


def test_averaging_tightens_spread_for_most_seeds():
    hits = 0
    for seed in range(100):
        pairs = simulate_pairs(
            reference_sim_config(seed=seed, n_pairs=3000, var_delay_rate=2000.0)
        )
        sds = [estimate_batch(pairs, batch_size=b).sd_bps for b in (20, 50, 100)]
        if sds[0] > sds[1] > sds[2]:
            hits += 1
    assert hits >= 90


def test_estimates_average_close_to_true_bandwidth():
    # Single seeds wobble a few percent; the mean over seeds must not.
    values = []
    for seed in range(30):
        pairs = simulate_pairs(reference_sim_config(seed=seed, n_pairs=3000))
        values.append(estimate_batch(pairs, batch_size=100).value.bits_per_second)
    assert statistics.fmean(values) == pytest.approx(REFERENCE_CAPACITY_BPS, rel=0.05)


# ---------------------------------------------------------------------------
# precision-driven error and the measurability bound
# ---------------------------------------------------------------------------

def test_relative_error_doubles_the_precision():
    assert relative_error(precision_s=1e-4, mean_diff_s=8e-4) == pytest.approx(0.25)
    assert relative_error(precision_s=0.0, mean_diff_s=8e-4) == 0.0


def test_relative_error_input_checks():
    with pytest.raises(ValueError):
        relative_error(precision_s=-1e-6, mean_diff_s=8e-4)
    with pytest.raises(NonPositiveDelayDifference):
        relative_error(precision_s=1e-6, mean_diff_s=0.0)
    for precision in (math.nan, math.inf):
        with pytest.raises(ValueError, match="finite"):
            relative_error(precision_s=precision, mean_diff_s=8e-4)
    for diff in (math.nan, math.inf):
        with pytest.raises(NonPositiveDelayDifference, match="finite"):
            relative_error(precision_s=1e-6, mean_diff_s=diff)
    for precision, diff in ((1e308, 1e-3), (1e-3, 5e-324)):  # finite inputs, quotient past float range
        with pytest.raises(ValueError, match="out of float range"):
            relative_error(precision_s=precision, mean_diff_s=diff)


def test_upper_measurable_bandwidth_fast_clock():
    bw = upper_measurable_bandwidth(
        PacketSize(100), PacketSize(1600), precision_s=2e-6, rel_error=0.10
    )
    assert bw.bits_per_second == pytest.approx(300e6, rel=1e-12)


def test_upper_measurable_bandwidth_millisecond_clock():
    bw = upper_measurable_bandwidth(
        PacketSize(100), PacketSize(1600), precision_s=1e-3, rel_error=0.25
    )
    assert bw.bits_per_second == pytest.approx(1.5e6, rel=1e-12)


def test_upper_measurable_bandwidth_input_checks():
    w1, w2 = PacketSize(100), PacketSize(1600)
    with pytest.raises(ValueError):
        upper_measurable_bandwidth(w2, w1, precision_s=1e-6, rel_error=0.1)
    with pytest.raises(ZeroPrecision):
        upper_measurable_bandwidth(w1, w2, precision_s=0.0, rel_error=0.1)
    for precision in (math.nan, math.inf):
        with pytest.raises(ZeroPrecision, match="finite"):
            upper_measurable_bandwidth(w1, w2, precision_s=precision, rel_error=0.1)
    for precision in (5e-324, 1e308):  # the bound overflows, or rounds to zero
        with pytest.raises(ZeroPrecision, match="float range"):
            upper_measurable_bandwidth(w1, w2, precision_s=precision, rel_error=0.1)
    with pytest.raises(InvalidEta):
        upper_measurable_bandwidth(w1, w2, precision_s=1e-6, rel_error=1.0)
