"""Estimator arithmetic, batching behaviour, and statistical sanity."""

import math
import statistics

import pytest
from hypothesis import given
from hypothesis import strategies as st

from vpsband.errors import (
    EmptyInput,
    MixedPacketSizes,
    NonPositiveDelayDifference,
    InvalidEta,
    ZeroPrecision,
)
from vpsband.estimator import (
    estimate_batch,
    estimate_pair,
    relative_error,
    upper_measurable_bandwidth,
)
from vpsband.model import PacketSize
from vpsband.simulate import simulate_pairs

from conftest import make_pair, reference_sim_config


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
    assert abs(est.relative_error - 0.244) < 0.05


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
    with pytest.raises(MixedPacketSizes):
        estimate_batch(pairs, batch_size=1)


def test_batch_raises_on_non_positive_batch_mean():
    pairs = [
        make_pair(0.010, 0.012, serial_base=0),
        make_pair(0.012, 0.010, serial_base=2),
    ]
    with pytest.raises(NonPositiveDelayDifference, match="batch 1"):
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
    assert statistics.fmean(values) == pytest.approx(10e6, rel=0.05)


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
    with pytest.raises(InvalidEta):
        upper_measurable_bandwidth(w1, w2, precision_s=1e-6, rel_error=1.0)
