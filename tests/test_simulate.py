"""Delay-model arithmetic, draw distributions, and reproducibility."""

import csv
import io
import math
import statistics
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st

from vpsband.model import Bandwidth, Delay, Hop, PacketSize, PathModel
from vpsband.planner import REFERENCE_DELAY_DIFF_S
from vpsband.simulate import (
    DEFAULT_NS,
    SimConfig,
    error_vs_n,
    fixed_delay,
    parse_config,
    sd_of_delay_diff,
    simulate_pairs,
    variable_delays,
    write_error_table_csv,
)

from conftest import W1, W2, examples, reference_sim_config


class _ZeroRng:
    """Stand-in rng whose uniform draws are all zero."""

    def random(self, shape):
        return np.zeros(shape)


# ---------------------------------------------------------------------------
# fixed delay
# ---------------------------------------------------------------------------

def test_fixed_delay_single_hop():
    path = reference_sim_config().path
    assert fixed_delay(path, W1).seconds == pytest.approx(8e-5, rel=1e-12)
    assert fixed_delay(path, W2).seconds == pytest.approx(8.8e-4, rel=1e-12)
    diff = fixed_delay(path, W2).seconds - fixed_delay(path, W1).seconds
    assert diff == pytest.approx(REFERENCE_DELAY_DIFF_S, rel=1e-12)


def test_fixed_delay_sums_over_hops():
    path = PathModel(
        hops=(
            Hop(Bandwidth(10e6), Delay(0.001)),
            Hop(Bandwidth(5e6), Delay(0.002)),
        ),
        var_delay_rate=1000.0,
    )
    # 8*1100*(1/10e6 + 1/5e6) + 0.003
    assert fixed_delay(path, W2).seconds == pytest.approx(0.003 + 0.00264, rel=1e-12)


def test_variable_delays_with_zero_uniform_are_pure_fixed():
    path = reference_sim_config().path
    assert variable_delays(path.var_delay_rate, 3, _ZeroRng()).tolist() == [0.0, 0.0, 0.0]
    delays = fixed_delay(path, W2).seconds + variable_delays(path.var_delay_rate, (2, 2), _ZeroRng())
    assert (delays == fixed_delay(path, W2).seconds).all()


# ---------------------------------------------------------------------------
# variable-delay distribution
# ---------------------------------------------------------------------------

def test_variable_delay_moments():
    rng = np.random.default_rng(123)
    draws = variable_delays(1000.0, 100_000, rng).tolist()
    assert statistics.fmean(draws) == pytest.approx(1e-3, rel=0.01)
    assert statistics.stdev(draws) == pytest.approx(1e-3, rel=0.01)
    assert min(draws) >= 0.0


def test_simulated_delays_never_undershoot_fixed_part():
    cfg = reference_sim_config(seed=3, n_pairs=500)
    f1 = fixed_delay(cfg.path, W1).seconds
    f2 = fixed_delay(cfg.path, W2).seconds
    for pair in simulate_pairs(cfg):
        assert pair.small.delay.seconds >= f1
        assert pair.large.delay.seconds >= f2


def test_simulated_variable_part_has_expected_mean():
    cfg = reference_sim_config(seed=11, n_pairs=5000)
    f1 = fixed_delay(cfg.path, W1).seconds
    f2 = fixed_delay(cfg.path, W2).seconds
    pooled = []
    for pair in simulate_pairs(cfg):
        pooled.append(pair.small.delay.seconds - f1)
        pooled.append(pair.large.delay.seconds - f2)
    assert statistics.fmean(pooled) == pytest.approx(1e-3, rel=0.02)


# The slowest rates SimConfig takes lie between 10**-152.3 per second (one trial) and 10**-150.3
# (10**4 trials); capacities of 10**-300 bit/s give fixed delays of 10**303 s and more, and a
# propagation delay takes them higher.
EDGE_RATES = st.one_of(st.floats(-155.0, 300.0), st.floats(-153.0, -149.0)).map(lambda e: 10.0**e)
EDGE_HOPS = st.lists(
    st.builds(Hop, st.floats(-300.0, 12.0).map(lambda e: Bandwidth(10.0**e)),
              st.one_of(st.just(Delay(0.0)), st.floats(0.0, 1e308).map(Delay))),
    min_size=1, max_size=3,
)


@settings(max_examples=examples(100), deadline=None)
@given(EDGE_HOPS, EDGE_RATES, st.integers(1, 2000), st.integers(1, 1000), st.integers(1, 50), st.integers(1, 10**4),
       st.integers(0, 2**64 - 1))
def test_every_draw_of_an_accepted_config_is_a_delay(hops, rate, w1, gap, n_pairs, n_trials, seed):
    # Each variable delay is at most _MAX_UNIT_DRAW / rate, which SimConfig bounds far below the
    # half ulp of the largest float that adding it to a finite fixed delay would need to overflow.
    try:
        cfg = SimConfig(PathModel(tuple(hops), rate), (PacketSize(w1), PacketSize(w1 + gap)), n_pairs, n_trials, seed)
    except ValueError:
        reject()
    delays = simulate_pairs(cfg).samples.delay
    assert len(delays) == 2 * n_pairs
    assert all(math.isfinite(d) and d >= 0 for d in delays)


# ---------------------------------------------------------------------------
# reproducibility and stream separation
# ---------------------------------------------------------------------------

def test_simulate_pairs_is_deterministic_per_seed():
    a = simulate_pairs(reference_sim_config(seed=5, n_pairs=50))
    b = simulate_pairs(reference_sim_config(seed=5, n_pairs=50))
    c = simulate_pairs(reference_sim_config(seed=6, n_pairs=50))
    assert list(a) == list(b)
    assert list(a) != list(c)


def test_simulate_pairs_serials_and_spacing():
    pairs = simulate_pairs(reference_sim_config(seed=0, n_pairs=3))
    assert [(p.small.serial, p.large.serial) for p in pairs] == [(1, 2), (3, 4), (5, 6)]
    assert pairs[1].small.sent_at == pytest.approx(0.1)
    assert pairs[1].large.sent_at == pytest.approx(0.15)


def test_sd_of_delay_diff_independent_of_call_order():
    cfg = reference_sim_config(seed=9, n_trials=500)
    lone = sd_of_delay_diff(cfg, 20)
    after_other_ns = [sd_of_delay_diff(cfg, n) for n in (5, 50, 20)][-1]
    assert after_other_ns == lone


# ---------------------------------------------------------------------------
# spread of the averaged difference
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("n", [10, 50, 200])
def test_sd_matches_analytic_law(n):
    # var(d2 - d1) = 2/rate^2, so the sd of a mean of n diffs is
    # sqrt(2)/(rate*sqrt(n)).
    cfg = reference_sim_config(seed=42)
    analytic = math.sqrt(2.0) / (cfg.path.var_delay_rate * math.sqrt(n))
    assert sd_of_delay_diff(cfg, n) == pytest.approx(analytic, rel=0.05)


def test_sd_scales_like_inverse_sqrt_n():
    cfg = reference_sim_config(seed=8, n_trials=4000)
    products = [sd_of_delay_diff(cfg, n) * math.sqrt(n) for n in (5, 20, 100)]
    for p in products:
        assert p == pytest.approx(products[0], rel=0.15)


def _sd_by_summing_exponentials(cfg: SimConfig, n: int) -> float:
    """Reference spread: draw all n pairs of every replication and average them."""
    w1, w2 = cfg.packet_sizes
    fixed_diff = fixed_delay(cfg.path, w2).seconds - fixed_delay(cfg.path, w1).seconds
    rng = np.random.default_rng(cfg.seed)
    var1 = variable_delays(cfg.path.var_delay_rate, (cfg.n_trials, n), rng)
    var2 = variable_delays(cfg.path.var_delay_rate, (cfg.n_trials, n), rng)
    return float(np.std(fixed_diff + (var2 - var1).mean(axis=1), ddof=1))


@settings(max_examples=30, deadline=None)
@given(
    n=st.integers(2, 200),
    log_rate=st.floats(-3.0, 6.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_sd_matches_summed_exponentials(n, log_rate, seed):
    # The gamma draw of each class mean has the law of a sum of n
    # exponentials over n, so the two spreads differ by sampling noise
    # only.  A ratio of two sample sds of N draws whose excess kurtosis
    # is 3/n has standard error sqrt((2 + 3/n) / (2N)); allow six.
    cfg = reference_sim_config(seed=seed, n_trials=10_000, var_delay_rate=10.0**log_rate)
    ratio = sd_of_delay_diff(cfg, n) / _sd_by_summing_exponentials(cfg, n)
    assert abs(ratio - 1) <= 6 * math.sqrt((2 + 3 / n) / (2 * cfg.n_trials))


def test_sd_memory_does_not_grow_with_n():
    # Summing exponentials would hold 2 * 2000 * 10^4 floats (320 MB).
    cfg = reference_sim_config(seed=1, n_trials=2000)
    tracemalloc.start()
    try:
        sd_of_delay_diff(cfg, 10_000)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


def test_sd_input_checks():
    cfg = reference_sim_config(seed=0)
    with pytest.raises(ValueError, match="n must be"):
        sd_of_delay_diff(cfg, 1)
    one_trial = reference_sim_config(seed=0, n_pairs=10, n_trials=1)
    with pytest.raises(ValueError, match="n_trials"):
        sd_of_delay_diff(one_trial, 10)


def test_sd_refuses_a_spread_past_float_range():
    # Delays of ~1e303 s are rounded by ~1e288 s, whose square overflows.
    cfg = SimConfig(
        path=PathModel(hops=(Hop(Bandwidth(1e-300), Delay(0.0)),), var_delay_rate=1000.0),
        packet_sizes=(W1, W2),
        n_pairs=3,
        n_trials=300,
        seed=0,
    )
    with pytest.raises(ValueError, match="passes float range"):
        sd_of_delay_diff(cfg, 5)


@pytest.mark.parametrize("n_trials", [2, 10])
def test_sd_refuses_a_spread_lost_in_rounding(n_trials):
    # With fewer trials the same ~1e303 s delays stay finite, but adding the
    # ~1e-3 s draws to them changes nothing: the spread read 0.0.
    cfg = SimConfig(
        path=PathModel(hops=(Hop(Bandwidth(1e-300), Delay(0.0)),), var_delay_rate=1000.0),
        packet_sizes=(W1, W2),
        n_pairs=10,
        n_trials=n_trials,
        seed=0,
    )
    with pytest.raises(ValueError, match="lost in rounding the delay difference 8e\\+303 s"):
        sd_of_delay_diff(cfg, 5)


def test_sd_refuses_a_spread_the_law_puts_below_the_rounding_floor():
    # On the reference path the law's sqrt(2)/(rate*sqrt(n)) at n = 10**300 is ~1.4e-153 s, far
    # below an ulp of the ~1e-3 s class means; the spread read ~1.1e-19 s of rounding noise.
    cfg = reference_sim_config(seed=0, n_trials=2000)
    with pytest.raises(ValueError, match=r"1\.4142135623730953e-153 s by the law, is lost in rounding"):
        sd_of_delay_diff(cfg, 10**300)
    floor_n = (math.sqrt(2) / (1000 * 64 * math.ulp(1e-3))) ** 2  # where the law spans 64 ulps of 1e-3 s
    with pytest.raises(ValueError, match="is lost in rounding"):
        sd_of_delay_diff(cfg, round(4 * floor_n))
    n = round(floor_n / 4)
    assert sd_of_delay_diff(cfg, n) == pytest.approx(math.sqrt(2) / (1000 * math.sqrt(n)), rel=0.1)


def test_error_vs_n_relative_to_true_diff():
    cfg = reference_sim_config(seed=4, n_trials=3000)
    points = error_vs_n(cfg, ns=(10, 50))
    assert [p.n for p in points] == [10, 50]
    for p in points:
        assert p.rel_error == pytest.approx(p.sd_s / REFERENCE_DELAY_DIFF_S, rel=1e-12)
    assert points[0].rel_error > points[1].rel_error


def test_error_vs_n_survives_near_zero_true_diff():
    # A near-infinite capacity shrinks the size effect to femtoseconds;
    # the relative error must blow up rather than divide by zero.
    cfg = SimConfig(
        path=PathModel(hops=(Hop(Bandwidth(1e18), Delay(0.0)),), var_delay_rate=1000.0),
        packet_sizes=(W1, W2),
        n_pairs=10,
        n_trials=10,
        seed=0,
    )
    points = error_vs_n(cfg, ns=(5,))
    assert points[0].rel_error > 1e6


def test_sim_config_rejects_a_path_without_a_positive_delay_difference():
    # Propagation this long absorbs the sizes' serialization times, so
    # both sizes get the same delay; nothing can be simulated from that.
    path = PathModel(hops=(Hop(Bandwidth(10e6), Delay(1e300)),), var_delay_rate=1000.0)
    with pytest.raises(ValueError, match="no positive delay difference"):
        SimConfig(path=path, packet_sizes=(W1, W2), n_pairs=10, n_trials=10, seed=0)


@pytest.mark.parametrize(
    "changes,message",
    [
        ({"packet_sizes": (W2, W1)}, "w1 must be smaller than w2, got 1100 >= 100"),
        ({"packet_sizes": (W1, W1)}, "w1 must be smaller than w2, got 100 >= 100"),
        ({"n_pairs": 0}, "n_pairs must be >= 1, got 0"),
        ({"n_trials": 0}, "n_trials must be >= 1, got 0"),
    ],
)
def test_sim_config_refuses_unordered_sizes_and_empty_counts(changes, message):
    with pytest.raises(ValueError) as refused:
        reference_sim_config(seed=0, **changes)
    assert str(refused.value) == message


def test_write_error_table_csv_round_trips_floats():
    cfg = reference_sim_config(seed=2, n_trials=200)
    points = error_vs_n(cfg, ns=(5, 10))
    buf = io.StringIO()
    write_error_table_csv(points, buf)
    lines = buf.getvalue().splitlines()
    assert lines[0] == "n,sd_s,eta"
    n, sd_s, eta = lines[1].split(",")
    assert int(n) == 5
    assert float(sd_s) == points[0].sd_s  # repr() keeps full precision
    assert float(eta) == points[0].rel_error
    reference = io.StringIO()  # the table as the csv module writes it
    writer = csv.writer(reference)
    writer.writerow(("n", "sd_s", "eta"))
    writer.writerows((p.n, repr(p.sd_s), repr(p.rel_error)) for p in points)
    assert buf.getvalue() == reference.getvalue()


# ---------------------------------------------------------------------------
# config parsing
# ---------------------------------------------------------------------------

GOOD_CONFIG = """\
# single bottleneck
capacity_bps = 10e6
propagation_s = 0.0
var_delay_rate = 1000
w1_bytes = 100
w2_bytes = 1100
n_pairs = 3000
n_trials = 10000
seed = 42
ns = 5,10,20,30,50,100,200
"""


def test_parse_config_full():
    cfg, ns = parse_config(GOOD_CONFIG)
    assert cfg == reference_sim_config(seed=42)
    assert ns == (5, 10, 20, 30, 50, 100, 200)


def test_parse_config_defaults():
    cfg, ns = parse_config(
        "capacity_bps=10e6\nvar_delay_rate=1000\nw1_bytes=100\nw2_bytes=1100\n"
    )
    assert cfg.n_pairs == 3000
    assert cfg.n_trials == 10000
    assert cfg.seed == 0
    assert cfg.path.hops[0].propagation_delay.seconds == 0.0
    assert ns == DEFAULT_NS


def test_parse_config_multi_hop():
    cfg, _ = parse_config(
        "capacity_bps=10e6,5e6\npropagation_s=0.001,0.002\n"
        "var_delay_rate=500\nw1_bytes=100\nw2_bytes=1100\n"
    )
    assert len(cfg.path.hops) == 2
    assert cfg.path.hops[1].capacity.bits_per_second == 5e6


@pytest.mark.parametrize(
    "text,message",
    [
        ("capacity_bps=10e6\nvar_delay_rate=1000\nw1_bytes=100\n", "missing required key"),
        ("bogus=1\n", "unknown key"),
        ("capacity_bps=10e6\ncapacity_bps=5e6\n", "duplicate key"),
        ("capacity_bps 10e6\n", "key = value"),
        (
            "capacity_bps=10e6,5e6\npropagation_s=0.001\n"
            "var_delay_rate=1000\nw1_bytes=100\nw2_bytes=1100\n",
            "one value per capacity_bps",
        ),
        (
            "capacity_bps=10e6\nvar_delay_rate=1000\nw1_bytes=100\nw2_bytes=1100\n"
            "base_delay_s=0.009\n",
            "unknown key",
        ),
        (
            "capacity_bps=10e6\nvar_delay_rate=1000\nw1_bytes=100\nw2_bytes=1100\nns=1,5\n",
            "ns values must be >= 2",
        ),
        (
            "capacity_bps=10e6\nvar_delay_rate=1000\nw1_bytes=100\nw2_bytes=1100\nseed=-3\n",
            "seed must be >= 0",
        ),
        (
            "capacity_bps=10e6\nvar_delay_rate=1000\nw1_bytes=100\nw2_bytes=1100\nns=,\n",
            "ns must list at least one n",
        ),
        # an empty entry in a list is an error, not skipped
        (
            "capacity_bps=10e6,,5e6\npropagation_s=0.001,0.002,\n"
            "var_delay_rate=1000\nw1_bytes=100\nw2_bytes=1100\n",
            "^capacity_bps has an empty entry in '10e6,,5e6'$",
        ),
        (
            "capacity_bps=10e6,5e6\npropagation_s=0.001,0.002,\n"
            "var_delay_rate=1000\nw1_bytes=100\nw2_bytes=1100\n",
            "^propagation_s has an empty entry in '0.001,0.002,'$",
        ),
        (
            "capacity_bps=10e6\nvar_delay_rate=1000\nw1_bytes=100\nw2_bytes=1100\nns=5,,10\n",
            "^ns has an empty entry in '5,,10'$",
        ),
        ("capacity_bps=10e6\nvar_delay_rate=1000\nw1_bytes=100\nw2_bytes=1100\nns=5, \n", "ns has an empty entry"),
        # a count that is present but empty is an error, not its default
        ("capacity_bps=10e6\nvar_delay_rate=1000\nw1_bytes=100\nw2_bytes=1100\nn_pairs=\n", "invalid literal"),
        (
            "capacity_bps=10e6\nvar_delay_rate=1000\nw1_bytes=100\nw2_bytes=1100\n"
            "n_pairs=\u0661\u0660\n",
            "ASCII digits",
        ),
        (
            "capacity_bps=10e6\nvar_delay_rate=1000\nw1_bytes=100\nw2_bytes=1100\nseed=4_2\n",
            "ASCII digits",
        ),
        ("capacity_bps=1_0e6\nvar_delay_rate=1000\nw1_bytes=100\nw2_bytes=1100\n", "ASCII digits"),
        pytest.param(
            "capacity_bps=10e6\nvar_delay_rate=1000\nw1_bytes=100\nw2_bytes=1100\nseed=" + "7" * 5000 + "\n",
            "^seed must have at most 4300 digits$",
            id="seed-past-int-digit-limit",
        ),
        pytest.param(
            "capacity_bps=10e6\nvar_delay_rate=1000\nw1_bytes=" + "1" * 5000 + "\nw2_bytes=1100\n",
            "^w1_bytes must have at most 4300 digits$",
            id="w1-past-int-digit-limit",
        ),
        pytest.param(
            "capacity_bps=10e6\nvar_delay_rate=1000\nw1_bytes=100\nw2_bytes=1100\nns=5," + "9" * 5000 + "\n",
            "^ns must have at most 4300 digits$",
            id="ns-past-int-digit-limit",
        ),
    ],
)
def test_parse_config_rejects_malformed(text, message):
    with pytest.raises(ValueError, match=message):
        parse_config(text)
