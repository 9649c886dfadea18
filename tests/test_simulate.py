"""Delay-model arithmetic, draw distributions, and reproducibility."""

import io
import math
import statistics

import numpy as np
import pytest

from vpsband.model import Bandwidth, Delay, Hop, PacketSize, PathModel
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

from conftest import W1, W2, reference_sim_config, ten_mbit_path


class _ZeroRng:
    """Stand-in rng whose uniform draws are all zero."""

    def random(self, shape):
        return np.zeros(shape)


# ---------------------------------------------------------------------------
# fixed delay
# ---------------------------------------------------------------------------

def test_fixed_delay_single_hop():
    path = ten_mbit_path()
    assert fixed_delay(path, W1).seconds == pytest.approx(8e-5, rel=1e-12)
    assert fixed_delay(path, W2).seconds == pytest.approx(8.8e-4, rel=1e-12)
    diff = fixed_delay(path, W2).seconds - fixed_delay(path, W1).seconds
    assert diff == pytest.approx(8e-4, rel=1e-12)


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
    path = ten_mbit_path()
    assert variable_delays(1000.0, 3, _ZeroRng()).tolist() == [0.0, 0.0, 0.0]
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


# ---------------------------------------------------------------------------
# reproducibility and stream separation
# ---------------------------------------------------------------------------

def test_simulate_pairs_is_deterministic_per_seed():
    a = simulate_pairs(reference_sim_config(seed=5, n_pairs=50))
    b = simulate_pairs(reference_sim_config(seed=5, n_pairs=50))
    c = simulate_pairs(reference_sim_config(seed=6, n_pairs=50))
    assert a == b
    assert a != c


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
    analytic = math.sqrt(2.0) / (1000.0 * math.sqrt(n))
    assert sd_of_delay_diff(cfg, n) == pytest.approx(analytic, rel=0.05)


def test_sd_scales_like_inverse_sqrt_n():
    cfg = reference_sim_config(seed=8, n_trials=4000)
    products = [sd_of_delay_diff(cfg, n) * math.sqrt(n) for n in (5, 20, 100)]
    for p in products:
        assert p == pytest.approx(products[0], rel=0.15)


def test_sd_input_checks():
    cfg = reference_sim_config(seed=0)
    with pytest.raises(ValueError, match="n must be"):
        sd_of_delay_diff(cfg, 1)
    one_trial = SimConfig(
        path=ten_mbit_path(), packet_sizes=(W1, W2), n_pairs=10, n_trials=1, seed=0
    )
    with pytest.raises(ValueError, match="n_trials"):
        sd_of_delay_diff(one_trial, 10)


def test_error_vs_n_relative_to_true_diff():
    cfg = reference_sim_config(seed=4, n_trials=3000)
    points = error_vs_n(cfg, ns=(10, 50))
    assert [p.n for p in points] == [10, 50]
    for p in points:
        assert p.rel_error == pytest.approx(p.sd_s / 8e-4, rel=1e-12)
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
            "capacity_bps=10e6\nvar_delay_rate=1000\nw1_bytes=100\nw2_bytes=1100\n"
            "n_pairs=\u0661\u0660\n",
            "ASCII digits",
        ),
        (
            "capacity_bps=10e6\nvar_delay_rate=1000\nw1_bytes=100\nw2_bytes=1100\nseed=4_2\n",
            "ASCII digits",
        ),
        ("capacity_bps=1_0e6\nvar_delay_rate=1000\nw1_bytes=100\nw2_bytes=1100\n", "ASCII digits"),
    ],
)
def test_parse_config_rejects_malformed(text, message):
    with pytest.raises(ValueError, match=message):
        parse_config(text)
