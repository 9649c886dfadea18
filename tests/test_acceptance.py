"""Acceptance checks: one test per release gate, one PASS/FAIL line each.

Every check states its tolerance inline.  All randomness is pinned
(seed 42 for the shared run, seed ranges 0..29 and 0..99 for the
statistical gates) and was fixed before the expected values were
computed, not tuned afterwards.

Checks 3 and 4 hold the simulator to the paper's error-vs-n result.
Each row of the simulated spread must follow the closed-form law
sqrt(2)/(rate*sqrt(n)) to within 5%.  The published table enters in the
form the planner uses it: the coefficient c of the fitted model c/sqrt(n)
(``planner.SQRT_N_COEFFICIENT``, the geometric mean of
error*sqrt(n) over the rows), since that fit, not any single row, is
what ``required_measurements`` inverts.  The raw published rows are not
gated one by one.  They scatter around the law by +4% to +12% for
n <= 30 and by -21% / -25% at n = 100 / 200, so no simulation that
follows the law can be within 20% of the n = 200 row.  Both checks still
print every row's raw published ratio or gap, so that departure stays in
view.

Where the scatter comes from is not settled: the paper's abstract is all
the repository holds of it.  One possible cause, unconfirmed, is that
the table was measured on a single run of about 3000 pairs cut into
batches, which would give the n = 100 and n = 200 rows a sampling error
of about 13% and 19%.
"""

import io
import math
import random
import statistics

import numpy as np
import pytest

from vpsband.errors import NonPositiveDelayDifference
from vpsband.estimator import estimate_batch, estimate_pair, upper_measurable_bandwidth
from vpsband.model import PacketSize, read_samples_csv, write_samples_csv
from vpsband.planner import (
    REFERENCE_CAPACITY_BPS,
    REFERENCE_DELAY_DIFF_S,
    REFERENCE_ROWS,
    REFERENCE_SIZES,
    REFERENCE_TARGET_ERROR,
    REFERENCE_VAR_DELAY_RATE,
    SQRT_N_COEFFICIENT,
    PlanQuery,
    analytic_required_measurements,
    required_measurements,
)
from vpsband.simulate import sd_of_delay_diff, simulate_pairs, variable_delays
from vpsband.testbox import (
    match_sessions,
    pair_by_size,
    parse_receiver_file,
    parse_sender_file,
)

from conftest import make_pair, reference_sim_config

TABLE_NS = tuple(n for n, _ in REFERENCE_ROWS)

# Published spreads of the averaged delay difference (ms) that the bundled
# error table's percentages were derived from (sd = eta * 0.8 ms).
REFERENCE_SD_MS = {
    5: 0.661, 10: 0.489, 20: 0.354, 30: 0.284, 50: 0.195, 100: 0.111, 200: 0.075,
}


def report(ok: bool, name: str, detail: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
    assert ok, f"{name}: {detail}"


@pytest.fixture(scope="module")
def reference_spreads():
    """Simulated spread of the averaged delay difference, shared by 3/4/9."""
    cfg = reference_sim_config(seed=42)  # the reference experiment
    return {n: sd_of_delay_diff(cfg, n) for n in TABLE_NS}


def test_check_1_worked_estimates():
    fast = estimate_pair(make_pair(0.009001, 0.009816))   # diff 0.815 ms
    slow = estimate_pair(make_pair(0.009001, 0.010870))   # diff 1.869 ms
    ok = (
        round(fast.mbps, 1) == 9.8
        and float(f"{fast.mbps:.3g}") == 9.82
        and round(slow.mbps, 2) == 4.28
        and float(f"{slow.mbps:.3g}") == 4.28
    )
    report(ok, "check 1 (worked estimates)",
           f"1000 B / 0.815 ms -> {fast.mbps:.4f} Mbit/s (want 9.8), "
           f"1000 B / 1.869 ms -> {slow.mbps:.4f} Mbit/s (want 4.28)")


def test_check_2_measurability_bound():
    fast_clock = upper_measurable_bandwidth(
        PacketSize(100), PacketSize(1600), precision_s=2e-6, rel_error=0.10
    )
    slow_clock = upper_measurable_bandwidth(
        PacketSize(100), PacketSize(1600), precision_s=1e-3, rel_error=0.25
    )
    ok = (
        fast_clock.bits_per_second == pytest.approx(300e6, rel=1e-12)
        and slow_clock.bits_per_second == pytest.approx(1.5e6, rel=1e-12)
    )
    report(ok, "check 2 (measurability bound)",
           f"1500 B at 2 us / 10% -> {fast_clock.mbps:.6f} Mbit/s (want 300), "
           f"1500 B at 1 ms / 25% -> {slow_clock.mbps:.6f} Mbit/s (want 1.5)")


def test_check_3_spread_table(reference_spreads):
    # Gates: (a) simulated sd within +-5% of the analytic oracle
    # sqrt(2)/(rate*sqrt(n)) for every tabulated n; (b) the c/sqrt(n)
    # coefficient fitted to the simulated spreads the way the planner
    # fits its rows (geometric mean of sd*sqrt(n)) within +-5% of the
    # published one, SQRT_N_COEFFICIENT * 0.8 ms.  The raw published
    # spread of each row is printed, not gated.
    rows = []
    failures = []
    for n in TABLE_NS:
        sd = reference_spreads[n]
        analytic = math.sqrt(2.0) / (REFERENCE_VAR_DELAY_RATE * math.sqrt(n))
        published = REFERENCE_SD_MS[n] / 1e3
        vs_analytic = sd / analytic
        vs_published = sd / published
        rows.append(f"n={n}: sim {sd * 1e3:.4f} ms, /analytic {vs_analytic:.3f}, /published {vs_published:.3f}")
        if not 0.95 <= vs_analytic <= 1.05:
            failures.append(f"n={n} is {vs_analytic:.3f}x the analytic law (allow 0.95..1.05)")
    simulated_coef = math.exp(
        statistics.fmean(math.log(reference_spreads[n] * math.sqrt(n)) for n in TABLE_NS)
    )
    published_coef = SQRT_N_COEFFICIENT * REFERENCE_DELAY_DIFF_S
    coef_ratio = published_coef / simulated_coef
    if not 0.95 <= coef_ratio <= 1.05:
        failures.append(
            f"published coefficient is {coef_ratio:.3f}x the simulated one (allow 0.95..1.05)"
        )
    detail = "; ".join(rows) + (
        f"; fitted c/sqrt(n): published {published_coef * 1e3:.4f} ms*sqrt(n), "
        f"simulated {simulated_coef * 1e3:.4f} ms*sqrt(n), ratio {coef_ratio:.3f}"
    )
    if failures:
        detail += ".  Out of band: " + "; ".join(failures)
    report(not failures, "check 3 (delay-spread table, +-5% analytic per row / +-5% published c/sqrt(n))", detail)


def test_check_4_error_percentage_table(reference_spreads):
    # Gate: simulated error percentage within +-5 points of the planner's
    # fitted value 100 * SQRT_N_COEFFICIENT / sqrt(n) at each tabulated n,
    # the figure required_measurements inverts.  The gap to each raw table
    # row is printed, not gated.
    failures = []
    rows = []
    for n, row_error in REFERENCE_ROWS:
        eta_pct = 100.0 * reference_spreads[n] / REFERENCE_DELAY_DIFF_S
        fitted_pct = 100.0 * SQRT_N_COEFFICIENT / math.sqrt(n)
        gap = abs(eta_pct - fitted_pct)
        raw_gap = abs(eta_pct - 100.0 * row_error)
        rows.append(
            f"n={n}: {eta_pct:.2f}% vs fitted {fitted_pct:.2f}% (gap {gap:.2f}), "
            f"row {100 * row_error:.1f}% (raw gap {raw_gap:.2f})"
        )
        if gap > 5.0:
            failures.append(f"n={n} is {gap:.2f} points from the fitted value (allow 5)")
    detail = "; ".join(rows)
    if failures:
        detail += ".  Out of band: " + "; ".join(failures)
    report(not failures, "check 4 (error percentages, +-5 points of fitted c/sqrt(n))", detail)


def test_check_5_averaging_behaviour():
    # Gate: over 30 seeds of 3000 pairs, batch-estimate spread strictly
    # decreases through batch sizes 20/50/100 in >=90% of seeds, and the
    # batch-100 estimates average within 5% of the configured 10 Mbit/s.
    # The variable-delay rate is 2000/s so that even 20-pair batches keep
    # a positive mean difference (at 1000/s a 20-pair batch mean goes
    # non-positive in over half the seeds, which raises by design).
    decreasing = 0
    batch100_values = []
    for seed in range(30):
        pairs = simulate_pairs(reference_sim_config(seed=seed, var_delay_rate=2000.0))
        sds = [estimate_batch(pairs, b).sd_bps for b in (20, 50, 100)]
        if sds[0] > sds[1] > sds[2]:
            decreasing += 1
        batch100_values.append(estimate_batch(pairs, 100).value.bits_per_second)
    mean_dev = abs(statistics.fmean(batch100_values) - REFERENCE_CAPACITY_BPS) / REFERENCE_CAPACITY_BPS
    ok = decreasing >= 27 and mean_dev <= 0.05
    report(ok, "check 5 (averaging tightens estimates)",
           f"spread decreasing in {decreasing}/30 seeds (need >=27); "
           f"batch-100 mean off true by {mean_dev:.2%} (allow 5%)")


def test_check_6_planner_identity_and_sweep():
    identity = required_measurements(
        PlanQuery(REFERENCE_VAR_DELAY_RATE, REFERENCE_DELAY_DIFF_S, REFERENCE_TARGET_ERROR)
    )
    ok = identity.n == 50 and identity.analytic_n == 53

    # 5x5x5 log grid over the documented validity box.
    worst = 1.0
    worst_at = None
    for rate in (100.0, 316.23, 1000.0, 3162.3, 10000.0):
        for diff in (1e-4, 3.1623e-4, 1e-3, 3.1623e-3, 1e-2):
            for eta in (0.05, 0.0889, 0.1581, 0.2812, 0.5):
                q = PlanQuery(rate, diff, eta)
                planned = required_measurements(q).n
                analytic = analytic_required_measurements(q)
                ratio = max(planned / analytic, analytic / planned)
                if ratio > worst:
                    worst, worst_at = ratio, (rate, diff, eta)
    ok = ok and worst <= 1.3
    report(ok, "check 6 (planner identity and factor-1.3 sweep)",
           f"identity -> n={identity.n} (want 50), analytic {identity.analytic_n} (want 53); "
           f"worst table/analytic disagreement {worst:.3f} at {worst_at} (allow 1.3)")


def test_check_7_log_parse_golden_chain(data_dir):
    with open(data_dir / "sender.log", "rb") as fp:
        sent = parse_sender_file(fp)
    with open(data_dir / "receiver.log", "rb") as fp:
        received = parse_receiver_file(fp)
    matched = match_sessions(sent, received)
    by_serial = {s.serial: s for s in matched.samples}
    small = by_serial.get(1353080554)
    large = by_serial.get(1353091581)
    paired = pair_by_size(matched.samples, *REFERENCE_SIZES)
    diff = paired.pairs[0].delay_diff_s
    ok = (
        small is not None
        and small.delay.seconds == 0.009001
        and small.packet_size.bytes == 100
        and large is not None
        and large.delay.seconds == 0.027033
        and large.packet_size.bytes == 1100
        and diff == 0.018032
    )
    report(ok, "check 7 (golden log chain)",
           f"serial 1353080554 -> {small and small.delay.seconds} s at "
           f"{small and small.packet_size.bytes} B; serial 1353091581 -> "
           f"{large and large.delay.seconds} s; difference {diff!r} s (want 0.018032 exactly)")


def test_check_8_end_to_end_pipeline():
    # Gate: plan for a 24.4% target, simulate, round-trip the CSV, pair,
    # estimate at the planned batch size; the measured relative error
    # (spread of batch delay differences over their mean) must be within
    # 1.25x the target in >=80 of the 100 seeded runs.
    target = REFERENCE_TARGET_ERROR
    planned = required_measurements(PlanQuery(REFERENCE_VAR_DELAY_RATE, REFERENCE_DELAY_DIFF_S, target)).n
    ok_runs = 0
    raised = 0
    for seed in range(100):
        pairs = simulate_pairs(reference_sim_config(seed=seed))
        buf = io.StringIO()
        write_samples_csv((s for p in pairs for s in (p.small, p.large)), buf)
        buf.seek(0)
        paired = pair_by_size(read_samples_csv(buf), *REFERENCE_SIZES)
        try:
            est = estimate_batch(paired.pairs, planned)
        except NonPositiveDelayDifference:
            raised += 1
            continue
        if est.relative_error <= 1.25 * target:
            ok_runs += 1
    report(ok_runs >= 80, "check 8 (end-to-end pipeline, <=1.25x target in >=80%)",
           f"planned n={planned}; {ok_runs}/100 runs within {1.25 * target:.3f} "
           f"({raised} raised on non-positive differences)")


def test_check_9_property_suite(reference_spreads):
    # (a) sd * sqrt(n) constant to +-15% across the tabulated n.
    products = [reference_spreads[n] * math.sqrt(n) for n in TABLE_NS]
    centre = statistics.fmean(products)
    scaling_ok = all(abs(p - centre) / centre <= 0.15 for p in products)

    # (b) exponential moments: mean and sd equal 1/rate within 1% at 1e5 draws.
    rng = np.random.default_rng(123)
    draws = variable_delays(REFERENCE_VAR_DELAY_RATE, 100_000, rng).tolist()
    mean = 1.0 / REFERENCE_VAR_DELAY_RATE
    mean_dev = abs(statistics.fmean(draws) - mean) / mean
    sd_dev = abs(statistics.stdev(draws) - mean) / mean
    moments_ok = mean_dev <= 0.01 and sd_dev <= 0.01

    # (c) parser totality on arbitrary byte lines: never an uncaught error.
    rnd = random.Random(0)
    blob_lines = [rnd.randbytes(rnd.randrange(0, 120)) for _ in range(300)]
    blob_lines += [
        b"SNDP 9 1263374005 -h tt01.ripe.net -p 6000 -n 1024 -s 1353080538",
        b"SNDP \xff\xfe garbage -n -s",
        b"RCDP 12 2 89.186.245.200 55730 193.233.1.69 6000 "
        b"1263374005.779364 0.009001 0X2107 0X2107 1353080554 0.000001 0.000001",
        b"RCDP truncated",
    ]
    blob = b"\n".join(blob_lines)
    sender_log = parse_sender_file(io.BytesIO(blob))
    receiver_log = parse_receiver_file(io.BytesIO(blob))
    fuzz_ok = (
        sender_log.n_parsed >= 1
        and receiver_log.n_parsed >= 1
        and sender_log.n_malformed > 0
        and receiver_log.n_malformed > 0
    )

    ok = scaling_ok and moments_ok and fuzz_ok
    report(ok, "check 9 (property suite)",
           f"sd*sqrt(n) spread {max(abs(p - centre) / centre for p in products):.3%} "
           f"(allow 15%); exponential mean/sd off by {mean_dev:.3%}/{sd_dev:.3%} "
           f"(allow 1%); fuzz parsed {sender_log.n_parsed}+{receiver_log.n_parsed} "
           f"records, {sender_log.n_malformed}+{receiver_log.n_malformed} malformed, no crashes")
