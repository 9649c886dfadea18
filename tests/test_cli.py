"""End-to-end command-line behaviour, driven in-process via main(argv)."""

import errno
import json
import os
import socket
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import vpsband
from vpsband import prober, simulate
from vpsband.cli import EXIT_DOMAIN, EXIT_IO, EXIT_OK, EXIT_USAGE, main
from vpsband.errors import InvalidQuery
from vpsband.model import MAX_SERIAL, MAX_UDP_PAYLOAD, Pairs, read_samples_csv
from vpsband.planner import REFERENCE_ROWS, REFERENCE_TARGET_ERROR, PlanQuery, PlanResult, required_measurements
from vpsband.prober import ProbeConfig, ProbeResult, Reflector, probe
from vpsband.testbox import match_sessions, parse_receiver_file, parse_sender_file

from conftest import DATA_DIR, csv_module_text, make_pair

SIM_CONFIG = """\
capacity_bps = 10e6
var_delay_rate = 1000
w1_bytes = 100
w2_bytes = 1100
n_pairs = 60
n_trials = 300
seed = 0
ns = 5,10
"""


def write_config(tmp_path, text=SIM_CONFIG):
    path = tmp_path / "sim.conf"
    path.write_text(text)
    return str(path)


def no_such_file(path) -> str:
    """What ``main`` prints for a missing input: the OS message, which names the path."""
    return f"vpsband: [Errno {errno.ENOENT}] No such file or directory: {str(path)!r}\n"


# ---------------------------------------------------------------------------
# parse
# ---------------------------------------------------------------------------

def test_parse_bundled_logs_json(data_dir, tmp_path, capsys):
    out = tmp_path / "samples.csv"
    code = main(
        ["parse", str(data_dir / "sender.log"), str(data_dir / "receiver.log"),
         "--out", str(out), "--json"]
    )
    assert code == EXIT_OK
    diagnostics = json.loads(capsys.readouterr().out)
    assert diagnostics == {
        "parsed": 7,
        "malformed": 0,
        "matched": 2,
        "unmatched": 2,
        "paired": None,
        "duplicates": 1,
    }
    with open(out, newline="") as fp:
        samples = read_samples_csv(fp)
    assert [s.serial for s in samples] == [1353080554, 1353091581]


def test_parse_to_stdout_by_default(data_dir, capsys):
    code = main(["parse", str(data_dir / "sender.log"), str(data_dir / "receiver.log")])
    assert code == EXIT_OK
    out = capsys.readouterr().out
    assert out.startswith("direction,serial,sent_at,bytes,delay_s")
    assert "matched 2" in out


@settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    rows=st.lists(
        st.tuples(
            st.integers(0, MAX_SERIAL),
            st.integers(0, 2**40),
            st.integers(1, MAX_UDP_PAYLOAD),
            st.floats(0, 1e6).map(lambda x: f"{x:.6f}"),
        ),
        min_size=1,
        max_size=10,
        unique_by=lambda row: row[0],
    )
)
def test_parse_stdout_matches_the_csv_module(rows, tmp_path, capsys):
    sender, receiver = tmp_path / "s.log", tmp_path / "r.log"
    sender.write_text("".join(f"SNDP 9 {t} -h a -p 6000 -n {n} -s {s}\n" for s, t, n, _ in rows))
    receiver.write_text(
        "".join(f"RCDP 12 2 1.2.3.4 5 6.7.8.9 6000 {t}.5 {d} 0X0 0X0 {s} 0 0\n" for s, t, _, d in rows)
    )
    with open(sender, "rb") as s_fp, open(receiver, "rb") as r_fp:
        samples = match_sessions(parse_sender_file(s_fp), parse_receiver_file(r_fp)).samples

    assert main(["parse", str(sender), str(receiver), "--out", "-"]) == EXIT_OK
    csv_text, summary = capsys.readouterr().out.rsplit("\r\n", 1)
    assert csv_text + "\r\n" == csv_module_text(samples)
    assert summary.startswith(f"parsed {2 * len(rows)} records (0 malformed)")


def test_parse_counts_out_of_range_numbers_as_malformed(tmp_path, capsys):
    # each of these lines once ended `parse` with a traceback and exit 1
    sender = tmp_path / "s.log"
    receiver = tmp_path / "r.log"
    sender.write_text(
        "SNDP 9 77 -h a -p 6000 -n 100 -s 1\n"
        f"SNDP 9 {'1' * 400} -h a -p 6000 -n 100 -s 2\n"
        f"SNDP 9 77 -h a -p 6000 -n 100 -s {2**64}\n"
        "SNDP 9 77 -h a -p 6000 -n 70000 -s 3\n"
        f"SNDP 9 77 -h a -p 6000 -n 100 -s {'1' * 5000}\n"
    )
    receiver.write_text(
        "RCDP 12 2 1.2.3.4 5 6.7.8.9 6000 77.5 0.5 0X0 0X0 1 0 0\n"
        f"RCDP 12 2 1.2.3.4 5 6.7.8.9 6000 77.5 {'9' * 400} 0X0 0X0 2 0 0\n"
        f"RCDP 12 2 1.2.3.4 5 6.7.8.9 6000 77.5 0.5 0X0 0X0 {2**64} 0 0\n"
        f"RCDP 12 2 1.2.3.4 5 6.7.8.9 6000 {'9' * 400}.5 0.5 0X0 0X0 3 0 0\n"
    )
    code = main(["parse", str(sender), str(receiver), "--out", str(tmp_path / "x.csv"), "--json"])
    assert code == EXIT_OK
    assert json.loads(capsys.readouterr().out) == {
        "parsed": 2, "malformed": 7, "matched": 1, "unmatched": 0, "paired": None, "duplicates": 0,
    }


def test_parse_without_matches_exits_domain(tmp_path, capsys):
    sender = tmp_path / "s.log"
    receiver = tmp_path / "r.log"
    sender.write_text("SNDP 9 77 -h a -n 100 -s 1\n")
    receiver.write_text(
        "RCDP 12 2 1.2.3.4 5 6.7.8.9 10 11.0 0.5 0X0 0X0 999 0 0\n"
    )
    code = main(["parse", str(sender), str(receiver), "--out", str(tmp_path / "x.csv")])
    assert code == EXIT_DOMAIN
    assert "matched" in capsys.readouterr().err


def test_parse_missing_file_exits_io(tmp_path, capsys):
    code = main(["parse", str(tmp_path / "nope.log"), str(tmp_path / "nope2.log")])
    assert code == EXIT_IO
    assert capsys.readouterr() == ("", no_such_file(tmp_path / "nope.log"))


# ---------------------------------------------------------------------------
# estimate
# ---------------------------------------------------------------------------

def test_estimate_fixture_single_batch_json(data_dir, capsys):
    code = main(
        ["estimate", str(data_dir / "samples_mean815.csv"), "--batch-size", "20", "--json"]
    )
    assert code == EXIT_OK
    est = json.loads(capsys.readouterr().out)
    assert est["mbps"] == 9.82
    assert round(est["mbps"], 1) == 9.8
    assert est["n_pairs"] == 20
    assert est["sd_bps"] is None
    assert est["relative_error"] is None
    assert est["mean_delay_diff_s"] == pytest.approx(0.000815, abs=1e-12)


def test_estimate_fixture_batched_spread(data_dir, capsys):
    code = main(
        ["estimate", str(data_dir / "samples_mean815.csv"), "--batch-size", "5", "--json"]
    )
    assert code == EXIT_OK
    est = json.loads(capsys.readouterr().out)
    assert est["sd_bps"] > 0
    assert 0 < est["relative_error"] < 1
    assert est["mean_delay_diff_s"] == pytest.approx(0.000815, abs=1e-12)


def test_estimate_human_output_shows_units(data_dir, capsys):
    code = main(["estimate", str(data_dir / "samples_mean815.csv")])
    assert code == EXIT_OK
    out = capsys.readouterr().out
    assert "available bandwidth: 9.82 Mbit/s" in out
    assert "0.815 ms" in out


@pytest.mark.parametrize(
    "large_delays,sd_bps,relative_error",
    [
        # the first file's batch differences vary past float range, the
        # second's bandwidths past it and its differences below normal range
        (("1e300", "1.0"), 5656.85424949238, 1.4142135623730951),
        (("1e-304", "5.1e-305"), 5.43501682794366e307, 0.4589169838164349),
    ],
)
def test_estimate_spread_of_extreme_accepted_delays(large_delays, sd_bps, relative_error, tmp_path, capsys):
    path = tmp_path / "extreme.csv"
    first, second = large_delays
    path.write_text(
        "direction,serial,sent_at,bytes,delay_s\n"
        f"forward,1,0.0,100,0.0\nforward,2,0.0,1100,{first}\nforward,3,1.0,100,0.0\nforward,4,1.0,1100,{second}\n"
    )
    assert main(["estimate", str(path), "--batch-size", "1"]) == EXIT_OK
    assert capsys.readouterr().err == ""
    assert main(["estimate", str(path), "--batch-size", "1", "--json"]) == EXIT_OK
    out, err = capsys.readouterr()
    est = json.loads(out)
    assert err == ""
    assert (est["sd_bps"], est["relative_error"]) == (sd_bps, relative_error)


def test_estimate_requires_both_size_flags(data_dir):
    with pytest.raises(SystemExit) as exc_info:
        main(["estimate", str(data_dir / "samples_mean815.csv"), "--w1", "100"])
    assert exc_info.value.code == EXIT_USAGE


def test_estimate_three_sizes_needs_explicit_flags(tmp_path, capsys):
    path = tmp_path / "three.csv"
    path.write_text(
        "direction,serial,sent_at,bytes,delay_s\n"
        "forward,1,0.0,100,0.009\n"
        "forward,2,0.1,1100,0.0098\n"
        "forward,3,0.2,512,0.0093\n"
        "forward,4,10.0,100,0.009\n"
        "forward,5,10.1,1100,0.0098\n"
    )
    with pytest.raises(SystemExit) as exc_info:
        main(["estimate", str(path)])
    assert exc_info.value.code == EXIT_USAGE
    assert "[100, 512, 1100]" in capsys.readouterr().err

    code = main(["estimate", str(path), "--w1", "100", "--w2", "1100", "--json"])
    assert code == EXIT_OK
    assert json.loads(capsys.readouterr().out)["n_pairs"] == 2


@pytest.mark.parametrize("sizes, code", [((100,), EXIT_DOMAIN), ((100, 512, 1100), EXIT_USAGE)])
def test_estimate_size_count_decides_data_or_usage_error(sizes, code, tmp_path, capsys):
    # One size cannot be paired by any flags; three need flags to pick two.
    path = tmp_path / "sizes.csv"
    rows = [f"forward,{i + 1},{i / 10},{size},0.009\n" for i, size in enumerate(sizes * 2)]
    path.write_text("direction,serial,sent_at,bytes,delay_s\n" + "".join(rows))
    try:
        got = main(["estimate", str(path)])
    except SystemExit as exc:
        got = exc.code
    assert got == code
    err = capsys.readouterr().err
    assert ("usage:" in err) == (code == EXIT_USAGE)
    assert str(list(sizes)) in err
    if code == EXIT_DOMAIN:
        assert "two are needed" in err


def test_estimate_rejects_a_direction_other_than_forward(tmp_path, capsys):
    path = tmp_path / "mixed.csv"
    path.write_text(
        "direction,serial,sent_at,bytes,delay_s\n"
        "forward,1,0.0,100,0.009\n"
        "reverse,2,0.1,1100,0.0098\n"
    )
    assert main(["estimate", str(path)]) == EXIT_DOMAIN
    err = capsys.readouterr().err
    assert "bad samples file: line 3:" in err
    assert "Traceback" not in err


SAMPLES_HEADER = b"direction,serial,sent_at,bytes,delay_s\n"


@pytest.mark.parametrize(
    "content, message",
    [
        (b"\xff\xfe", "line 1:"),
        (SAMPLES_HEADER + b"forward,1,0.0,100,0.009\nforward,2,0.1,1100,0.0098\xff\n", "line 3:"),
        (SAMPLES_HEADER + b"forward,1,0.0,100,0.009\nforward,2,0.1,1100," + b"9" * 200_000 + b"\n", "line 3:"),
        (SAMPLES_HEADER + "forward,\u0661,0.0,100,0.009\n".encode(), "line 2:"),
        (SAMPLES_HEADER + b"forward,1,0.0,100,0.009\nforward,2,0.1,1_100,0.0098\n", "line 3:"),
        (SAMPLES_HEADER + b"forward,1,0.0,100,0.009\nforward," + b"9" * 5000 + b",0.1,1100,0.0098\n",
         f"line 3: serial must be at most {MAX_SERIAL}\n"),
        (SAMPLES_HEADER + b"forward,1,0.0,100,0.009\nforward,2,0.1," + b"9" * 5000 + b",0.0098\n",
         f"line 3: packet size must be at most {MAX_UDP_PAYLOAD}\n"),
        (SAMPLES_HEADER + b"forward,1,0.0,100,0.009\nforward,-" + b"9" * 5000 + b",0.1,1100,0.0098\n",
         "line 3: serial must have at most 4300 digits\n"),
        (SAMPLES_HEADER + b"forward,1,0.0,100,0.009\nforward," + b"0" * 5000 + b"2,0.1,1100,0.0098\n",
         "line 3: serial must have at most 4300 digits\n"),
    ],
    ids=["not-utf8-header", "not-utf8-field", "field-over-csv-limit", "non-ascii-digit", "underscore",
         "serial-past-int-digit-limit", "bytes-past-int-digit-limit", "negative-past-int-digit-limit",
         "zero-padded-past-int-digit-limit"],
)
def test_estimate_bad_samples_file_names_its_line(tmp_path, capsys, content, message):
    path = tmp_path / "bad.csv"
    path.write_bytes(content)
    assert main(["estimate", str(path)]) == EXIT_DOMAIN
    err = capsys.readouterr().err
    assert err.startswith(f"vpsband: bad samples file: {message}")
    assert err.count("\n") == 1


def test_estimate_missing_file_exits_io(tmp_path, capsys):
    assert main(["estimate", str(tmp_path / "nope.csv")]) == EXIT_IO
    assert capsys.readouterr() == ("", no_such_file(tmp_path / "nope.csv"))


def test_estimate_bad_header_exits_domain(tmp_path, capsys):
    path = tmp_path / "bad.csv"
    path.write_text("serial,delay\n1,0.5\n")
    assert main(["estimate", str(path)]) == EXIT_DOMAIN
    assert "line 1" in capsys.readouterr().err


def test_estimate_empty_file_exits_domain(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("direction,serial,sent_at,bytes,delay_s\n")
    assert main(["estimate", str(path)]) == EXIT_DOMAIN


def test_estimate_rejects_zero_batch_size(data_dir):
    with pytest.raises(SystemExit) as exc_info:
        main(["estimate", str(data_dir / "samples_mean815.csv"), "--batch-size", "0"])
    assert exc_info.value.code == EXIT_USAGE


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------

def test_simulate_writes_deterministic_outputs(tmp_path, capsys):
    config = write_config(tmp_path)
    code = main(["simulate", config, "--out-dir", str(tmp_path / "a"), "--json"])
    assert code == EXIT_OK
    summary = json.loads(capsys.readouterr().out)
    assert summary["n_pairs"] == 60
    assert summary["seed"] == 0
    assert [p["n"] for p in summary["error_vs_n"]] == [5, 10]

    assert main(["simulate", config, "--out-dir", str(tmp_path / "b")]) == EXIT_OK
    capsys.readouterr()
    for name in ("samples.csv", "error_vs_n.csv"):
        first = (tmp_path / "a" / name).read_bytes()
        second = (tmp_path / "b" / name).read_bytes()
        assert first == second, f"{name} differs between identical runs"

    with open(tmp_path / "a" / "samples.csv", newline="") as fp:
        assert len(read_samples_csv(fp)) == 120  # two samples per pair


def test_simulate_seed_override_changes_samples(tmp_path, capsys):
    config = write_config(tmp_path)
    main(["simulate", config, "--out-dir", str(tmp_path / "a")])
    main(["simulate", config, "--out-dir", str(tmp_path / "c"), "--seed", "7"])
    capsys.readouterr()
    assert (tmp_path / "a" / "samples.csv").read_bytes() != (
        tmp_path / "c" / "samples.csv"
    ).read_bytes()


def test_simulate_single_trial_skips_error_table(tmp_path, capsys):
    config = write_config(tmp_path, SIM_CONFIG.replace("n_trials = 300", "n_trials = 1"))
    code = main(["simulate", config, "--out-dir", str(tmp_path / "d"), "--json"])
    assert code == EXIT_OK
    captured = capsys.readouterr()
    assert "n_trials < 2" in captured.err
    summary = json.loads(captured.out)
    assert summary["error_table_csv"] is None
    assert (tmp_path / "d" / "samples.csv").exists()
    assert not (tmp_path / "d" / "error_vs_n.csv").exists()


def test_simulate_bad_config_exits_domain(tmp_path, capsys):
    config = write_config(tmp_path, "capacity_bps=10e6\n")
    assert main(["simulate", config, "--out-dir", str(tmp_path / "e")]) == EXIT_DOMAIN
    assert "missing required key" in capsys.readouterr().err


@pytest.mark.parametrize(
    "old,new",
    [
        ("ns = 5,10", "ns = 1,5"),
        ("seed = 0", "seed = -3"),
        ("capacity_bps = 10e6", "capacity_bps = 10e6\npropagation_s = 1e300"),  # sizes' delays round equal
        ("ns = 5,10", "ns = 5,1" + "0" * 400),  # n * var_delay_rate is past float range
        ("ns = 5,10", "ns = 5,1" + "0" * 31),  # the law's spread is lost in rounding the ~1e-3 s class means
        ("var_delay_rate = 1000", "var_delay_rate = 1e-300"),  # the spread of its draws overflows
        ("var_delay_rate = 1000", "var_delay_rate = 5e-324"),  # its draws are inf
        ("capacity_bps = 10e6", "capacity_bps = 1e-300"),  # the spread of its ~1e303 s delays overflows
        *(  # with few trials that spread does not overflow, but rounding swallows every draw
            (SIM_CONFIG, SIM_CONFIG.replace("10e6", "1e-300").replace("n_trials = 300", f"n_trials = {n}"))
            for n in (2, 10)
        ),
        ("ns = 5,10", "ns = ,"),  # a list with no n in it
        ("ns = 5,10", "ns = 5,,10"),  # an empty entry in a list
        ("capacity_bps = 10e6", "capacity_bps = 10e6,\npropagation_s = 0.001,"),
    ],
)
@pytest.mark.parametrize("flags", [[], ["--json"]])
def test_simulate_bad_config_value_writes_nothing(tmp_path, capsys, old, new, flags):
    config = write_config(tmp_path, SIM_CONFIG.replace(old, new))
    out_dir = tmp_path / "out"
    assert main(["simulate", config, "--out-dir", str(out_dir), *flags]) == EXIT_DOMAIN
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("vpsband: bad config: ") and err.count("\n") == 1
    assert not out_dir.exists()


@pytest.mark.parametrize("flags", [[], ["--json"]])
def test_simulate_config_past_free_memory_writes_nothing(tmp_path, capsys, monkeypatch, flags):
    # numpy raises MemoryError where it cannot allocate a config's draws (n_pairs = 10**11 asks for
    # 1.46 TiB); nothing is allocated here, as a kernel that overcommits could grant it.
    def unallocatable(rate_per_s, shape, rng):
        raise MemoryError("Unable to allocate 1.46 TiB for an array with shape (2, 100000000000)")

    monkeypatch.setattr(simulate, "variable_delays", unallocatable)
    out_dir = tmp_path / "out"
    assert main(["simulate", write_config(tmp_path), "--out-dir", str(out_dir), *flags]) == EXIT_DOMAIN
    assert capsys.readouterr() == (
        "", "vpsband: bad config: Unable to allocate 1.46 TiB for an array with shape (2, 100000000000)\n")
    assert not out_dir.exists()


def test_simulate_config_without_pairs_exits_domain(tmp_path, capsys):
    config = write_config(tmp_path, SIM_CONFIG.replace("n_pairs = 60", "n_pairs = 0"))
    assert main(["simulate", config, "--out-dir", str(tmp_path / "out")]) == EXIT_DOMAIN
    assert capsys.readouterr() == ("", "vpsband: bad config: n_pairs must be >= 1, got 0\n")
    assert not (tmp_path / "out").exists()


def test_simulate_missing_config_exits_io(tmp_path, capsys):
    assert main(["simulate", str(tmp_path / "nope.conf"), "--out-dir", str(tmp_path)]) == EXIT_IO
    assert capsys.readouterr() == ("", no_such_file(tmp_path / "nope.conf"))


# ---------------------------------------------------------------------------
# plan
# ---------------------------------------------------------------------------

def test_plan_reference_conditions_json(capsys):
    code = main(["plan", "--var-rate", "1000", "--diff", "0.0008", "--eta", "0.244", "--json"])
    assert code == EXIT_OK
    plan = json.loads(capsys.readouterr().out)
    assert plan["n"] == 50
    assert plan["analytic_n"] == 53
    assert plan["extrapolated"] is False


@pytest.mark.parametrize("eta", ["0.244", "24.4", "24.4%"])
def test_plan_accepts_fraction_and_percent_targets(eta, capsys):
    code = main(["plan", "--var-rate", "1000", "--diff", "0.0008", "--eta", eta, "--json"])
    assert code == EXIT_OK
    assert json.loads(capsys.readouterr().out)["n"] == 50


def test_plan_tight_target_is_flagged_extrapolated(capsys):
    code = main(["plan", "--var-rate", "1000", "--diff", "0.0008", "--eta", "0.01", "--json"])
    assert code == EXIT_OK
    plan = json.loads(capsys.readouterr().out)
    assert plan["extrapolated"] is True
    assert plan["n"] > 200


POSITIVE_FLOATS = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)


def _reject_json_constant(name):
    raise ValueError(f"{name} is not JSON")


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(rate=POSITIVE_FLOATS, diff=POSITIVE_FLOATS,
       eta=st.floats(min_value=0.0, max_value=1.0, exclude_min=True, exclude_max=True))
@example(rate=1000.0, diff=1e-300, eta=0.1)  # the count overflows a float
@example(rate=1e-200, diff=1e-200, eta=0.1)  # the scaled target underflows to zero
@example(rate=5e-324, diff=1e306, eta=0.5)  # its two scale factors are 0 and inf
@example(rate=1e300, diff=1e300, eta=0.1)  # the scaled target overflows to inf
def test_plan_is_total_over_finite_inputs(rate, diff, eta, capsys):
    query = PlanQuery(var_delay_rate=rate, mean_delay_diff_s=diff, target_error=eta)
    try:
        assert isinstance(required_measurements(query), PlanResult)
        expected = EXIT_OK
    except InvalidQuery as exc:
        assert str(exc) in (
            "the planned measurement count is out of floating-point range",
            "the analytic measurement count is out of floating-point range",
            "the scaled error target is out of floating-point range",
        )
        expected = EXIT_DOMAIN
    argv = ["plan", "--var-rate", repr(rate), "--diff", repr(diff), "--eta", repr(eta), "--json"]
    assert main(argv) == expected
    out, err = capsys.readouterr()
    if expected == EXIT_OK:
        assert json.loads(out, parse_constant=_reject_json_constant)["n"] >= 1 and err == ""
    else:
        assert out == "" and err.startswith("vpsband: the ") and err.count("\n") == 1


# ---------------------------------------------------------------------------
# probe / reflect
# ---------------------------------------------------------------------------

def test_probe_cli_loopback_with_csv(tmp_path, capsys):
    out = tmp_path / "probe.csv"
    with Reflector(host="127.0.0.1") as reflector:
        code = main(
            ["probe", "--target", f"127.0.0.1:{reflector.address[1]}",
             "--count", "10", "--spacing", "0.002", "--out", str(out), "--json"]
        )
    assert code == EXIT_OK
    summary = json.loads(capsys.readouterr().out)
    assert summary["sent"] == 20
    assert summary["pairs"] + summary["lost_pairs"] == 10
    assert "symmetric" in summary["caveat"]
    assert "estimate" in summary  # may be null when loopback noise wins

    with open(out, newline="") as fp:
        samples = read_samples_csv(fp)
    assert len(samples) == 2 * summary["pairs"]


@pytest.mark.parametrize("flags", [[], ["--json"]])
def test_probe_cli_without_an_estimate_warns_and_still_writes_the_samples(tmp_path, capsys, monkeypatch, flags):
    # the large packets came back faster than the small ones
    pairs = Pairs.of([make_pair(0.002, 0.001, serial_base=2 * i, sent_at=float(i)) for i in range(3)])
    result = ProbeResult(pairs=pairs, sent=6, received=6, lost_pairs=0, unknown_serials=0)
    monkeypatch.setattr(prober, "probe", lambda cfg: result)
    out = tmp_path / "probe.csv"
    assert main(["probe", "--target", "127.0.0.1:9", "--out", str(out), *flags]) == EXIT_OK
    stdout, err = capsys.readouterr()
    assert err.startswith("vpsband: warning: no estimate from this run: batch 0: ") and err.count("\n") == 1
    if flags:
        assert json.loads(stdout)["estimate"] is None
    else:
        assert "bandwidth" not in stdout
        assert stdout.startswith("sent 6, received 6, 3 pairs (0 lost, 0 unknown serials)\nnote: ")
    with open(out, newline="") as fp:
        assert list(read_samples_csv(fp)) == list(pairs.samples)


def test_probe_cli_silent_target_exits_domain(capsys):
    with socket.socket(socket.AF_INET, socket.SOCK_DGRAM) as black_hole:
        black_hole.bind(("127.0.0.1", 0))
        port = black_hole.getsockname()[1]
        code = main(
            ["probe", "--target", f"127.0.0.1:{port}",
             "--count", "2", "--spacing", "0.01", "--timeout", "0.3"]
        )
    assert code == EXIT_DOMAIN
    assert "no echoes" in capsys.readouterr().err


def test_probe_cli_refused_send_exits_domain(capsys):
    # Without SO_BROADCAST the kernel refuses the send locally: no packet leaves.
    code = main(["probe", "--target", "255.255.255.255:9", "--count", "1"])
    assert code == EXIT_DOMAIN
    err = capsys.readouterr().err
    assert "cannot send to 255.255.255.255:9" in err
    assert "Traceback" not in err


def test_probe_cli_rejects_target_without_port():
    with pytest.raises(SystemExit) as exc_info:
        main(["probe", "--target", "localhost"])
    assert exc_info.value.code == EXIT_USAGE


def test_probe_cli_socket_failure_exits_io(monkeypatch, capsys):
    def no_sockets(*args):
        raise OSError(errno.EMFILE, os.strerror(errno.EMFILE))

    monkeypatch.setattr(socket, "socket", no_sockets)
    assert main(["probe", "--target", "127.0.0.1:9", "--count", "1"]) == EXIT_IO
    assert capsys.readouterr().err == f"vpsband: [Errno {errno.EMFILE}] {os.strerror(errno.EMFILE)}\n"


def test_reflect_bind_conflict_exits_domain(capsys):
    with Reflector(host="127.0.0.1") as holder:
        code = main(["reflect", "--listen", f"127.0.0.1:{holder.address[1]}"])
    assert code == EXIT_DOMAIN
    assert "cannot bind" in capsys.readouterr().err


def test_reflect_subprocess_answers_probes():
    with subprocess.Popen(
        [sys.executable, "-m", "vpsband", "reflect", "--listen", "127.0.0.1:0", "--json"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    ) as proc:
        try:
            host, port = json.loads(proc.stdout.readline())["listening"]
            result = probe(
                ProbeConfig(host=host, port=port, count=5, spacing_s=0.005, timeout_s=2.0)
            )
            assert len(result.pairs) + result.lost_pairs == 5
            assert result.received > 0
        finally:
            proc.terminate()
            proc.wait(timeout=5)


# ---------------------------------------------------------------------------
# reproduce-paper
# ---------------------------------------------------------------------------

def test_reproduce_outputs_and_reruns_identically(tmp_path, capsys):
    first = tmp_path / "ref_a"
    second = tmp_path / "ref_b"
    code = main(["reproduce-paper", "--out-dir", str(first), "--json"])
    assert code == EXIT_OK
    summary = json.loads(capsys.readouterr().out)
    assert summary["seed"] == 42
    assert [p["n"] for p in summary["error_vs_n"]] == [n for n, _ in REFERENCE_ROWS]
    assert summary["plan"] == {
        "n": 50,
        "analytic_n": 53,
        "extrapolated": False,
        "scaled_target": REFERENCE_TARGET_ERROR,
    }
    curves = (first / "averaging_curves.csv").read_text().splitlines()
    blank = [line for line in curves[1:] if line.endswith(",")]
    assert summary["skipped_batches"] == len(blank) == 2

    assert main(["reproduce-paper", "--out-dir", str(second)]) == EXIT_OK
    capsys.readouterr()
    # tests/golden/manifest.json pins these bytes
    for name in ("samples.csv", "error_vs_n.csv", "averaging_curves.csv", "plan.json"):
        assert (first / name).read_bytes() == (second / name).read_bytes()

    assert curves[0] == "batch_size,batch_index,mbps"
    assert len(curves) == 1 + 150 + 60 + 30  # batches of 20, 50, 100 over 3000 pairs


# ---------------------------------------------------------------------------
# top-level usage
# ---------------------------------------------------------------------------

SAMPLES_CSV = str(DATA_DIR / "samples_mean815.csv")
# a probe that ends quickly where its flags are taken
PROBE_QUICK = ["probe", "--target", "127.0.0.1:6000", "--count", "2", "--spacing", "0.001", "--timeout", "0.05"]


@pytest.mark.parametrize(
    "argv",
    [
        [],
        ["frobnicate"],
        ["plan"],
        ["estimate", SAMPLES_CSV, "--w1", "1100", "--w2", "100"],
        ["estimate", SAMPLES_CSV, "--w1", "0", "--w2", "100"],
        ["estimate", SAMPLES_CSV, "--window", "0"],
        ["estimate", SAMPLES_CSV, "--window", "nan"],
        ["probe", "--target", "127.0.0.1:6000", "--spacing", "inf"],
        ["probe", "--target", "127.0.0.1:6000", "--timeout", "nan"],
        ["reproduce-paper", "--out-dir", "unused", "--seed", "-1"],
        ["simulate", "unused.conf", "--out-dir", "unused", "--seed", "-1"],
        ["reflect", "--listen", "127.0.0.1:70000"],
        ["reflect", "--listen", "127.0.0.1:-1"],
    ],
)
def test_usage_errors_exit_64(argv):
    with pytest.raises(SystemExit) as exc_info:
        main(argv)
    assert exc_info.value.code == EXIT_USAGE


@pytest.mark.parametrize(
    "argv,message",
    [
        (["estimate", SAMPLES_CSV, "--bogus"], "unrecognized arguments: --bogus"),
        (["parse", "s.log", "r.log", "--bogus", "--json"], "unrecognized arguments: --bogus"),
        (["plan", "--var-rate", "1", "--diff", "1", "--eta", "0.1", "--bogus"], "unrecognized arguments: --bogus"),
        (["estimate", SAMPLES_CSV, "--w1", "100"], "--w1 and --w2 must be given together"),  # found after parsing
        (["estimate", SAMPLES_CSV, "--w1", "1100", "--w2", "100"], "w1 must be smaller than w2, got 1100 >= 100"),
        (["probe", "--target", "127.0.0.1:6000", "--w1", "1100", "--w2", "100"],
         "w1 must be smaller than w2, got 1100 >= 100"),  # the same mistake in the same words
        (["plan", "--var-rate", "1000", "--diff", "0.0008", "--eta", "-0.1"],
         "target_error must be in (0, 1), got -0.1"),
        (["plan", "--var-rate", "-5", "--diff", "0.0008", "--eta", "0.2"],
         "var_delay_rate must be > 0 per second, got -5.0"),
        (["probe", "--target", "127.0.0.1:6000", "--w1", "8"], "w1 must fit the 16-byte probe header"),
        (["probe", "--target", "127.0.0.1:6000", "--w1", "0"],
         "packet size must be in [1, 65507] bytes, got 0"),
        (["estimate", SAMPLES_CSV, "--batch-size", "x"],
         "argument --batch-size: batch size must be an integer or 'auto', got 'x'"),
        (["simulate", "unused.conf", "--out-dir", "unused", "--seed", "x"],
         "argument --seed: expected an integer, got 'x'"),
        (["estimate", SAMPLES_CSV, "--window", "x"], "argument --window: expected a number, got 'x'"),
        (["plan", "--var-rate", "1", "--diff", "1", "--eta", "x"], "argument --eta: expected a number, got 'x'"),
        (["probe", "--target", "127.0.0.1:x"], "argument --target: port must be an integer, got 'x'"),
        # int() and float() also read other scripts' digits and '_' separators; no flag does,
        # as no file the package reads does, and each refusal keeps the words of other bad text
        (["estimate", SAMPLES_CSV, "--w1", "١٠٠", "--w2", "1100"], "argument --w1: invalid int value: '١٠٠'"),
        (["estimate", SAMPLES_CSV, "--w1", "100", "--w2", "1_100"], "argument --w2: invalid int value: '1_100'"),
        (["estimate", SAMPLES_CSV, "--batch-size", "٥"],
         "argument --batch-size: batch size must be an integer or 'auto', got '٥'"),
        (["estimate", SAMPLES_CSV, "--window", "6_0"], "argument --window: expected a number, got '6_0'"),
        (["plan", "--var-rate", "1_000", "--diff", "8e-4", "--eta", "0.244"],
         "argument --var-rate: invalid float value: '1_000'"),
        (["plan", "--var-rate", "1000", "--diff", "８e-4", "--eta", "0.244"],
         "argument --diff: invalid float value: '８e-4'"),
        (["plan", "--var-rate", "1000", "--diff", "8e-4", "--eta", "٢٤.٤%"],
         "argument --eta: expected a number, got '٢٤.٤%'"),
        (PROBE_QUICK + ["--w1", "١٠٠"], "argument --w1: invalid int value: '١٠٠'"),
        (PROBE_QUICK + ["--w2", "1_100"], "argument --w2: invalid int value: '1_100'"),
        (PROBE_QUICK + ["--count", "٢"], "argument --count: invalid int value: '٢'"),
        (PROBE_QUICK + ["--spacing", "0.00_1"], "argument --spacing: expected a number, got '0.00_1'"),
        (PROBE_QUICK + ["--timeout", "٠.٠٥"], "argument --timeout: expected a number, got '٠.٠٥'"),
        (PROBE_QUICK + ["--target", "127.0.0.1:6_000"], "argument --target: port must be an integer, got '6_000'"),
        # a port past the range, so that no reflector starts where the digits are taken
        (["reflect", "--listen", "127.0.0.1:٧٠٠٠٠"], "argument --listen: port must be an integer, got '٧٠٠٠٠'"),
        (["simulate", "unused.conf", "--out-dir", "unused", "--seed", "٤٢"],
         "argument --seed: expected an integer, got '٤٢'"),
    ],
)
def test_usage_error_of_a_command_shows_that_commands_usage(argv, message, capsys):
    with pytest.raises(SystemExit) as exc_info:
        main(argv)
    assert exc_info.value.code == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith(f"usage: vpsband {argv[0]} [-h]")
    assert err.endswith(f"vpsband {argv[0]}: error: {message}\n")


def test_unknown_option_before_the_command_stays_a_top_level_error(capsys):
    with pytest.raises(SystemExit) as exc_info:
        main(["--bogus", "estimate", SAMPLES_CSV])
    assert exc_info.value.code == EXIT_USAGE
    assert capsys.readouterr().err == (
        "usage: vpsband [-h] COMMAND ...\nvpsband: error: unrecognized arguments: --bogus\n"
    )


# ---------------------------------------------------------------------------
# I/O failures
# ---------------------------------------------------------------------------

def test_reproduce_unwritable_out_dir_exits_io(tmp_path, capsys):
    occupied = tmp_path / "occupied"
    occupied.write_text("a file where the directory should go\n")
    assert main(["reproduce-paper", "--out-dir", str(occupied)]) == EXIT_IO
    assert capsys.readouterr() == ("", f"vpsband: [Errno {errno.EEXIST}] File exists: {str(occupied)!r}\n")


def _package_env() -> dict:
    """The environment with this checkout's package first on PYTHONPATH."""
    package_root = str(Path(vpsband.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, env.get("PYTHONPATH")]))
    return env


DEMO_DATA = Path(__file__).resolve().parent.parent / "demos" / "data"
PARSE_DEMO = ["parse", str(DEMO_DATA / "sender.log"), str(DEMO_DATA / "receiver.log")]


@pytest.mark.parametrize(
    "argv",
    [PARSE_DEMO, PARSE_DEMO + ["--json"], ["plan", "--var-rate", "1000", "--diff", "8e-4", "--eta", "0.244"]],
    ids=["parse", "parse-json", "plan"],
)
def test_closed_stdout_exits_io_silently(argv):
    # stdout buffered, as it is by default, so the output meets the closed pipe when it is flushed
    env = _package_env()
    env.pop("PYTHONUNBUFFERED", None)
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        done = subprocess.run(
            [sys.executable, "-m", "vpsband", *argv],
            stdout=write_end,
            stderr=subprocess.PIPE,
            env=env,
        )
    finally:
        os.close(write_end)
    assert (done.returncode, done.stderr) == (EXIT_IO, b"")


def test_installed_script_entry_point():
    # Checks the console script that pyproject.toml declares without
    # installing the package: the declared target is run in a fresh
    # interpreter the way the installer's generated wrapper runs it.
    tomllib = pytest.importorskip("tomllib")
    with open(Path(__file__).resolve().parent.parent / "pyproject.toml", "rb") as fp:
        scripts = tomllib.load(fp)["project"]["scripts"]
    assert scripts == {"vpsband": "vpsband.cli:main"}
    module, attr = scripts["vpsband"].split(":")
    wrapper = (
        f"import sys\nfrom {module} import {attr}\n"
        f"sys.argv[0] = 'vpsband'\nsys.exit({attr}())"
    )
    done = subprocess.run(
        [sys.executable, "-c", wrapper,
         "plan", "--var-rate", "2000", "--diff", "0.0008", "--eta", "0.244", "--json"],
        capture_output=True,
        text=True,
        env=_package_env(),
    )
    assert done.returncode == EXIT_OK, done.stderr
    assert json.loads(done.stdout)["n"] == 13
