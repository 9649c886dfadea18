"""End-to-end command-line behaviour, driven in-process via main(argv)."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import vpsband
from vpsband.cli import EXIT_DOMAIN, EXIT_IO, EXIT_OK, EXIT_USAGE, main
from vpsband.model import read_samples_csv
from vpsband.prober import ProbeConfig, Reflector, probe

from conftest import DATA_DIR

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


def test_parse_missing_file_exits_io(tmp_path):
    code = main(["parse", str(tmp_path / "nope.log"), str(tmp_path / "nope2.log")])
    assert code == EXIT_IO


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
    "content, line",
    [
        (b"\xff\xfe", 1),
        (SAMPLES_HEADER + b"forward,1,0.0,100,0.009\nforward,2,0.1,1100,0.0098\xff\n", 3),
        (SAMPLES_HEADER + b"forward,1,0.0,100,0.009\nforward,2,0.1,1100," + b"9" * 200_000 + b"\n", 3),
        (SAMPLES_HEADER + "forward,\u0661,0.0,100,0.009\n".encode(), 2),
        (SAMPLES_HEADER + b"forward,1,0.0,100,0.009\nforward,2,0.1,1_100,0.0098\n", 3),
    ],
    ids=["not-utf8-header", "not-utf8-field", "field-over-csv-limit", "non-ascii-digit", "underscore"],
)
def test_estimate_bad_samples_file_names_its_line(tmp_path, capsys, content, line):
    path = tmp_path / "bad.csv"
    path.write_bytes(content)
    assert main(["estimate", str(path)]) == EXIT_DOMAIN
    err = capsys.readouterr().err
    assert f"bad samples file: line {line}:" in err
    assert "Traceback" not in err


def test_estimate_missing_file_exits_io(tmp_path):
    assert main(["estimate", str(tmp_path / "nope.csv")]) == EXIT_IO


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


@pytest.mark.parametrize("old,new", [("ns = 5,10", "ns = 1,5"), ("seed = 0", "seed = -3")])
def test_simulate_bad_config_value_writes_nothing(tmp_path, capsys, old, new):
    config = write_config(tmp_path, SIM_CONFIG.replace(old, new))
    out_dir = tmp_path / "out"
    assert main(["simulate", config, "--out-dir", str(out_dir)]) == EXIT_DOMAIN
    assert "bad config" in capsys.readouterr().err
    assert not out_dir.exists()


def test_simulate_missing_config_exits_io(tmp_path):
    assert main(["simulate", str(tmp_path / "nope.conf"), "--out-dir", str(tmp_path)]) == EXIT_IO


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


def test_plan_rejects_bad_targets(capsys):
    assert main(["plan", "--var-rate", "1000", "--diff", "0.0008", "--eta", "-0.1"]) == EXIT_USAGE
    assert main(["plan", "--var-rate", "-5", "--diff", "0.0008", "--eta", "0.2"]) == EXIT_USAGE
    capsys.readouterr()


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


def test_probe_cli_silent_target_exits_domain(capsys):
    import socket

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


def test_probe_cli_rejects_bad_shape(capsys):
    code = main(["probe", "--target", "127.0.0.1:6000", "--w1", "8"])
    assert code == EXIT_USAGE
    assert "header" in capsys.readouterr().err


def test_probe_cli_rejects_target_without_port():
    with pytest.raises(SystemExit) as exc_info:
        main(["probe", "--target", "localhost"])
    assert exc_info.value.code == EXIT_USAGE


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
    assert [p["n"] for p in summary["error_vs_n"]] == [5, 10, 20, 30, 50, 100, 200]
    assert summary["plan"] == {
        "n": 50,
        "analytic_n": 53,
        "extrapolated": False,
        "scaled_target": 0.244,
    }
    curves = (first / "averaging_curves.csv").read_text().splitlines()
    blank = [line for line in curves[1:] if line.endswith(",")]
    assert summary["skipped_batches"] == len(blank) == 2

    assert main(["reproduce-paper", "--out-dir", str(second)]) == EXIT_OK
    capsys.readouterr()
    for name in ("samples.csv", "error_vs_n.csv", "averaging_curves.csv", "plan.json"):
        assert (first / name).read_bytes() == (second / name).read_bytes()

    assert curves[0] == "batch_size,batch_index,mbps"
    assert len(curves) == 1 + 150 + 60 + 30  # batches of 20, 50, 100 over 3000 pairs


# ---------------------------------------------------------------------------
# whole outputs, byte for byte
# ---------------------------------------------------------------------------

DEMO_DATA = Path(__file__).resolve().parent.parent / "demos" / "data"
PARSE_DEMO = ["parse", str(DEMO_DATA / "sender.log"), str(DEMO_DATA / "receiver.log")]
PLAN_REFERENCE = ["plan", "--var-rate", "1000", "--diff", "8e-4", "--eta", "24.4%"]
SIMULATE_SEEDED = ["simulate", "sim.conf", "--out-dir", "out", "--seed", "5"]

GOLDEN = {
    "parse-text": (
        PARSE_DEMO + ["--out", "demo.csv"],
        EXIT_OK,
        "parsed 7 records (0 malformed), matched 2, unmatched 2, duplicates 1\n"
        "samples written to demo.csv\n",
        "",
    ),
    "parse-json": (
        PARSE_DEMO + ["--json"],
        EXIT_OK,
        "direction,serial,sent_at,bytes,delay_s\r\n"
        "forward,1353080554,1263374005.000000,100,0.009001\r\n"
        "forward,1353091581,1263374005.000000,1100,0.027033\r\n"
        '{"parsed": 7, "malformed": 0, "matched": 2, "unmatched": 2, "paired": null, "duplicates": 1}\n',
        "",
    ),
    "estimate-text": (
        ["estimate", "demo.csv"],
        EXIT_OK,
        "available bandwidth: 0.44 Mbit/s\n"
        "pairs used: 1 of 1 (batches of 1); mean delay difference 18.032 ms\n"
        "pairing: 1 pairs, 0 small / 0 large unpaired, 0 other sizes\n",
        "",
    ),
    "estimate-json": (
        ["estimate", "demo.csv", "--json"],
        EXIT_OK,
        '{"bps": 443655.72315882874, "mbps": 0.44, "n_pairs": 1, "sd_bps": null, '
        '"relative_error": null, "mean_delay_diff_s": 0.018032}\n',
        "",
    ),
    "plan-text": (
        PLAN_REFERENCE,
        EXIT_OK,
        "average n = 50 measurements for a 24.4% relative error (analytic check: 53); "
        "within the reference table\n",
        "",
    ),
    "plan-json": (
        PLAN_REFERENCE + ["--json"],
        EXIT_OK,
        '{"n": 50, "analytic_n": 53, "extrapolated": false, "scaled_target": 0.244}\n',
        "",
    ),
    "simulate-text": (
        SIMULATE_SEEDED,
        EXIT_OK,
        "wrote 60 pairs to out/samples.csv (seed 5)\n"
        "  n=   5  sd=0.638 ms  eta=79.8%\n"
        "  n=  10  sd=0.428 ms  eta=53.5%\n",
        "",
    ),
    "simulate-json": (
        SIMULATE_SEEDED + ["--json"],
        EXIT_OK,
        '{"samples_csv": "out/samples.csv", "error_table_csv": "out/error_vs_n.csv", '
        '"n_pairs": 60, "seed": 5, "error_vs_n": ['
        '{"n": 5, "sd_s": 0.0006381594594139029, "eta": 0.7976993242673787}, '
        '{"n": 10, "sd_s": 0.00042801107719134225, "eta": 0.5350138464891778}]}\n',
        "",
    ),
    "reproduce-text": (
        ["reproduce-paper", "--out-dir", "ref"],
        EXIT_OK,
        "reference outputs written to ref (seed 42)\n"
        "  n=   5  sd=0.630 ms  eta=78.8%\n"
        "  n=  10  sd=0.447 ms  eta=55.9%\n"
        "  n=  20  sd=0.316 ms  eta=39.5%\n"
        "  n=  30  sd=0.258 ms  eta=32.3%\n"
        "  n=  50  sd=0.200 ms  eta=25.1%\n"
        "  n= 100  sd=0.142 ms  eta=17.7%\n"
        "  n= 200  sd=0.101 ms  eta=12.6%\n"
        "planned n for the reference conditions: 50 (analytic 53)\n"
        "2 averaging batches had no positive delay difference\n",
        "",
    ),
    "estimate-domain-failure": (
        ["estimate", "demo.csv", "--batch-size", "5"],
        EXIT_DOMAIN,
        "",
        "vpsband: 1 pairs is fewer than one batch of 5\n",
    ),
}


@pytest.mark.parametrize("case", GOLDEN)
def test_command_output_is_byte_identical(case, tmp_path, monkeypatch, capsys):
    # Run from an empty directory so the paths the commands print are relative.
    monkeypatch.chdir(tmp_path)
    write_config(tmp_path)
    assert main(PARSE_DEMO + ["--out", "demo.csv"]) == EXIT_OK
    capsys.readouterr()

    argv, code, stdout, stderr = GOLDEN[case]
    assert main(argv) == code
    assert capsys.readouterr() == (stdout, stderr)


# ---------------------------------------------------------------------------
# top-level usage
# ---------------------------------------------------------------------------

SAMPLES_CSV = str(DATA_DIR / "samples_mean815.csv")


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
    package_root = str(Path(vpsband.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", wrapper,
         "plan", "--var-rate", "2000", "--diff", "0.0008", "--eta", "0.244", "--json"],
        capture_output=True,
        text=True,
        env=env,
    )
    assert done.returncode == EXIT_OK, done.stderr
    assert json.loads(done.stdout)["n"] == 13
