"""Smoke test of the benchmark itself, at tiny sizes.

    PYTHONPATH=src python3 -m pytest perfbench/test_smoke.py

Checks that generation is deterministic, that the generator's reference
pairing agrees with ``vpsband``'s, that every workload runs untraced
and traced with a passing output check and every named metric, that
the yardstick scales CPU time and keeps waiting time as measured, and
that the benchmark refuses to run without the package source.
"""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import gen
import run
import tracing
import worker

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _files(directory: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


@pytest.mark.parametrize("workload", sorted(gen.GENERATORS))
def test_generation_is_deterministic(workload, tmp_path):
    first, second, other = tmp_path / "a", tmp_path / "b", tmp_path / "c"
    for directory, seed in ((first, 7), (second, 7), (other, 8)):
        directory.mkdir()
        truth = gen.GENERATORS[workload](directory, seed, "tiny")
        (directory / "truth.json").write_text(json.dumps(truth))
    assert _files(first) == _files(second)
    if workload in ("logs_10pps", "estimate_dense"):
        assert _files(first) != _files(other)


def test_reference_pairing_matches_package():
    from vpsband.errors import NoPairsFound
    from vpsband.model import Delay, DelaySample, PacketSize
    from vpsband.testbox import pair_by_size

    rng = random.Random(3)
    for _ in range(200):
        rows = []
        for serial in range(rng.randint(1, 40)):
            # whole seconds make ties; a short window makes misses
            sent_at = float(rng.randint(0, 12)) if rng.random() < 0.5 else rng.uniform(0, 12)
            rows.append((sent_at, serial, rng.choice((gen.W1, gen.W2))))
        window = rng.choice((0.5, 2.0, 60.0))
        expected = gen.reference_pairs(rows, window_s=window)
        samples = [DelaySample(PacketSize(b), Delay(0.01), s, t) for t, s, b in rows]
        try:
            result = pair_by_size(samples, PacketSize(gen.W1), PacketSize(gen.W2), window_s=window)
        except NoPairsFound:
            assert expected[0] == 0
            continue
        assert (len(result.pairs), result.unpaired_small, result.unpaired_large) == expected


def test_normalise_scales_cpu_and_keeps_waiting():
    for kind in ("interp", "array"):
        yardstick = worker.Yardstick(kind)
        nominal = yardstick.nominal_s
        # at half speed the CPU part halves; the 1.5 s spent waiting stays
        assert yardstick.normalise(2.0, 0.5, 2 * nominal, 2 * nominal) == pytest.approx(1.75)
        # CPU above wall (two threads busy) is all CPU
        assert yardstick.normalise(1.0, 1.2, nominal, nominal) == pytest.approx(1.2)
        assert yardstick(0.01) > 0


def _bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", ("0", "1"))
@pytest.mark.parametrize("workload", sorted(gen.GENERATORS))
def test_workload_runs_and_prints_every_metric(workload, trace):
    done = _bench("--workload", workload, "--seed", "5", "--seconds", "0.3",
                  "--trace", trace, "--size", "tiny")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"], done.stdout
    # at tiny sizes an estimate may miss its tolerance; that is a failed
    # operation, not a wrong output
    assert 0 <= result["failed"] <= result["attempted"] and result["attempted"] >= 1
    units = tracing.PER_LAYER if trace == "1" else run.END_TO_END
    assert {k: v["unit"] for k, v in result["metrics"].items()} == units
    assert all(isinstance(v["value"], float) for v in result["metrics"].values())
    assert "failed_frac" in done.stdout
    assert not list(ROOT.glob(".perfbench-*"))


def test_refuses_without_package_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    done = _bench("--workload", "logs_10pps", "--seed", "1", "--seconds", "1", cwd=tmp_path)
    assert done.returncode != 0
    assert done.stdout == ""
