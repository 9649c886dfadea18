"""Benchmark entry point: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; ``vpsband`` is imported from ``src/``
with no install.  The run generates its inputs from the seed under a
temporary ``.perfbench-*`` directory in the checkout, then starts
``worker.py`` in a process of its own to repeat the workload for S
seconds, time the package's set-up between rounds, and check the
outputs against the generator's ground truth.  The end-to-end round
times are medians over the run, normalised to the host's speed by the
worker's yardstick; the raw round times print on the report lines.  With ``--trace 1`` the
worker alternates untraced rounds with rounds in which every layer is
traced, and the result carries the per-layer metrics instead of the
end-to-end ones.  The last line of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import gen
import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

END_TO_END = {
    "wall_s": "s",
    "samples_per_s": "1/s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}
# what one operation is, for the failure line
OPERATION = {
    "logs_10pps": "captures",
    "estimate_dense": "captures",
    "spread_table": "table rows",
    "probe_loopback": "probe pairs",
}
DEADLINE_S = 170.0


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return env


def run(args, work: Path) -> dict:
    started = time.monotonic()
    truth = gen.GENERATORS[args.workload](work, args.seed, args.size)
    (work / "truth.json").write_text(json.dumps(truth), encoding="utf-8")
    cmd = [sys.executable, str(HERE / "worker.py"), str(work), args.workload,
           repr(args.seconds), str(args.trace)]
    subprocess.run(cmd, cwd=ROOT, env=_env(), check=True,
                   timeout=DEADLINE_S - (time.monotonic() - started))
    result = json.loads((work / "result.json").read_text(encoding="utf-8"))
    if args.trace:
        spans = json.loads((work / "spans.json").read_text(encoding="utf-8"))
        traced = result["traced_rounds"]
        result["per_layer"] = tracing.per_layer(spans, len(traced), sum(r["samples"] for r in traced),
                                               truth.get("true_bps"))
        result["per_layer"]["trace_overhead_pct"] = (
            statistics.median(r["wall_s"] for r in traced)
            / statistics.median(r["wall_s"] for r in result["rounds"]) - 1.0
        ) * 100.0
    return result


def report(args, result: dict) -> dict:
    rounds = result["rounds"]
    failed = sum(result["failures"].values())
    attempted = result["attempted"]
    if args.trace:
        values = result["per_layer"]
        units = tracing.PER_LAYER
    else:
        values = {
            "wall_s": statistics.median(r["norm_wall_s"] for r in rounds),
            "samples_per_s": statistics.median(r["samples"] / r["norm_wall_s"] for r in rounds),
            "peak_rss_mb": result["peak_rss_mb"],
            "setup_s": statistics.median(result["setup_s"]),
        }
        units = END_TO_END

    print(f"workload {args.workload}, seed {args.seed}: {len(rounds)} "
          f"{'untraced rounds alternating with as many traced' if args.trace else 'timed rounds'}")
    keys = ("wall_s",) if args.trace else ("wall_s", "norm_wall_s")
    for key in keys:
        walls = sorted(r[key] for r in rounds)
        quartiles = statistics.quantiles(walls, n=4, method="inclusive") if len(walls) > 1 else walls * 3
        print(f"  {'raw' if key == 'wall_s' else 'normalised'} round wall min/q1/median/q3/max "
              + "/".join(f"{v:.4g}" for v in (walls[0], *quartiles, walls[-1])) + " s")
    for name, value in values.items():
        print(f"  {name:<45} {value:>14.6g} {units[name]}")
    print(f"  {'failed_frac':<45} {failed / attempted:>14.6g} "
          f"({failed} failed of {attempted} {OPERATION[args.workload]})")
    for why, k in sorted(result["failures"].items()):
        print(f"    {k} x {why}")
    print(f"  output check: {'FAIL: ' + '; '.join(result['wrong']) if result['wrong'] else 'pass'}")
    return {
        "correct": not result["wrong"],
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in values.items()},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(gen.GENERATORS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=sorted(gen.SIZES), default="full",
                        help="input sizes; 'tiny' is for the smoke test")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "vpsband" / "__init__.py").is_file():
        print(f"perfbench: no vpsband package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    work = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    try:
        result = run(args, work)
    except (subprocess.SubprocessError, OSError, ValueError, RuntimeError) as exc:
        print(f"perfbench: {args.workload} failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(report(args, result)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
