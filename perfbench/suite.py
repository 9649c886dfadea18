"""Run every workload with one seed, untraced and then traced.

    python3 perfbench/suite.py [--seed N] [--seconds S] [--trace 0|1|both]

Each workload runs through ``run.py`` as its own process, exactly as a
single run would; their reports print in turn.  Exits non-zero if any
run did.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

import gen

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float,
                        default=json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"])
    parser.add_argument("--trace", choices=("0", "1", "both"), default="both")
    args = parser.parse_args(argv)

    status = 0
    for trace in ("0", "1") if args.trace == "both" else (args.trace,):
        for workload in gen.GENERATORS:
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
                   "--seed", str(args.seed), "--seconds", repr(args.seconds), "--trace", trace]
            status |= subprocess.run(cmd, cwd=ROOT).returncode
    return status


if __name__ == "__main__":
    sys.exit(main())
