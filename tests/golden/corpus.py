"""The golden corpus: every command's outputs, byte for byte.

A case is one or more ``vpsband`` command lines run in turn, in-process
through ``cli.main``, from an empty temporary directory that holds a
copy of each input the case names.  Its record is each command's argv,
exit code and the sha256 of its stdout and stderr, then the sha256 of
each file the commands left behind.  ``manifest.json`` holds every
case's record, one per case on every supported Python, and the sha256
of every input.

Check the corpus without pytest (``tests/golden/test_golden.py`` runs
the same cases under it)::

    PYTHONPATH=src python3 tests/golden/corpus.py [--no-draw]

``--no-draw`` leaves out the cases that draw random numbers, which need
numpy.  ``regenerate.py`` rewrites the manifest.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import shutil
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from unittest import mock

from vpsband.cli import main

HERE = Path(__file__).resolve().parent
REPO = HERE.parent.parent
MANIFEST = HERE / "manifest.json"

# each input as a case names it, and the file it is copied from
INPUTS = {
    **{f"demo/{name}": f"demos/data/{name}" for name in ("sender.log", "receiver.log")},
    **{f"data/{name}": f"tests/data/{name}" for name in ("sender.log", "receiver.log", "samples_mean815.csv")},
    **{f"in/{path.name}": path.relative_to(REPO).as_posix() for path in sorted((HERE / "inputs").iterdir())},
}

PARSE_DEMO = ["parse", "demo/sender.log", "demo/receiver.log"]
PARSE_DATA = ["parse", "data/sender.log", "data/receiver.log"]
PARSE_GEN = [["parse", f"in/sender{i}.log", f"in/receiver{i}.log"] for i in (0, 1)]
SAMPLES = "data/samples_mean815.csv"
DENSE = "in/dense.csv"
PLAN_REFERENCE = ["plan", "--var-rate", "1000", "--diff", "8e-4", "--eta", "24.4%"]
PLAN_FAR = ["plan", "--var-rate", "250", "--diff", "2e-3", "--eta", "0.05"]


def _estimates(*flags: list[str]) -> list[list[str]]:
    """``estimate g.csv`` with each of ``flags``, text and ``--json``."""
    return [["estimate", "g.csv", *f, *json_flag] for f in flags for json_flag in ([], ["--json"])]


# Cases that draw no random numbers, and so run without numpy: name -> command lines.
CASES = {
    "parse-demo-stdout": [PARSE_DEMO],
    "parse-demo-stdout-json": [PARSE_DEMO + ["--json"]],
    "parse-demo-out": [PARSE_DEMO + ["--out", "demo.csv"]],
    "parse-demo-out-json": [PARSE_DEMO + ["--out", "demo.csv", "--json"]],
    "parse-data-out-json": [PARSE_DATA + ["--out", "data.csv", "--json"]],
    "parse-gen0-stdout": [PARSE_GEN[0]],
    "parse-gen1-stdout-json": [PARSE_GEN[1] + ["--json"]],
    # serials that wrap past 2**64 - 1 mid-capture: send order is not serial order
    "parse-serial-wrap": [["parse", "in/wrap-sender.log", "in/wrap-receiver.log", "--out", "g.csv", "--json"],
                          ["estimate", "g.csv", "--batch-size", "1", "--json"]],
    "parse-no-match": [["parse", "demo/sender.log", "in/receiver0.log", "--out", "none.csv"]],
    "parse-missing-file": [["parse", "nope.log", "demo/receiver.log"]],
    "estimate-demo": [PARSE_DEMO + ["--out", "g.csv"], *_estimates([])],
    "estimate-demo-batch-too-large": [PARSE_DEMO + ["--out", "g.csv"], *_estimates(["--batch-size", "5"])],
    **{
        f"estimate-gen{i}": [
            parse + ["--out", "g.csv"],
            *_estimates([], ["--batch-size", "auto"], ["--batch-size", "25"], ["--batch-size", "10"],
                        ["--window", "0.25"], ["--w1", "100", "--w2", "1100", "--batch-size", "300"]),
        ]
        for i, parse in enumerate(PARSE_GEN)
    },
    "estimate-dense": [
        ["estimate", DENSE], ["estimate", DENSE, "--json"], ["estimate", DENSE, "--batch-size", "25", "--json"],
        ["estimate", DENSE, "--batch-size", "1"],
        ["estimate", DENSE, "--window", "0.0005"], ["estimate", DENSE, "--window", "1e-7", "--json"],
    ],
    "estimate-samples": [
        ["estimate", SAMPLES], ["estimate", SAMPLES, "--json"], ["estimate", SAMPLES, "--batch-size", "2"],
        ["estimate", SAMPLES, "--window", "10", "--json"],
    ],
    "estimate-quoted-csv": [["estimate", "in/quoted.csv"], ["estimate", "in/quoted.csv", "--json"]],
    # refused in Python 3.10's csv words on every Python, though 3.11's csv reads the NUL as text
    "estimate-nul": [["estimate", "in/nul.csv"]],
    "estimate-one-size": [["estimate", "in/one-size.csv"]],
    "estimate-three-sizes": [["estimate", "in/three-sizes.csv"],
                             ["estimate", "in/three-sizes.csv", "--w1", "100", "--w2", "512"]],
    "estimate-reverse-direction": [["estimate", "in/reverse.csv"]],
    "estimate-bad-header": [["estimate", "data/sender.log"]],
    "estimate-header-only": [["estimate", "in/header-only.csv"]],
    "estimate-missing-file": [["estimate", "nope.csv"]],
    "plan-reference": [PLAN_REFERENCE, PLAN_REFERENCE + ["--json"]],
    "plan-extrapolated": [PLAN_FAR, PLAN_FAR + ["--json"]],
    "plan-percent": [["plan", "--var-rate", "2000", "--diff", "0.0008", "--eta", "30", "--json"]],
    # usage errors, exit 64
    **{
        f"usage-{i:02d}": [argv]
        for i, argv in enumerate([
            [],
            ["frobnicate"],
            ["--bogus", "estimate", SAMPLES],
            ["plan"],
            ["estimate", SAMPLES, "--w1", "1100", "--w2", "100"],
            ["estimate", SAMPLES, "--w1", "0", "--w2", "100"],
            ["estimate", SAMPLES, "--w1", "100"],
            ["estimate", SAMPLES, "--window", "0"],
            ["estimate", SAMPLES, "--window", "nan"],
            ["estimate", SAMPLES, "--window", "x"],
            ["estimate", SAMPLES, "--batch-size", "0"],
            ["estimate", SAMPLES, "--batch-size", "x"],
            ["estimate", SAMPLES, "--bogus"],
            ["parse", "s.log", "r.log", "--bogus", "--json"],
            ["plan", "--var-rate", "1", "--diff", "1", "--eta", "0.1", "--bogus"],
            ["plan", "--var-rate", "1", "--diff", "1", "--eta", "x"],
            ["plan", "--var-rate", "1000", "--diff", "0.0008", "--eta", "-0.1"],
            ["plan", "--var-rate", "-5", "--diff", "0.0008", "--eta", "0.2"],
            ["probe", "--target", "127.0.0.1:6000", "--spacing", "inf"],
            ["probe", "--target", "127.0.0.1:6000", "--timeout", "nan"],
            ["probe", "--target", "127.0.0.1:6000", "--w1", "1100", "--w2", "100"],
            ["probe", "--target", "127.0.0.1:6000", "--w1", "8"],
            ["probe", "--target", "127.0.0.1:6000", "--w1", "0"],
            ["probe", "--target", "127.0.0.1:x"],
            ["probe", "--target", "localhost"],
            ["reproduce-paper", "--out-dir", "unused", "--seed", "-1"],
            ["simulate", "unused.conf", "--out-dir", "unused", "--seed", "-1"],
            ["simulate", "unused.conf", "--out-dir", "unused", "--seed", "x"],
            ["reflect", "--listen", "127.0.0.1:70000"],
            ["reflect", "--listen", "127.0.0.1:-1"],
            # unknown arguments before and after the command: the root parser names them all
            ["--bogus", "estimate", SAMPLES, "--zap"],
        ])
    },
    # help texts, which Python 3.10 and 3.11 print alike
    "help": [["--help"]],
    **{f"help-{command}": [[command, "--help"]]
       for command in ("parse", "estimate", "simulate", "plan", "probe", "reflect", "reproduce-paper")},
}

# Cases that draw random numbers: they need numpy.
DRAWING_CASES = {
    "simulate-config-seed": [["simulate", "in/tiny.conf", "--out-dir", "out"]],
    "simulate-seed-5": [["simulate", "in/tiny.conf", "--out-dir", "out", "--seed", "5"],
                        ["simulate", "in/tiny.conf", "--out-dir", "out", "--seed", "5", "--json"]],
    "simulate-one-trial": [["simulate", "in/one-trial.conf", "--out-dir", "out", "--json"]],
    "simulate-bad-config": [["simulate", "in/bad.conf", "--out-dir", "out"]],
    "simulate-missing-config": [["simulate", "nope.conf", "--out-dir", "out"]],
    "reproduce-paper": [["reproduce-paper", "--seed", "42", "--out-dir", "ref"]],
}

ALL_CASES = {**CASES, **DRAWING_CASES}


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _text_bytes(text: str) -> bytes:
    return text.encode("utf-8", errors="surrogateescape")


def run_command(argv: list[str]) -> tuple[int, str, str]:
    """``main(argv)``'s exit code, stdout and stderr, a usage error's exit included."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def run_case(steps: list[list[str]]) -> tuple[dict, list[tuple[str, str]]]:
    """The record of a case, and each command's stdout and stderr texts."""
    names = sorted({arg for argv in steps for arg in argv if arg in INPUTS})
    cwd = os.getcwd()
    # COLUMNS is the width argparse wraps usage and help to
    with tempfile.TemporaryDirectory() as tmp, mock.patch.dict(os.environ, COLUMNS="80"):
        root = Path(tmp)
        for name in names:
            (root / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copyfile(REPO / INPUTS[name], root / name)
        os.chdir(root)
        try:
            results = [run_command(argv) for argv in steps]
        finally:
            os.chdir(cwd)
        written = sorted(p for p in root.rglob("*") if p.is_file() and p.relative_to(root).as_posix() not in names)
        files = {p.relative_to(root).as_posix(): sha256(p.read_bytes()) for p in written}
    record = {
        "steps": [
            {"argv": argv, "exit": code, "stdout": sha256(_text_bytes(out)), "stderr": sha256(_text_bytes(err))}
            for argv, (code, out, err) in zip(steps, results)
        ],
        "files": files,
    }
    return record, [(out, err) for _, out, err in results]


def input_hashes() -> dict[str, str]:
    return {name: sha256((REPO / path).read_bytes()) for name, path in INPUTS.items()}


def load_manifest() -> dict:
    with open(MANIFEST, encoding="utf-8") as fp:
        return json.load(fp)


def mismatch(name: str, expected: dict | None) -> str | None:
    """None if case ``name`` gives the record ``expected``, else what differs."""
    record, texts = run_case(ALL_CASES[name])
    if record == expected:
        return None
    if expected is None:
        return f"{name}: not in the manifest"
    lines = [f"{name}:"]
    for i, (step, (out, err)) in enumerate(zip(record["steps"], texts)):
        want = expected["steps"][i] if i < len(expected["steps"]) else {}
        if step != want:
            lines.append(f"  step {i}: {step['argv']} exited {step['exit']} (manifest: {want.get('exit')})")
            for stream, text in (("stdout", out), ("stderr", err)):
                if step[stream] != want.get(stream):
                    lines.append(f"    {stream} differs; it is now:\n{text[:2000]}")
    if record["files"] != expected["files"]:
        lines.append(f"  files: {record['files']}\n  manifest: {expected['files']}")
    return "\n".join(lines)


def check(names) -> list[str]:
    """What differs from the manifest: its inputs, then each case of ``names``."""
    manifest = load_manifest()
    failures = [f"input {name} differs from the manifest"
                for name, digest in input_hashes().items() if manifest["inputs"].get(name) != digest]
    for name in names:
        failure = mismatch(name, manifest["cases"].get(name))
        if failure is not None:
            failures.append(failure)
    return failures


if __name__ == "__main__":
    names = list(CASES) if sys.argv[1:] == ["--no-draw"] else list(ALL_CASES)
    failures = check(names)
    print("\n".join(failures) if failures else f"{len(names)} golden cases match the manifest")
    sys.exit(1 if failures else 0)
