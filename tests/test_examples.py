"""The README's library example and the demos run against the package as it stands."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import vpsband

REPO = Path(__file__).resolve().parent.parent
DEMOS = REPO / "demos"


def _run(args, cwd):
    """Run ``python args`` in a fresh interpreter that imports the package under test."""
    package_root = str(Path(vpsband.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *args], cwd=cwd, env=env, capture_output=True, text=True, timeout=120
    )


def test_readme_library_example_runs():
    section = (REPO / "README.md").read_text(encoding="utf-8").split("## Library", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)

    done = _run(["-c", code], cwd=DEMOS / "data")
    assert done.returncode == 0, done.stderr
    assert done.stdout == "0.44 Mbit/s\n"


@pytest.mark.parametrize("demo", sorted(p.name for p in DEMOS.glob("*.py")))
def test_demo_runs(demo):
    done = _run([str(DEMOS / demo)], cwd=REPO)
    assert done.returncode == 0, done.stderr
