"""Only the commands that draw import numpy; the rest start, and run, without it.
``import vpsband`` loads none of the package's modules, ``import vpsband.cli``
loads only ``model`` and ``errors`` of them, and each command loads the layers it runs.

Each case runs in a fresh interpreter, since the test process itself has
numpy, and every module of the package, loaded.  A case can block numpy
there (``sys.modules["numpy"] = None``, which makes ``import numpy`` raise
``ModuleNotFoundError``) to stand for an install that lacks it.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import vpsband
from vpsband.cli import main

REPO = Path(__file__).resolve().parent.parent
DEMOS = REPO / "demos"
DEMO_DATA = DEMOS / "data"
PARSE_DEMO = ["parse", str(DEMO_DATA / "sender.log"), str(DEMO_DATA / "receiver.log")]
PLAN = ["plan", "--var-rate", "1000", "--diff", "8e-4", "--eta", "0.244"]

NUMPY_MESSAGE = "vpsband: simulation needs numpy, which is not installed\n"

TINY_CONFIG = """\
capacity_bps = 10e6
var_delay_rate = 1000
w1_bytes = 100
w2_bytes = 1100
n_pairs = 10
n_trials = 20
seed = 0
ns = 2,5
"""

# The child reports on its last stderr line whether numpy got imported,
# after the case has run and even if it exited.
_PRELUDE = """\
import atexit, sys
if {block_numpy}:
    sys.modules["numpy"] = None
atexit.register(lambda: print(f"\\nnumpy imported: {{sys.modules.get('numpy') is not None}}", file=sys.stderr))
"""


def run_fresh(code: str, *, block_numpy: bool = False, pythonpath: tuple[str, ...] = ()):
    """Run ``code`` in a fresh interpreter that imports the package under test.

    Returns the exit code, stdout, stderr without the report line, and
    whether numpy was imported.
    """
    package_root = str(Path(vpsband.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [*pythonpath, package_root, env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", _PRELUDE.format(block_numpy=block_numpy) + code],
        cwd=REPO, env=env, capture_output=True, text=True, timeout=120,
    )
    err, _, report = done.stderr.rpartition("\nnumpy imported: ")
    assert report in ("True\n", "False\n"), done.stderr
    return done.returncode, done.stdout, err, report == "True\n"


def cli_code(argv: list[str]) -> str:
    return f"from vpsband.cli import main\nsys.exit(main({argv!r}))\n"


def demo_code(name: str) -> str:
    return f"import runpy\nrunpy.run_path({str(DEMOS / name)!r}, run_name='__main__')\n"


@pytest.fixture
def demo_samples(tmp_path) -> str:
    """The demo logs parsed to a samples CSV, the input of ``estimate``."""
    path = tmp_path / "demo.csv"
    code, _, err, _ = run_fresh(cli_code(PARSE_DEMO + ["--out", str(path)]))
    assert code == 0, err
    return str(path)


def write_config(tmp_path) -> str:
    path = tmp_path / "sim.conf"
    path.write_text(TINY_CONFIG)
    return str(path)


# ---------------------------------------------------------------------------
# numpy stays out of sys.modules
# ---------------------------------------------------------------------------

@pytest.mark.parametrize(
    "code, exit_code, stderr_part",
    [
        ("import vpsband\n", 0, ""),
        ("import vpsband.cli\n", 0, ""),
        (cli_code(PARSE_DEMO), 0, ""),
        (cli_code(PLAN), 0, ""),
        (cli_code(["probe", "--target", "127.0.0.1:1", "--count", "2",
                   "--spacing", "0.001", "--timeout", "0.05"]), 2, "no echoes"),
        (cli_code(["--help"]), 0, ""),
        (cli_code(["simulate", "--help"]), 0, ""),
        (cli_code(["reproduce-paper", "--help"]), 0, ""),
    ],
    ids=["import-package", "import-cli", "parse", "plan", "probe", "help",
         "simulate-help", "reproduce-help"],
)
def test_command_leaves_numpy_unimported(code, exit_code, stderr_part):
    returncode, _, err, numpy_imported = run_fresh(code)
    assert returncode == exit_code, err
    assert stderr_part in err
    assert not numpy_imported


def test_estimate_leaves_numpy_unimported(demo_samples):
    returncode, _, err, numpy_imported = run_fresh(cli_code(["estimate", demo_samples]))
    assert returncode == 0, err
    assert not numpy_imported


def test_simulate_imports_numpy(tmp_path):
    # the control: the report line does see numpy when a command draws
    returncode, _, err, numpy_imported = run_fresh(
        cli_code(["simulate", write_config(tmp_path), "--out-dir", str(tmp_path / "out")])
    )
    assert returncode == 0, err
    assert numpy_imported


# ---------------------------------------------------------------------------
# importing the command line loads no command's layers; each command loads its own
# ---------------------------------------------------------------------------

# what only some commands use: the log reader and the estimator, numpy for those that
# draw, sockets for probe and reflect; csv, which only the samples reader's reference
# path for non-canonical rows imports; and what no module of the package imports:
# dataclasses, with the inspect it loads, and statistics, with the decimal and fractions it loads
NOT_AT_START = ["dataclasses", "inspect", "socket", "selectors", "statistics", "decimal", "fractions", "csv", "_csv",
                "vpsband.testbox", "vpsband.estimator", "vpsband.prober", "vpsband.planner", "vpsband.simulate",
                "numpy"]
LAYERS = ["vpsband.testbox", "vpsband.estimator"]
# batches of five give four batches, so the estimate takes its two spreads
ESTIMATE_SPREAD = ["estimate", str(REPO / "tests" / "data" / "samples_mean815.csv"), "--batch-size", "5"]


def modules_added_by(module: str) -> list[str]:
    """The modules that ``import module`` loads in a fresh interpreter."""
    code = f"before = set(sys.modules)\nimport {module}\nprint(*set(sys.modules) - before)\n"
    returncode, out, err, _ = run_fresh(code)
    assert returncode == 0, err
    added = out.split()
    assert module in added  # the control: the report sees the import
    return added


def modules_after(argv: list[str]) -> tuple[str, list[str]]:
    """What a command prints, and every module loaded once it has run, in a fresh interpreter."""
    code = f"from vpsband.cli import main\ncode = main({argv!r})\nprint(*sys.modules)\nsys.exit(code)\n"
    returncode, out, err, _ = run_fresh(code)
    assert returncode == 0, err
    shown, loaded, _ = out.rsplit("\n", 2)
    return shown, loaded.split()


def test_importing_the_package_loads_none_of_its_modules():
    assert [name for name in modules_added_by("vpsband") if name.startswith("vpsband.")] == []


def test_importing_the_cli_loads_none_of_what_only_other_commands_use():
    added = modules_added_by("vpsband.cli")
    assert "vpsband.model" in added  # the control: the report sees the package's modules
    assert [name for name in NOT_AT_START if name in added] == []


@pytest.mark.parametrize(
    "argv, layers",
    [(PARSE_DEMO, ["vpsband.testbox"]), (PLAN, []), (ESTIMATE_SPREAD, LAYERS)],  # estimate is the control
    ids=["parse", "plan", "estimate"],
)
def test_a_command_loads_only_the_layers_it_runs(argv, layers):
    _, loaded = modules_after(argv)
    assert [name for name in LAYERS if name in loaded] == layers


def test_an_estimate_that_takes_a_spread_loads_no_statistics():
    shown, loaded = modules_after(ESTIMATE_SPREAD)
    assert "spread: 0.08 Mbit/s sd across batches" in shown  # the control: a spread was taken
    assert [name for name in ("statistics", "decimal", "fractions", "numbers") if name in loaded] == []


# numpy loads inspect itself, so simulate is held to dataclasses alone
@pytest.mark.parametrize(
    "module, unwanted",
    [("vpsband.prober", ["dataclasses", "inspect"]), ("vpsband.planner", ["dataclasses", "inspect"]),
     ("vpsband.simulate", ["dataclasses"])],
)
def test_importing_a_command_module_loads_no_dataclasses(module, unwanted):
    added = modules_added_by(module)
    assert [name for name in unwanted if name in added] == []


def test_plan_prints_the_reference_answer_in_a_fresh_interpreter():
    returncode, out, err, _ = run_fresh(cli_code(PLAN))
    assert (returncode, out, err) == (
        0,
        "average n = 50 measurements for a 24.4% relative error (analytic check: 53); within the reference table\n",
        "",
    )


def test_probe_help_in_a_fresh_interpreter_matches_it_with_prober_loaded(monkeypatch, capsys):
    monkeypatch.setenv("COLUMNS", "80")  # read by argparse here and in the child
    with pytest.raises(SystemExit) as loaded:
        main(["probe", "--help"])
    assert loaded.value.code == 0
    assert run_fresh(cli_code(["probe", "--help"]))[:3] == (0, capsys.readouterr().out, "")


# ---------------------------------------------------------------------------
# numpy missing
# ---------------------------------------------------------------------------

@pytest.mark.parametrize(
    "argv",
    [
        PARSE_DEMO,
        PARSE_DEMO + ["--json"],
        ["estimate", "{samples}"],
        ["estimate", "{samples}", "--json"],
        PLAN,
        PLAN + ["--json"],
    ],
    ids=["parse-text", "parse-json", "estimate-text", "estimate-json", "plan-text", "plan-json"],
)
def test_command_without_numpy_prints_what_it_prints_with_it(argv, demo_samples):
    code = cli_code([arg.format(samples=demo_samples) for arg in argv])
    with_numpy = run_fresh(code)
    without_numpy = run_fresh(code, block_numpy=True)
    assert with_numpy[0] == 0, with_numpy[2]
    assert without_numpy[:3] == with_numpy[:3]


@pytest.mark.parametrize("demo", ["estimate_from_logs.py", "plan_samples.py"])
def test_demo_runs_without_numpy(demo):
    with_numpy = run_fresh(demo_code(demo))
    without_numpy = run_fresh(demo_code(demo), block_numpy=True)
    assert without_numpy[0] == 0, without_numpy[2]
    assert without_numpy[:3] == with_numpy[:3]


@pytest.mark.parametrize("command", ["simulate", "reproduce-paper"])
def test_drawing_command_without_numpy_exits_domain_and_writes_nothing(command, tmp_path):
    out_dir = tmp_path / "out"
    argv = [command, "--out-dir", str(out_dir)]
    if command == "simulate":
        argv.insert(1, write_config(tmp_path))
    returncode, out, err, _ = run_fresh(cli_code(argv), block_numpy=True)
    assert (returncode, out, err) == (2, "", NUMPY_MESSAGE)
    assert not out_dir.exists()


@pytest.mark.parametrize(
    "numpy_init, error",
    [
        ("import numpy_dependency_that_is_missing\n",
         "ModuleNotFoundError: No module named 'numpy_dependency_that_is_missing'"),
        ("raise ImportError('numpy is broken')\n", "ImportError: numpy is broken"),
    ],
    ids=["missing-dependency", "broken-install"],
)
def test_other_import_errors_are_not_taken_for_missing_numpy(numpy_init, error, tmp_path):
    # a numpy that is there but fails to import is a fault to show, not to explain away
    fake = tmp_path / "fake" / "numpy"
    fake.mkdir(parents=True)
    (fake / "__init__.py").write_text(numpy_init)
    returncode, _, err, _ = run_fresh(
        cli_code(["simulate", write_config(tmp_path), "--out-dir", str(tmp_path / "out")]),
        pythonpath=(str(fake.parent),),
    )
    assert returncode == 1
    assert "Traceback" in err
    assert error in err
    assert NUMPY_MESSAGE not in err
