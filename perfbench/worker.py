"""Runs one workload against ``vpsband`` and checks its outputs.

Started by ``run.py`` as its own process, so the peak RSS it reports
belongs to the program and not to the input generator.  Usage::

    worker.py WORKDIR WORKLOAD SECONDS TRACE
    worker.py --setup WORKDIR WORKLOAD

The first form repeats rounds of the workload until SECONDS have
passed and writes ``result.json`` (and, when TRACE is 1, ``spans.json``)
into WORKDIR.  The second times importing ``vpsband`` plus the
workload's own set-up, in a fresh interpreter, and prints the seconds.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import signal
import socket
import subprocess
import sys
import time
from pathlib import Path

# The estimate must land within this share of the generator's true
# bandwidth.  It covers the estimator's known upward bias (mean of
# per-batch reciprocals, about +6% here, reported as estimator.bias_pct)
# plus five standard errors of a capture's estimate.
ESTIMATE_TOLERANCE = 0.25


class Yardstick:
    """A fixed job, timed in CPU seconds between rounds, that gauges the host's speed.

    Other tenants of the host change its CPU speed by up to 2x for tens
    of seconds at a time, and CPU time changes with it, so no statistic
    of raw round times repeats from one run to the next.  A round's CPU
    time over the yardstick's, taken just before and just after it,
    varies far less.
    ``interp`` is interpreter-bound: it splits and converts log-like
    lines, as the parser does, and scans a list for the nearest untaken
    time, as the pairing does.  ``array`` takes numpy draws and
    reductions over a fresh 40 MB array, as the simulator does: the
    array is past glibc's largest mmap threshold, so each run faults in
    new pages and the kernel time the simulator spends doing the same is
    gauged too.
    ``NOMINAL_S`` is each job's CPU time on the reference host in its
    fast phase: it fixes the unit of a normalised time and nothing else.
    """

    NOMINAL_S = {"interp": 0.005, "array": 0.040}

    def __init__(self, kind: str):
        self.nominal_s = self.NOMINAL_S[kind]
        if kind == "interp":
            self._lines = [f"RCDP 12 2 89.186.245.200 55730 193.233.1.69 6000 {1263374005 + i / 10:.6f} "
                           f"0.0{i % 97:04d} 0X2107 {i}" for i in range(2000)]
            self._times = [i * 0.002 for i in range(1000)]
            self._job = self._interp
        else:
            self._job = self._array
        self._job()  # warm-up: the first call imports and allocates

    def _interp(self) -> None:
        delays = {}
        for line in self._lines:
            fields = line.split()
            delays[int(fields[-1])] = float(fields[7]) - float(fields[8])
        sorted(delays.values())
        times = self._times
        taken = [False] * len(times)
        for j in range(40):
            t = j * 0.05 + 0.001
            best, best_dt = -1, 0.0
            for k in range(len(times)):
                if taken[k]:
                    continue
                dt = abs(times[k] - t)
                if best < 0 or dt < best_dt:
                    best, best_dt = k, dt
            taken[best] = True

    @staticmethod
    def _array() -> None:
        import numpy as np

        draws = np.random.default_rng(0).exponential(1e-3, size=(500, 10_000))
        (draws[:250] - draws[250:]).mean(axis=1).std()

    def __call__(self, budget_s: float = 0.0) -> float:
        """Run the job until it has used ``budget_s`` CPU seconds, at least
        once; return its mean CPU seconds per run."""
        t0 = time.process_time()
        runs = 0
        while not runs or time.process_time() - t0 < budget_s:
            self._job()
            runs += 1
        return (time.process_time() - t0) / runs

    def normalise(self, wall: float, cpu: float, before: float, after: float) -> float:
        """Wall seconds at nominal speed: the CPU part is scaled by the yardstick
        times around it, the time spent waiting is kept as it is."""
        return max(wall - cpu, 0.0) + cpu * self.nominal_s / ((before + after) / 2)


class Outcome:
    """Operations attempted and failed in one round, and why.

    A failure is ``wrong`` when a deterministic check failed: a count,
    an exit code or the probe accounting.  A refused capture, an
    estimate outside its tolerance and a lost probe pair fail their
    operation without making the run's output wrong.
    """

    def __init__(self):
        self.attempted = 0
        self.failures: dict[str, int] = {}
        self.wrong: set[str] = set()

    def ok(self) -> None:
        self.attempted += 1

    def fail(self, why: str, wrong: bool = True) -> None:
        self.attempted += 1
        self.failures[why] = self.failures.get(why, 0) + 1
        if wrong:
            self.wrong.add(why)


def stop(proc: subprocess.Popen) -> None:
    """Interrupt a reflector and wait for it to end."""
    if proc.poll() is None:
        proc.send_signal(signal.SIGINT)
        try:
            proc.wait(timeout=5)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
    proc.stdin.close()
    proc.stdout.close()


def start_reflector() -> tuple[subprocess.Popen, int, float]:
    """Start a reflector; return it, its port and the seconds to its first echo."""
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, str(Path(__file__).with_name("reflector.py"))],
                            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
    try:
        port = json.loads(proc.stdout.readline())["listening"][1]
        with socket.socket(socket.AF_INET, socket.SOCK_DGRAM) as sock:
            sock.settimeout(0.002)
            deadline = time.monotonic() + 10.0
            while True:
                sock.sendto(b"ping", ("127.0.0.1", port))
                try:
                    sock.recvfrom(64)
                    break
                except socket.timeout:
                    if time.monotonic() > deadline:
                        raise RuntimeError("reflector did not echo") from None
    except BaseException:
        stop(proc)
        raise
    return proc, port, time.perf_counter() - t0


def _cli(argv: list[str]) -> tuple[int, str, str, float, float]:
    """Run ``vpsband.cli.main`` in-process; return code, output, wall and CPU seconds."""
    from vpsband import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0, c0 = time.perf_counter(), time.process_time()
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        wall, cpu = time.perf_counter() - t0, time.process_time() - c0
    return code, out.getvalue(), err.getvalue(), wall, cpu


def _check_estimate(outcome: Outcome, code: int, out: str, err: str, pairs_used: int, true_bps: float) -> None:
    if code == 2 and "not positive" in err:
        outcome.fail("estimate refused: non-positive batch delay difference", wrong=False)
    elif code != 0:
        outcome.fail(f"estimate exited {code}: {err.strip()}")
    elif (est := json.loads(out))["n_pairs"] != pairs_used:
        outcome.fail(f"estimate used {est['n_pairs']} pairs, expected {pairs_used}")
    elif abs(est["bps"] / true_bps - 1.0) > ESTIMATE_TOLERANCE:
        outcome.fail(f"estimate {est['bps'] / true_bps - 1.0:+.1%} off the true bandwidth, "
                     f"outside {ESTIMATE_TOLERANCE:.0%}", wrong=False)
    else:
        outcome.ok()


# ---------------------------------------------------------------------------
# workloads: round ``index`` returns (wall s, CPU s, samples, Outcome)
# ---------------------------------------------------------------------------

def round_logs(work: Path, truth: dict, _port, index: int):
    """One capture, taking the captures in turn: short rounds let the
    yardstick around each one see the host's speed during it."""
    outcome = Outcome()
    k = index % len(truth["captures"])
    cap = truth["captures"][k]
    csv_path = str(work / f"samples{k}.csv")
    code, out, err, wall, cpu = _cli(["parse", str(work / cap["sender"]), str(work / cap["receiver"]),
                                      "--out", csv_path, "--json"])
    if code != 0:
        outcome.fail(f"parse exited {code}: {err.strip()}")
        return wall, cpu, 0, outcome
    diag = json.loads(out)
    bad = [f"{key} {diag[key]} != {cap[key]}"
           for key in ("parsed", "malformed", "matched", "unmatched", "duplicates") if diag[key] != cap[key]]
    if bad:
        outcome.fail("parse counts: " + ", ".join(bad))
        return wall, cpu, 0, outcome
    code, out, err, estimate_wall, estimate_cpu = _cli(["estimate", csv_path, "--json"])
    _check_estimate(outcome, code, out, err, cap["pairs_used"], truth["true_bps"])
    return wall + estimate_wall, cpu + estimate_cpu, cap["matched"], outcome


def round_dense(work: Path, truth: dict, _port, _index):
    outcome = Outcome()
    code, out, err, wall, cpu = _cli(["estimate", str(work / truth["csv"]), "--json"])
    _check_estimate(outcome, code, out, err, truth["pairs_used"], truth["true_bps"])
    return wall, cpu, truth["samples"], outcome


def round_spread(work: Path, truth: dict, _port, _index):
    from vpsband import planner

    outcome = Outcome()
    code, out, err, wall, cpu = _cli(["simulate", str(work / truth["config"]),
                                      "--out-dir", str(work / "sim"), "--json"])
    samples = 2 * truth["n_pairs"] + 2 * truth["n_trials"] * sum(truth["ns"])
    if code != 0:
        for _ in truth["ns"]:
            outcome.fail(f"simulate exited {code}: {err.strip()}")
        return wall, cpu, samples, outcome
    rows = {row["n"]: row for row in json.loads(out)["error_vs_n"]}
    for n in truth["ns"]:
        row = rows.get(n)
        if row is None:
            outcome.fail(f"no table row for n={n}")
            continue
        t0, c0 = time.perf_counter(), time.process_time()
        plan = planner.required_measurements(planner.PlanQuery(
            var_delay_rate=truth["var_delay_rate"],
            mean_delay_diff_s=truth["true_diff_s"],
            target_error=row["eta"],
        ))
        wall += time.perf_counter() - t0
        cpu += time.process_time() - c0
        law, band = truth["law_sd_s"][str(n)], truth["band"][str(n)]
        # the closed form inverts the law, so it may miss n by the band
        # squared, plus rounding up to a whole count
        if abs(row["sd_s"] / law - 1.0) > band:
            outcome.fail(f"n={n}: spread {row['sd_s']:.3e} s is outside {band:.1%} of {law:.3e}")
        elif not (1 + band) ** -2 <= plan.analytic_n / n <= (1 - band) ** -2 + 1 / n:
            outcome.fail(f"n={n}: planner's closed form gives {plan.analytic_n}")
        else:
            outcome.ok()
    return wall, cpu, samples, outcome


def round_probe(work: Path, truth: dict, port, _index):
    outcome = Outcome()
    count = truth["count"]
    code, out, err, wall, cpu = _cli([
        "probe", "--target", f"127.0.0.1:{port}", "--count", str(count),
        "--spacing", str(truth["spacing_s"]), "--timeout", str(truth["timeout_s"]),
        "--w1", str(truth["w1"]), "--w2", str(truth["w2"]), "--json",
    ])
    if code != 0:
        for _ in range(count):
            outcome.fail(f"probe exited {code}: {err.strip()}")
        return wall, cpu, 0, outcome
    res = json.loads(out)
    # a lost echo fails its pair; anything else off in the accounting is wrong output
    for k in range(count):
        if k < res["pairs"]:
            outcome.ok()
        else:
            outcome.fail("probe pair lost", wrong=False)
    if res["sent"] != 2 * count or res["pairs"] + res["lost_pairs"] != count or res["unknown_serials"]:
        outcome.wrong.add(f"sent {res['sent']} for {count} pairs, {res['pairs']} paired, "
                          f"{res['lost_pairs']} lost, {res['unknown_serials']} unknown serials")
    return wall, cpu, res["sent"], outcome


ROUNDS = {
    "logs_10pps": round_logs,
    "estimate_dense": round_dense,
    "spread_table": round_spread,
    "probe_loopback": round_probe,
}
# the yardstick whose work is most like the round's CPU-bound part
YARDSTICK = {
    "logs_10pps": "interp",
    "estimate_dense": "interp",
    "spread_table": "array",
    "probe_loopback": "interp",
}


class SetUp:
    """Samples of the workload's set-up time, taken between rounds.

    Spreading the samples over the run lets their median see the same
    machine as the rounds do.  Set-up is importing ``vpsband`` plus the
    workload's own preparation in a fresh interpreter; for the probe
    workload it is starting the reflector up to its first echo, and the
    first reflector started serves the probe rounds.  The samples are
    raw: scaled by the ``interp`` yardstick, they varied more from run
    to run than unscaled, because importing slows less than the
    yardstick does when the host slows.
    """

    def __init__(self, work: Path, workload: str):
        self.work, self.workload = work, workload
        self.seconds: list[float] = []
        self.reflector: subprocess.Popen | None = None
        self.port: int | None = None

    def sample(self) -> None:
        if self.workload != "probe_loopback":
            cmd = [sys.executable, __file__, "--setup", str(self.work), self.workload]
            done = subprocess.run(cmd, check=True, capture_output=True, text=True, timeout=60)
            self.seconds.append(float(done.stdout))
            return
        proc, port, seconds = start_reflector()
        self.seconds.append(seconds)
        if self.reflector is None:
            self.reflector, self.port = proc, port
        else:
            stop(proc)

    def close(self) -> None:
        if self.reflector is not None:
            stop(self.reflector)


def _run_rounds(fn, work, truth, setup: SetUp, yardstick: Yardstick, seconds: float) -> list[tuple]:
    """Repeat rounds until one more would pass ``seconds``, with the
    yardstick run before and after each round for 10% of the round's CPU
    time, and a set-up sample after any round that ends a second or more
    after the last one.

    Returns (wall s, CPU s, samples, Outcome, normalised wall s) per round.
    """
    rounds = []
    t0 = last_sample = time.perf_counter()
    before = yardstick(0.02)
    while True:
        wall, cpu, samples, outcome = fn(work, truth, setup.port, len(rounds))
        after = yardstick(0.1 * cpu)
        rounds.append((wall, cpu, samples, outcome, yardstick.normalise(wall, cpu, before, after)))
        before = after
        if time.perf_counter() - last_sample >= 1.0:
            setup.sample()
            last_sample = time.perf_counter()
        if (time.perf_counter() - t0) * (len(rounds) + 1) / len(rounds) > seconds:
            return rounds


def _traced(fn, work, truth, port, seconds: float) -> tuple[dict, list]:
    """Alternate plain and traced rounds, after one untimed warm-up round.

    Alternating lets both kinds see the same machine state, so their
    medians give the tracing overhead.  The spans go to ``spans.json``.
    """
    import tracing

    tracer = tracing.Tracer()
    t0 = time.perf_counter()
    fn(work, truth, port, 0)
    plain, traced = [], []
    while not traced or (time.perf_counter() - t0) * (len(traced) + 1.5) / (len(traced) + 0.5) <= seconds:
        plain.append(fn(work, truth, port, len(plain)))
        tracer.run = len(traced)
        tracing.install(tracer)
        try:
            traced.append(fn(work, truth, port, len(traced)))
        finally:
            tracer.restore()
    (work / "spans.json").write_text(json.dumps(tracer.spans), encoding="utf-8")
    return {"rounds": [_round(r) for r in plain], "traced_rounds": [_round(r) for r in traced]}, plain + traced


def _round(r: tuple) -> dict:
    """A round as it goes into ``result.json``: its times and samples."""
    row = {"wall_s": r[0], "cpu_s": r[1], "samples": r[2]}
    if len(r) > 4:
        row["norm_wall_s"] = r[4]
    return row


def measure(work: Path, workload: str, seconds: float, trace: bool) -> dict:
    truth = json.loads((work / "truth.json").read_text(encoding="utf-8"))
    fn = ROUNDS[workload]
    setup = SetUp(work, workload)
    try:
        setup.sample()
        if not trace:
            rounds = _run_rounds(fn, work, truth, setup, Yardstick(YARDSTICK[workload]), seconds)
            result = {"rounds": [_round(r) for r in rounds], "setup_s": setup.seconds}
        else:
            result, rounds = _traced(fn, work, truth, setup.port, seconds)
    finally:
        setup.close()

    failures: dict[str, int] = {}
    outcomes = [r[3] for r in rounds]
    for outcome in outcomes:
        for why, k in outcome.failures.items():
            failures[why] = failures.get(why, 0) + k
    result.update(
        attempted=sum(o.attempted for o in outcomes),
        failures=failures,
        wrong=sorted({w for o in outcomes for w in o.wrong}),
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    )
    return result


def setup_seconds(work: Path, workload: str) -> float:
    t0 = time.perf_counter()
    import vpsband.cli  # noqa: F401  (the import is what is timed)

    if workload == "spread_table":
        from vpsband import simulate

        truth = json.loads((work / "truth.json").read_text(encoding="utf-8"))
        simulate.load_config(str(work / truth["config"]))
    return time.perf_counter() - t0


def main(argv: list[str]) -> int:
    if argv[0] == "--setup":
        print(repr(setup_seconds(Path(argv[1]), argv[2])))
        return 0
    work, workload, seconds, trace = Path(argv[0]), argv[1], float(argv[2]), argv[3] == "1"
    result = measure(work, workload, seconds, trace)
    (work / "result.json").write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
