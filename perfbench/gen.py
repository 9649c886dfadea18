"""Seeded input generators for the benchmark, with their ground truth.

Every generator takes the seed as an argument and draws from numpy's
``default_rng``; the same seed and sizes give byte-identical files.
Nothing here imports ``vpsband``: the expected counts come from the
generator's own bookkeeping, and the expected pair counts from
:func:`reference_pairs`, an independent implementation of the
package's documented nearest-in-time pairing rule.

Path model shared by the log, dense and simulation workloads: one
10 Mbit/s hop, 10 ms propagation, exponential queueing delay with rate
1000/s, probe payloads of 100 and 1100 bytes.  The true available
bandwidth is therefore the hop capacity, 10 Mbit/s.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from pathlib import Path

import numpy as np

CAPACITY_BPS = 10e6
VAR_DELAY_RATE = 1000.0
PROPAGATION_S = 0.010
W1, W2 = 100, 1100
PAIR_WINDOW_S = 60.0  # the CLI's default nearest-in-time window
EPOCH = 1263374005

# the generator's own stream tags, so workloads never share draws
_LOGS, _DENSE = 1, 2

# Full-size parameters, and the tiny ones the smoke test uses.
SIZES = {
    "full": {
        "logs_captures": 4, "logs_packets": 5000,
        "dense_packets": 4000,
        "sim_n_pairs": 3000, "sim_n_trials": 2000,
        "sim_ns": (5, 10, 20, 30, 50, 100, 200, 1000, 10_000),
        "probe_count": 1000,
    },
    "tiny": {
        "logs_captures": 2, "logs_packets": 600,
        "dense_packets": 600,
        "sim_n_pairs": 100, "sim_n_trials": 200,
        "sim_ns": (5, 10, 200, 1000, 10_000),
        "probe_count": 60,
    },
}

# injected fault rates per generated packet; the dense CSV takes the loss only
LOSS_RATE = 0.01
STRAY_RATE = 0.001
DUPLICATE_RATE = 0.001
MALFORMED_RATE = 0.001

# probe shape: 1 ms between sends is 1000 packets/s
PROBE_SPACING_S = 0.001
PROBE_TIMEOUT_S = 2.0


def _delays(rng: np.random.Generator, sizes: np.ndarray) -> np.ndarray:
    return PROPAGATION_S + 8 * sizes / CAPACITY_BPS + rng.exponential(1 / VAR_DELAY_RATE, sizes.size)


# ---------------------------------------------------------------------------
# reference pairing
# ---------------------------------------------------------------------------

def _find(parent: list[int], i: int) -> int:
    root = i
    while parent[root] != root:
        root = parent[root]
    while parent[i] != root:
        parent[i], i = root, parent[i]
    return root


def reference_pairs(samples, window_s: float = PAIR_WINDOW_S) -> tuple[int, int, int]:
    """Pair count of the nearest-in-time rule, from ``(sent_at, serial, bytes)`` rows.

    The rule: larges in (sent_at, serial) order each take the untaken
    small nearest in time within ``window_s``; equal distances go to
    the earlier small.  "Next untaken" and "previous untaken" pointers
    make this O(n α(n)) instead of a windowed rescan.  Returns
    ``(pairs, unpaired_small, unpaired_large)``.
    """
    ordered = sorted(samples)
    times = [t for t, _, b in ordered if b == W1]
    larges = [t for t, _, b in ordered if b == W2]
    n = len(times)
    nxt = list(range(n + 1))   # nxt root: first untaken index >= i (n: none)
    prv = list(range(n + 1))   # prv root of i+1: last untaken index <= i, plus one (0: none)
    pairs = 0
    for t in larges:
        lo = bisect_left(times, t - window_s)
        hi = bisect_right(times, t + window_s)
        mid = bisect_left(times, t)
        best = -1
        right = _find(nxt, mid)
        left = _find(prv, mid) - 1
        if left >= lo:
            # earliest untaken small at the left candidate's time
            best = _find(nxt, bisect_left(times, times[left]))
        if right < hi and (best < 0 or times[right] - t < abs(times[best] - t)):
            best = right
        if best >= 0:
            nxt[best] = best + 1
            prv[best + 1] = best
            pairs += 1
    return pairs, n - pairs, len(larges) - pairs


def _expected_pairs(samples) -> dict:
    """Pair count, and the pairs the CLI's default batching (50, or fewer) uses."""
    pairs = reference_pairs(samples)[0]
    batch = max(1, min(50, pairs))
    return {"pairs": pairs, "pairs_used": pairs // batch * batch}


# ---------------------------------------------------------------------------
# logs_10pps: SNDP/RCDP log pairs at 10 packets/s
# ---------------------------------------------------------------------------

def _malformed_sender(rng: np.random.Generator, ts: int) -> str:
    kind = int(rng.integers(4))
    if kind == 0:
        return f"SNDP 9 {ts}x -h tt146.example.net -p 6000 -n 100 -s 17"
    if kind == 1:
        return f"SNDP 9 {ts} -h tt146.example.net -p 6000 -n 1100"
    if kind == 2:
        return f"SNDQ 9 {ts} -h tt146.example.net -p 6000 -n 100 -s 17"
    return "SNDP 9"


def _malformed_receiver(rng: np.random.Generator, ts: int) -> str:
    kind = int(rng.integers(4))
    if kind == 0:
        return f"RCDP 12 2 89.186.245.200 55730 193.233.1.69 6000 {ts}.5 -0.5 0X2107 0X2107 17 0.000001 0.000001"
    if kind == 1:
        return f"RCDP 12 2 89.186.245.200 55730 193.233.1.69 6000 {ts}.5 0.01 2107 0X2107 17 0.000001 0.000001"
    if kind == 2:
        return "RCDP 12 2 89.186.245.200"
    return f"RCDP 12 2 89.186.245.200 port 193.233.1.69 6000 {ts}.5 0.01 0X2107 0X2107 17 0.000001 0.000001"


def _insert_lines(rng: np.random.Generator, lines: list[str], extra: list[str]) -> list[str]:
    slots = np.sort(rng.integers(0, len(lines) + 1, len(extra)))
    out = []
    prev = 0
    for slot, line in zip(slots, extra):
        out.extend(lines[prev:slot])
        out.append(line)
        prev = slot
    out.extend(lines[prev:])
    return out


def _log_capture(rng: np.random.Generator, index: int, n: int) -> tuple[str, str, dict]:
    sizes = np.where(np.arange(n) % 2 == 0, W1, W2)
    serial0 = int(rng.integers(1, 2**31))
    serials = serial0 + np.arange(n)
    start = EPOCH + 86_400 * index
    sent = start + np.arange(n) / 10.0
    seconds = start + np.arange(n) // 10          # whole-second sender timestamps
    delays = np.round(_delays(rng, sizes), 6)
    lost = rng.random(n) < LOSS_RATE

    sender = [
        f"SNDP 9 {seconds[i]} -h tt146.example.net -p 6000 -n {sizes[i]} -s {serials[i]}"
        for i in range(n)
    ]
    kept = np.flatnonzero(~lost)
    arrival = sent[kept] + delays[kept]
    kept = kept[np.argsort(arrival, kind="stable")]
    receiver = [
        f"RCDP 12 2 89.186.245.200 55730 193.233.1.69 6000 {sent[i] + delays[i]:.6f} "
        f"{delays[i]:.6f} 0X2107 0X2107 {serials[i]} 0.000001 0.000001"
        for i in kept
    ]

    # duplicates repeat a line right after it; only received serials are
    # duplicated on the receiver side, so each surplus counts as a duplicate
    n_dup = max(1, round(n * DUPLICATE_RATE))
    for lines, pool in ((sender, n), (receiver, len(receiver))):
        for pos in sorted(rng.choice(pool, n_dup, replace=False), reverse=True):
            lines.insert(pos + 1, lines[pos])

    n_stray = max(1, round(n * STRAY_RATE))
    strays = [
        f"RCDP 12 2 89.186.245.200 55730 193.233.1.69 6000 {start + 0.5 + j:.6f} "
        f"0.010000 0X2107 0X2107 {serial0 + n + 1000 + j} 0.000001 0.000001"
        for j in range(n_stray)
    ]
    receiver = _insert_lines(rng, receiver, strays)

    n_bad = max(1, round(n * MALFORMED_RATE))
    sender = _insert_lines(rng, sender, [_malformed_sender(rng, start) for _ in range(n_bad)])
    receiver = _insert_lines(rng, receiver, [_malformed_receiver(rng, start) for _ in range(n_bad)])

    matched = [(float(seconds[i]), int(serials[i]), int(sizes[i])) for i in np.flatnonzero(~lost)]
    truth = {
        "parsed": (n + n_dup) + (len(kept) + n_dup + n_stray),
        "malformed": 2 * n_bad,
        "matched": len(matched),
        "unmatched": int(lost.sum()) + n_stray,
        "duplicates": 2 * n_dup,
        **_expected_pairs(matched),
    }
    return "\n".join(sender) + "\n", "\n".join(receiver) + "\n", truth


def gen_logs(out: Path, seed: int, size: str = "full") -> dict:
    p = SIZES[size]
    rng = np.random.default_rng(np.random.SeedSequence([seed, _LOGS]))
    captures = []
    for index in range(p["logs_captures"]):
        snd, rcv, truth = _log_capture(rng, index, p["logs_packets"])
        sender, receiver = out / f"sender{index}.log", out / f"receiver{index}.log"
        sender.write_text(snd, encoding="utf-8")
        receiver.write_text(rcv, encoding="utf-8")
        captures.append({"sender": sender.name, "receiver": receiver.name, **truth})
    return {"true_bps": CAPACITY_BPS, "captures": captures}


# ---------------------------------------------------------------------------
# estimate_dense: one samples CSV at 1000 packets/s
# ---------------------------------------------------------------------------

def gen_dense(out: Path, seed: int, size: str = "full") -> dict:
    n = SIZES[size]["dense_packets"]
    rng = np.random.default_rng(np.random.SeedSequence([seed, _DENSE]))
    sizes = np.where(np.arange(n) % 2 == 0, W1, W2)
    serial0 = int(rng.integers(1, 2**31))
    start = EPOCH + rng.random()
    delays = _delays(rng, sizes)
    kept = np.flatnonzero(rng.random(n) >= LOSS_RATE)
    rows = []
    samples = []
    for i in kept:
        sent_at = f"{start + i / 1000.0:.6f}"
        rows.append(f"forward,{serial0 + i},{sent_at},{sizes[i]},{delays[i]:.9f}")
        samples.append((float(sent_at), int(serial0 + i), int(sizes[i])))
    path = out / "dense.csv"
    path.write_text("direction,serial,sent_at,bytes,delay_s\n" + "\n".join(rows) + "\n", encoding="utf-8")
    return {
        "true_bps": CAPACITY_BPS,
        "csv": path.name,
        "samples": len(samples),
        **_expected_pairs(samples),
    }


# ---------------------------------------------------------------------------
# spread_table: simulation config at the reference conditions
# ---------------------------------------------------------------------------

def gen_spread(out: Path, seed: int, size: str = "full") -> dict:
    p = SIZES[size]
    path = out / "path.cfg"
    path.write_text(
        f"capacity_bps   = {CAPACITY_BPS:g}\n"
        f"var_delay_rate = {VAR_DELAY_RATE:g}\n"
        f"w1_bytes       = {W1}\n"
        f"w2_bytes       = {W2}\n"
        f"n_pairs        = {p['sim_n_pairs']}\n"
        f"n_trials       = {p['sim_n_trials']}\n"
        f"seed           = {seed}\n"
        f"ns             = {','.join(str(n) for n in p['sim_ns'])}\n",
        encoding="utf-8",
    )
    return {
        "config": path.name,
        "var_delay_rate": VAR_DELAY_RATE,
        "true_diff_s": 8 * (W2 - W1) / CAPACITY_BPS,
        "n_pairs": p["sim_n_pairs"],
        "n_trials": p["sim_n_trials"],
        "ns": list(p["sim_ns"]),
        # the law the spread should follow, sqrt(2) / (rate * sqrt(n)), and
        # the band a simulated spread must stay in: six standard errors of
        # a sample SD over n_trials means of n Laplace draws (excess
        # kurtosis 3/n), about 9.5-11% at 2000 trials
        "law_sd_s": {str(n): math.sqrt(2) / (VAR_DELAY_RATE * math.sqrt(n)) for n in p["sim_ns"]},
        "band": {str(n): 3 * math.sqrt((2 + 3 / n) / p["sim_n_trials"]) for n in p["sim_ns"]},
    }


# ---------------------------------------------------------------------------
# probe_loopback: session shape only; the traffic is live
# ---------------------------------------------------------------------------

def gen_probe(out: Path, seed: int, size: str = "full") -> dict:
    return {
        "count": SIZES[size]["probe_count"],
        "spacing_s": PROBE_SPACING_S,
        "timeout_s": PROBE_TIMEOUT_S,
        "w1": W1,
        "w2": W2,
    }


GENERATORS = {
    "logs_10pps": gen_logs,
    "estimate_dense": gen_dense,
    "spread_table": gen_spread,
    "probe_loopback": gen_probe,
}
