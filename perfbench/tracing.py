"""Span tracing around the public functions of each ``vpsband`` layer.

:class:`Tracer` replaces a function at the name its caller looks up
(``vpsband.testbox.pair_by_size``, or ``vpsband.cli.read_samples_csv``
for a name ``cli`` imported directly) with a wrapper that records a
span: name, start, end, parent span and run id, the process CPU time it
used, and a few counts taken from the arguments and the result.  Spans
stay in memory until the run ends.  :func:`per_layer` turns them into the per-layer metrics; a
layer's self time is its span's duration minus its child spans'.
"""

from __future__ import annotations

import time
import tracemalloc

import numpy as np


class _Counted:
    """Iterable that counts the items a callee pulled from it."""

    def __init__(self, items):
        self._items = items
        self.n = 0

    def __iter__(self):
        for item in self._items:
            self.n += 1
            yield item


class Tracer:
    """Spans of the wrapped calls, in call order, plus what it patched."""

    def __init__(self):
        self.spans: list[dict] = []
        self.run = 0
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def wrap(self, module, attr: str, name: str, counts=None,
             count_items: bool = False, track_memory: bool = False) -> None:
        """Trace calls to ``module.attr`` as spans called ``name``.

        ``counts(args, result)`` returns the span's counts;
        ``count_items`` counts the items pulled from the first argument;
        ``track_memory`` records the call's peak traced allocation.
        A name the module no longer has is left untraced.
        """
        original = getattr(module, attr, None)
        if original is None:
            return
        tracer = self

        def traced(*args, **kwargs):
            span = {"id": len(tracer.spans), "name": name, "run": tracer.run,
                    "parent": tracer._stack[-1] if tracer._stack else None}
            tracer.spans.append(span)
            tracer._stack.append(span["id"])
            if count_items:
                counted = _Counted(args[0])
                args = (counted,) + args[1:]
            if track_memory:
                tracemalloc.start()
            span["cpu"] = time.process_time_ns()
            span["start"] = time.perf_counter_ns()
            try:
                result = original(*args, **kwargs)
            except BaseException as exc:
                span["error"] = type(exc).__name__
                raise
            finally:
                span["end"] = time.perf_counter_ns()
                span["cpu"] = time.process_time_ns() - span["cpu"]
                tracer._stack.pop()
                if track_memory:
                    span["peak_bytes"] = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
            if count_items:
                span["items"] = counted.n
            if counts is not None:
                span.update(counts(args, result))
            return result

        setattr(module, attr, traced)
        self._patched.append((module, attr, original))

    def restore(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()


def install(tracer: Tracer) -> None:
    """Wrap the public entry points of every layer the workloads reach."""
    from vpsband import cli, estimator, planner, prober, simulate, testbox

    def parsed(args, log):
        return {"lines": log.n_parsed + log.n_malformed, "malformed": log.n_malformed}

    def matched(args, m):
        return {"matched": m.matched,
                "unmatched": m.unmatched_sent + m.unmatched_received,
                "duplicates": m.duplicate_sent + m.duplicate_received}

    def paired(args, p):
        return {"samples": len(args[0]), "pairs": len(p.pairs),
                "larges": len(p.pairs) + p.unpaired_large,
                "unpaired_small": p.unpaired_small}

    def estimated(args, est):
        return {"pairs": len(args[0]), "bps": est.value.bits_per_second}

    def spread(args, sd):
        cfg, n = args[0], args[1]
        law = np.sqrt(2.0) / (cfg.path.var_delay_rate * np.sqrt(n))
        return {"n": n, "dev_pct": float(abs(sd / law - 1.0) * 100.0)}

    def probed(args, result):
        spacing_ns = args[0].spacing_s * 1e9
        sends = np.asarray(result.send_monotonic_ns, dtype=np.float64)
        slip = sends - (sends[0] + spacing_ns * np.arange(sends.size)) if sends.size else sends
        small = np.array([p.small.delay.seconds for p in result.pairs]) * 1e6
        large = np.array([p.large.delay.seconds for p in result.pairs]) * 1e6
        return {"sent": sends.size,
                "rtt_us": np.concatenate([small, large]).tolist(),
                "pair_diff_us": (large - small).tolist(),
                "slip_us": (slip / 1e3).tolist(),
                "lost_pairs": result.lost_pairs,
                "unknown_serials": result.unknown_serials}

    tracer.wrap(cli, "main", "cli.main")
    tracer.wrap(testbox, "parse_sender_file", "testbox.parse_sender_file", parsed)
    tracer.wrap(testbox, "parse_receiver_file", "testbox.parse_receiver_file", parsed)
    tracer.wrap(testbox, "match_sessions", "testbox.match_sessions", matched)
    tracer.wrap(testbox, "pair_by_size", "testbox.pair_by_size", paired)
    tracer.wrap(cli, "write_samples_csv", "model.write_samples_csv", count_items=True)
    tracer.wrap(cli, "read_samples_csv", "model.read_samples_csv",
                lambda args, samples: {"items": len(samples)})
    tracer.wrap(estimator, "estimate_batch", "estimator.estimate_batch", estimated)
    tracer.wrap(simulate, "simulate_pairs", "simulate.simulate_pairs",
                lambda args, pairs: {"items": len(pairs)})
    tracer.wrap(simulate, "sd_of_delay_diff", "simulate.sd_of_delay_diff", spread,
                track_memory=True)
    tracer.wrap(planner, "required_measurements", "planner.required_measurements")
    tracer.wrap(prober, "probe", "prober.probe", probed)


# ---------------------------------------------------------------------------
# per-layer metrics from spans
# ---------------------------------------------------------------------------

PER_LAYER = {
    "testbox.parse_sender_file.us_per_line": "us",
    "testbox.parse_receiver_file.us_per_line": "us",
    "testbox.match_sessions.us_per_sample": "us",
    "testbox.pair_by_size.us_per_sample": "us",
    "testbox.pair_by_size.paired_frac": "ratio",
    "testbox.malformed": "count",
    "testbox.unmatched": "count",
    "testbox.duplicates": "count",
    "model.write_samples_csv.us_per_sample": "us",
    "model.read_samples_csv.us_per_sample": "us",
    "estimator.estimate_batch.us_per_pair": "us",
    "estimator.refused": "count",
    "estimator.bias_pct": "%",
    "simulate.simulate_pairs.us_per_pair": "us",
    "simulate.sd_of_delay_diff.n1000_s": "s",
    "simulate.sd_of_delay_diff.n10000_s": "s",
    "simulate.sd_of_delay_diff.n10000_peak_mb": "MB",
    "simulate.sd_vs_law_max_dev_pct": "%",
    "planner.required_measurements.us": "us",
    "prober.probe.cpu_us_per_pkt": "us",
    "prober.probe.rtt_p50_us": "us",
    "prober.probe.rtt_p99_us": "us",
    "prober.probe.rtt_iqr_us": "us",
    "prober.probe.pair_diff_sd_us": "us",
    "prober.probe.send_slip_p50_us": "us",
    "prober.probe.send_slip_p99_us": "us",
    "prober.probe.lost_pairs": "count",
    "prober.probe.unknown_serials": "count",
    "cli.main.self_us_per_sample": "us",
    "trace_overhead_pct": "%",
}


def self_times(spans: list[dict]) -> dict[int, int]:
    """Nanoseconds of each span not covered by its direct children."""
    own = {s["id"]: s["end"] - s["start"] for s in spans}
    for s in spans:
        if s["parent"] is not None:
            own[s["parent"]] -= s["end"] - s["start"]
    return own


def _per_unit_us(spans, own, name, unit_key) -> float:
    chosen = [s for s in spans if s["name"] == name and unit_key in s]
    units = sum(s[unit_key] for s in chosen)
    return sum(own[s["id"]] for s in chosen) / units / 1e3 if units else 0.0


def _values(spans, name, key) -> list:
    return [s[key] for s in spans if s["name"] == name and key in s]


def _pooled(spans, name, key) -> np.ndarray:
    return np.array([v for vals in _values(spans, name, key) for v in vals], dtype=np.float64)


def _q(values: np.ndarray, pct: float) -> float:
    return float(np.percentile(values, pct)) if values.size else 0.0


def per_layer(spans: list[dict], runs: int, samples: int, true_bps: float | None) -> dict:
    """Per-layer metric values from the spans of ``runs`` traced rounds of ``samples`` in all.

    Counts are per round.  A metric of a layer the workload never calls
    reads 0.
    """
    own = self_times(spans)

    def per_run(name, key):
        return sum(_values(spans, name, key)) / runs

    def sd_spans(n):
        return [s for s in spans if s["name"] == "simulate.sd_of_delay_diff" and s.get("n") == n]

    def median(values):
        return float(np.median(values)) if values else 0.0

    pairs = sum(_values(spans, "testbox.pair_by_size", "pairs"))
    larges = sum(_values(spans, "testbox.pair_by_size", "larges"))
    bps = _values(spans, "estimator.estimate_batch", "bps")
    plans = [own[s["id"]] / 1e3 for s in spans if s["name"] == "planner.required_measurements"]
    rtt = _pooled(spans, "prober.probe", "rtt_us")
    slip = _pooled(spans, "prober.probe", "slip_us")
    diff = _pooled(spans, "prober.probe", "pair_diff_us")
    probe_cpu = sum(s["cpu"] for s in spans if s["name"] == "prober.probe" and "sent" in s)
    probe_sent = sum(_values(spans, "prober.probe", "sent"))
    cli_self = sum(own[s["id"]] for s in spans if s["name"] == "cli.main")
    refused = sum(1 for s in spans
                  if s["name"] == "estimator.estimate_batch"
                  and s.get("error") == "NonPositiveDelayDifference")

    return {
        "testbox.parse_sender_file.us_per_line":
            _per_unit_us(spans, own, "testbox.parse_sender_file", "lines"),
        "testbox.parse_receiver_file.us_per_line":
            _per_unit_us(spans, own, "testbox.parse_receiver_file", "lines"),
        "testbox.match_sessions.us_per_sample":
            _per_unit_us(spans, own, "testbox.match_sessions", "matched"),
        "testbox.pair_by_size.us_per_sample":
            _per_unit_us(spans, own, "testbox.pair_by_size", "samples"),
        "testbox.pair_by_size.paired_frac": pairs / larges if larges else 0.0,
        "testbox.malformed": (per_run("testbox.parse_sender_file", "malformed")
                              + per_run("testbox.parse_receiver_file", "malformed")),
        "testbox.unmatched": per_run("testbox.match_sessions", "unmatched"),
        "testbox.duplicates": per_run("testbox.match_sessions", "duplicates"),
        "model.write_samples_csv.us_per_sample":
            _per_unit_us(spans, own, "model.write_samples_csv", "items"),
        "model.read_samples_csv.us_per_sample":
            _per_unit_us(spans, own, "model.read_samples_csv", "items"),
        "estimator.estimate_batch.us_per_pair":
            _per_unit_us(spans, own, "estimator.estimate_batch", "pairs"),
        "estimator.refused": refused / runs,
        "estimator.bias_pct": (median(bps) / true_bps - 1.0) * 100.0 if bps and true_bps else 0.0,
        "simulate.simulate_pairs.us_per_pair":
            _per_unit_us(spans, own, "simulate.simulate_pairs", "items"),
        "simulate.sd_of_delay_diff.n1000_s": median([(s["end"] - s["start"]) / 1e9 for s in sd_spans(1000)]),
        "simulate.sd_of_delay_diff.n10000_s": median([(s["end"] - s["start"]) / 1e9 for s in sd_spans(10_000)]),
        "simulate.sd_of_delay_diff.n10000_peak_mb": median([s["peak_bytes"] / 2**20 for s in sd_spans(10_000)]),
        "simulate.sd_vs_law_max_dev_pct":
            max(_values(spans, "simulate.sd_of_delay_diff", "dev_pct"), default=0.0),
        "planner.required_measurements.us": median(plans),
        "prober.probe.cpu_us_per_pkt": probe_cpu / probe_sent / 1e3 if probe_sent else 0.0,
        "prober.probe.rtt_p50_us": _q(rtt, 50),
        "prober.probe.rtt_p99_us": _q(rtt, 99),
        "prober.probe.rtt_iqr_us": _q(rtt, 75) - _q(rtt, 25),
        "prober.probe.pair_diff_sd_us": float(np.std(diff, ddof=1)) if diff.size > 1 else 0.0,
        "prober.probe.send_slip_p50_us": _q(slip, 50),
        "prober.probe.send_slip_p99_us": _q(slip, 99),
        "prober.probe.lost_pairs": per_run("prober.probe", "lost_pairs"),
        "prober.probe.unknown_serials": per_run("prober.probe", "unknown_serials"),
        "cli.main.self_us_per_sample":
            cli_self / samples / 1e3 if samples else 0.0,
    }
