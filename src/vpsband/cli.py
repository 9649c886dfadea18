"""Command-line front end.

Subcommands: parse, estimate, simulate, plan, probe, reflect,
reproduce-paper.  Exit codes: 0 success, 1 I/O error, 2 domain
failure, 64 usage error.  Every subcommand takes --json to print its
result as one JSON object; commands that draw random numbers take
--seed.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import json
import math
import sys
from pathlib import Path

from . import estimator, planner, prober, simulate, testbox
from .errors import InvalidQuery, NonPositiveDelayDifference, NoPairsFound, VpsbandError
from .model import (
    Bandwidth,
    Delay,
    Hop,
    PacketSize,
    PathModel,
    read_samples_csv,
    write_samples_csv,
)

EXIT_OK = 0
EXIT_IO = 1
EXIT_DOMAIN = 2
EXIT_USAGE = 64

REFERENCE_SEED = 42
AVERAGING_BATCH_SIZES = (20, 50, 100)


class _Parser(argparse.ArgumentParser):
    """argparse parser whose usage errors exit with code 64."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _fail(code: int, message: str) -> int:
    print(f"vpsband: {message}", file=sys.stderr)
    return code


def _report(args, payload: dict, *lines: str | None) -> int:
    """Print a command's result: ``payload`` under --json, else its text lines.

    A line given as None is left out.  Output is flushed, so a command
    that then blocks (``reflect``) has already shown its result.
    """
    if args.json:
        print(json.dumps(payload), flush=True)
    else:
        print("\n".join(line for line in lines if line is not None), flush=True)
    return EXIT_OK


def _usage_error(message: str) -> argparse.ArgumentError:
    """A usage error found after parsing; ``main`` reports it as argparse would."""
    return argparse.ArgumentError(None, message)


@contextlib.contextmanager
def _open_out(path: str):
    """Writable text stream for a path, with '-' meaning stdout."""
    if path == "-":
        yield sys.stdout
    else:
        with open(path, "w", encoding="utf-8", newline="") as fp:
            yield fp


def _parse_host_port(text: str) -> tuple[str, int]:
    host, sep, port = text.rpartition(":")
    if not sep or not host:
        raise argparse.ArgumentTypeError(f"expected host:port, got {text!r}")
    try:
        port_num = int(port)
    except ValueError:
        raise argparse.ArgumentTypeError(f"port must be an integer, got {port!r}") from None
    if not 0 <= port_num <= 65535:
        raise argparse.ArgumentTypeError(f"port must be in [0, 65535], got {port_num}")
    return host, port_num


def _parse_batch_size(text: str):
    if text == "auto":
        return "auto"
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"batch size must be an integer or 'auto', got {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError("batch size must be >= 1")
    return value


def _parse_seed(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"seed must be >= 0, got {value}")
    return value


def _parse_positive_float(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a number, got {text!r}") from None
    if not (math.isfinite(value) and value > 0):
        raise argparse.ArgumentTypeError(f"must be finite and > 0, got {text!r}")
    return value


def _parse_error_target(text: str) -> float:
    """Accept a fraction (0.244) or a percentage (24.4 or '24.4%')."""
    cleaned = text.strip()
    percent = cleaned.endswith("%")
    try:
        value = float(cleaned[:-1] if percent else cleaned)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a number, got {text!r}") from None
    if percent or value >= 1.0:
        value /= 100.0
    return value


# ---------------------------------------------------------------------------
# parse
# ---------------------------------------------------------------------------

def cmd_parse(args) -> int:
    try:
        with open(args.sender, "rb") as fp:
            sender_log = testbox.parse_sender_file(fp)
        with open(args.receiver, "rb") as fp:
            receiver_log = testbox.parse_receiver_file(fp)
    except OSError as exc:
        return _fail(EXIT_IO, f"cannot read log: {exc}")

    match = testbox.match_sessions(sender_log.records, receiver_log.records)
    diagnostics = {
        "parsed": sender_log.n_parsed + receiver_log.n_parsed,
        "malformed": sender_log.n_malformed + receiver_log.n_malformed,
        "matched": match.matched,
        "unmatched": match.unmatched_sent + match.unmatched_received,
        "paired": None,
        "duplicates": match.duplicate_sent + match.duplicate_received,
    }

    if match.matched:
        try:
            with _open_out(args.out) as fp:
                write_samples_csv(match.samples, fp)
        except OSError as exc:
            return _fail(EXIT_IO, f"cannot write samples: {exc}")

    _report(
        args,
        diagnostics,
        f"parsed {diagnostics['parsed']} records "
        f"({diagnostics['malformed']} malformed), matched {match.matched}, "
        f"unmatched {diagnostics['unmatched']}, duplicates {diagnostics['duplicates']}",
        f"samples written to {args.out}" if match.matched and args.out != "-" else None,
    )
    if not match.matched:
        return _fail(EXIT_DOMAIN, "no sender/receiver records matched on serial")
    return EXIT_OK


# ---------------------------------------------------------------------------
# estimate
# ---------------------------------------------------------------------------

def _flag_sizes(args) -> tuple[PacketSize, PacketSize] | None:
    """The sizes --w1/--w2 name, or None when neither is given."""
    if (args.w1 is None) != (args.w2 is None):
        raise _usage_error("--w1 and --w2 must be given together")
    if args.w1 is None:
        return None
    try:
        w1, w2 = PacketSize(args.w1), PacketSize(args.w2)
    except ValueError as exc:
        raise _usage_error(str(exc)) from None
    if w1.bytes >= w2.bytes:
        raise _usage_error(f"--w1 must be smaller than --w2, got {w1.bytes} >= {w2.bytes}")
    return w1, w2


def _sizes_in(samples) -> tuple[PacketSize, PacketSize]:
    sizes = sorted({s.packet_size.bytes for s in samples})
    if len(sizes) == 1:
        # no flags can pair such a file, so it is the data at fault
        raise NoPairsFound(f"samples contain one packet size {sizes}; two are needed to pair")
    if len(sizes) != 2:
        raise _usage_error(
            f"samples contain {len(sizes)} packet size(s) {sizes}; "
            "pick two with --w1 and --w2"
        )
    return PacketSize(sizes[0]), PacketSize(sizes[1])


def _auto_batch_size(n_pairs: int) -> int:
    return min(50, n_pairs)


def cmd_estimate(args) -> int:
    flag_sizes = _flag_sizes(args)
    try:
        # A byte that is not UTF-8 becomes a lone surrogate, which fails
        # its field's parse and so is reported with its line number.
        with open(args.samples, "r", encoding="utf-8", errors="surrogateescape", newline="") as fp:
            samples = read_samples_csv(fp)
    except OSError as exc:
        return _fail(EXIT_IO, f"cannot read samples: {exc}")
    except ValueError as exc:
        return _fail(EXIT_DOMAIN, f"bad samples file: {exc}")

    if not samples:
        return _fail(EXIT_DOMAIN, "samples file is empty")
    w1, w2 = flag_sizes or _sizes_in(samples)

    pairing = testbox.pair_by_size(samples, w1, w2, window_s=args.window)
    batch_size = args.batch_size
    if batch_size == "auto":
        batch_size = _auto_batch_size(len(pairing.pairs))
    estimate = estimator.estimate_batch(pairing.pairs, batch_size)

    return _report(
        args,
        estimate.to_json_dict(),
        f"available bandwidth: {estimate.value}",
        None if estimate.sd_bps is None else (
            f"spread: {estimate.sd_bps / 1e6:.2f} Mbit/s sd across batches "
            f"(relative error {estimate.relative_error:.1%})"
        ),
        f"pairs used: {estimate.n_pairs} of {len(pairing.pairs)} "
        f"(batches of {batch_size}); mean delay difference "
        f"{estimate.mean_delay_diff_s * 1e3:.3f} ms",
        f"pairing: {len(pairing.pairs)} pairs, {pairing.unpaired_small} small / "
        f"{pairing.unpaired_large} large unpaired, {pairing.other_sizes} other sizes",
    )


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------

def _samples(pairs):
    """The samples of each pair, small then large, in pair order."""
    return (s for pair in pairs for s in (pair.small, pair.large))


def _write_simulation(cfg: simulate.SimConfig, ns, out_dir: Path):
    """Write ``samples.csv`` and, given two or more trials, ``error_vs_n.csv``.

    Returns the pairs, the error points and the table's path (None if skipped).
    """
    out_dir.mkdir(parents=True, exist_ok=True)
    pairs = simulate.simulate_pairs(cfg)
    with open(out_dir / "samples.csv", "w", encoding="utf-8", newline="") as fp:
        write_samples_csv(_samples(pairs), fp)
    if cfg.n_trials < 2:
        print(
            "vpsband: warning: n_trials < 2 makes the error spread undefined; "
            "skipping the error table",
            file=sys.stderr,
        )
        return pairs, [], None
    points = simulate.error_vs_n(cfg, ns)
    table_path = out_dir / "error_vs_n.csv"
    with open(table_path, "w", encoding="utf-8", newline="") as fp:
        simulate.write_error_table_csv(points, fp)
    return pairs, points, table_path


def _error_rows(points) -> list[dict]:
    return [{"n": p.n, "sd_s": p.sd_s, "eta": p.rel_error} for p in points]


def _error_lines(points) -> list[str]:
    return [f"  n={p.n:>4d}  sd={p.sd_s * 1e3:.3f} ms  eta={p.rel_error:.1%}" for p in points]


def cmd_simulate(args) -> int:
    try:
        cfg, ns = simulate.load_config(args.config)
    except OSError as exc:
        return _fail(EXIT_IO, f"cannot read config: {exc}")
    except ValueError as exc:
        return _fail(EXIT_DOMAIN, f"bad config: {exc}")
    if args.seed is not None:
        cfg = dataclasses.replace(cfg, seed=args.seed)

    out_dir = Path(args.out_dir)
    try:
        _, points, table_path = _write_simulation(cfg, ns, out_dir)
    except OSError as exc:
        return _fail(EXIT_IO, f"cannot write outputs: {exc}")
    except ValueError as exc:
        return _fail(EXIT_DOMAIN, str(exc))

    samples_path = out_dir / "samples.csv"
    return _report(
        args,
        {
            "samples_csv": str(samples_path),
            "error_table_csv": None if table_path is None else str(table_path),
            "n_pairs": cfg.n_pairs,
            "seed": cfg.seed,
            "error_vs_n": _error_rows(points),
        },
        f"wrote {cfg.n_pairs} pairs to {samples_path} (seed {cfg.seed})",
        *_error_lines(points),
    )


# ---------------------------------------------------------------------------
# plan
# ---------------------------------------------------------------------------

def cmd_plan(args) -> int:
    try:
        query = planner.PlanQuery(
            var_delay_rate=args.var_rate,
            mean_delay_diff_s=args.diff,
            target_error=args.eta,
        )
    except InvalidQuery as exc:
        return _fail(EXIT_USAGE, str(exc))
    result = planner.required_measurements(query)
    note = "extrapolated beyond the reference table" if result.extrapolated else "within the reference table"
    return _report(
        args,
        result.to_json_dict(),
        f"average n = {result.n} measurements for a {args.eta:.1%} relative error "
        f"(analytic check: {result.analytic_n}); {note}",
    )


# ---------------------------------------------------------------------------
# probe / reflect
# ---------------------------------------------------------------------------

def cmd_probe(args) -> int:
    host, port = args.target
    try:
        cfg = prober.ProbeConfig(
            host=host,
            port=port,
            w1=PacketSize(args.w1),
            w2=PacketSize(args.w2),
            count=args.count,
            spacing_s=args.spacing,
            timeout_s=args.timeout,
        )
    except ValueError as exc:
        return _fail(EXIT_USAGE, str(exc))

    result = prober.probe(cfg)
    if result.pairs and args.out is not None:
        try:
            with _open_out(args.out) as fp:
                write_samples_csv(_samples(result.pairs), fp)
        except OSError as exc:
            return _fail(EXIT_IO, f"cannot write samples: {exc}")

    estimate = None
    if result.pairs:
        try:
            estimate = estimator.estimate_batch(result.pairs, _auto_batch_size(len(result.pairs)))
        except VpsbandError as exc:
            print(f"vpsband: warning: no estimate from this run: {exc}", file=sys.stderr)

    return _report(
        args,
        {
            "sent": result.sent,
            "received": result.received,
            "pairs": len(result.pairs),
            "lost_pairs": result.lost_pairs,
            "unknown_serials": result.unknown_serials,
            "estimate": None if estimate is None else estimate.to_json_dict(),
            "caveat": result.caveat,
        },
        f"sent {result.sent}, received {result.received}, "
        f"{len(result.pairs)} pairs ({result.lost_pairs} lost, "
        f"{result.unknown_serials} unknown serials)",
        None if estimate is None else f"available bandwidth (round-trip based): {estimate.value}",
        f"note: {result.caveat}",
    )


def cmd_reflect(args) -> int:
    host, port = args.listen
    reflector = prober.Reflector(host, port)
    addr = reflector.address
    _report(
        args,
        {"listening": [addr[0], addr[1]]},
        f"reflecting UDP datagrams on {addr[0]}:{addr[1]} (ctrl-c to stop)",
    )
    try:
        reflector.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        reflector.stop()
    return EXIT_OK


# ---------------------------------------------------------------------------
# reproduce-paper
# ---------------------------------------------------------------------------

def _reference_config(seed: int) -> simulate.SimConfig:
    """Simulation conditions behind the bundled reference error table."""
    path = PathModel(
        hops=(Hop(capacity=Bandwidth(10e6), propagation_delay=Delay(0.0)),),
        var_delay_rate=1000.0,
    )
    return simulate.SimConfig(
        path=path,
        packet_sizes=(PacketSize(100), PacketSize(1100)),
        n_pairs=3000,
        n_trials=10_000,
        seed=seed,
    )


def cmd_reproduce(args) -> int:
    out_dir = Path(args.out_dir)
    cfg = _reference_config(args.seed)
    try:
        pairs, points, _ = _write_simulation(cfg, simulate.DEFAULT_NS, out_dir)

        # per-batch estimates for several averaging depths; a batch the
        # estimator refuses for a non-positive difference is an empty cell
        skipped = 0
        with open(out_dir / "averaging_curves.csv", "w", encoding="utf-8", newline="") as fp:
            fp.write("batch_size,batch_index,mbps\n")
            for batch_size in AVERAGING_BATCH_SIZES:
                for index in range(len(pairs) // batch_size):
                    batch = pairs[index * batch_size : (index + 1) * batch_size]
                    try:
                        mbps = repr(estimator.estimate_batch(batch, batch_size).value.mbps)
                    except NonPositiveDelayDifference:
                        skipped += 1
                        mbps = ""
                    fp.write(f"{batch_size},{index},{mbps}\n")

        query = planner.PlanQuery(
            var_delay_rate=cfg.path.var_delay_rate,
            mean_delay_diff_s=8e-4,
            target_error=0.244,
        )
        plan = planner.required_measurements(query)
        with open(out_dir / "plan.json", "w", encoding="utf-8") as fp:
            json.dump(plan.to_json_dict(), fp)
            fp.write("\n")
    except OSError as exc:
        return _fail(EXIT_IO, f"cannot write outputs: {exc}")

    return _report(
        args,
        {
            "out_dir": str(out_dir),
            "seed": cfg.seed,
            "error_vs_n": _error_rows(points),
            "plan": plan.to_json_dict(),
            "skipped_batches": skipped,
        },
        f"reference outputs written to {out_dir} (seed {cfg.seed})",
        *_error_lines(points),
        f"planned n for the reference conditions: {plan.n} (analytic {plan.analytic_n})",
        f"{skipped} averaging batches had no positive delay difference" if skipped else None,
    )


# ---------------------------------------------------------------------------
# wiring
# ---------------------------------------------------------------------------

def build_parser() -> _Parser:
    parser = _Parser(prog="vpsband", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(required=True, metavar="COMMAND")

    p = sub.add_parser("parse", help="parse sender/receiver logs into delay samples")
    p.add_argument("sender", help="sender-side log (SNDP lines)")
    p.add_argument("receiver", help="receiver-side log (RCDP lines)")
    p.add_argument("--out", default="-", help="samples CSV path, - for stdout (default)")
    p.set_defaults(run=cmd_parse)

    p = sub.add_parser("estimate", help="estimate available bandwidth from a samples CSV")
    p.add_argument("samples", help="samples CSV produced by parse, simulate, or probe")
    p.add_argument("--w1", type=int, help="small packet size, bytes")
    p.add_argument("--w2", type=int, help="large packet size, bytes")
    p.add_argument("--batch-size", type=_parse_batch_size, default="auto",
                   help="pairs averaged per batch, or 'auto' (min of 50 and the pair count)")
    p.add_argument("--window", type=_parse_positive_float, default=testbox.DEFAULT_PAIR_WINDOW_S,
                   help="pairing window in seconds")
    p.set_defaults(run=cmd_estimate)

    p = sub.add_parser("simulate", help="generate synthetic samples and an error-vs-n table")
    p.add_argument("config", help="flat key=value simulation config file")
    p.add_argument("--out-dir", required=True, help="directory for samples.csv and error_vs_n.csv")
    p.add_argument("--seed", type=_parse_seed, help="override the config seed")
    p.set_defaults(run=cmd_simulate)

    p = sub.add_parser("plan", help="measurements needed for a relative-error target")
    p.add_argument("--var-rate", type=float, required=True,
                   help="variable-delay rate on the path, 1/s")
    p.add_argument("--diff", type=float, required=True,
                   help="expected delay difference of the two sizes, seconds")
    p.add_argument("--eta", type=_parse_error_target, required=True,
                   help="relative error target, fraction ('0.244') or percent ('24.4%%')")
    p.set_defaults(run=cmd_plan)

    p = sub.add_parser("probe", help="probe a UDP reflector with two packet sizes")
    p.add_argument("--target", type=_parse_host_port, required=True, help="reflector host:port")
    p.add_argument("--w1", type=int, default=100, help="small packet payload, bytes")
    p.add_argument("--w2", type=int, default=1100, help="large packet payload, bytes")
    p.add_argument("--count", type=int, default=100, help="number of probe pairs")
    p.add_argument("--spacing", type=_parse_positive_float, default=0.1,
                   help="seconds between sends")
    p.add_argument("--timeout", type=_parse_positive_float, default=2.0,
                   help="seconds to wait for stragglers")
    p.add_argument("--out", help="write round-trip samples CSV here, - for stdout")
    p.set_defaults(run=cmd_probe)

    p = sub.add_parser("reflect", help="run the UDP echo reflector")
    p.add_argument("--listen", type=_parse_host_port, default=("0.0.0.0", 9000),
                   help="bind address as host:port (default 0.0.0.0:9000)")
    p.set_defaults(run=cmd_reflect)

    p = sub.add_parser(
        "reproduce-paper",
        help="regenerate the reference error tables and averaging curves",
    )
    p.add_argument("--out-dir", required=True, help="directory for the generated CSV/JSON files")
    p.add_argument("--seed", type=_parse_seed, default=REFERENCE_SEED, help="simulation seed")
    p.set_defaults(run=cmd_reproduce)

    # Added last rather than through parents=, which would move --json to
    # the front of every usage line that usage errors print.
    for p in sub.choices.values():
        p.add_argument("--json", action="store_true", help="print the result as one JSON object")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.run(args)
    except argparse.ArgumentError as exc:
        parser.error(str(exc))
    except VpsbandError as exc:
        return _fail(EXIT_DOMAIN, str(exc))
    except BrokenPipeError:
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
