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
import functools
import json
import math
import os
import sys
from pathlib import Path
from typing import TYPE_CHECKING

from .errors import EmptyInput, InvalidQuery, NonPositiveDelayDifference, NoPairsFound, VpsbandError
from .model import (MAX_PORT, PacketSize, Samples, ascii_number, check_size_order, read_samples_csv,
                    write_samples_csv)

if TYPE_CHECKING:
    from . import simulate

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
    """A usage error found after parsing; ``main`` reports it as the command's parser would."""
    return argparse.ArgumentError(None, message)


def _open_out(path: str):
    """Writable text stream for a path, with '-' meaning stdout (left open)."""
    return contextlib.nullcontext(sys.stdout) if path == "-" else open(path, "w", encoding="utf-8", newline="")


def _number(kind, text: str, message: str):
    """``kind(text)`` in ASCII digits, or an argument error reading ``message`` when it does not convert."""
    try:
        return ascii_number(text, kind)
    except ValueError:
        raise argparse.ArgumentTypeError(message) from None


def _parse_int(text: str) -> int:
    return _number(int, text, f"invalid int value: {text!r}")


def _parse_float(text: str) -> float:
    return _number(float, text, f"invalid float value: {text!r}")


def _parse_host_port(text: str) -> tuple[str, int]:
    host, sep, port = text.rpartition(":")
    if not sep or not host:
        raise argparse.ArgumentTypeError(f"expected host:port, got {text!r}")
    port_num = _number(int, port, f"port must be an integer, got {port!r}")
    if not 0 <= port_num <= MAX_PORT:
        raise argparse.ArgumentTypeError(f"port must be in [0, {MAX_PORT}], got {port_num}")
    return host, port_num


def _parse_batch_size(text: str):
    if text == "auto":
        return "auto"
    value = _number(int, text, f"batch size must be an integer or 'auto', got {text!r}")
    if value < 1:
        raise argparse.ArgumentTypeError("batch size must be >= 1")
    return value


def _parse_seed(text: str) -> int:
    value = _number(int, text, f"expected an integer, got {text!r}")
    if value < 0:
        raise argparse.ArgumentTypeError(f"seed must be >= 0, got {value}")
    return value


def _parse_positive_float(text: str) -> float:
    value = _number(float, text, f"expected a number, got {text!r}")
    if not (math.isfinite(value) and value > 0):
        raise argparse.ArgumentTypeError(f"must be finite and > 0, got {text!r}")
    return value


def _parse_error_target(text: str) -> float:
    """Accept a fraction (0.244) or a percentage (24.4 or '24.4%')."""
    cleaned = text.strip()
    percent = cleaned.endswith("%")
    value = _number(float, cleaned[:-1] if percent else cleaned, f"expected a number, got {text!r}")
    if percent or value >= 1.0:
        value /= 100.0
    return value


# ---------------------------------------------------------------------------
# parse
# ---------------------------------------------------------------------------

def cmd_parse(args) -> int:
    from . import testbox
    with open(args.sender, "rb") as fp:
        sender_log = testbox.parse_sender_file(fp)
    with open(args.receiver, "rb") as fp:
        receiver_log = testbox.parse_receiver_file(fp)

    match = testbox.match_sessions(sender_log, receiver_log)
    diagnostics = {
        "parsed": sender_log.n_parsed + receiver_log.n_parsed,
        "malformed": sender_log.n_malformed + receiver_log.n_malformed,
        "matched": match.matched,
        "unmatched": match.unmatched_sent + match.unmatched_received,
        "paired": None,
        "duplicates": match.duplicate_sent + match.duplicate_received,
    }

    if match.matched:
        with _open_out(args.out) as fp:
            write_samples_csv(match.samples, fp)

    _report(
        args,
        diagnostics,
        f"parsed {diagnostics['parsed']} records "
        f"({diagnostics['malformed']} malformed), matched {match.matched}, "
        f"unmatched {diagnostics['unmatched']}, duplicates {diagnostics['duplicates']}",
        f"samples written to {args.out}" if match.matched and args.out != "-" else None,
    )
    if not match.matched:
        raise EmptyInput("no sender/receiver records matched on serial")
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
        check_size_order(w1, w2)
    except ValueError as exc:
        raise _usage_error(str(exc)) from None
    return w1, w2


def _sizes_in(samples: Samples) -> tuple[PacketSize, PacketSize]:
    sizes = sorted(set(samples.bytes))
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
    from . import estimator, testbox
    flag_sizes = _flag_sizes(args)
    try:
        # A byte that is not UTF-8 becomes a lone surrogate, which fails
        # its field's parse and so is reported with its line number.
        with open(args.samples, "r", encoding="utf-8", errors="surrogateescape", newline="") as fp:
            samples = read_samples_csv(fp)
    except ValueError as exc:
        raise VpsbandError(f"bad samples file: {exc}") from exc
    if not samples:
        raise EmptyInput("samples file is empty")
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

def _simulate_module():
    """``vpsband.simulate``, imported by the commands that draw and by no other:
    it is the one module that needs numpy, so the rest run without numpy installed."""
    try:
        from . import simulate
    except ModuleNotFoundError as exc:
        if exc.name != "numpy":
            raise
        raise VpsbandError("simulation needs numpy, which is not installed") from exc
    return simulate


def _write_simulation(cfg: simulate.SimConfig, ns, out_dir: Path):
    """Write ``samples.csv`` and, given two or more trials, ``error_vs_n.csv``, both
    drawn before either is written.  Returns the pairs, the error points and the
    table's path (None if skipped)."""
    simulate = _simulate_module()
    pairs = simulate.simulate_pairs(cfg)
    points = simulate.error_vs_n(cfg, ns) if cfg.n_trials >= 2 else None
    out_dir.mkdir(parents=True, exist_ok=True)
    with open(out_dir / "samples.csv", "w", encoding="utf-8", newline="") as fp:
        write_samples_csv(pairs.samples, fp)
    if points is None:
        print(
            "vpsband: warning: n_trials < 2 makes the error spread undefined; "
            "skipping the error table",
            file=sys.stderr,
        )
        return pairs, [], None
    table_path = out_dir / "error_vs_n.csv"
    with open(table_path, "w", encoding="utf-8", newline="") as fp:
        simulate.write_error_table_csv(points, fp)
    return pairs, points, table_path


def _error_rows(points) -> list[dict]:
    return [{"n": p.n, "sd_s": p.sd_s, "eta": p.rel_error} for p in points]


def _error_lines(points) -> list[str]:
    return [f"  n={p.n:>4d}  sd={p.sd_s * 1e3:.3f} ms  eta={p.rel_error:.1%}" for p in points]


def cmd_simulate(args) -> int:
    simulate = _simulate_module()
    out_dir = Path(args.out_dir)
    try:
        cfg, ns = simulate.load_config(args.config)
        if args.seed is not None:
            cfg = simulate.SimConfig(cfg.path, cfg.packet_sizes, cfg.n_pairs, cfg.n_trials, args.seed)
        # the config fixes every draw, so a draw past float range or free memory is its fault too
        _, points, table_path = _write_simulation(cfg, ns, out_dir)
    except (ValueError, MemoryError) as exc:
        raise VpsbandError(f"bad config: {exc}") from exc

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
    from . import planner
    try:
        query = planner.PlanQuery(
            var_delay_rate=args.var_rate,
            mean_delay_diff_s=args.diff,
            target_error=args.eta,
        )
    except InvalidQuery as exc:
        raise _usage_error(str(exc)) from exc
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
    from . import estimator, prober
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
        raise _usage_error(str(exc)) from exc

    result = prober.probe(cfg)
    if result.pairs and args.out is not None:
        with _open_out(args.out) as fp:
            write_samples_csv(result.pairs.samples, fp)

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
    from . import prober
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

def cmd_reproduce(args) -> int:
    from . import estimator, planner
    simulate = _simulate_module()
    out_dir = Path(args.out_dir)
    cfg = simulate.reference_config(args.seed)
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
        var_delay_rate=planner.REFERENCE_VAR_DELAY_RATE,
        mean_delay_diff_s=planner.REFERENCE_DELAY_DIFF_S,
        target_error=planner.REFERENCE_TARGET_ERROR,
    )
    plan = planner.required_measurements(query)
    with open(out_dir / "plan.json", "w", encoding="utf-8") as fp:
        json.dump(plan.to_json_dict(), fp)
        fp.write("\n")

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

def _parse_options(p: _Parser) -> None:
    p.add_argument("sender", help="sender-side log (SNDP lines)")
    p.add_argument("receiver", help="receiver-side log (RCDP lines)")
    p.add_argument("--out", default="-", help="samples CSV path, - for stdout (default)")


def _estimate_options(p: _Parser) -> None:
    from . import testbox
    p.add_argument("samples", help="samples CSV produced by parse, simulate, or probe")
    p.add_argument("--w1", type=_parse_int, help="small packet size, bytes")
    p.add_argument("--w2", type=_parse_int, help="large packet size, bytes")
    p.add_argument("--batch-size", type=_parse_batch_size, default="auto",
                   help="pairs averaged per batch, or 'auto' (min of 50 and the pair count)")
    p.add_argument("--window", type=_parse_positive_float, default=testbox.DEFAULT_PAIR_WINDOW_S,
                   help="pairing window in seconds")


def _simulate_options(p: _Parser) -> None:
    p.add_argument("config", help="flat key=value simulation config file")
    p.add_argument("--out-dir", required=True, help="directory for samples.csv and error_vs_n.csv")
    p.add_argument("--seed", type=_parse_seed, help="override the config seed")


def _plan_options(p: _Parser) -> None:
    p.add_argument("--var-rate", type=_parse_float, required=True,
                   help="variable-delay rate on the path, 1/s")
    p.add_argument("--diff", type=_parse_float, required=True,
                   help="expected delay difference of the two sizes, seconds")
    p.add_argument("--eta", type=_parse_error_target, required=True,
                   help="relative error target, fraction ('0.244') or percent ('24.4%%')")


def _probe_options(p: _Parser) -> None:
    from . import prober
    defaults = prober.ProbeConfig("localhost", 1)
    p.add_argument("--target", type=_parse_host_port, required=True, help="reflector host:port")
    p.add_argument("--w1", type=_parse_int, default=defaults.w1.bytes, help="small packet payload, bytes")
    p.add_argument("--w2", type=_parse_int, default=defaults.w2.bytes, help="large packet payload, bytes")
    p.add_argument("--count", type=_parse_int, default=defaults.count, help="number of probe pairs")
    p.add_argument("--spacing", type=_parse_positive_float, default=defaults.spacing_s, help="seconds between sends")
    p.add_argument("--timeout", type=_parse_positive_float, default=defaults.timeout_s,
                   help="seconds to wait for stragglers")
    p.add_argument("--out", help="write round-trip samples CSV here, - for stdout")


def _reflect_options(p: _Parser) -> None:
    p.add_argument("--listen", type=_parse_host_port, default=("0.0.0.0", 9000),
                   help="bind address as host:port (default 0.0.0.0:9000)")


def _reproduce_options(p: _Parser) -> None:
    p.add_argument("--out-dir", required=True, help="directory for the generated CSV/JSON files")
    p.add_argument("--seed", type=_parse_seed, default=REFERENCE_SEED, help="simulation seed")


# each command's help line, the function that adds its arguments, and the one that runs it
_COMMANDS = {
    "parse": ("parse sender/receiver logs into delay samples", _parse_options, cmd_parse),
    "estimate": ("estimate available bandwidth from a samples CSV", _estimate_options, cmd_estimate),
    "simulate": ("generate synthetic samples and an error-vs-n table", _simulate_options, cmd_simulate),
    "plan": ("measurements needed for a relative-error target", _plan_options, cmd_plan),
    "probe": ("probe a UDP reflector with two packet sizes", _probe_options, cmd_probe),
    "reflect": ("run the UDP echo reflector", _reflect_options, cmd_reflect),
    "reproduce-paper": ("regenerate the reference error tables and averaging curves",
                        _reproduce_options, cmd_reproduce),
}


def _command_parser(command: str) -> _Parser:
    """``vpsband command``'s parser: the command's options, then --json."""
    _, add_options, run = _COMMANDS[command]
    p = _Parser(prog=f"vpsband {command}")
    add_options(p)
    # Added last rather than through parents=, which would move --json to
    # the front of every usage line that usage errors print.
    p.add_argument("--json", action="store_true", help="print the result as one JSON object")
    p.set_defaults(run=run, command_parser=p)
    return p


def build_parser() -> _Parser:
    """The ``vpsband`` parser, which lists every command as the root's help and errors
    show them and hands each command's arguments to its ``_command_parser``."""
    # Python 3.13 puts the command column at 21, where 3.10-3.12 put it at 19: fixed here to 19 for all
    parser = _Parser(prog="vpsband", description=__doc__.splitlines()[0],
                     formatter_class=functools.partial(argparse.HelpFormatter, max_help_position=19))
    # the subparsers action calls its parser class with add_parser's keywords and the prog it makes
    sub = parser.add_subparsers(required=True, metavar="COMMAND",
                                parser_class=lambda prog, command: _command_parser(command))
    for name, (help_text, _, _) in _COMMANDS.items():
        sub.add_parser(name, help=help_text, command=name)
    return parser


def main(argv: list[str] | None = None) -> int:
    """Run one command: the only place where a failure becomes an exit code."""
    argv = sys.argv[1:] if argv is None else argv
    if argv and argv[0] in _COMMANDS:  # its own parser, to which the root's would hand the rest
        args = _command_parser(argv[0]).parse_args(argv[1:])
    else:
        args = build_parser().parse_args(argv)
    try:
        return args.run(args)
    except argparse.ArgumentError as exc:
        args.command_parser.error(str(exc))
    except VpsbandError as exc:
        code, message = EXIT_DOMAIN, exc
    except BrokenPipeError:  # the reader closed stdout and wants no more output
        # what stdout still buffers would fail again when the interpreter flushes it at exit
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_IO
    except OSError as exc:  # its text names the path
        code, message = EXIT_IO, exc
    print(f"vpsband: {message}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
