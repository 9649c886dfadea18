"""Live two-size UDP probing against a dumb echo reflector.

Each probe datagram carries an 8-byte big-endian serial and an 8-byte
big-endian monotonic send timestamp (nanoseconds), zero-padded to the
probe size.  The reflector echoes datagrams byte-for-byte; echoes are
matched to probes by serial alone and timed entirely by this host's
monotonic clock, so the reflector needs no synchronized time.

Delays measured this way are round trips, and each echo is as large as
its probe, so both directions serialise the size difference: on a
symmetric, uncongested path the estimate is half the one-way figure,
and results carry a caveat saying so.
"""

from __future__ import annotations

import select
import socket
import struct
import threading
import time
from typing import NamedTuple, Sequence

from .errors import BindFailure, ClockError, Unreachable
from .model import (MAX_PORT, MAX_UNFRAGMENTED_PAYLOAD, Delay, DelaySample, PacketSize, Pairs, Samples, _finite,
                    _shown, _Value, _whole, check_size_order)
from .planner import REFERENCE_SIZES

HEADER = struct.Struct(">QQ")  # serial, monotonic send time in ns
MIN_PROBE_BYTES = HEADER.size
RECV_POLL_S = 0.05
MAX_WAIT_S = 1.0  # longest select wait in probe: select rejects timeouts past ~292 years

RTT_CAVEAT = (
    "delays are round trips timed by the sender's monotonic clock, and each "
    "echo is as large as its probe, so the size effect is serialised both "
    "ways: on a symmetric, uncongested path the estimate is half the one-way figure"
)


class ProbeConfig(_Value):
    """Target and shape of one probing session."""

    __slots__ = ("host", "port", "w1", "w2", "count", "spacing_s", "timeout_s")

    def __init__(self, host: str, port: int, w1: PacketSize = REFERENCE_SIZES[0], w2: PacketSize = REFERENCE_SIZES[1],
                 count: int = 100, spacing_s: float = 0.1, timeout_s: float = 2.0):
        if not _whole(port) or not 1 <= port <= MAX_PORT:
            raise ValueError(f"port must be in [1, {MAX_PORT}], got {_shown(port)}")
        if w1.bytes < MIN_PROBE_BYTES:
            raise ValueError(f"w1 must fit the {MIN_PROBE_BYTES}-byte probe header")
        check_size_order(w1, w2)
        if w2.bytes > MAX_UNFRAGMENTED_PAYLOAD:
            raise ValueError(
                f"w2 must stay within one unfragmented packet "
                f"({MAX_UNFRAGMENTED_PAYLOAD} bytes), got {w2.bytes}"
            )
        if not _whole(count) or count < 0:
            raise ValueError(f"count must be >= 0, got {_shown(count)}")
        if not all(_finite(t) and t > 0 for t in (spacing_s, timeout_s)):
            raise ValueError("spacing_s and timeout_s must be finite and > 0")
        self._assign(host, port, w1, w2, count, spacing_s, timeout_s)


class ProbeResult(NamedTuple):
    """Paired round-trip samples plus loss accounting."""

    pairs: Pairs
    sent: int
    received: int
    lost_pairs: int
    unknown_serials: int
    send_monotonic_ns: Sequence[int] = ()
    caveat: str = RTT_CAVEAT


class Reflector:
    """UDP echo server; reflects every datagram back to its sender."""

    def __init__(self, host: str = "0.0.0.0", port: int = 0):
        self._sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        try:
            self._sock.bind((host, port))
        except OSError as exc:
            self._sock.close()
            raise BindFailure(f"cannot bind {host}:{port}: {exc}") from exc
        self._sock.settimeout(RECV_POLL_S)
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None

    @property
    def address(self) -> tuple[str, int]:
        return self._sock.getsockname()

    def serve_forever(self) -> None:
        """Echo until :meth:`stop` is called (or the thread is killed)."""
        while not self._stop.is_set():
            try:
                data, addr = self._sock.recvfrom(65535)
            except socket.timeout:
                continue
            except OSError:
                break
            try:
                self._sock.sendto(data, addr)
            except OSError:
                continue

    def start(self) -> "Reflector":
        self._thread = threading.Thread(target=self.serve_forever, daemon=True)
        self._thread.start()
        return self

    def stop(self) -> None:
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=2 * RECV_POLL_S + 1.0)
        self._sock.close()

    def __enter__(self) -> "Reflector":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()


def _build_probe(serial: int, size: int, now_ns: int) -> bytes:
    return HEADER.pack(serial, now_ns) + b"\x00" * (size - HEADER.size)


def _drain(sock: socket.socket, send_ns: list[int], rtt_ns: dict[int, int]) -> int:
    """Time every queued echo; return how many matched no unanswered probe."""
    unknown = 0
    while True:
        try:
            data, _addr = sock.recvfrom(65535)
        except OSError:  # BlockingIOError: the queue is empty; other errors are skipped
            return unknown
        now = time.monotonic_ns()
        serial = HEADER.unpack_from(data)[0] if len(data) >= HEADER.size else 0  # 0 is never sent
        if not 1 <= serial <= len(send_ns) or serial in rtt_ns:
            unknown += 1
            continue
        started = send_ns[serial - 1]
        if now < started:
            raise ClockError(f"echo for serial {serial} arrived {started - now} ns before its send")
        rtt_ns[serial] = now - started


def probe(cfg: ProbeConfig) -> ProbeResult:
    """Send ``cfg.count`` interleaved small/large probes and time echoes.

    Packets alternate w1, w2, w1, w2, ... with ``cfg.spacing_s`` between
    sends; serials increase strictly.  A pair is dropped (and counted
    lost) when either echo is missing after ``cfg.timeout_s``; echoes
    with unknown serials are discarded and counted.

    One thread runs the session on a non-blocking socket: between sends
    it waits for echoes in ``select.select``, whose timeout has
    microsecond resolution, so the send schedule is not rounded to
    milliseconds.  ``sent_at`` is the session's wall-clock start plus
    monotonic time since, so it rises with the serial even if the
    system clock steps.
    """
    sizes = (cfg.w1.bytes, cfg.w2.bytes)
    if cfg.count == 0:
        return ProbeResult(pairs=Pairs.interleaved(Samples(), sizes), sent=0, received=0, lost_pairs=0,
                           unknown_serials=0)

    try:
        target = (socket.gethostbyname(cfg.host), cfg.port)
    except OSError as exc:
        raise Unreachable(f"cannot resolve {cfg.host!r}: {exc}") from exc

    total = 2 * cfg.count
    send_ns: list[int] = []
    rtt_ns: dict[int, int] = {}
    unknown = 0
    wall0, mono0 = time.time(), time.monotonic_ns()
    with socket.socket(socket.AF_INET, socket.SOCK_DGRAM) as sock:
        sock.setblocking(False)
        due = time.monotonic()  # the next send, then the end of the wait for stragglers
        while len(rtt_ns) < total:
            # Drain before every send too, so echoes are not left queued
            # (and timed late) while a slipped schedule catches up.
            if select.select([sock], [], [], min(max(due - time.monotonic(), 0.0), MAX_WAIT_S))[0]:
                unknown += _drain(sock, send_ns, rtt_ns)
            if time.monotonic() < due:
                continue
            if len(send_ns) == total:
                break
            serial = len(send_ns) + 1
            now = time.monotonic_ns()
            try:
                sock.sendto(_build_probe(serial, sizes[(serial - 1) % 2], now), target)
            except OSError as exc:
                raise Unreachable(f"cannot send to {cfg.host}:{cfg.port}: {exc}") from exc
            send_ns.append(now)
            due = time.monotonic() + cfg.timeout_s if serial == total else due + cfg.spacing_s

    if not rtt_ns:
        raise Unreachable(f"no echoes from {cfg.host}:{cfg.port} after {len(send_ns)} probes")

    samples = Samples()
    for small in range(1, total, 2):
        if small in rtt_ns and small + 1 in rtt_ns:
            for serial, size in zip((small, small + 1), (cfg.w1, cfg.w2)):
                sent_at = wall0 + (send_ns[serial - 1] - mono0) / 1e9
                samples.append(DelaySample(size, Delay(rtt_ns[serial] / 1e9), serial, sent_at))
    return ProbeResult(
        pairs=Pairs.interleaved(samples, sizes),
        sent=len(send_ns),
        received=len(rtt_ns),
        lost_pairs=cfg.count - len(samples) // 2,
        unknown_serials=unknown,
        send_monotonic_ns=send_ns,
    )
