"""Loopback probing: echo integrity, loss accounting, pacing, failure modes.

Loopback RTTs are tens of microseconds with comparable jitter, so the
small/large delay difference is noise here; these tests assert structure
and bookkeeping, not bandwidth values.
"""

import socket
import statistics
import threading
import time
import types

import pytest

from vpsband.errors import (
    BindFailure,
    ClockError,
    NonPositiveDelayDifference,
    Unreachable,
)
from vpsband.estimator import estimate_batch
from vpsband.model import PacketSize
from vpsband import prober
from vpsband.prober import HEADER, MAX_WAIT_S, ProbeConfig, Reflector, probe

import object_pipeline


class ScriptedReflector:
    """Echo server with a programmable reply per datagram."""

    def __init__(self, reply_fn):
        self._reply_fn = reply_fn
        self._sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        self._sock.bind(("127.0.0.1", 0))
        self._sock.settimeout(0.05)
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._serve, daemon=True)

    @property
    def port(self):
        return self._sock.getsockname()[1]

    def _serve(self):
        while not self._stop.is_set():
            try:
                data, addr = self._sock.recvfrom(65535)
            except socket.timeout:
                continue
            except OSError:
                break
            for reply in self._reply_fn(data):
                self._sock.sendto(reply, addr)

    def __enter__(self):
        self._thread.start()
        return self

    def __exit__(self, *exc_info):
        self._stop.set()
        self._thread.join(timeout=1.0)
        self._sock.close()


def loopback_config(port, **overrides):
    defaults = dict(
        host="127.0.0.1",
        port=port,
        w1=PacketSize(100),
        w2=PacketSize(1100),
        count=40,
        spacing_s=0.002,
        timeout_s=2.0,
    )
    defaults.update(overrides)
    return ProbeConfig(**defaults)


# ---------------------------------------------------------------------------
# happy path
# ---------------------------------------------------------------------------

def test_loopback_round_trip_structure():
    with Reflector(host="127.0.0.1") as reflector:
        result = probe(loopback_config(reflector.address[1]))

    assert result.sent == 80
    assert result.received + 2 * result.lost_pairs >= result.sent - 2
    assert len(result.pairs) == 40 - result.lost_pairs
    assert result.lost_pairs <= 2  # loopback should essentially never drop
    assert "round trips" in result.caveat

    serials = [s for p in result.pairs for s in (p.small.serial, p.large.serial)]
    assert serials == sorted(serials)
    for pair in result.pairs:
        assert pair.large.serial == pair.small.serial + 1
        assert pair.small.delay.seconds > 0
        assert pair.large.delay.seconds > 0
        assert pair.small.delay.seconds < 0.5  # loopback, not a WAN

    # The size effect sits below loopback jitter, so either outcome is
    # legitimate; what must hold is that the pipeline accepts the pairs.
    try:
        est = estimate_batch(result.pairs, batch_size=len(result.pairs))
        assert est.value.bits_per_second > 1e6
    except NonPositiveDelayDifference:
        pass


def test_reflector_echoes_bytes_verbatim():
    with Reflector(host="127.0.0.1") as reflector:
        payload = HEADER.pack(7, 12345) + b"\xab" * 100
        with socket.socket(socket.AF_INET, socket.SOCK_DGRAM) as sock:
            sock.settimeout(2.0)
            sock.sendto(payload, ("127.0.0.1", reflector.address[1]))
            echoed, _ = sock.recvfrom(65535)
    assert echoed == payload


def test_reflector_reports_bound_address():
    with Reflector(host="127.0.0.1", port=0) as reflector:
        host, port = reflector.address
        assert host == "127.0.0.1"
        assert port > 0


class FailingSocket:
    """Stand-in socket whose receives are scripted, an ``OSError`` raised where one stands,
    and whose echo of ``b"lost"`` fails."""

    def __init__(self, received):
        self.received = list(received)
        self.echoed = []

    def recvfrom(self, bufsize):
        got = self.received.pop(0)
        if isinstance(got, OSError):
            raise got
        return got

    def sendto(self, data, addr):
        if data == b"lost":
            raise OSError("no buffer space available")
        self.echoed.append((data, addr))

    def close(self):
        pass


def test_reflector_skips_a_failed_echo_and_stops_on_a_failed_receive():
    reflector = Reflector(host="127.0.0.1")
    reflector._sock.close()
    addr = ("127.0.0.1", 9)
    reflector._sock = stand_in = FailingSocket([(b"lost", addr), (b"kept", addr), OSError("socket closed")])
    reflector.serve_forever()  # returns: the failed receive ended it
    assert stand_in.received == []
    assert stand_in.echoed == [(b"kept", addr)]
    reflector.stop()


def test_probe_count_zero_sends_nothing():
    # Early return: the bogus target must never be resolved or probed.
    result = probe(ProbeConfig(host="host.invalid", port=9, count=0))
    assert result.sent == 0
    assert list(result.pairs) == []


def test_send_spacing_is_respected():
    with Reflector(host="127.0.0.1") as reflector:
        result = probe(loopback_config(reflector.address[1], count=10, spacing_s=0.02))
    gaps = [
        (b - a) / 1e9
        for a, b in zip(result.send_monotonic_ns, result.send_monotonic_ns[1:])
    ]
    assert len(gaps) == 19
    median_error = statistics.median(abs(g - 0.02) for g in gaps)
    assert median_error < 0.002  # within 10% of the schedule


def test_long_timeout_waits_in_capped_steps_and_ends_with_the_last_echo(monkeypatch):
    # select rejects a timeout past ~292 years; every wait stays under
    # MAX_WAIT_S, and the session still ends once every echo is in.
    waits = []
    real_select = prober.select.select
    started = time.monotonic()

    def capped_select(rlist, wlist, xlist, timeout):
        waits.append(timeout)
        assert 0.0 <= timeout <= MAX_WAIT_S
        assert time.monotonic() - started < 10.0, "the session outlived its last echo"
        return real_select(rlist, wlist, xlist, timeout)

    monkeypatch.setattr(prober.select, "select", capped_select)
    with Reflector(host="127.0.0.1") as reflector:
        result = probe(loopback_config(reflector.address[1], count=5, spacing_s=0.001, timeout_s=1e10))
    assert result.received == 10 and len(result.pairs) == 5
    assert waits


# ---------------------------------------------------------------------------
# misbehaving reflectors
# ---------------------------------------------------------------------------

def test_duplicate_and_junk_echoes_are_counted_not_paired():
    def double_echo_plus_junk(data):
        return (data, data, b"\x01")  # dup (known serial) and a short datagram

    with ScriptedReflector(double_echo_plus_junk) as reflector:
        result = probe(loopback_config(reflector.port, count=5, timeout_s=0.5))

    assert len(result.pairs) + result.lost_pairs == 5
    assert result.lost_pairs == 0
    assert result.unknown_serials >= 10  # one duplicate per probe at minimum


def test_dropping_all_large_packets_loses_every_pair():
    def echo_only_small(data):
        return (data,) if len(data) == 100 else ()

    with ScriptedReflector(echo_only_small) as reflector:
        result = probe(loopback_config(reflector.port, count=3, timeout_s=0.3))

    assert result.received == 3
    assert result.lost_pairs == 3
    assert list(result.pairs) == []


def echo(data):
    return (data,)


def drop_some(data):
    serial = HEADER.unpack_from(data)[0]
    return () if serial % 6 == 4 or serial % 10 == 7 else (data,)  # some larges, some smalls


@pytest.mark.parametrize("reply", [echo, drop_some])
def test_probe_pairs_are_those_the_object_route_built(monkeypatch, reply):
    session = {}
    real_drain = prober._drain

    def drain(sock, send_ns, rtt_ns):
        session.update(send_ns=send_ns, rtt_ns=rtt_ns)
        return real_drain(sock, send_ns, rtt_ns)

    monotonic_ns = []

    def recorded_monotonic_ns():
        monotonic_ns.append(time.monotonic_ns())
        return monotonic_ns[-1]

    wall0 = 1.7e9 + 0.25
    monkeypatch.setattr(prober, "_drain", drain)
    monkeypatch.setattr(prober, "time", types.SimpleNamespace(
        time=lambda: wall0, monotonic=time.monotonic, monotonic_ns=recorded_monotonic_ns))
    with ScriptedReflector(reply) as reflector:
        cfg = loopback_config(reflector.port, count=20, timeout_s=0.3)
        result = probe(cfg)

    expected = object_pipeline.probe_pairs(cfg, session["rtt_ns"], session["send_ns"], wall0, monotonic_ns[0])
    assert list(result.pairs) == expected
    assert len(expected) == 20 - result.lost_pairs
    assert result.lost_pairs == (0 if reply is echo else 10)


def test_silent_target_raises_unreachable():
    with socket.socket(socket.AF_INET, socket.SOCK_DGRAM) as black_hole:
        black_hole.bind(("127.0.0.1", 0))
        port = black_hole.getsockname()[1]
        cfg = loopback_config(port, count=2, spacing_s=0.01, timeout_s=0.3)
        with pytest.raises(Unreachable, match="no echoes"):
            probe(cfg)


def test_unresolvable_host_raises_unreachable():
    cfg = ProbeConfig(host="definitely-not-a-real-host.invalid", port=9, count=1)
    with pytest.raises(Unreachable, match="resolve"):
        probe(cfg)


def test_refused_send_raises_unreachable():
    # Without SO_BROADCAST the kernel refuses the send locally: no packet leaves.
    with pytest.raises(Unreachable, match="cannot send to 255.255.255.255:9"):
        probe(ProbeConfig(host="255.255.255.255", port=9, count=1))


def test_sent_at_rises_with_serial_when_the_wall_clock_steps_back(monkeypatch):
    import vpsband.prober as prober_module

    state = {"value": 2e9}

    def stepping_back():
        state["value"] -= 3600.0
        return state["value"]

    with Reflector(host="127.0.0.1") as reflector:
        cfg = loopback_config(reflector.address[1], count=10)
        monkeypatch.setattr(prober_module.time, "time", stepping_back)
        result = probe(cfg)

    sent_at = [s.sent_at for p in result.pairs for s in (p.small, p.large)]
    assert len(sent_at) >= 2
    assert all(a < b for a, b in zip(sent_at, sent_at[1:]))


def test_backwards_monotonic_clock_raises(monkeypatch):
    import vpsband.prober as prober_module

    lock = threading.Lock()
    state = {"value": 10**18}

    def backwards_ns():
        with lock:
            state["value"] -= 10**9
            return state["value"]

    with Reflector(host="127.0.0.1") as reflector:
        cfg = loopback_config(reflector.address[1], count=1, timeout_s=0.5)
        monkeypatch.setattr(prober_module.time, "monotonic_ns", backwards_ns)
        with pytest.raises(ClockError, match="before its send"):
            probe(cfg)


# ---------------------------------------------------------------------------
# configuration and binding
# ---------------------------------------------------------------------------

@pytest.mark.parametrize(
    "overrides",
    [
        dict(port=0),
        dict(port=65536),
        dict(w1=PacketSize(8)),                       # cannot hold the header
        dict(w1=PacketSize(1100), w2=PacketSize(100)),
        dict(w2=PacketSize(1473)),                    # would fragment
        dict(count=-1),
        dict(spacing_s=0.0),
        dict(timeout_s=0.0),
        dict(spacing_s=float("nan")),
        dict(timeout_s=float("nan")),
        dict(spacing_s=float("inf")),                # would sleep forever
    ],
)
def test_probe_config_validation(overrides):
    kwargs = dict(host="127.0.0.1", port=6000)
    kwargs.update(overrides)
    with pytest.raises(ValueError):
        ProbeConfig(**kwargs)


def test_bind_conflict_raises_bind_failure():
    with Reflector(host="127.0.0.1") as first:
        with pytest.raises(BindFailure):
            Reflector(host="127.0.0.1", port=first.address[1])
