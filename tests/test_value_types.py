"""The value types of ``model`` and the configs of ``planner``, ``simulate``
and ``prober`` behave as the frozen dataclasses they replaced, and the
result types of ``testbox``, ``planner`` and ``prober`` build and read as
they did.

``Ref`` holds the eleven ``@dataclass`` definitions as the package had them,
and the two results that are now named tuples.  Each case draws one recipe
of arguments, defaulted ones sometimes left out, and builds it once from the
package's classes and once from ``Ref``'s: the two must be refused with the
same error, or compare, hash, print, copy and pickle alike.  Finite numbers
(a delay, ``sent_at``, a bandwidth, a variable-delay rate, ``sd_bps``, the
planner's query and the prober's spacing and timeout) are drawn without the
bools and the ints past float range that the dataclasses took or failed on
with ``OverflowError``, and that the value types now refuse
(``test_model.py`` and ``test_columns.py`` pin those).
"""

from __future__ import annotations

import copy
import dataclasses
import itertools
import json
import math
import pickle
from array import array
from dataclasses import dataclass, field
from types import SimpleNamespace
from typing import NamedTuple

import pytest
from hypothesis import given
from hypothesis import strategies as st

from vpsband import model, planner, prober, simulate
from vpsband.errors import InvalidQuery
from vpsband.model import (
    MAX_PORT,
    MAX_SERIAL,
    MAX_UDP_PAYLOAD,
    MAX_UNFRAGMENTED_PAYLOAD,
    Delay,
    DelaySample,
    PacketSize,
    Pairs,
    Samples,
    check_size_order,
)
from vpsband.planner import REFERENCE_SIZES
from vpsband.prober import MIN_PROBE_BYTES, RTT_CAVEAT
from vpsband.simulate import _MAX_UNIT_DRAW, fixed_delay
from vpsband.testbox import MatchResult, PairResult, ParsedLog


class Ref:
    """The value types, configs and results as dataclasses, verbatim but for their ``Ref.`` names."""

    @dataclass(frozen=True, slots=True)
    class PacketSize:
        bytes: int

        def __post_init__(self):
            if not isinstance(self.bytes, int) or isinstance(self.bytes, bool):
                raise ValueError(f"packet size must be an integer byte count, got {self.bytes!r}")
            if not 1 <= self.bytes <= MAX_UDP_PAYLOAD:
                raise ValueError(f"packet size must be in [1, {MAX_UDP_PAYLOAD}] bytes, got {self.bytes}")

    @dataclass(frozen=True, slots=True)
    class Delay:
        seconds: float

        def __post_init__(self):
            if not math.isfinite(self.seconds) or self.seconds < 0:
                raise ValueError(f"delay must be finite and >= 0 s, got {self.seconds!r}")

    @dataclass(frozen=True)
    class Bandwidth:
        bits_per_second: float

        def __post_init__(self):
            if not math.isfinite(self.bits_per_second) or self.bits_per_second <= 0:
                raise ValueError(f"bandwidth must be finite and > 0 bit/s, got {self.bits_per_second!r}")

    @dataclass(frozen=True, slots=True)
    class DelaySample:
        packet_size: Ref.PacketSize
        delay: Ref.Delay
        serial: int
        sent_at: float

        def __post_init__(self):
            if not isinstance(self.serial, int) or isinstance(self.serial, bool) or not 0 <= self.serial <= MAX_SERIAL:
                raise ValueError(f"serial must fit an unsigned 64-bit integer, got {self.serial!r}")
            if not math.isfinite(self.sent_at):
                raise ValueError(f"sent_at must be finite, got {self.sent_at!r}")

    @dataclass(frozen=True, slots=True)
    class ProbePair:
        small: Ref.DelaySample
        large: Ref.DelaySample

        def __post_init__(self):
            check_size_order(self.small.packet_size, self.large.packet_size)

    @dataclass(frozen=True)
    class Hop:
        capacity: Ref.Bandwidth
        propagation_delay: Ref.Delay

    @dataclass(frozen=True)
    class PathModel:
        hops: tuple[Ref.Hop, ...]
        var_delay_rate: float

        def __post_init__(self):
            if len(self.hops) < 1:
                raise ValueError("path needs at least one hop")
            if not math.isfinite(self.var_delay_rate) or self.var_delay_rate <= 0:
                raise ValueError(f"var_delay_rate must be > 0 per second, got {self.var_delay_rate!r}")

    @dataclass(frozen=True)
    class BandwidthEstimate:
        value: Ref.Bandwidth
        n_pairs: int
        sd_bps: float | None
        relative_error: float | None
        mean_delay_diff_s: float

        def __post_init__(self):
            if self.n_pairs < 1:
                raise ValueError("an estimate must use at least one pair")
            if self.sd_bps is not None and (not math.isfinite(self.sd_bps) or self.sd_bps < 0):
                raise ValueError(f"sd_bps must be finite and >= 0, got {self.sd_bps!r}")
            if (self.sd_bps is None) != (self.relative_error is None):
                raise ValueError("sd_bps and relative_error must be absent together")

    @dataclass(frozen=True)
    class PlanQuery:
        var_delay_rate: float    # 1/s, inverse mean variable delay on the path
        mean_delay_diff_s: float  # expected delay difference of the two sizes
        target_error: float       # acceptable relative estimate error, in (0, 1)

        def __post_init__(self):
            if not (math.isfinite(self.var_delay_rate) and self.var_delay_rate > 0):
                raise InvalidQuery(f"var_delay_rate must be > 0 per second, got {self.var_delay_rate!r}")
            if not (math.isfinite(self.mean_delay_diff_s) and self.mean_delay_diff_s > 0):
                raise InvalidQuery(f"mean_delay_diff_s must be > 0 s, got {self.mean_delay_diff_s!r}")
            if not (math.isfinite(self.target_error) and 0 < self.target_error < 1):
                raise InvalidQuery(f"target_error must be in (0, 1), got {self.target_error!r}")

    @dataclass(frozen=True)
    class PlanResult:
        n: int
        analytic_n: int
        extrapolated: bool
        scaled_target: float

        def to_json_dict(self) -> dict:
            return {
                "n": self.n,
                "analytic_n": self.analytic_n,
                "extrapolated": self.extrapolated,
                "scaled_target": self.scaled_target,
            }

    @dataclass(frozen=True)
    class SimConfig:
        path: Ref.PathModel
        packet_sizes: tuple[Ref.PacketSize, Ref.PacketSize]
        n_pairs: int = 3000
        n_trials: int = 10_000
        seed: int = 0

        def __post_init__(self):
            w1, w2 = self.packet_sizes
            check_size_order(w1, w2)
            if self.n_pairs < 1:
                raise ValueError(f"n_pairs must be >= 1, got {self.n_pairs}")
            if self.n_trials < 1:
                raise ValueError(f"n_trials must be >= 1, got {self.n_trials}")
            if self.seed < 0:
                raise ValueError(f"seed must be >= 0, got {self.seed}")
            if not fixed_delay(self.path, w2).seconds > fixed_delay(self.path, w1).seconds:
                raise ValueError("path model gives no positive delay difference between sizes")
            # the spread sums n_trials squared deviations, each below (2 * largest draw)**2
            largest = _MAX_UNIT_DRAW / self.path.var_delay_rate
            if not math.isfinite(4 * largest * largest * self.n_trials):
                raise ValueError(
                    f"var_delay_rate {self.path.var_delay_rate!r} per second is too small for "
                    f"{self.n_trials} trials: delay draws reach {largest!r} s, and their spread passes float range"
                )

    @dataclass(frozen=True)
    class ProbeConfig:
        host: str
        port: int
        w1: PacketSize = REFERENCE_SIZES[0]
        w2: PacketSize = REFERENCE_SIZES[1]
        count: int = 100
        spacing_s: float = 0.1
        timeout_s: float = 2.0

        def __post_init__(self):
            if not 1 <= self.port <= MAX_PORT:
                raise ValueError(f"port must be in [1, {MAX_PORT}], got {self.port}")
            if self.w1.bytes < MIN_PROBE_BYTES:
                raise ValueError(f"w1 must fit the {MIN_PROBE_BYTES}-byte probe header")
            check_size_order(self.w1, self.w2)
            if self.w2.bytes > MAX_UNFRAGMENTED_PAYLOAD:
                raise ValueError(
                    f"w2 must stay within one unfragmented packet "
                    f"({MAX_UNFRAGMENTED_PAYLOAD} bytes), got {self.w2.bytes}"
                )
            if self.count < 0:
                raise ValueError(f"count must be >= 0, got {self.count}")
            if not all(math.isfinite(t) and t > 0 for t in (self.spacing_s, self.timeout_s)):
                raise ValueError("spacing_s and timeout_s must be finite and > 0")

    @dataclass
    class ProbeResult:
        pairs: Pairs
        sent: int
        received: int
        lost_pairs: int
        unknown_serials: int
        send_monotonic_ns: list[int] = field(default_factory=list)
        caveat: str = RTT_CAVEAT


# the package's classes, under the names Ref gives them
PACKAGE = SimpleNamespace(**{name: getattr(module, name) for name in dir(Ref) if not name.startswith("_")
                             for module in (model, planner, simulate, prober) if hasattr(module, name)})


class Node(NamedTuple):
    """A value to build: its type's name, its arguments, and whether they go by keyword.

    An argument that is ``...`` is left out, so takes its default: by
    keyword it alone is, by position it and every argument after it.
    """

    name: str
    args: tuple
    by_keyword: bool


def build(family, recipe):
    """``recipe`` built from ``family``'s classes, inner values first."""
    if isinstance(recipe, Node):
        cls = getattr(family, recipe.name)
        args = [build(family, arg) for arg in recipe.args]
        if recipe.by_keyword:
            names = [f.name for f in dataclasses.fields(getattr(Ref, recipe.name))]
            return cls(**{name: arg for name, arg in zip(names, args) if arg is not ...})
        return cls(*itertools.takewhile(lambda arg: arg is not ..., args))
    if isinstance(recipe, tuple):
        return tuple(build(family, item) for item in recipe)
    return recipe


def outcome(family, recipe):
    """The value ``recipe`` builds from ``family``, or the type and text of what refused it."""
    try:
        return build(family, recipe), None
    except Exception as exc:  # the comparison is the point: any refusal must match
        return None, (type(exc), str(exc))


def node(name, *parts):
    return st.builds(lambda by_keyword, *args: Node(name, args, by_keyword), st.booleans(), *parts)


def defaulted(part):
    """An argument that has a default: drawn from ``part``, or left out."""
    return st.one_of(st.just(...), part)


# numbers of every kind the checks tell apart, and a few values drawn often so that equal draws happen
numbers = st.one_of(st.floats(), st.integers(-3, 10**6), st.sampled_from([0, 0.0, -0.0, 1, 0.01, 1e6]))
sizes = st.one_of(st.integers(-2, MAX_UDP_PAYLOAD + 2), st.floats(0, 2000), st.booleans(),
                  st.sampled_from([0, 1, 100, 1100, MAX_UDP_PAYLOAD, MAX_UDP_PAYLOAD + 1]))
serials = st.one_of(st.integers(-2, 4), st.integers(MAX_SERIAL - 1, MAX_SERIAL + 1), st.booleans(), st.floats(0, 4))

valid_size = node("PacketSize", st.sampled_from([1, 100, 1100, MAX_UDP_PAYLOAD]))
valid_delay = node("Delay", st.sampled_from([0.0, 0.01, 0.02]))
valid_bandwidth = node("Bandwidth", st.sampled_from([1e6, 10e6]))
valid_sample = node("DelaySample", valid_size, valid_delay, st.integers(0, 2), st.sampled_from([0.0, 1.5]))
valid_hop = node("Hop", valid_bandwidth, valid_delay)
optional = st.one_of(st.none(), numbers)
# the reference query, so that whole queries are often valid
plan_numbers = st.one_of(numbers, st.sampled_from([1000.0, 8e-4, 0.244]))
# rates whose largest delay draw keeps the spread finite for any count, for some counts, and for none
sim_path = node("PathModel", st.lists(valid_hop, min_size=1, max_size=2).map(tuple),
                st.sampled_from([1000.0, 1e-150, 1e-300]))
counts = st.integers(-1, 3)
ports = st.one_of(st.integers(-1, 2), st.sampled_from([6000, MAX_PORT, MAX_PORT + 1]))
# the package's own PacketSize in both families, as the configs' defaults are
probe_sizes = st.sampled_from([MIN_PROBE_BYTES - 1, MIN_PROBE_BYTES, 100, 1100, MAX_UNFRAGMENTED_PAYLOAD,
                               MAX_UNFRAGMENTED_PAYLOAD + 1]).map(PacketSize)

RECIPES = {
    "PacketSize": node("PacketSize", sizes),
    "Delay": node("Delay", numbers),
    "Bandwidth": node("Bandwidth", numbers),
    "DelaySample": node("DelaySample", valid_size, valid_delay, serials, numbers),
    "ProbePair": node("ProbePair", valid_sample, valid_sample),
    "Hop": valid_hop,
    "PathModel": node("PathModel", st.lists(valid_hop, max_size=3).map(tuple), numbers),
    "BandwidthEstimate": node("BandwidthEstimate", valid_bandwidth, st.integers(-1, 3), optional, optional, numbers),
    "PlanQuery": node("PlanQuery", plan_numbers, plan_numbers, plan_numbers),
    "SimConfig": node("SimConfig", sim_path, st.tuples(valid_size, valid_size), defaulted(counts),
                      defaulted(st.one_of(counts, st.just(10**300))), defaulted(counts)),
    "ProbeConfig": node("ProbeConfig", st.sampled_from(["localhost", "127.0.0.1"]), ports, defaulted(probe_sizes),
                        defaulted(probe_sizes), defaulted(counts), defaulted(numbers), defaulted(numbers)),
}


@pytest.mark.parametrize("name", RECIPES)
@given(data=st.data())
def test_value_type_behaves_as_its_dataclass(name, data):
    recipe = data.draw(RECIPES[name], label="recipe")
    other = data.draw(st.one_of(st.just(recipe), RECIPES[name]), label="other")
    value, refused = outcome(PACKAGE, recipe)
    ref, ref_refused = outcome(Ref, recipe)
    assert refused == ref_refused
    if refused is not None:
        return

    assert repr(value) == repr(ref).replace("Ref.", "")
    assert hash(value) == hash(ref)
    other_value, _ = outcome(PACKAGE, other)
    other_ref, _ = outcome(Ref, other)
    names = [f.name for f in dataclasses.fields(ref)]
    as_tuple = tuple(getattr(value, name) for name in names)
    ref_as_tuple = tuple(getattr(ref, name) for name in names)
    # a subclass's value with the same fields, which it inherits
    twin = type("Twin", (type(value),), {"__slots__": ()})(*as_tuple)
    ref_twin = type("Twin", (type(ref),), {})(*ref_as_tuple)
    assert repr(twin) == repr(ref_twin).replace("Ref.", "")
    # another draw (or the same), another type, the twin, the fields as a plain tuple, the other family's value
    for right, ref_right in [(other_value, other_ref), (5, 5), (twin, ref_twin), (as_tuple, ref_as_tuple),
                             (ref, value)]:
        assert (value == right) == (ref == ref_right)
        assert (value != right) == (ref != ref_right)

    for how in (copy.copy, copy.deepcopy, lambda v: pickle.loads(pickle.dumps(v))):
        copied, ref_copied = how(value), how(ref)
        assert type(copied) is type(value)
        assert repr(copied) == repr(value)
        # a NaN field is a new object after pickling: unequal, and (since 3.10) hashed apart
        assert (copied == value) == (ref_copied == ref)
        assert (hash(copied) == hash(value)) == (hash(ref_copied) == hash(ref))

    # a name that is no field the slotted dataclasses refused with TypeError, through their own bug
    for target, fields in [(value, (*names, "other")), (ref, names)]:
        for field in fields:
            with pytest.raises(AttributeError):
                setattr(target, field, 1)
            with pytest.raises(AttributeError):
                delattr(target, field)
    assert repr(value) == repr(ref).replace("Ref.", "")  # nothing above changed either
    assert type(value).__match_args__ == type(ref).__match_args__


def test_testbox_results_build_by_position_and_keyword_and_keep_their_properties():
    columns = (array("Q", [1, 2]), array("d", [0.01, 0.02]))
    for log in (ParsedLog(columns, [(3, None)]), ParsedLog(columns=columns, malformed=[(3, None)])):
        assert (log.columns, log.malformed, log.n_parsed, log.n_malformed) == (columns, [(3, None)], 2, 1)

    samples = Samples()
    samples.append(DelaySample(PacketSize(100), Delay(0.01), 1, 0.0))
    for match in (MatchResult(samples, 1, 2, 3, 4),
                  MatchResult(samples=samples, unmatched_sent=1, unmatched_received=2, duplicate_sent=3,
                              duplicate_received=4)):
        assert match.samples is samples
        assert (match.matched, match.unmatched_sent, match.unmatched_received, match.duplicate_sent,
                match.duplicate_received) == (1, 1, 2, 3, 4)

    pairs = Pairs(samples, array("Q"), array("Q"))
    for pairing in (PairResult(pairs, 1, 2, 3),
                    PairResult(pairs=pairs, unpaired_small=1, unpaired_large=2, other_sizes=3)):
        assert pairing.pairs is pairs
        assert (pairing.unpaired_small, pairing.unpaired_large, pairing.other_sizes) == (1, 2, 3)


@given(fields=st.tuples(st.integers(0, 10**20), st.integers(0, 10**20), st.booleans(), st.floats()),
       by_keyword=st.booleans())
def test_plan_result_has_the_fields_and_prints_the_json_of_its_dataclass(fields, by_keyword):
    names = [f.name for f in dataclasses.fields(Ref.PlanResult)]
    assert planner.PlanResult._fields == tuple(names)
    result = planner.PlanResult(**dict(zip(names, fields))) if by_keyword else planner.PlanResult(*fields)
    assert json.dumps(result.to_json_dict()) == json.dumps(Ref.PlanResult(*fields).to_json_dict())


def test_probe_result_has_the_fields_and_defaults_of_its_dataclass():
    names = [f.name for f in dataclasses.fields(Ref.ProbeResult)]
    assert prober.ProbeResult._fields == tuple(names)
    pairs = Pairs.interleaved(Samples())
    tallies = dict(sent=4, received=3, lost_pairs=1, unknown_serials=2)
    result = prober.ProbeResult(pairs=pairs, **tallies)
    ref = Ref.ProbeResult(pairs=pairs, **tallies)
    assert prober.ProbeResult(pairs, *tallies.values()) == result
    assert result.pairs is pairs
    assert (result.sent, result.received, result.lost_pairs, result.unknown_serials) == tuple(tallies.values())
    assert result.caveat == ref.caveat == RTT_CAVEAT
    assert list(result.send_monotonic_ns) == ref.send_monotonic_ns == []
