"""The value types of ``model`` behave as the frozen dataclasses they replaced,
and the result types of ``testbox`` build and read as they did.

``Ref`` holds the eight ``@dataclass`` definitions as ``model`` had them.
Each case draws one recipe of arguments and builds it once from ``model``'s
classes and once from ``Ref``'s: the two must be refused with the same
error, or compare, hash, print, copy and pickle alike.  ``Delay`` and
``sent_at`` are drawn without the bools and the ints past float range that
the dataclasses took or failed on with ``OverflowError``, and that the value
types now refuse (``test_model.py`` and ``test_columns.py`` pin those).
"""

from __future__ import annotations

import copy
import dataclasses
import math
import pickle
from array import array
from dataclasses import dataclass
from typing import NamedTuple

import pytest
from hypothesis import given
from hypothesis import strategies as st

from vpsband import model
from vpsband.model import MAX_SERIAL, MAX_UDP_PAYLOAD, Pairs, Samples, check_size_order
from vpsband.testbox import MatchResult, PairResult, ParsedLog


class Ref:
    """The value types as dataclasses, verbatim but for their ``Ref.`` names."""

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


class Node(NamedTuple):
    """A value to build: its type's name, its arguments, and whether they go by keyword."""

    name: str
    args: tuple
    by_keyword: bool


def build(family, recipe):
    """``recipe`` built from ``family``'s classes, inner values first."""
    if isinstance(recipe, Node):
        cls = getattr(family, recipe.name)
        args = [build(family, arg) for arg in recipe.args]
        if recipe.by_keyword:
            return cls(**{f.name: arg for f, arg in zip(dataclasses.fields(getattr(Ref, recipe.name)), args)})
        return cls(*args)
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

RECIPES = {
    "PacketSize": node("PacketSize", sizes),
    "Delay": node("Delay", numbers),
    "Bandwidth": node("Bandwidth", st.one_of(numbers, st.booleans(), st.just(10**400))),
    "DelaySample": node("DelaySample", valid_size, valid_delay, serials, numbers),
    "ProbePair": node("ProbePair", valid_sample, valid_sample),
    "Hop": valid_hop,
    "PathModel": node("PathModel", st.lists(valid_hop, max_size=3).map(tuple), numbers),
    "BandwidthEstimate": node("BandwidthEstimate", valid_bandwidth, st.integers(-1, 3), optional, optional, numbers),
}


@pytest.mark.parametrize("name", RECIPES)
@given(data=st.data())
def test_value_type_behaves_as_its_dataclass(name, data):
    recipe = data.draw(RECIPES[name], label="recipe")
    other = data.draw(st.one_of(st.just(recipe), RECIPES[name]), label="other")
    value, refused = outcome(model, recipe)
    ref, ref_refused = outcome(Ref, recipe)
    assert refused == ref_refused
    if refused is not None:
        return

    assert repr(value) == repr(ref).replace("Ref.", "")
    assert hash(value) == hash(ref)
    other_value, _ = outcome(model, other)
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
    samples.append(1, 0.0, 100, 0.01)
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
