"""Exception types shared across the package."""

from __future__ import annotations


class VpsbandError(Exception):
    """Base class for all domain errors raised by this package."""


class EmptyInput(VpsbandError):
    """No usable input records (or fewer than one full batch)."""


class MixedPacketSizes(VpsbandError):
    """Input mixes packet-size classes where a single pairing was expected."""


class NonPositiveDelayDifference(VpsbandError):
    """Large-packet delay did not exceed small-packet delay.

    A non-positive difference means the size-dependent delay component is
    buried in noise; the two-size estimate is undefined there.
    """


class InvalidEta(VpsbandError):
    """Relative-error target outside the open interval (0, 1)."""


class ZeroPrecision(VpsbandError):
    """Timestamp precision must be a positive number of seconds."""


class InvalidQuery(VpsbandError):
    """Planner query with a non-positive input, or a count no float can hold."""


class MalformedLine(VpsbandError):
    """A log line that does not match the expected record grammar.

    Carries ``offset``, the byte offset of the first mismatching field
    within the line: into its raw bytes when read from a file, into its
    UTF-8 encoding when parsed from a string.
    """

    def __init__(self, message: str, offset: int = 0):
        super().__init__(message)
        self.offset = offset


class InsufficientData(VpsbandError):
    """Too few samples (or zero spread) to estimate a quantity."""


class NoPairsFound(VpsbandError):
    """Pairing produced no usable probe pairs."""


class BindFailure(VpsbandError):
    """Could not bind the requested UDP address."""


class Unreachable(VpsbandError):
    """No echo came back for any probe packet."""


class ClockError(VpsbandError):
    """The monotonic clock produced an impossible round-trip time."""
