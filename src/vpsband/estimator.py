"""Two-packet-size available-bandwidth estimation.

The estimate divides the packet-size difference (in bits) by the delay
difference of the two size classes.  The size-independent delay terms
cancel in the difference, so no path knowledge is needed.

Two relative-error conventions exist side by side:

- :func:`relative_error` bounds the error induced by finite timestamp
  precision (``2 * precision / diff``) and feeds the measurability
  bound of :func:`upper_measurable_bandwidth`;
- :attr:`~vpsband.model.BandwidthEstimate.relative_error` is the
  observed spread of the batch delay differences over their mean, the
  convention of the planner's reference error table.  (The bandwidth
  spread ``sd_bps / value`` runs systematically higher at large noise
  because the estimate is convex in the delay difference.)
"""

from __future__ import annotations

import math
import statistics
from typing import Sequence

from .errors import (
    EmptyInput,
    InvalidEta,
    MixedPacketSizes,
    NonPositiveDelayDifference,
    ZeroPrecision,
)
from .model import Bandwidth, BandwidthEstimate, PacketSize, ProbePair, bytes_to_bits


def estimate_pair(pair: ProbePair) -> Bandwidth:
    """Estimate available bandwidth from a single probe pair.

    Raises NonPositiveDelayDifference when the large packet was not
    slower than the small one.
    """
    diff_s = pair.delay_diff_s
    if diff_s <= 0:
        raise NonPositiveDelayDifference(
            f"delay difference must be > 0 s, got {diff_s:.9f} "
            f"(serials {pair.small.serial}/{pair.large.serial})"
        )
    return Bandwidth(bytes_to_bits(pair.size_diff_bytes) / diff_s)


def _check_uniform_sizes(pairs: Sequence[ProbePair]) -> None:
    sizes = {(p.small.packet_size.bytes, p.large.packet_size.bytes) for p in pairs}
    if len(sizes) > 1:
        raise MixedPacketSizes(
            f"pairs mix size classes {sorted(sizes)}; batch them separately"
        )


def estimate_batch(pairs: Sequence[ProbePair], batch_size: int) -> BandwidthEstimate:
    """Estimate bandwidth from pairs averaged in consecutive batches.

    Pairs are split into consecutive non-overlapping batches of
    ``batch_size`` (a trailing short batch is discarded).  Within each
    batch the two delay series are averaged first and the estimate is
    taken from the difference of the averages; the result is the mean
    of the batch estimates with their sample standard deviation.

    A batch whose mean delay difference is not positive raises
    NonPositiveDelayDifference instead of being skipped, so noisy or
    mis-paired data surfaces instead of silently thinning out.
    """
    if batch_size < 1:
        raise ValueError(f"batch_size must be >= 1, got {batch_size}")
    if not pairs:
        raise EmptyInput("no pairs to estimate from")
    _check_uniform_sizes(pairs)

    n_batches = len(pairs) // batch_size
    if n_batches == 0:
        raise EmptyInput(
            f"{len(pairs)} pairs is fewer than one batch of {batch_size}"
        )

    used = pairs[: n_batches * batch_size]
    diff_bits = bytes_to_bits(used[0].size_diff_bytes)
    batch_values = []
    batch_diffs = []
    for b in range(n_batches):
        batch = used[b * batch_size : (b + 1) * batch_size]
        mean_small = statistics.fmean(p.small.delay.seconds for p in batch)
        mean_large = statistics.fmean(p.large.delay.seconds for p in batch)
        diff_s = mean_large - mean_small
        if diff_s <= 0:
            raise NonPositiveDelayDifference(
                f"batch {b}: mean delay difference {diff_s:.9f} s is not positive"
            )
        batch_diffs.append(diff_s)
        batch_values.append(diff_bits / diff_s)

    value = statistics.fmean(batch_values)
    mean_diff = statistics.fmean(batch_diffs)
    sd = statistics.stdev(batch_values) if n_batches >= 2 else None
    return BandwidthEstimate(
        value=Bandwidth(value),
        n_pairs=len(used),
        sd_bps=sd,
        relative_error=None if sd is None else statistics.stdev(batch_diffs) / mean_diff,
        mean_delay_diff_s=mean_diff,
    )


def relative_error(precision_s: float, mean_diff_s: float) -> float:
    """Relative estimate error induced by timestamp precision.

    Both delays of a pair carry up to ``precision_s`` of quantization
    error, hence the factor two on top of the delay difference.
    """
    if not (math.isfinite(precision_s) and precision_s >= 0):
        raise ValueError(f"precision must be finite and >= 0 s, got {precision_s!r}")
    if not (math.isfinite(mean_diff_s) and mean_diff_s > 0):
        raise NonPositiveDelayDifference(
            f"mean delay difference must be finite and > 0 s, got {mean_diff_s!r}"
        )
    return 2.0 * precision_s / mean_diff_s


def upper_measurable_bandwidth(
    w1: PacketSize, w2: PacketSize, precision_s: float, rel_error: float
) -> Bandwidth:
    """Largest bandwidth measurable at a given timestamp precision.

    Above this value the delay difference of the two packet sizes
    drops below what the clock can resolve at the accepted relative
    error ``rel_error``.
    """
    if w2.bytes <= w1.bytes:
        raise ValueError(
            f"w2 must exceed w1, got {w1.bytes} and {w2.bytes} bytes"
        )
    if not (math.isfinite(precision_s) and precision_s > 0):
        raise ZeroPrecision(f"precision must be finite and > 0 s, got {precision_s!r}")
    if not 0 < rel_error < 1:
        raise InvalidEta(f"relative error target must be in (0, 1), got {rel_error!r}")
    bound = bytes_to_bits(w2.bytes - w1.bytes) * rel_error / (2.0 * precision_s)
    if not 0 < bound < math.inf:
        raise ZeroPrecision(
            f"precision {precision_s!r} s at target {rel_error!r} puts the bound out of float range"
        )
    return Bandwidth(bound)
