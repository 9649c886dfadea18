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
from typing import Iterable

from .errors import (
    EmptyInput,
    InvalidEta,
    MixedPacketSizes,
    NonPositiveDelayDifference,
    ZeroPrecision,
)
from .model import (Bandwidth, BandwidthEstimate, PacketSize, Pairs, ProbePair, _finite, _shown, _whole,
                    bytes_to_bits, check_size_order, items)


def estimate_pair(pair: ProbePair) -> Bandwidth:
    """Estimate available bandwidth from a single probe pair.

    Raises NonPositiveDelayDifference when the large packet was not
    slower than the small one, or by too little for a finite bandwidth.
    """
    diff_s = pair.delay_diff_s
    if diff_s <= 0:
        raise NonPositiveDelayDifference(
            f"delay difference must be > 0 s, got {diff_s:.9f} "
            f"(serials {pair.small.serial}/{pair.large.serial})"
        )
    return estimate_batch([pair], 1).value


def estimate_batch(pairs: Pairs | Iterable[ProbePair], batch_size: int) -> BandwidthEstimate:
    """Estimate bandwidth from pairs averaged in consecutive batches.

    Pairs are split into consecutive non-overlapping batches of
    ``batch_size`` (a trailing short batch is discarded).  Within each
    batch the two delay series are averaged first, giving the batch's
    delay difference.  The result is the size difference in bits over
    the mean of the batch differences: a ratio of means, whose bias
    fades as batches are added, where the mean of the per-batch
    estimates stays biased upward, as bandwidth is convex in the delay
    difference.  ``sd_bps`` is the sample standard deviation of the
    per-batch estimates.

    A batch whose mean delay difference is not positive raises
    NonPositiveDelayDifference instead of being skipped, so noisy or
    mis-paired data surfaces instead of silently thinning out.

    The size difference comes from the sizes that ``pairs`` state, as
    the producers that paired them by size do, unchecked.  Unstated, it
    comes from every pair's samples, and pairs of more than one size
    class raise MixedPacketSizes.
    """
    if not _whole(batch_size) or batch_size < 1:
        raise ValueError(f"batch_size must be >= 1, got {_shown(batch_size)}")
    pairs = Pairs.of(pairs)
    if not pairs:
        raise EmptyInput("no pairs to estimate from")
    samples = pairs.samples
    if pairs.sizes is None:
        sizes = set(zip(items(samples.bytes, pairs.small), items(samples.bytes, pairs.large)))
        if len(sizes) > 1:
            raise MixedPacketSizes(f"pairs mix size classes {sorted(sizes)}; batch them separately")
        ((small_bytes, large_bytes),) = sizes
    else:
        small_bytes, large_bytes = pairs.sizes

    n_batches = len(pairs) // batch_size
    if n_batches == 0:
        raise EmptyInput(
            f"{len(pairs)} pairs is fewer than one batch of {batch_size}"
        )

    diff_bits = bytes_to_bits(large_bytes - small_bytes)
    used = n_batches * batch_size
    small_delays, large_delays = (items(samples.delay, column[:used]) for column in (pairs.small, pairs.large))
    batch_values = []
    batch_diffs = []
    for b in range(n_batches):
        lo, hi = b * batch_size, (b + 1) * batch_size
        # fsum / n: the batch means every output so far was printed from, kept for byte identity
        mean_small = math.fsum(small_delays[lo:hi]) / batch_size
        mean_large = math.fsum(large_delays[lo:hi]) / batch_size
        diff_s = mean_large - mean_small
        if diff_s <= 0:
            raise NonPositiveDelayDifference(
                f"batch {b}: mean delay difference {diff_s:.9f} s is not positive"
            )
        value = diff_bits / diff_s
        if value == math.inf:
            raise NonPositiveDelayDifference(
                f"batch {b}: mean delay difference {diff_s!r} s is too small for a finite bandwidth"
            )
        batch_diffs.append(diff_s)
        batch_values.append(value)

    mean_diff = math.fsum(batch_diffs) / n_batches
    sd = _stdev(batch_values) if n_batches >= 2 else None
    return BandwidthEstimate(
        value=Bandwidth(diff_bits / mean_diff),
        n_pairs=used,
        sd_bps=sd,
        relative_error=None if sd is None else _stdev(batch_diffs) / mean_diff,
        mean_delay_diff_s=mean_diff,
    )


def _stdev(values: list[float]) -> float:
    """Sample standard deviation of ``values``, correctly rounded, so every supported Python
    prints the same spread: bit for bit the standard library's ``stdev`` of Python 3.11 on."""
    ratios = [value.as_integer_ratio() for value in values]
    scale = max(denominator for _, denominator in ratios)  # a power of two that every denominator divides
    xs = [numerator * (scale // denominator) for numerator, denominator in ratios]
    k = len(xs)
    # variance = num / den / scale**2, exactly
    num, den = k * sum(x * x for x in xs) - sum(xs) ** 2, k * (k - 1)
    # the root to at least 109 bits, rounded to odd, so that the one rounding to float below is correct
    shift = max(0, 109 - (num.bit_length() - den.bit_length()) // 2)
    num <<= 2 * shift
    root = math.isqrt(num // den)
    root |= root * root * den != num
    return root / (scale << shift)


def relative_error(precision_s: float, mean_diff_s: float) -> float:
    """Relative estimate error induced by timestamp precision.

    Both delays of a pair carry up to ``precision_s`` of quantization
    error, hence the factor two on top of the delay difference.
    """
    if not (_finite(precision_s) and precision_s >= 0):
        raise ValueError(f"precision must be finite and >= 0 s, got {_shown(precision_s)!r}")
    if not (_finite(mean_diff_s) and mean_diff_s > 0):
        raise NonPositiveDelayDifference(
            f"mean delay difference must be finite and > 0 s, got {_shown(mean_diff_s)!r}"
        )
    error = 2.0 * precision_s / mean_diff_s
    if error == math.inf:
        raise ValueError(
            f"precision {precision_s!r} s over difference {mean_diff_s!r} s puts the relative error out of float range"
        )
    return error


def upper_measurable_bandwidth(
    w1: PacketSize, w2: PacketSize, precision_s: float, rel_error: float
) -> Bandwidth:
    """Largest bandwidth measurable at a given timestamp precision.

    Above this value the delay difference of the two packet sizes
    drops below what the clock can resolve at the accepted relative
    error ``rel_error``.
    """
    check_size_order(w1, w2)
    if not (_finite(precision_s) and precision_s > 0):
        raise ZeroPrecision(f"precision must be finite and > 0 s, got {_shown(precision_s)!r}")
    if not 0 < rel_error < 1:
        raise InvalidEta(f"relative error target must be in (0, 1), got {_shown(rel_error)!r}")
    bound = bytes_to_bits(w2.bytes - w1.bytes) * rel_error / (2.0 * precision_s)
    if not 0 < bound < math.inf:
        raise ZeroPrecision(
            f"precision {precision_s!r} s at target {rel_error!r} puts the bound out of float range"
        )
    return Bandwidth(bound)
