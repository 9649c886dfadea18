"""The paper's reference experiment, and measurement-count planning from it.

The reference experiment sends 100- and 1100-byte probes over one
10 Mbit/s hop whose variable delay is exponential at 1000/s, so the
true delay difference is 0.8 ms.  ``REFERENCE_ROWS`` lists the relative
estimate error the paper published for it after averaging n probe
pairs.  A query under different conditions is mapped onto those rows by
scaling its error target with

    (rate / rate_ref) * (diff / diff_ref)

since the relative error is proportional to the variable-delay spread
(1/rate) and inversely proportional to the delay difference.  Between
and beyond the published rows the error is modelled as c/sqrt(n), with
c fitted to all rows in log space; results outside the published error
range are flagged as extrapolated because the scaling law is unverified
there.  An analytic closed form for ideal exponential noise is provided
as an independent cross-check.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .errors import InvalidQuery
from .model import PacketSize, _finite, _shown, _Value, bytes_to_bits

REFERENCE_SIZES = (PacketSize(100), PacketSize(1100))
REFERENCE_CAPACITY_BPS = 10e6
REFERENCE_VAR_DELAY_RATE = 1000.0  # 1/s
REFERENCE_DELAY_DIFF_S = (
    bytes_to_bits(REFERENCE_SIZES[1].bytes - REFERENCE_SIZES[0].bytes) / REFERENCE_CAPACITY_BPS
)

# (n, relative error after averaging n pairs), rising in n
REFERENCE_ROWS = (
    (5, 0.826),
    (10, 0.611),
    (20, 0.442),
    (30, 0.355),
    (50, 0.244),
    (100, 0.139),
    (200, 0.094),
)
# the paper's worked example asks for the error of its n = 50 row
REFERENCE_TARGET_ERROR = dict(REFERENCE_ROWS)[50]

# c of the error model c/sqrt(n), log-space least squares over all rows
SQRT_N_COEFFICIENT = math.exp(
    sum(math.log(error * math.sqrt(n)) for n, error in REFERENCE_ROWS) / len(REFERENCE_ROWS)
)


class PlanQuery(_Value):
    """Measurement conditions and the wanted relative error."""

    __slots__ = ("var_delay_rate", "mean_delay_diff_s", "target_error")

    def __init__(self,
                 var_delay_rate: float,     # 1/s, inverse mean variable delay on the path
                 mean_delay_diff_s: float,  # expected delay difference of the two sizes
                 target_error: float):      # acceptable relative estimate error, in (0, 1)
        if not (_finite(var_delay_rate) and var_delay_rate > 0):
            raise InvalidQuery(f"var_delay_rate must be > 0 per second, got {_shown(var_delay_rate)!r}")
        if not (_finite(mean_delay_diff_s) and mean_delay_diff_s > 0):
            raise InvalidQuery(f"mean_delay_diff_s must be > 0 s, got {_shown(mean_delay_diff_s)!r}")
        if not (_finite(target_error) and 0 < target_error < 1):
            raise InvalidQuery(f"target_error must be in (0, 1), got {_shown(target_error)!r}")
        self._assign(var_delay_rate, mean_delay_diff_s, target_error)


class PlanResult(NamedTuple):
    """Planned measurement count plus its analytic cross-check."""

    n: int
    analytic_n: int
    extrapolated: bool
    scaled_target: float

    def to_json_dict(self) -> dict:
        return self._asdict()


def _count(c: float, target: float, what: str) -> int:
    """Smallest n >= 1 with c/sqrt(n) <= target, or InvalidQuery if a float cannot hold it."""
    try:
        return max(1, math.ceil((c / target) ** 2))
    except (OverflowError, ValueError, ZeroDivisionError):  # the square overflows; target is 0 or NaN
        raise InvalidQuery(f"the {what} measurement count is out of floating-point range") from None


def analytic_required_measurements(query: PlanQuery) -> int:
    """Closed-form count for ideal exponential variable delay.

    The averaged delay difference of n pairs has spread
    sqrt(2)/(rate*sqrt(n)); requiring spread/diff <= target and solving
    for n gives n >= (sqrt(2)/(rate*diff*target))**2.
    """
    scaled_target = query.var_delay_rate * query.mean_delay_diff_s * query.target_error
    return _count(math.sqrt(2.0), scaled_target, "analytic")


def required_measurements(query: PlanQuery) -> PlanResult:
    """Smallest n whose modelled relative error meets the query target.

    The query's target is first rescaled to the reference conditions;
    the fitted c/sqrt(n) model is then inverted for n.  Tightening the
    target never decreases n; raising the rate or the delay difference
    never increases it.  ``extrapolated`` is set when the rescaled
    target falls outside the published error range.
    """
    scale = (query.var_delay_rate / REFERENCE_VAR_DELAY_RATE) * (
        query.mean_delay_diff_s / REFERENCE_DELAY_DIFF_S
    )
    scaled_target = scale * query.target_error
    if not math.isfinite(scaled_target):  # a scale factor overflowed to inf, or was 0 times inf
        raise InvalidQuery("the scaled error target is out of floating-point range")
    n = _count(SQRT_N_COEFFICIENT, scaled_target, "planned")
    extrapolated = not (REFERENCE_ROWS[-1][1] <= scaled_target <= REFERENCE_ROWS[0][1])
    return PlanResult(
        n=n,
        analytic_n=analytic_required_measurements(query),
        extrapolated=extrapolated,
        scaled_target=scaled_target,
    )
