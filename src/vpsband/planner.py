"""Measurement-count planning from a tabulated error-vs-n reference.

The reference table lists, for its own conditions (variable-delay rate
and true delay difference), the relative estimate error left after
averaging n probe pairs.  A query under different conditions is mapped
onto the table by scaling its error target with

    (rate / rate_ref) * (diff / diff_ref)

since the relative error is proportional to the variable-delay spread
(1/rate) and inversely proportional to the delay difference.  Between
and beyond the tabulated rows the error is modelled as c/sqrt(n), with
c fitted to all rows in log space; results outside the tabulated error
range are flagged as extrapolated because the scaling law is unverified
there.  An analytic closed form for ideal exponential noise is provided
as an independent cross-check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

from .errors import InvalidQuery


@dataclass(frozen=True)
class TableRow:
    """Relative error remaining after averaging ``n`` pairs."""

    n: int
    rel_error: float


@dataclass(frozen=True)
class ReferenceTable:
    """Error-vs-n rows measured under fixed reference conditions."""

    rows: tuple[TableRow, ...]
    var_delay_rate: float = 1000.0   # 1/s
    mean_delay_diff_s: float = 8e-4

    def __post_init__(self):
        if len(self.rows) < 2:
            raise ValueError("reference table needs at least two rows")
        for row in self.rows:
            if row.n < 1 or not 0 < row.rel_error < 1:
                raise ValueError(f"bad table row {row}")
        ns = [row.n for row in self.rows]
        errs = [row.rel_error for row in self.rows]
        if sorted(set(ns)) != ns or sorted(set(errs), reverse=True) != errs:
            raise ValueError("table rows must have strictly increasing n and decreasing error")
        if self.var_delay_rate <= 0 or self.mean_delay_diff_s <= 0:
            raise ValueError("reference conditions must be positive")

    @cached_property
    def sqrt_n_coefficient(self) -> float:
        """c of the error model c/sqrt(n), log-space least squares over all rows."""
        logs = [math.log(row.rel_error * math.sqrt(row.n)) for row in self.rows]
        return math.exp(sum(logs) / len(logs))

    @property
    def min_error(self) -> float:
        return self.rows[-1].rel_error

    @property
    def max_error(self) -> float:
        return self.rows[0].rel_error


REFERENCE_TABLE = ReferenceTable(
    rows=(
        TableRow(5, 0.826),
        TableRow(10, 0.611),
        TableRow(20, 0.442),
        TableRow(30, 0.355),
        TableRow(50, 0.244),
        TableRow(100, 0.139),
        TableRow(200, 0.094),
    )
)


@dataclass(frozen=True)
class PlanQuery:
    """Measurement conditions and the wanted relative error."""

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
    """Planned measurement count plus its analytic cross-check."""

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


def required_measurements(query: PlanQuery, table: ReferenceTable = REFERENCE_TABLE) -> PlanResult:
    """Smallest n whose modelled relative error meets the query target.

    The query's target is first rescaled to the table's reference
    conditions; the fitted c/sqrt(n) model is then inverted for n.
    Tightening the target never decreases n; raising the rate or the
    delay difference never increases it.  ``extrapolated`` is set when
    the rescaled target falls outside the tabulated error range.
    """
    scale = (query.var_delay_rate / table.var_delay_rate) * (
        query.mean_delay_diff_s / table.mean_delay_diff_s
    )
    scaled_target = scale * query.target_error
    if not math.isfinite(scaled_target):  # a scale factor overflowed to inf, or was 0 times inf
        raise InvalidQuery("the scaled error target is out of floating-point range")
    n = _count(table.sqrt_n_coefficient, scaled_target, "planned")
    extrapolated = not (table.min_error <= scaled_target <= table.max_error)
    return PlanResult(
        n=n,
        analytic_n=analytic_required_measurements(query),
        extrapolated=extrapolated,
        scaled_target=scaled_target,
    )
