"""Planner fit to the reference rows, scaling behaviour, and input validation."""

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from vpsband.errors import InvalidQuery
from vpsband.planner import (
    REFERENCE_DELAY_DIFF_S,
    REFERENCE_ROWS,
    REFERENCE_TARGET_ERROR,
    REFERENCE_VAR_DELAY_RATE,
    SQRT_N_COEFFICIENT,
    PlanQuery,
    analytic_required_measurements,
    required_measurements,
)


def plan(rate=REFERENCE_VAR_DELAY_RATE, diff=REFERENCE_DELAY_DIFF_S, target=REFERENCE_TARGET_ERROR):
    return required_measurements(PlanQuery(rate, diff, target))


# ---------------------------------------------------------------------------
# pinned outputs
# ---------------------------------------------------------------------------

def test_identity_query_reproduces_tabulated_count():
    # Asking for 24.4% under the table's own conditions lands on its n=50 row.
    result = plan()
    assert result.n == 50
    assert result.analytic_n == 53
    assert not result.extrapolated
    assert result.scaled_target == pytest.approx(REFERENCE_TARGET_ERROR)


def test_doubling_the_rate_needs_fewer_measurements():
    result = plan(rate=2000.0)
    assert result.n == 13
    assert result.analytic_n == 14
    assert not result.extrapolated


def test_doubling_the_diff_matches_doubling_the_rate():
    assert plan(diff=1.6e-3).n == plan(rate=2000.0).n == 13


def test_coefficient_matches_independent_fit():
    # Geometric mean of rel_error * sqrt(n) over the seven rows.
    product = 1.0
    for n, rel_error in REFERENCE_ROWS:
        product *= rel_error * math.sqrt(n)
    independent = product ** (1.0 / len(REFERENCE_ROWS))
    assert SQRT_N_COEFFICIENT == pytest.approx(independent, rel=1e-12)


def test_result_json_shape():
    d = plan().to_json_dict()
    assert list(d) == ["n", "analytic_n", "extrapolated", "scaled_target"]


# ---------------------------------------------------------------------------
# extrapolation flag
# ---------------------------------------------------------------------------

def test_below_table_targets_are_flagged():
    result = plan(target=0.01)
    assert result.extrapolated
    assert result.n > 200  # tighter than the smallest tabulated error


def test_above_table_targets_are_flagged():
    result = plan(target=0.9)
    assert result.extrapolated
    assert result.n >= 1


def test_table_edges_are_not_extrapolated():
    assert not plan(target=REFERENCE_ROWS[0][1]).extrapolated
    assert not plan(target=REFERENCE_ROWS[-1][1]).extrapolated


# ---------------------------------------------------------------------------
# analytic cross-check
# ---------------------------------------------------------------------------

def test_analytic_count_closed_form():
    # rate*diff = 1 and target = sqrt(2)/2 make the bound exactly 4.
    q = PlanQuery(var_delay_rate=1000.0, mean_delay_diff_s=1e-3, target_error=math.sqrt(2) / 2)
    assert analytic_required_measurements(q) == 4
    q = PlanQuery(var_delay_rate=10_000.0, mean_delay_diff_s=1e-3, target_error=0.5)
    assert analytic_required_measurements(q) == max(1, math.ceil((math.sqrt(2) / 5) ** 2))


def test_planned_and_analytic_counts_agree_within_half():
    # The table was produced by near-ideal exponential noise, so the two
    # routes should never disagree wildly.
    for target in (0.10, REFERENCE_TARGET_ERROR, 0.40, REFERENCE_ROWS[0][1]):
        result = plan(target=target)
        assert 0.5 <= result.n / result.analytic_n <= 2.0


# ---------------------------------------------------------------------------
# monotonicity
# ---------------------------------------------------------------------------

@given(
    st.floats(min_value=100.0, max_value=10_000.0),
    st.floats(min_value=1e-4, max_value=1e-2),
    st.floats(min_value=0.02, max_value=0.8),
)
def test_tighter_targets_never_need_fewer_measurements(rate, diff, target):
    looser = required_measurements(PlanQuery(rate, diff, target))
    tighter = required_measurements(PlanQuery(rate, diff, target / 2))
    assert tighter.n >= looser.n
    assert tighter.n >= 1


@given(st.floats(min_value=100.0, max_value=10_000.0))
def test_faster_variable_delay_never_needs_more(rate):
    base = required_measurements(PlanQuery(rate, REFERENCE_DELAY_DIFF_S, REFERENCE_TARGET_ERROR))
    faster = required_measurements(PlanQuery(rate * 2, REFERENCE_DELAY_DIFF_S, REFERENCE_TARGET_ERROR))
    assert faster.n <= base.n


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------

@pytest.mark.parametrize(
    "rate,diff,target",
    [
        (0.0, REFERENCE_DELAY_DIFF_S, 0.2),
        (-5.0, REFERENCE_DELAY_DIFF_S, 0.2),
        (REFERENCE_VAR_DELAY_RATE, 0.0, 0.2),
        (REFERENCE_VAR_DELAY_RATE, REFERENCE_DELAY_DIFF_S, 0.0),
        (REFERENCE_VAR_DELAY_RATE, REFERENCE_DELAY_DIFF_S, 1.0),
        (REFERENCE_VAR_DELAY_RATE, REFERENCE_DELAY_DIFF_S, float("nan")),
        (float("inf"), REFERENCE_DELAY_DIFF_S, 0.2),
    ],
)
def test_bad_queries_raise(rate, diff, target):
    with pytest.raises(InvalidQuery):
        PlanQuery(rate, diff, target)


def test_reference_rows_rise_in_n_and_fall_in_error():
    ns = [n for n, _ in REFERENCE_ROWS]
    errors = [error for _, error in REFERENCE_ROWS]
    assert len(REFERENCE_ROWS) >= 2
    assert ns[0] >= 1 and all(a < b for a, b in zip(ns, ns[1:]))
    assert 0 < errors[-1] and errors[0] < 1 and all(a > b for a, b in zip(errors, errors[1:]))
