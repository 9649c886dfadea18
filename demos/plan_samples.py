#!/usr/bin/env python3
"""Plan how many probe pairs a wanted accuracy costs, before measuring.

The planner inverts the paper's published error-vs-n rows (measured at a
1000/s variable-delay rate and a 0.8 ms delay difference) after
rescaling the target to the caller's own conditions, and cross-checks
itself against the closed-form count for ideal exponential delay.
"""

from vpsband.planner import (
    REFERENCE_DELAY_DIFF_S,
    REFERENCE_TARGET_ERROR,
    REFERENCE_VAR_DELAY_RATE,
    PlanQuery,
    analytic_required_measurements,
    required_measurements,
)

print("under the table's own reference conditions:")
for target in (0.40, REFERENCE_TARGET_ERROR, 0.10, 0.05):
    q = PlanQuery(REFERENCE_VAR_DELAY_RATE, REFERENCE_DELAY_DIFF_S, target)
    plan = required_measurements(q)
    note = "  (outside the tabulated range)" if plan.extrapolated else ""
    print(f"  target {target:5.1%} -> {plan.n:5d} pairs "
          f"(closed form says {analytic_required_measurements(q)}){note}")

# Easier conditions need fewer samples: doubling the variable-delay
# rate halves the noise, doubling the delay difference doubles the
# signal, and either one relaxes the rescaled target the same way.
print()
print(f"same {REFERENCE_TARGET_ERROR:.1%} target under different conditions:")
for rate_factor, diff_factor in ((1, 1), (2, 1), (1, 2), (0.5, 0.5)):
    rate = rate_factor * REFERENCE_VAR_DELAY_RATE
    diff = diff_factor * REFERENCE_DELAY_DIFF_S
    plan = required_measurements(PlanQuery(rate, diff, REFERENCE_TARGET_ERROR))
    print(f"  rate {rate:6.0f}/s, diff {diff * 1e3:.2f} ms -> {plan.n:5d} pairs "
          f"(rescaled target {plan.scaled_target:.3f})")
