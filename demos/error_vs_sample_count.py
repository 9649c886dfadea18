#!/usr/bin/env python3
"""How fast does averaging shrink the estimate error?

We simulate the paper's reference experiment, a 10 Mbit/s path whose
variable delay is exponential with mean 1 ms, measure the spread of the
averaged delay difference at the paper's sample counts, and compare it
against the closed-form sqrt(2)/(rate*sqrt(n)) line the planner uses as
its cross-check.
"""

import math

from vpsband.simulate import DEFAULT_NS, error_vs_n, fixed_delay, reference_config

cfg = reference_config(seed=42)
rate = cfg.path.var_delay_rate

w1, w2 = cfg.packet_sizes
true_diff = fixed_delay(cfg.path, w2).seconds - fixed_delay(cfg.path, w1).seconds
print(f"true delay difference on this path: {true_diff * 1e3:.3f} ms")
print()
print("     n   spread (ms)   rel. error   analytic sqrt(2)/(rate*sqrt(n))")

for point in error_vs_n(cfg, DEFAULT_NS):
    analytic = math.sqrt(2.0) / (rate * math.sqrt(point.n))
    print(f"  {point.n:4d}   {point.sd_s * 1e3:11.4f}   {point.rel_error:10.1%}   "
          f"{analytic * 1e3:.4f} ms ({point.sd_s / analytic:.3f}x)")

# The spread falls like 1/sqrt(n): four times the samples buys half the
# error.  Both columns agree to within Monte-Carlo noise, which is the
# same consistency the planner relies on when it inverts this curve.
