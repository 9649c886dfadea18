#!/usr/bin/env python3
"""Live two-size probing against an echo reflector, all on loopback.

Normally the reflector runs on the far host (`vpsband reflect` there,
`vpsband probe` here).  For a self-contained demo we start one in a
background thread and probe 127.0.0.1.  On loopback the scheduler
jitter dwarfs the size-dependent delay, so don't read the Mbit/s
figure too literally.
"""

from vpsband.errors import NonPositiveDelayDifference
from vpsband.estimator import estimate_batch
from vpsband.prober import ProbeConfig, Reflector, probe

with Reflector("127.0.0.1", 0) as reflector:
    host, port = reflector.address
    print(f"reflector listening on {host}:{port}")

    cfg = ProbeConfig(host=host, port=port, count=60, spacing_s=0.005)
    result = probe(cfg)

print(f"sent {result.sent} probes, got {result.received} echoes back")
print(f"{len(result.pairs)} usable pairs, {result.lost_pairs} lost, "
      f"{result.unknown_serials} stray echoes")
print(f"note: {result.caveat}")

for pair in result.pairs[:3]:
    print(f"  serials {pair.small.serial}/{pair.large.serial}: "
          f"{pair.small.delay.seconds * 1e6:7.1f} us vs {pair.large.delay.seconds * 1e6:7.1f} us")

try:
    est = estimate_batch(result.pairs, batch_size=10)
except NonPositiveDelayDifference as exc:
    # Entirely possible here: loopback jitter can make a batch of large
    # packets look *faster* than the small ones.
    print(f"no estimate this run ({exc})")
else:
    print(f"estimate over {est.n_pairs} pairs: {est.value} "
          f"(mean delay difference {est.mean_delay_diff_s * 1e6:.1f} us)")
