#!/usr/bin/env python3
"""Walk through the full log-to-bandwidth path on the bundled sample logs.

Sender and receiver each wrote their own log; we join them on packet
serial, sort the joined samples into the two packet-size classes, pair
them up, and turn each pair's delay difference into a bandwidth figure.
"""

from pathlib import Path

from vpsband.estimator import estimate_pair
from vpsband.planner import REFERENCE_SIZES
from vpsband.testbox import match_sessions, pair_by_size, parse_receiver_file, parse_sender_file

data = Path(__file__).parent / "data"

with open(data / "sender.log", "rb") as fp:
    sent = parse_sender_file(fp)
with open(data / "receiver.log", "rb") as fp:
    received = parse_receiver_file(fp)

print(f"sender log:   {sent.n_parsed} records, {sent.n_malformed} malformed")
print(f"receiver log: {received.n_parsed} records, {received.n_malformed} malformed")

# Join on serial number.  Packets that never arrived (or arrived twice)
# are counted, not silently dropped.
matched = match_sessions(sent, received)
print(f"matched {matched.matched} samples "
      f"({matched.unmatched_sent} sent-only, {matched.duplicate_received} duplicate echoes)")

for sample in matched.samples:
    print(f"  serial {sample.serial}: {sample.packet_size.bytes:5d} B  "
          f"delay {sample.delay.seconds * 1e3:.3f} ms")

# Pair small with large, nearest in send time first.  The logs use the
# paper's reference sizes.
paired = pair_by_size(matched.samples, *REFERENCE_SIZES)
for pair in paired.pairs:
    bw = estimate_pair(pair)
    print(f"pair: delay difference {pair.delay_diff_s * 1e3:.3f} ms "
          f"over {pair.large.packet_size.bytes - pair.small.packet_size.bytes} B "
          f"-> {bw}")

# One pair is nowhere near enough for a stable figure, of course; see
# error_vs_sample_count.py for how many pairs a given accuracy needs.
