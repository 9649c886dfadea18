"""Available-bandwidth estimation from delays of two probe packet sizes.

The toolkit covers the full workflow: parse test-box delay logs or
probe a live path over UDP, pair samples of the two sizes, estimate
the available bandwidth from the delay difference, simulate the delay
process to predict estimation error, and plan how many measurements a
target accuracy needs.

The top level exports only what the log-to-estimate example in the
README uses; everything else is imported from its module
(``vpsband.simulate``, ``vpsband.planner``, ``vpsband.prober``, ...).
"""

from .estimator import estimate_batch
from .model import PacketSize
from .testbox import match_sessions, pair_by_size, parse_receiver_file, parse_sender_file

__all__ = [
    "PacketSize",
    "estimate_batch",
    "match_sessions",
    "pair_by_size",
    "parse_receiver_file",
    "parse_sender_file",
]

__version__ = "0.1.0"
