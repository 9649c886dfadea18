"""Available-bandwidth estimation from delays of two probe packet sizes.

The toolkit covers the full workflow: parse test-box delay logs or
probe a live path over UDP, pair samples of the two sizes, estimate
the available bandwidth from the delay difference, simulate the delay
process to predict estimation error, and plan how many measurements a
target accuracy needs.
"""

from .errors import (
    BindFailure,
    ClockError,
    EmptyInput,
    InsufficientData,
    InvalidEta,
    InvalidQuery,
    MalformedLine,
    MixedPacketSizes,
    NonPositiveDelayDifference,
    NoPairsFound,
    Unreachable,
    VpsbandError,
    ZeroPrecision,
)
from .estimator import (
    estimate_batch,
    estimate_pair,
    relative_error,
    upper_measurable_bandwidth,
)
from .model import (
    Bandwidth,
    BandwidthEstimate,
    Delay,
    DelaySample,
    Direction,
    Hop,
    PacketSize,
    PathModel,
    ProbePair,
    read_samples_csv,
    write_samples_csv,
)
from .planner import (
    REFERENCE_TABLE,
    PlanQuery,
    PlanResult,
    ReferenceTable,
    TableRow,
    analytic_required_measurements,
    required_measurements,
)
from .prober import ProbeConfig, ProbeResult, Reflector, probe
from .simulate import (
    ErrorPoint,
    SimConfig,
    error_vs_n,
    fixed_delay,
    simulate_pairs,
    sd_of_delay_diff,
)
from .testbox import (
    MatchResult,
    PairResult,
    ParsedLog,
    ReceiverRecord,
    SenderRecord,
    estimate_var_delay_rate,
    match_sessions,
    pair_by_size,
    parse_receiver_file,
    parse_receiver_line,
    parse_sender_file,
    parse_sender_line,
)

__version__ = "0.1.0"
