"""Hivemind substrate: DHT, matchmaking, averaging, training runs."""

from .averager import AveragingResult, Contribution, MoshpitAverager
from .compression import CODECS, compress, compressed_nbytes, decompress
from .dht import DhtNetwork, DhtNode, node_id_for, xor_distance
from .matchmaking import (
    MIN_MATCHMAKING_S,
    GroupPlan,
    form_groups,
    matchmaking_delay,
)
from .monitor import PROGRESS_KEY, MonitorSample, TrainingMonitor
from .run import (
    EpochStats,
    MetricSample,
    HivemindRunConfig,
    NumericConfig,
    PeerSpec,
    RunResult,
    run_hivemind,
)

__all__ = [
    "AveragingResult",
    "CODECS",
    "Contribution",
    "DhtNetwork",
    "DhtNode",
    "EpochStats",
    "GroupPlan",
    "HivemindRunConfig",
    "MIN_MATCHMAKING_S",
    "MetricSample",
    "MonitorSample",
    "MoshpitAverager",
    "NumericConfig",
    "PROGRESS_KEY",
    "PeerSpec",
    "RunResult",
    "TrainingMonitor",
    "compress",
    "compressed_nbytes",
    "decompress",
    "form_groups",
    "matchmaking_delay",
    "node_id_for",
    "run_hivemind",
    "xor_distance",
]
