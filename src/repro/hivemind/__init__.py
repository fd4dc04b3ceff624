"""Hivemind substrate: DHT, matchmaking, averaging, training runs."""

from .._exports import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    averager=("AveragingResult", "Contribution", "MoshpitAverager"),
    compression=("CODECS", "compress", "compressed_nbytes", "decompress"),
    dht=("DhtNetwork", "DhtNode", "node_id_for", "xor_distance"),
    matchmaking=("MIN_MATCHMAKING_S", "GroupPlan", "form_groups", "matchmaking_delay"),
    monitor=("PROGRESS_KEY", "MonitorSample", "TrainingMonitor"),
    run=(
        "EpochStats",
        "MetricSample",
        "HivemindRunConfig",
        "PeerSpec",
        "RunResult",
        "run_hivemind",
    ),
)
