"""Network substrate: topology, TCP model, flow fabric, profiler."""

from .._exports import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    fabric=("Fabric", "Flow", "Message", "TrafficMeter", "TransferAborted"),
    profiler=(
        "ProfileResult",
        "measure_bandwidth_bps",
        "measure_rtt_s",
        "profile_matrix",
    ),
    profiles=("LOCATIONS", "PATH_OVERRIDES", "build_topology", "location_of"),
    tcp=(
        "effective_ceiling_bps",
        "multi_stream_bps",
        "single_stream_bps",
        "stream_count_for_capacity",
    ),
    topology=(
        "GBPS",
        "MBPS",
        "PathSpec",
        "Site",
        "Topology",
        "TrafficClass",
        "classify_traffic",
    ),
)
