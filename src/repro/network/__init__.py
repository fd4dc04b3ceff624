"""Network substrate: topology, TCP model, flow fabric, profiler."""

from .fabric import Fabric, Flow, TrafficMeter, TransferAborted
from .profiler import ProfileResult, measure_bandwidth_bps, measure_rtt_s, profile_matrix
from .profiles import LOCATIONS, PATH_OVERRIDES, build_topology, location_of
from .tcp import (
    effective_ceiling_bps,
    multi_stream_bps,
    single_stream_bps,
    stream_count_for_capacity,
)
from .topology import (
    GBPS,
    MBPS,
    PathSpec,
    Site,
    Topology,
    TrafficClass,
    classify_traffic,
)

__all__ = [
    "Fabric",
    "Flow",
    "GBPS",
    "LOCATIONS",
    "MBPS",
    "PATH_OVERRIDES",
    "PathSpec",
    "ProfileResult",
    "Site",
    "Topology",
    "TrafficClass",
    "TrafficMeter",
    "TransferAborted",
    "build_topology",
    "classify_traffic",
    "effective_ceiling_bps",
    "location_of",
    "measure_bandwidth_bps",
    "measure_rtt_s",
    "multi_stream_bps",
    "profile_matrix",
    "single_stream_bps",
    "stream_count_for_capacity",
]
