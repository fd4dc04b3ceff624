"""TCP throughput modeling.

The paper's Section 7 observes that a single TCP stream between
continents is limited to 50-80 Mb/s because every packet must be
acknowledged over a 300 ms round trip, and that opening many parallel
streams recovers the path capacity (6 Gb/s within the EU, 4 Gb/s to the
US, with 80 clients). These helpers capture exactly that window/RTT
mechanism and are used both by the flow fabric and by the Section 7
multi-stream microbenchmark.
"""

from __future__ import annotations

from .topology import PathSpec

__all__ = [
    "single_stream_bps",
    "multi_stream_bps",
    "stream_count_for_capacity",
    "effective_ceiling_bps",
]


def single_stream_bps(path: PathSpec) -> float:
    """Throughput of one TCP stream over ``path`` in bits/s."""
    return path.single_stream_bps


def multi_stream_bps(path: PathSpec, streams: int) -> float:
    """Aggregate throughput of ``streams`` parallel TCP streams.

    Parallel streams each carry up to ``window/RTT`` and share the path
    capacity fairly, so aggregate throughput saturates at the capacity.
    """
    if streams < 1:
        raise ValueError(f"streams must be >= 1, got {streams}")
    if path.rtt_s <= 0:
        return path.capacity_bps
    per_stream = 8.0 * path.window_bytes / path.rtt_s
    return min(path.capacity_bps, streams * per_stream)


def effective_ceiling_bps(path: PathSpec, streams: int = 1) -> float:
    """Aggregate rate ceiling of a transfer over ``path``.

    Each of the ``streams`` parallel TCP streams is limited by
    ``window/RTT``. This is the per-flow ceiling the fabric feeds into
    max-min fair sharing; the shared path/NIC capacities, and budgets
    several flows share such as a VM's serialization rate (fabric
    channels), are enforced there, not here.
    """
    return max(streams, 1) * path.single_stream_bps


def stream_count_for_capacity(path: PathSpec) -> int:
    """Minimum number of parallel streams that saturates the path."""
    per_stream = single_stream_bps(path)
    if per_stream >= path.capacity_bps:
        return 1
    count = 1
    while multi_stream_bps(path, count) < path.capacity_bps:
        count += 1
    return count
