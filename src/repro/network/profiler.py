"""iperf/ping-style network profiling over the simulated fabric.

The paper reports the average of five consecutive ``iperf`` runs and
``ping`` probes between every pair of zones/clouds (Tables 3, 4, 5).
This module reproduces that methodology: it drives real transfers
through :class:`~repro.network.fabric.Fabric` and derives throughput
from the observed completion times.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..simulation import Environment
from .fabric import Fabric
from .topology import GBPS, Topology

__all__ = ["measure_bandwidth_bps", "measure_rtt_s", "profile_matrix", "ProfileResult"]


@dataclass(frozen=True)
class ProfileResult:
    """Bandwidth/latency matrices between location groups."""

    locations: tuple[str, ...]
    bandwidth_bps: dict[tuple[str, str], float]
    rtt_s: dict[tuple[str, str], float]

    def rtt_ms(self, a: str, b: str) -> float:
        return self.rtt_s[(a, b)] * 1e3

    def rows(self) -> list[dict]:
        """Flat row-per-pair view, convenient for table printing."""
        out = []
        for (a, b), bps in sorted(self.bandwidth_bps.items()):
            out.append(
                {
                    "from": a,
                    "to": b,
                    "gbps": bps / GBPS,
                    "rtt_ms": self.rtt_s[(a, b)] * 1e3,
                }
            )
        return out


def _transfer_time_s(
    topology: Topology, src: str, dst: str, nbytes: float, streams: int = 1
) -> float:
    """Simulated seconds one transfer takes on a fresh, idle fabric.

    The completed flow leaves the fabric's deferred refill queued, so
    the environment and the fabric hold each other; closing both frees
    them by reference counting instead of the cyclic collector.
    """
    env = Environment()
    fabric = Fabric(env, topology)
    try:
        env.run(fabric.transfer(src, dst, nbytes, streams=streams))
        return env.now
    finally:
        fabric.close()
        env.close()


def measure_bandwidth_bps(
    topology: Topology,
    src: str,
    dst: str,
    nbytes: float = 1.25e9,
    streams: int = 1,
    runs: int = 5,
) -> float:
    """Single-flow iperf: average throughput over ``runs`` transfers."""
    total = 0.0
    for __ in range(runs):
        elapsed = _transfer_time_s(topology, src, dst, nbytes, streams)
        if elapsed <= 0:
            return float("inf")
        total += nbytes * 8.0 / elapsed
    return total / runs


def measure_rtt_s(topology: Topology, src: str, dst: str) -> float:
    """Ping: round-trip of an empty payload through the fabric."""
    forward = _transfer_time_s(topology, src, dst, 0.0)
    return forward + _transfer_time_s(topology, dst, src, 0.0)


def profile_matrix(
    topology: Topology,
    representatives: dict[str, str],
    nbytes: float = 1.25e9,
) -> ProfileResult:
    """Profile all pairs of location groups via one representative site.

    ``representatives`` maps location key → site name in the topology.
    """
    locations = tuple(representatives)
    bandwidth: dict[tuple[str, str], float] = {}
    rtt: dict[tuple[str, str], float] = {}
    for a in locations:
        for b in locations:
            src, dst = representatives[a], representatives[b]
            if src == dst:
                # iperf to oneself: loopback measurement of the NIC.
                peers = [
                    name
                    for name in topology.sites
                    if name != src and name.rpartition("/")[0] == a
                ]
                if peers:
                    dst = peers[0]
                else:
                    bandwidth[(a, b)] = topology.get(src).nic_bps
                    rtt[(a, b)] = 0.0
                    continue
            bandwidth[(a, b)] = measure_bandwidth_bps(
                topology, src, dst, nbytes=nbytes, runs=1
            )
            rtt[(a, b)] = measure_rtt_s(topology, src, dst)
    return ProfileResult(locations=locations, bandwidth_bps=bandwidth, rtt_s=rtt)
