"""Network topology: sites, paths, and locality classification.

A :class:`Site` is an endpoint with a NIC (a VM, an on-premise node). A
:class:`Topology` knows, for every ordered pair of sites, the path
capacity and round-trip time. Paths can be specified explicitly (from the
measured matrices of the paper's Tables 3-5) or derived from locality
rules (same zone, same region, cross-continent defaults).

Locality terminology follows the paper: *zone* ⊂ *region* ⊂ *continent*.
Continents use the paper's labels: ``US``, ``EU``, ``ASIA``, ``AUS``
(Oceania, charged at the special OCE egress rate).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

__all__ = [
    "Site",
    "PathSpec",
    "Topology",
    "TrafficClass",
    "classify_traffic",
    "GBPS",
    "MBPS",
]

GBPS = 1e9
MBPS = 1e6

#: Continents recognized by the egress pricing model.
CONTINENTS = ("US", "EU", "ASIA", "AUS")


@dataclass(frozen=True)
class Site:
    """A network endpoint (one VM or one on-premise node)."""

    name: str
    provider: str  # "gc", "aws", "azure", "lambda", "onprem"
    zone: str
    region: str
    continent: str
    #: Single-stream TCP congestion window, in bytes. Governs the
    #: per-stream throughput ceiling ``window / RTT`` (Section 7).
    tcp_window_bytes: float = 2.6e6
    #: NIC capacity in bits/s, shared by all flows at this site.
    nic_bps: float = 7.0 * GBPS

    def __post_init__(self):
        if self.continent not in CONTINENTS:
            raise ValueError(
                f"unknown continent {self.continent!r}; expected one of {CONTINENTS}"
            )
        if self.tcp_window_bytes <= 0 or self.nic_bps <= 0:
            raise ValueError("tcp_window_bytes and nic_bps must be positive")


@dataclass(frozen=True)
class PathSpec:
    """Resolved properties of the path between two sites."""

    capacity_bps: float
    rtt_s: float
    window_bytes: float

    @property
    def single_stream_bps(self) -> float:
        """Single TCP stream throughput: capacity or window/RTT limited."""
        if self.rtt_s <= 0:
            return self.capacity_bps
        return min(self.capacity_bps, 8.0 * self.window_bytes / self.rtt_s)


class TrafficClass:
    """Egress traffic classes used by the pricing tables (Table 1)."""

    INTRA_ZONE = "intra-zone"
    INTER_ZONE = "inter-zone"
    INTER_REGION = "inter-region"
    INTERCONTINENTAL = "between-continents"
    TO_OCEANIA = "any-oce"

    ALL = (INTRA_ZONE, INTER_ZONE, INTER_REGION, INTERCONTINENTAL, TO_OCEANIA)


def classify_traffic(src: Site, dst: Site) -> str:
    """Classify traffic between two sites for egress pricing.

    Follows the structure of the paper's Table 1: any traffic touching
    Oceania has its own class; otherwise classification is by the
    finest shared locality level.
    """
    if "AUS" in (src.continent, dst.continent) and src.continent != dst.continent:
        return TrafficClass.TO_OCEANIA
    if src.continent != dst.continent:
        return TrafficClass.INTERCONTINENTAL
    if src.region != dst.region:
        return TrafficClass.INTER_REGION
    if src.zone != dst.zone:
        return TrafficClass.INTER_ZONE
    return TrafficClass.INTRA_ZONE


#: Default RTTs (seconds) between continents, from the paper's Table 3
#: measurements on Google Cloud premium-tier networking.
DEFAULT_CONTINENT_RTT_S = {
    frozenset(("US", "EU")): 0.103,
    frozenset(("US", "ASIA")): 0.150,
    frozenset(("US", "AUS")): 0.175,
    frozenset(("EU", "ASIA")): 0.270,
    frozenset(("EU", "AUS")): 0.280,
    frozenset(("ASIA", "AUS")): 0.130,
}

#: Default same-locality RTTs in seconds.
DEFAULT_INTRA_ZONE_RTT_S = 0.0007
DEFAULT_INTER_ZONE_RTT_S = 0.002
DEFAULT_INTER_REGION_RTT_S = 0.030

#: Backbone capacity assumed for long-haul paths, bits/s. High enough
#: that single streams are window/RTT limited, which is what the paper
#: measured (Section 7).
DEFAULT_BACKBONE_BPS = 5.0 * GBPS


@dataclass
class Topology:
    """A collection of sites plus path resolution.

    Explicit path overrides (added via :meth:`set_path`) take precedence;
    otherwise defaults derive from site locality and the continent RTT
    table. All paths are symmetric, matching the paper's measurements.
    """

    sites: dict[str, Site] = field(default_factory=dict)
    _overrides: dict[frozenset, PathSpec] = field(default_factory=dict)
    #: Resolved-path memo: :meth:`path` is on the fabric's per-transfer
    #: hot path, so each pair resolves to its (frozen) PathSpec once,
    #: cached under both orders since paths are symmetric.
    #: :meth:`set_path` drops only the two entries of the pair it changes.
    _path_cache: dict[tuple[str, str], PathSpec] = field(
        default_factory=dict, repr=False, compare=False
    )
    #: Bumped by every :meth:`set_path`; consumers that cache derived
    #: values (the fabric's routes and path capacities) compare it to the
    #: version they last saw and ask :meth:`changed_since` what moved.
    _version: int = field(default=0, repr=False, compare=False)
    #: The pair each :meth:`set_path` changed, oldest first, one entry
    #: per ``_version`` bump.
    _changed_pairs: list[tuple[str, str]] = field(
        default_factory=list, repr=False, compare=False
    )

    def add_site(self, site: Site) -> Site:
        if site.name in self.sites:
            raise ValueError(f"duplicate site {site.name!r}")
        self.sites[site.name] = site
        return site

    def get(self, name: str) -> Site:
        return self.sites[name]

    def set_path(
        self,
        a: str,
        b: str,
        capacity_bps: Optional[float] = None,
        rtt_s: Optional[float] = None,
        window_bytes: Optional[float] = None,
    ) -> None:
        """Override path properties between two sites (symmetric).

        A field left as ``None`` keeps the pair's current value: its
        earlier override, or its default when it has none.
        """
        current = self.path(a, b)
        self._overrides[frozenset((a, b))] = PathSpec(
            capacity_bps=capacity_bps
            if capacity_bps is not None else current.capacity_bps,
            rtt_s=rtt_s if rtt_s is not None else current.rtt_s,
            window_bytes=window_bytes
            if window_bytes is not None else current.window_bytes,
        )
        # A pair's path depends only on its own override or default.
        self._path_cache.pop((a, b), None)
        self._path_cache.pop((b, a), None)
        self._changed_pairs.append((a, b))
        self._version += 1

    def changed_since(self, version: int) -> list[tuple[str, str]]:
        """The pairs :meth:`set_path` changed after ``version``, oldest
        first (a pair changed twice is listed twice)."""
        if version >= self._version:
            return []
        return self._changed_pairs[version - self._version :]

    def path(self, a: str, b: str) -> PathSpec:
        """Resolve the path between two named sites (memoised)."""
        cached = self._path_cache.get((a, b))
        if cached is not None:
            return cached
        spec = self._overrides.get(frozenset((a, b)))
        if spec is None:
            spec = self._default_path(self.sites[a], self.sites[b])
        self._path_cache[(a, b)] = self._path_cache[(b, a)] = spec
        return spec

    def _default_path(self, src: Site, dst: Site) -> PathSpec:
        window = min(src.tcp_window_bytes, dst.tcp_window_bytes)
        nic_cap = min(src.nic_bps, dst.nic_bps)
        if src.name == dst.name:
            # Loopback: effectively unconstrained by the network.
            return PathSpec(capacity_bps=100 * GBPS, rtt_s=0.0, window_bytes=window)
        klass = classify_traffic(src, dst)
        if klass == TrafficClass.INTRA_ZONE:
            return PathSpec(nic_cap, DEFAULT_INTRA_ZONE_RTT_S, window)
        if klass == TrafficClass.INTER_ZONE:
            return PathSpec(nic_cap, DEFAULT_INTER_ZONE_RTT_S, window)
        if klass == TrafficClass.INTER_REGION:
            return PathSpec(
                min(nic_cap, DEFAULT_BACKBONE_BPS), DEFAULT_INTER_REGION_RTT_S, window
            )
        rtt = DEFAULT_CONTINENT_RTT_S[frozenset((src.continent, dst.continent))]
        return PathSpec(min(nic_cap, DEFAULT_BACKBONE_BPS), rtt, window)

    def single_stream_bps(self, a: str, b: str) -> float:
        return self.path(a, b).single_stream_bps

    def rtt_s(self, a: str, b: str) -> float:
        return self.path(a, b).rtt_s

    def __contains__(self, name: str) -> bool:
        return name in self.sites

    def __len__(self) -> int:
        return len(self.sites)
