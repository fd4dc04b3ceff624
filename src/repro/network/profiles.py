"""Concrete topologies matching the paper's measured environments.

Locations are keyed ``provider:place`` (e.g. ``gc:us``, ``onprem:eu``).
The per-location NIC capacities and TCP windows, together with the RTT
matrix, reproduce the measured single-stream bandwidths of the paper's
Tables 3 (Google Cloud zones), 4 (multi-cloud) and 5 (hybrid cloud):
a single stream carries ``min(capacity, window/RTT)``, which is exactly
the mechanism the paper identifies in Section 7.
"""

from __future__ import annotations

from dataclasses import dataclass

from .topology import GBPS, Site, Topology

__all__ = [
    "LOCATIONS",
    "PATH_OVERRIDES",
    "build_topology",
    "location_of",
    "TABLE3_EXPECTED_MBPS",
    "TABLE3_EXPECTED_RTT_MS",
    "TABLE4_EXPECTED_GBPS",
    "TABLE4_EXPECTED_RTT_MS",
    "TABLE5_EXPECTED_GBPS",
    "TABLE5_EXPECTED_RTT_MS",
]


@dataclass(frozen=True)
class _Location:
    provider: str
    zone: str
    region: str
    continent: str
    tcp_window_bytes: float
    nic_bps: float


#: Every location used by any experiment in the paper.
LOCATIONS: dict[str, _Location] = {
    # Google Cloud zones of the geo-distributed experiments (Section 4).
    "gc:us": _Location("gc", "us-central1-a", "us-central1", "US", 2.6e6, 6.91 * GBPS),
    "gc:eu": _Location("gc", "europe-west1-b", "europe-west1", "EU", 2.6e6, 6.91 * GBPS),
    "gc:asia": _Location("gc", "asia-east1-a", "asia-east1", "ASIA", 2.6e6, 6.91 * GBPS),
    "gc:aus": _Location(
        "gc", "australia-southeast1-a", "australia-southeast1", "AUS", 2.6e6, 6.91 * GBPS
    ),
    # Multi-cloud experiments (Section 5), all US-west-ish.
    "gc:us-west": _Location("gc", "us-west1-a", "us-west1", "US", 2.6e6, 6.4 * GBPS),
    "aws:us-west": _Location("aws", "us-west-2c", "us-west-2", "US", 4.0e6, 4.9 * GBPS),
    "azure:us-south": _Location(
        "azure", "us-south-2a", "us-south-2", "US", 4.0e6, 7.6 * GBPS
    ),
    # LambdaLabs A10 fleet (Section 3): 3.3 Gb/s, 0.3 ms between VMs.
    "lambda:us-west": _Location(
        "lambda", "lambda-us-west-a", "lambda-us-west", "US", 2.6e6, 3.3 * GBPS
    ),
    # On-premise building in Europe (Section 6) hosting RTX8000 and DGX-2.
    "onprem:eu": _Location("onprem", "onprem-eu", "onprem-eu", "EU", 1.0e6, 6.0 * GBPS),
}

#: Path overrides between location groups: (capacity bits/s, RTT s,
#: window bytes or None for the default min of endpoints).
PATH_OVERRIDES: dict[frozenset, tuple[float, float, float | None]] = {
    # On-premise building goes over the public internet (Section 6):
    # multi-stream microbenchmark reached 6 Gb/s within the EU and
    # 4 Gb/s to the US (Section 7).
    frozenset(("onprem:eu", "gc:eu")): (6.0 * GBPS, 0.0165, None),
    frozenset(("onprem:eu", "gc:us")): (4.0 * GBPS, 0.1505, None),
    frozenset(("onprem:eu", "lambda:us-west")): (4.0 * GBPS, 0.1588, None),
    # Same-metro inter-cloud paths (Table 4): GC and AWS share an
    # Internet exchange point; Azure sits in a different zone.
    frozenset(("gc:us-west", "aws:us-west")): (5.0 * GBPS, 0.0153, 3.4e6),
    frozenset(("gc:us-west", "azure:us-south")): (5.0 * GBPS, 0.051, 3.2e6),
    frozenset(("aws:us-west", "azure:us-south")): (5.0 * GBPS, 0.045, 3.2e6),
}


def location_of(site_name: str) -> str:
    """Location key of a site named ``<location>/<index>``."""
    location, __, __ = site_name.rpartition("/")
    return location


def build_topology(counts: dict[str, int]) -> Topology:
    """Build a topology with ``counts[location]`` sites per location.

    Sites are named ``<location>/<index>`` with indices starting at 0.
    Known path overrides between location groups are applied to every
    site pair spanning those groups.
    """
    topology = Topology()
    groups = []
    for location, count in counts.items():
        if location not in LOCATIONS:
            raise KeyError(
                f"unknown location {location!r}; known: {sorted(LOCATIONS)}"
            )
        spec = LOCATIONS[location]
        names = [f"{location}/{index}" for index in range(count)]
        for name in names:
            topology.add_site(
                Site(
                    name=name,
                    provider=spec.provider,
                    zone=spec.zone,
                    region=spec.region,
                    continent=spec.continent,
                    tcp_window_bytes=spec.tcp_window_bytes,
                    nic_bps=spec.nic_bps,
                )
            )
        groups.append((location, names))
    # Each pair (a, b), b after a in site order, of two groups an override joins.
    for position, (location, names) in enumerate(groups):
        for a in names:
            for other, others in groups[position + 1 :]:
                override = PATH_OVERRIDES.get(frozenset((location, other)))
                if override is not None:
                    for b in others:
                        topology.set_path(a, b, *override)
    return topology


# --- Paper-reported reference values (for validation & table output) ----

#: Table 3 — single-stream throughput between GC zones, Mb/s.
#: Diagonal ~6910 Mb/s; off-diagonal dominated by window/RTT.
TABLE3_EXPECTED_MBPS = {
    ("gc:us", "gc:us"): 6910.0,
    ("gc:us", "gc:eu"): 210.0,
    ("gc:us", "gc:asia"): 130.0,
    ("gc:us", "gc:aus"): 120.0,
    ("gc:eu", "gc:asia"): 80.0,
    ("gc:eu", "gc:aus"): 80.0,
    ("gc:asia", "gc:aus"): 160.0,
}

#: Table 3 — ICMP round-trip times between GC zones, milliseconds.
TABLE3_EXPECTED_RTT_MS = {
    ("gc:us", "gc:us"): 0.7,
    ("gc:us", "gc:eu"): 103.0,
    ("gc:us", "gc:asia"): 150.0,
    ("gc:us", "gc:aus"): 175.0,
    ("gc:eu", "gc:asia"): 270.0,
    ("gc:eu", "gc:aus"): 280.0,
    ("gc:asia", "gc:aus"): 130.0,
}

#: Table 4 — multi-cloud single-stream throughput, Gb/s.
TABLE4_EXPECTED_GBPS = {
    ("gc:us-west", "gc:us-west"): 6.4,
    ("aws:us-west", "aws:us-west"): 4.9,
    ("azure:us-south", "azure:us-south"): 7.6,
    ("gc:us-west", "aws:us-west"): 1.8,
    ("gc:us-west", "azure:us-south"): 0.5,
    ("aws:us-west", "azure:us-south"): 0.5,
}

#: Table 4 — multi-cloud ICMP latency, ms.
TABLE4_EXPECTED_RTT_MS = {
    ("gc:us-west", "aws:us-west"): 15.3,
    ("gc:us-west", "azure:us-south"): 51.0,
}

#: Table 5 — hybrid-cloud single-stream throughput from the on-premise
#: building (RTX8000 / DGX-2 share the uplink), Gb/s.
TABLE5_EXPECTED_GBPS = {
    ("onprem:eu", "gc:eu"): 0.50,
    ("onprem:eu", "gc:us"): 0.07,
    ("onprem:eu", "lambda:us-west"): 0.06,
}

#: Table 5 — hybrid-cloud ICMP latency, ms.
TABLE5_EXPECTED_RTT_MS = {
    ("onprem:eu", "gc:eu"): 16.5,
    ("onprem:eu", "gc:us"): 150.5,
    ("onprem:eu", "lambda:us-west"): 158.8,
}
