"""Cost accounting for distributed spot training (Sections 5 and 7).

Two complementary accountings live here:

* **Metered costing** (:func:`cost_report`) — prices a simulated
  :class:`~repro.hivemind.run.RunResult` from first principles: every
  metered byte is billed at the source provider's Table 1 rate, data
  loading at the B2 egress price, and VM hours at spot or on-demand
  prices. This is the honest bottom-up bill.
* **The paper's call-count accounting** (:func:`call_fractions`) —
  Figure 11 splits each VM's averaging egress into internal /
  intercontinental / Oceania fractions by counting gradient exchange
  calls (e.g. 8/20, 6/20, 6/20 for the C-8 experiment). We reproduce
  that arithmetic exactly for the cost-breakdown figures.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations
from typing import Optional

from ..cloud import (
    B2_EGRESS_PER_GB,
    egress_price_per_gb,
    get_instance_type,
    integrate_price_usd,
)
from ..hivemind.run import RunResult
from ..network import location_of

__all__ = [
    "VmCost",
    "CostReport",
    "cost_report",
    "cost_per_million_samples",
    "call_fractions",
    "CallFractions",
]

_GB = 1e9


@dataclass
class VmCost:
    """Hourly cost components of a single VM, Figure 11a style."""

    site: str
    instance_per_h: float
    internal_egress_per_h: float
    external_egress_per_h: float
    data_loading_per_h: float

    @property
    def total_per_h(self) -> float:
        return (
            self.instance_per_h
            + self.internal_egress_per_h
            + self.external_egress_per_h
            + self.data_loading_per_h
        )


@dataclass
class CostReport:
    """Full bill for one training run."""

    duration_h: float
    total_samples: int
    vms: list[VmCost] = field(default_factory=list)

    @property
    def hourly_total(self) -> float:
        return sum(vm.total_per_h for vm in self.vms)

    @property
    def hourly_vm(self) -> float:
        return sum(vm.instance_per_h for vm in self.vms)

    @property
    def hourly_egress(self) -> float:
        return sum(
            vm.internal_egress_per_h + vm.external_egress_per_h
            for vm in self.vms
        )

    @property
    def hourly_data_loading(self) -> float:
        return sum(vm.data_loading_per_h for vm in self.vms)

    @property
    def total_usd(self) -> float:
        return self.hourly_total * self.duration_h

    @property
    def usd_per_million_samples(self) -> float:
        if self.total_samples <= 0:
            return float("inf")
        return self.total_usd / (self.total_samples / 1e6)


def cost_report(result: RunResult, spot: bool = True) -> CostReport:
    """Price a simulated run bottom-up from its metered traffic."""
    config = result.config
    sites = config.topology.sites
    duration_h = result.duration_s / 3600.0
    internal: dict[str, float] = {}
    external: dict[str, float] = {}
    for (src_name, dst_name), nbytes in result.egress_bytes_by_pair.items():
        src, dst = sites[src_name], sites[dst_name]
        usd = nbytes / _GB * egress_price_per_gb(src, dst)
        # Same continent and provider (classify_traffic ignores providers).
        if src.continent == dst.continent and src.provider == dst.provider:
            internal[src_name] = internal.get(src_name, 0.0) + usd
        else:
            external[src_name] = external.get(src_name, 0.0) + usd

    price_models = config.price_models or {}
    uptime = result.uptime_intervals_by_site
    standby = config.standby_peers

    vms = []
    hours = max(duration_h, 1e-12)
    for index, peer in enumerate([*config.peers, *standby]):
        instance = get_instance_type(peer.instance_key or "gc-t4")
        data_bytes = result.data_ingress_bytes_by_site.get(peer.site, 0.0)
        model = price_models.get(location_of(peer.site)) if spot else None
        if uptime or standby:
            # Adaptive runs: bill each VM only while it was up. Active
            # peers without a ledger entry ran the full duration;
            # never-activated spares ran (and cost) nothing.
            default = (
                [(0.0, result.duration_s)]
                if index < len(config.peers) else []
            )
            intervals = uptime.get(peer.site, default)
        else:
            intervals = [(0.0, result.duration_s)]
        if model is not None:
            # Integrate the diurnal spot price over the VM's uptime
            # instead of charging a flat hourly rate.
            instance_per_h = integrate_price_usd(model, intervals) / hours
        elif intervals == [(0.0, result.duration_s)]:
            instance_per_h = instance.price_per_hour(spot=spot)
        else:
            up_h = sum(end - start for start, end in intervals) / 3600.0
            instance_per_h = instance.price_per_hour(spot=spot) * up_h / hours
        vms.append(
            VmCost(
                site=peer.site,
                instance_per_h=instance_per_h,
                internal_egress_per_h=internal.get(peer.site, 0.0) / hours,
                external_egress_per_h=external.get(peer.site, 0.0) / hours,
                data_loading_per_h=data_bytes / _GB * B2_EGRESS_PER_GB / hours,
            )
        )
    return CostReport(
        duration_h=duration_h,
        total_samples=result.total_samples,
        vms=vms,
    )


def cost_per_million_samples(
    throughput_sps: float, hourly_cost_usd: float
) -> float:
    """The paper's cost axis: dollars per one million processed samples."""
    if throughput_sps <= 0:
        raise ValueError("throughput must be positive")
    samples_per_hour = throughput_sps * 3600.0
    return hourly_cost_usd / (samples_per_hour / 1e6)


@dataclass(frozen=True)
class CallFractions:
    """Fractions of gradient-exchange calls by destination kind."""

    internal: float
    intercontinental: float
    oceania: float

    def __post_init__(self):
        total = self.internal + self.intercontinental + self.oceania
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"fractions must sum to 1, got {total}")


def call_fractions(group_continents: list[str],
                   group_sizes: Optional[list[int]] = None) -> CallFractions:
    """The paper's Figure 11 call-count accounting.

    ``group_continents`` lists the continent of each averaging group.
    Groups of two or more VMs first exchange internally (two calls per
    group), then every pair of groups exchanges gradients (two calls
    per pair). For the C-8 experiment (four two-VM groups on US, EU,
    ASIA, AUS) this yields 8/20 internal, 6/20 intercontinental and
    6/20 Oceania calls — the exact fractions of Section 5(3).

    With a single multi-VM group (the D experiments) the communication
    is N-to-N: each peer calls every other, and ``group_sizes`` holds
    the per-provider partition (e.g. ``[2, 2]``) so that calls to the
    same-provider partner count as internal — 1/3 internal, 2/3
    "external" (still within one continent, so intercontinental here
    means crossing a provider boundary only when continents differ).
    """
    n_groups = len(group_continents)
    if n_groups == 0:
        raise ValueError("need at least one group")
    if n_groups == 1:
        sizes = group_sizes or [2]
        total_peers = sum(sizes)
        internal_calls = sum(size * (size - 1) for size in sizes)
        total_calls = total_peers * (total_peers - 1)
        internal = internal_calls / total_calls
        return CallFractions(internal=internal,
                             intercontinental=1.0 - internal, oceania=0.0)
    sizes = group_sizes or [2] * n_groups
    internal_calls = sum(2 for size in sizes if size >= 2)
    cross = list(combinations(range(n_groups), 2))
    oce_calls = sum(
        2 for a, b in cross
        if "AUS" in (group_continents[a], group_continents[b])
    )
    inter_calls = 2 * len(cross) - oce_calls
    total = internal_calls + inter_calls + oce_calls
    return CallFractions(
        internal=internal_calls / total,
        intercontinental=inter_calls / total,
        oceania=oce_calls / total,
    )
