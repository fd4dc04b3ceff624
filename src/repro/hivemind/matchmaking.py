"""Matchmaking: forming averaging groups before each hivemind epoch.

Shortly before the target batch size is predicted to be reached, peers
form groups for the all-reduce (Section 2.1). Two behaviours matter to
the study:

* a **minimum matchmaking time of 5 seconds** — when all peers
  accumulate the TBS in less than that, the asynchronous matchmaking
  thread is not done yet and averaging becomes unstable (the RN18/RBase
  fluctuations at TBS 8K, Section 3 observation 2);
* **locality-aware grouping** — peers in the same region average
  locally first and exchange aggregated gradients across regions via
  the best-connected region (the paper observed the US VM acting as the
  averaging intermediary in the intercontinental experiments).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from ..network import Topology

if TYPE_CHECKING:
    import numpy as np

__all__ = ["GroupPlan", "form_groups", "matchmaking_delay", "MIN_MATCHMAKING_S",
           "MAX_EXCHANGE_STREAMS"]

MIN_MATCHMAKING_S = 5.0

#: Practical cap on parallel TCP streams per group-to-group exchange.
#: Hivemind opens one stream per peer, but high-latency links see
#: diminishing returns well before full parallelism (the Section 7
#: microbenchmark shows wide variation); four streams reproduces the
#: paper's hybrid-cloud throughputs.
MAX_EXCHANGE_STREAMS = 4


@dataclass(frozen=True)
class GroupPlan:
    """Averaging groups (tuples of site names) plus the hub group."""

    groups: tuple[tuple[str, ...], ...]
    hub_index: int

    @property
    def hub(self) -> tuple[str, ...]:
        return self.groups[self.hub_index]


def form_groups(topology: Topology, sites: list[str]) -> GroupPlan:
    """Group peers by region; pick the best-connected region as hub.

    The hub is the group whose worst single-stream bandwidth to any
    other group is highest — in the paper's Table 3 world that is the
    US region, matching the observed averaging-via-US behaviour.
    """
    if not sites:
        raise ValueError("need at least one site")
    by_region: dict[str, list[str]] = {}
    for site in sites:
        region = topology.get(site).region
        by_region.setdefault(region, []).append(site)
    groups = tuple(tuple(members) for members in by_region.values())
    if len(groups) == 1:
        return GroupPlan(groups=groups, hub_index=0)

    def hub_fitness(index: int) -> tuple[float, int]:
        representative = groups[index][0]
        worst_link = min(
            topology.single_stream_bps(representative, other[0])
            for j, other in enumerate(groups)
            if j != index
        )
        # Ties (symmetric links) go to the larger group: more members
        # mean more parallel streams for the exchange.
        return (worst_link, len(groups[index]))

    hub_index = max(range(len(groups)), key=hub_fitness)
    return GroupPlan(groups=groups, hub_index=hub_index)


def matchmaking_delay(
    rng: np.random.Generator,
    calc_time_s: float,
    min_time_s: float = MIN_MATCHMAKING_S,
    telemetry=None,
) -> float:
    """Matchmaking time added to each averaging round.

    Matchmaking runs asynchronously but takes at least ``min_time_s``.
    When the accumulation finished faster than that, the averaging
    start becomes unstable: the group-forming thread may still be
    running, which the paper observed as strongly fluctuating averaging
    times for small models at TBS 8K. We model the instability as a
    uniform extra delay of up to one minimum-matchmaking period.
    """
    if calc_time_s < 0:
        raise ValueError("calc_time_s must be >= 0")
    if calc_time_s >= min_time_s:
        delay, instability = min_time_s, 0.0
    else:
        instability = rng.uniform(0.0, min_time_s)
        delay = min_time_s + instability
    if telemetry is not None and telemetry.enabled:
        telemetry.counter(
            "matchmaking_rounds_total", "Matchmaking rounds performed"
        ).inc()
        telemetry.histogram(
            "matchmaking_seconds", "Matchmaking time per averaging round"
        ).observe(delay)
        if instability > 0:
            telemetry.counter(
                "averaging_stall_seconds_total",
                "Extra averaging delay from unstable matchmaking (the "
                "TBS-below-minimum instability of Section 3)",
            ).inc(instability)
    return delay
