"""A SkyPilot-style intercloud broker (Sections 7 and 9).

The paper points at SkyPilot as the missing piece for production use:
a broker that provisions the requested hardware on whatever cloud/zone
is currently cheapest and migrates away from zones whose preemption
count crosses a threshold. Combined with decentralized training, this
enables "auto-migrated, decentralized DL training for the best spot
prices in the world" — which is exactly what :class:`BrokeredFleet`
simulates: it keeps N single-GPU spot VMs alive, re-evaluating the
market on every placement and blacklisting flappy zones.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..simulation import Environment
from .instances import InstanceType
from .spot import InterruptionModel
from .spot_market import SpotPriceModel, integrate_price_usd

__all__ = ["ZoneOffer", "BrokeredFleet", "Placement"]


@dataclass(frozen=True)
class ZoneOffer:
    """One zone's market entry: price dynamics + reliability."""

    location: str  # e.g. "gc:us"
    instance_type: InstanceType
    price_model: SpotPriceModel
    interruption_model: InterruptionModel

    def effective_price_at(self, sim_time_s: float) -> float:
        """Price adjusted by the expected interruption penalty: the
        paper's rule that x% interruptions cost roughly x% throughput
        makes a flaky zone's dollars buy fewer samples."""
        price = self.price_model.price_at(sim_time_s)
        monthly = self.interruption_model.monthly_rate
        return price / max(1.0 - monthly, 1e-6)


@dataclass
class Placement:
    """One VM placement decision made by the broker."""

    time_s: float
    slot_index: int
    location: str
    price_per_h: float
    reason: str  # "initial" | "preempted" | "blacklisted"


class BrokeredFleet:
    """Keeps ``n`` spot VMs alive at the best current market offer."""

    def __init__(
        self,
        env: Environment,
        rng: np.random.Generator,
        offers: list[ZoneOffer],
        n_vms: int,
        preemption_threshold: int = 3,
        startup_s: float = 300.0,
    ):
        if not offers:
            raise ValueError("need at least one zone offer")
        if n_vms < 1:
            raise ValueError("n_vms must be >= 1")
        self.env = env
        self.rng = rng
        self.offers = {offer.location: offer for offer in offers}
        self.preemption_threshold = preemption_threshold
        self.startup_s = startup_s
        self.placements: list[Placement] = []
        self.preemptions: dict[str, int] = {loc: 0 for loc in self.offers}
        self.blacklist: set[str] = set()
        self.cost_usd = 0.0
        self.vm_seconds = 0.0
        self._live: dict[int, str] = {}
        for index in range(n_vms):
            env.process(self._run_slot(index))

    # -- market logic ------------------------------------------------------

    def rank_offers(self, sim_time_s: float) -> list[tuple[str, float]]:
        """Zones by effective (reliability-adjusted) price, best first."""
        candidates = [
            (location, offer.effective_price_at(sim_time_s))
            for location, offer in self.offers.items()
            if location not in self.blacklist
        ]
        if not candidates:  # everything blacklisted: start over
            self.blacklist.clear()
            candidates = [
                (location, offer.effective_price_at(sim_time_s))
                for location, offer in self.offers.items()
            ]
        return sorted(candidates, key=lambda pair: pair[1])

    def best_offer(self, sim_time_s: float) -> ZoneOffer:
        return self.offers[self.rank_offers(sim_time_s)[0][0]]

    @property
    def live_count(self) -> int:
        return len(self._live)

    @property
    def migrations(self) -> int:
        return sum(1 for p in self.placements if p.reason != "initial")

    def average_price_per_h(self) -> float:
        if self.vm_seconds <= 0:
            return 0.0
        return self.cost_usd / (self.vm_seconds / 3600.0)

    # -- lifecycle -----------------------------------------------------------

    def _accrue(self, offer: ZoneOffer, start_s: float, end_s: float) -> None:
        """Bill an interval at the hourly-varying spot price."""
        if end_s <= start_s:
            return
        self.cost_usd += integrate_price_usd(offer.price_model,
                                             [(start_s, end_s)])
        self.vm_seconds += end_s - start_s

    def _note_preemption(self, location: str) -> str:
        self.preemptions[location] += 1
        if self.preemptions[location] >= self.preemption_threshold:
            self.blacklist.add(location)
            return "blacklisted"
        return "preempted"

    def _run_slot(self, index: int):
        reason = "initial"
        while True:
            offer = self.best_offer(self.env.now)
            price = offer.price_model.price_at(self.env.now)
            self.placements.append(
                Placement(self.env.now, index, offer.location, price, reason)
            )
            if reason != "initial":
                yield self.env.timeout(self.startup_s)
            self._live[index] = offer.location
            lifetime = offer.interruption_model.sample_interruption_s(
                self.rng, start_s=self.env.now
            )
            started = self.env.now
            if lifetime == float("inf"):
                return  # runs forever; cost accrues via finalize()
            yield self.env.timeout(lifetime)
            self._accrue(offer, started, self.env.now)
            del self._live[index]
            reason = self._note_preemption(offer.location)

    def finalize(self) -> None:
        """Account cost for VMs still running at the current time."""
        for index, location in list(self._live.items()):
            last = max(
                (p for p in self.placements if p.slot_index == index),
                key=lambda p: p.time_s,
            )
            self._accrue(self.offers[location], last.time_s, self.env.now)
        self._live.clear()
