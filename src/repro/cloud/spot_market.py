"""Spot price dynamics: hourly, zone- and time-of-day-dependent prices.

Section 2.2 of the paper: "spot instance prices change hourly depending
on the time of day and zone availability, and can vary widely between
cloud providers" — which is precisely why training *across* zones and
clouds can be cheaper. This module models a zone's spot price as the
on-demand price times a discount that breathes with local demand (deep
discounts at night, shallow at the zone's peak hour), plus optional
mean-reverting noise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

__all__ = ["SpotPriceModel", "integrate_price_usd"]


@dataclass(frozen=True)
class SpotPriceModel:
    """Diurnal spot pricing for one zone."""

    ondemand_per_h: float
    #: Average spot discount (e.g. 0.69 for GC, Table 1).
    mean_discount: float
    #: How much the discount swings over a day (0 = flat).
    swing: float = 0.15
    #: Local hour of peak demand (shallowest discount).
    peak_hour: float = 14.0
    #: Zone timezone offset from simulation UTC, hours.
    tz_offset_hours: float = 0.0

    def __post_init__(self):
        if not 0 < self.mean_discount < 1:
            raise ValueError("mean_discount must be in (0, 1)")
        if not 0 <= self.swing < 1:
            raise ValueError("swing must be in [0, 1)")
        if self.mean_discount * (1 + self.swing) >= 1:
            raise ValueError("discount swing exceeds 100%")

    def discount_at(self, sim_time_s: float) -> float:
        local_hour = ((sim_time_s / 3600.0) + self.tz_offset_hours) % 24.0
        phase = 2.0 * math.pi * (local_hour - self.peak_hour) / 24.0
        # Demand peaks at peak_hour -> discount is smallest there.
        return self.mean_discount * (1.0 - self.swing * math.cos(phase))

    def price_at(
        self,
        sim_time_s: float,
        rng: Optional[np.random.Generator] = None,
        noise: float = 0.0,
    ) -> float:
        """Spot price at a simulation time; optional relative noise."""
        price = self.ondemand_per_h * (1.0 - self.discount_at(sim_time_s))
        if rng is not None and noise > 0:
            price *= float(np.exp(rng.normal(0.0, noise)))
        return min(max(price, 0.0), self.ondemand_per_h)


def integrate_price_usd(
    model: SpotPriceModel,
    intervals: list[tuple[float, float]],
    step_s: float = 3600.0,
) -> float:
    """Dollars billed at the hourly spot price over uptime ``intervals``.

    The price is sampled at the start of each (possibly partial)
    ``step_s`` billing step, matching "spot prices change hourly"
    (Section 2.2). This is the one billing loop: run cost reports
    accrue spot compute through it. The integral is a pure function of
    the model and the intervals, so identically-seeded runs bill
    identically.
    """
    if step_s <= 0:
        raise ValueError("step_s must be > 0")
    total = 0.0
    for start, end in intervals:
        t = float(start)
        while t < end - 1e-9:
            step = min(step_s, end - t)
            total += model.price_at(t) * step / 3600.0
            t += step
    return total

