"""Spot instance interruption model (Section 7 of the paper).

AWS defines the interruption frequency as the fraction of VMs
terminated within the last 30 days (5-20 % per the public figures).
The paper additionally observed that interruptions depend strongly on
the time of day of the zone — they struggled to get spot capacity
during daylight hours. The hazard model here captures both: a base
monthly rate turned into an hourly hazard, modulated by a diurnal
factor peaking in the zone's working hours.

The paper's rule of thumb — "a 5 % interruption frequency over the
entire training time means roughly a 5 % slower training" — follows
from this model when re-provisioning is quick, and is checked by the
``sec7-spot`` validation claims.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = ["InterruptionModel"]

_HOURS_PER_MONTH = 30.0 * 24.0


@dataclass(frozen=True)
class InterruptionModel:
    """Stochastic spot termination as a non-homogeneous Poisson process."""

    #: Fraction of VMs terminated in 30 days (AWS definition, 0.05-0.20).
    monthly_rate: float = 0.10
    #: Peak-to-mean ratio of the diurnal hazard modulation.
    diurnal_amplitude: float = 2.0
    #: Local hour of day at which interruptions peak.
    peak_hour: float = 14.0
    #: Timezone offset of the zone in hours (relative to simulation UTC).
    tz_offset_hours: float = 0.0

    def __post_init__(self):
        if not 0 <= self.monthly_rate < 1:
            raise ValueError("monthly_rate must be in [0, 1)")
        if self.diurnal_amplitude < 1:
            raise ValueError("diurnal_amplitude must be >= 1")

    @property
    def mean_hazard_per_hour(self) -> float:
        """Average hourly hazard implied by the monthly rate."""
        if self.monthly_rate == 0:
            return 0.0
        return -math.log(1.0 - self.monthly_rate) / _HOURS_PER_MONTH

    def hazard_per_hour(self, sim_time_s: float) -> float:
        """Instantaneous hazard at a simulation time (seconds)."""
        base = self.mean_hazard_per_hour
        if base == 0:
            return 0.0
        local_hour = ((sim_time_s / 3600.0) + self.tz_offset_hours) % 24.0
        # Cosine modulation centred on the peak hour; mean over a day is
        # exactly ``base`` so the monthly rate is preserved.
        phase = 2.0 * math.pi * (local_hour - self.peak_hour) / 24.0
        modulation = 1.0 + (self.diurnal_amplitude - 1.0) * math.cos(phase)
        return base * max(modulation, 0.0)

    def sample_interruption_s(
        self, rng: np.random.Generator, start_s: float = 0.0
    ) -> float:
        """Time until the next interruption, in seconds, from ``start_s``.

        Uses Poisson thinning against the peak hazard; returns ``inf``
        for a zero monthly rate.
        """
        base = self.mean_hazard_per_hour
        if base == 0:
            return float("inf")
        peak = base * self.diurnal_amplitude
        t_hours = start_s / 3600.0
        while True:
            t_hours += rng.exponential(1.0 / peak)
            accept = self.hazard_per_hour(t_hours * 3600.0) / peak
            if rng.random() < accept:
                return t_hours * 3600.0 - start_s

