"""Training monitor: scrapes the DHT for peer state and progress.

The paper runs a monitor alongside every multi-GPU experiment that
scrapes the DHT every second to log peer state and training progress
(Section 3). Ours does the same through real DHT ``get`` operations —
each scrape pays the simulated network round trips.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from ..simulation import Environment, Interrupt
from ..telemetry import NULL_TELEMETRY
from .dht import DhtNode

__all__ = ["TrainingMonitor", "MonitorSample", "PROGRESS_KEY"]

PROGRESS_KEY = "hivemind/progress"


@dataclass(frozen=True)
class MonitorSample:
    time_s: float
    epoch: Optional[int]
    live_peers: Optional[int]
    total_samples: Optional[int]


@dataclass
class TrainingMonitor:
    """Periodically polls the progress key from its own DHT node."""

    env: Environment
    node: DhtNode
    interval_s: float = 10.0
    samples: list[MonitorSample] = field(default_factory=list)
    #: Optional telemetry sink; every scrape lands in the metrics
    #: registry (scrape counter, live-peer / progress gauges).
    telemetry: Optional[object] = None

    def run(self):
        """Scrape loop; stop by interrupting the process."""
        tel = self.telemetry if self.telemetry is not None else NULL_TELEMETRY
        scrapes = tel.counter("monitor_scrapes_total",
                              "Monitor DHT scrapes performed")
        misses = tel.counter("monitor_misses_total",
                             "Scrapes that found no progress key")
        live_gauge = tel.gauge("monitor_live_peers",
                               "Live peers as last seen by the monitor")
        progress_gauge = tel.gauge("monitor_total_samples",
                                   "Applied samples as last seen by the "
                                   "monitor")
        try:
            while True:
                yield self.env.timeout(self.interval_s)
                with tel.span("scrape", category="monitor",
                              track=f"monitor:{self.node.site}"):
                    state = yield from self.node.get(PROGRESS_KEY)
                scrapes.inc()
                if state is None:
                    misses.inc()
                    sample = MonitorSample(self.env.now, None, None, None)
                else:
                    sample = MonitorSample(
                        time_s=self.env.now,
                        epoch=state.get("epoch"),
                        live_peers=state.get("live_peers"),
                        total_samples=state.get("total_samples"),
                    )
                    if sample.live_peers is not None:
                        live_gauge.set(sample.live_peers)
                    if sample.total_samples is not None:
                        progress_gauge.set(sample.total_samples)
                self.samples.append(sample)
        except Interrupt:
            return self.samples

    def gaps(self, min_gap_s: float = 0.0) -> list[tuple[float, float]]:
        """Scrape intervals during which training made no progress.

        Walks consecutive samples and marks the interval between two
        scrapes as *stalled* when the later one shows no increase in
        ``total_samples`` (a missing progress key counts as no
        progress). Adjacent stalled intervals are merged; intervals
        shorter than ``min_gap_s`` are dropped. Returns
        ``(start_s, end_s)`` pairs in scrape order.
        """
        gaps: list[tuple[float, float]] = []
        last_known: Optional[int] = None
        current: Optional[list[float]] = None
        previous_time: Optional[float] = None
        for sample in self.samples:
            if previous_time is not None:
                progressed = (
                    sample.total_samples is not None
                    and (last_known is None
                         or sample.total_samples > last_known)
                )
                if progressed:
                    if current is not None:
                        gaps.append((current[0], current[1]))
                        current = None
                elif current is None:
                    current = [previous_time, sample.time_s]
                else:
                    current[1] = sample.time_s
            if sample.total_samples is not None:
                if last_known is None or sample.total_samples > last_known:
                    last_known = sample.total_samples
            previous_time = sample.time_s
        if current is not None:
            gaps.append((current[0], current[1]))
        return [(start, end) for start, end in gaps
                if end - start >= min_gap_s]
