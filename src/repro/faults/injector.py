"""Deterministic fault injector: applies a schedule to a live run.

The injector is a single simulation process that walks the schedule's
events in canonical time order and mutates the shared state everyone
else reads:

* link faults rewrite the :class:`~repro.network.topology.Topology`
  path for the affected pair (bumping the topology version so the
  fabric's route/capacity caches invalidate) and nudge the fabric to
  re-run max-min filling so in-flight flows immediately feel the new
  capacity;
* compute faults are exposed via :meth:`compute_factor`, which the
  training loop multiplies into per-site sample rates;
* crash and zone-outage events fire the :attr:`on_crash` callback
  (wired to ``SpotFleet.preempt`` by the run loop).

Everything is pure function of (schedule, simulation state): no RNG is
consumed at injection time, so two identically-seeded runs with the
same schedule replay the exact same event sequence.
"""

from __future__ import annotations

from typing import Callable, Optional

from ..network import Fabric, Topology
from ..simulation import Environment
from ..telemetry import NULL_TELEMETRY
from .schedule import (
    ComputeFault,
    CrashFault,
    FaultSchedule,
    LinkFault,
    ZoneOutage,
)

__all__ = ["FaultInjector", "PARTITION_FLOOR_BPS"]

#: Capacity floor for "partitioned" paths, in bits/s (1 byte/s). A true
#: zero would make in-flight flow rates degenerate (completion horizon
#: of an active flow becomes undefined); a 1 B/s crawl keeps the fluid
#: model well-defined while guaranteeing any real payload blows its
#: round deadline.
PARTITION_FLOOR_BPS = 8.0


class FaultInjector:
    """Walks a :class:`FaultSchedule` against a live topology/fabric."""

    def __init__(
        self,
        env: Environment,
        topology: Topology,
        fabric: Optional[Fabric] = None,
        schedule: Optional[FaultSchedule] = None,
        telemetry=None,
        sites: Optional[list[str]] = None,
    ):
        self.env = env
        self.topology = topology
        self.fabric = fabric
        self.schedule = schedule if schedule is not None else FaultSchedule()
        self.telemetry = telemetry if telemetry is not None else NULL_TELEMETRY
        #: Sites eligible for zone-outage expansion (defaults to every
        #: site in the topology).
        self._sites = list(sites) if sites is not None else list(topology.sites)
        #: Called with a site name on each crash / zone-outage victim;
        #: the run loop wires this to ``SpotFleet.preempt``.
        self.on_crash: Optional[Callable[[str], object]] = None
        #: Injection tallies by fault kind, reported on ``RunResult``.
        self.counts: dict[str, int] = {
            "link_degradation": 0,
            "partition": 0,
            "straggler": 0,
            "crash": 0,
            "zone_outage": 0,
        }
        self._counter = self.telemetry.counter(
            "fault_injections_total", "Faults injected, by kind"
        )
        self._tracer = self.telemetry.tracer if self.telemetry.enabled else None
        # Base path specs captured the first time a pair is faulted,
        # before any fault touches it — reverts restore these exactly.
        self._base_paths: dict[frozenset, object] = {}
        self._active_links: dict[frozenset, list[LinkFault]] = {}
        self._active_compute: dict[str, list[ComputeFault]] = {}
        self._open_spans: dict[int, object] = {}
        self._validate()
        self._timeline = self._build_timeline()
        self._proc = None

    def _validate(self) -> None:
        known = set(self.topology.sites)
        for name in sorted(self.schedule.sites()):
            if name not in known:
                raise ValueError(
                    f"fault schedule names unknown site {name!r}"
                )
        zones = {site.zone for site in self.topology.sites.values()}
        for outage in self.schedule.zone_outages:
            if outage.zone not in zones:
                raise ValueError(
                    f"fault schedule names unknown zone {outage.zone!r}"
                )

    def _build_timeline(self) -> list[tuple]:
        """Flatten the schedule into ``(time, seq, action, fault)``
        entries, sorted by time with a canonical tie-break so injection
        order is independent of how the schedule was assembled. An
        action is a plain function of the injector and the fault, not a
        bound method, so the timeline holds no reference back to the
        injector and the two form no reference cycle."""
        cls = type(self)
        timeline: list[tuple] = []
        for fault in self.schedule.link_faults:
            timeline.append((fault.start_s, self._link_key(fault),
                             cls._apply_link, fault))
            timeline.append((fault.end_s, self._link_key(fault),
                             cls._revert_link, fault))
        for fault in self.schedule.compute_faults:
            key = ("compute", fault.site, fault.rate_factor)
            timeline.append((fault.start_s, key, cls._apply_compute, fault))
            timeline.append((fault.end_s, key, cls._revert_compute, fault))
        for fault in self.schedule.crash_faults:
            timeline.append((fault.start_s, ("crash", fault.site),
                             cls._apply_crash, fault))
        for outage in self.schedule.zone_outages:
            timeline.append((outage.start_s, ("zone", outage.zone),
                             cls._apply_zone_outage, outage))
        timeline.sort(key=lambda entry: (entry[0], entry[1]))
        return timeline

    @staticmethod
    def _link_key(fault: LinkFault) -> tuple:
        a, b = sorted((fault.a, fault.b))
        return ("link", a, b, fault.bandwidth_factor, fault.rtt_factor)

    def start(self):
        """Spawn the injection process (idempotent)."""
        if self._proc is None and self._timeline:
            self._proc = self.env.process(self._run())
        return self._proc

    def _run(self):
        for when, __, action, fault in self._timeline:
            delay = when - self.env.now
            if delay > 0:
                yield self.env.timeout(delay)
            action(self, fault)
        # Keep the generator a generator even for same-instant tails.
        if False:  # pragma: no cover
            yield

    # -- link faults -------------------------------------------------------

    def _reapply_path(self, key: frozenset) -> None:
        """Recompute and install the effective path for a pair from its
        base spec and the currently-active fault windows."""
        base = self._base_paths[key]
        active = self._active_links.get(key, ())
        capacity = base.capacity_bps
        rtt = base.rtt_s
        partitioned = False
        for fault in active:
            if fault.is_partition:
                partitioned = True
            else:
                capacity *= fault.bandwidth_factor
            rtt *= fault.rtt_factor
        if partitioned:
            capacity = PARTITION_FLOOR_BPS
        else:
            capacity = max(capacity, PARTITION_FLOOR_BPS)
        a, b = sorted(key)
        self.topology.set_path(
            a, b, capacity_bps=capacity, rtt_s=rtt,
            window_bytes=base.window_bytes,
        )
        if self.fabric is not None:
            self.fabric.on_topology_change()

    def _apply_link(self, fault: LinkFault) -> None:
        key = frozenset((fault.a, fault.b))
        if key not in self._base_paths:
            self._base_paths[key] = self.topology.path(fault.a, fault.b)
        self._active_links.setdefault(key, []).append(fault)
        self._reapply_path(key)
        kind = "partition" if fault.is_partition else "link_degradation"
        self._record(kind)
        if self._tracer is not None:
            self._open_spans[id(fault)] = self._tracer.begin(
                kind, category="fault", track="faults",
                a=fault.a, b=fault.b,
                bandwidth_factor=fault.bandwidth_factor,
                rtt_factor=fault.rtt_factor,
            )

    def _revert_link(self, fault: LinkFault) -> None:
        key = frozenset((fault.a, fault.b))
        windows = self._active_links.get(key)
        if windows and fault in windows:
            windows.remove(fault)
            self._reapply_path(key)
        self._close_span(fault)

    # -- compute faults ----------------------------------------------------

    def _apply_compute(self, fault: ComputeFault) -> None:
        self._active_compute.setdefault(fault.site, []).append(fault)
        self._record("straggler")
        if self._tracer is not None:
            self._open_spans[id(fault)] = self._tracer.begin(
                "straggler", category="fault", track="faults",
                site=fault.site, rate_factor=fault.rate_factor,
            )

    def _revert_compute(self, fault: ComputeFault) -> None:
        windows = self._active_compute.get(fault.site)
        if windows and fault in windows:
            windows.remove(fault)
        self._close_span(fault)

    def compute_factor(self, site: str) -> float:
        """Current compute-rate multiplier for ``site`` (1.0 = healthy;
        overlapping straggler windows compose multiplicatively)."""
        windows = self._active_compute.get(site)
        if not windows:
            return 1.0
        factor = 1.0
        for fault in windows:
            factor *= fault.rate_factor
        return factor

    # -- crashes and zone outages ------------------------------------------

    def _crash_site(self, site: str) -> None:
        if self.on_crash is not None:
            self.on_crash(site)

    def _apply_crash(self, fault: CrashFault) -> None:
        self._record("crash")
        if self._tracer is not None:
            self._tracer.instant(
                "crash", track="faults", site=fault.site
            )
        self._crash_site(fault.site)

    def _apply_zone_outage(self, outage: ZoneOutage) -> None:
        self._record("zone_outage")
        victims = [
            site for site in self._sites
            if site in self.topology
            and self.topology.get(site).zone == outage.zone
        ]
        if self._tracer is not None:
            self._tracer.instant(
                "zone_outage", track="faults",
                zone=outage.zone, victims=len(victims),
            )
        for site in victims:
            self._crash_site(site)

    # -- bookkeeping -------------------------------------------------------

    def _record(self, kind: str) -> None:
        self.counts[kind] += 1
        self._counter.labels(kind=kind).inc()

    def _close_span(self, fault) -> None:
        span = self._open_spans.pop(id(fault), None)
        if span is not None:
            self._tracer.finish(span)
