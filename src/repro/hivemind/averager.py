"""Moshpit-style group-based gradient averaging over the fabric.

The averaging round runs in three stages, matching the communication
pattern the paper reconstructs from its egress measurements:

1. **Intra-group reduce-scatter** — each peer sends one chunk of its
   accumulated gradient to every other member of its regional group
   (``(g-1)/g`` of the payload per peer, spread uniformly — exactly the
   "each peer sends its gradients to every other peer" accounting of
   the multi-cloud cost analysis).
2. **Hub exchange** — every non-hub group ships its group aggregate to
   the best-connected (hub) group and receives the global aggregate
   back, chunked across ``min(|G|, |hub|)`` parallel site pairs. This
   reproduces the observed averaging-via-US-intermediary behaviour and
   the multi-stream speedup of Section 7.
3. **Intra-group all-gather** — the mirror of stage 1.

All transfers go through the :class:`~repro.network.fabric.Fabric`, so
wall time emerges from TCP windows, shared NICs and each VM's
Hivemind serialization budget (the ``avg:<site>`` channels), and every
byte lands in the traffic meter for the cost model.

The averager models time and bytes only: each peer's payload is the
model's parameter count under the configured codec, and a round reports
how many samples its surviving contributions carried.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from ..network import Fabric
from ..simulation import Environment, Event, Interrupt
from ..telemetry import NULL_TELEMETRY
from .compression import compressed_nbytes
from .matchmaking import MAX_EXCHANGE_STREAMS, GroupPlan

__all__ = ["MoshpitAverager", "AveragingResult", "Contribution",
           "MAX_EXCHANGE_STREAMS"]


@dataclass
class Contribution:
    """One peer's input to an averaging round."""

    site: str
    sample_count: int


@dataclass
class AveragingResult:
    """Outcome of one averaging round."""

    total_samples: int
    wall_time_s: float
    stage_times_s: dict[str, float] = field(default_factory=dict)
    bytes_sent: float = 0.0
    #: Full-round retries the fault-tolerant path needed (0 = clean).
    retries: int = 0
    #: True when the round gave up on full participation and fell back
    #: to a partial average over the surviving peers.
    degraded: bool = False
    #: Sites whose contributions were dropped (dead at round start or
    #: lost during it).
    dropped_peers: tuple[str, ...] = ()


class MoshpitAverager:
    """Executes averaging rounds for a fixed group plan."""

    def __init__(
        self,
        env: Environment,
        fabric: Fabric,
        plan: GroupPlan,
        parameter_count: int,
        codec: str = "fp16",
        stream_caps_bps: Optional[dict[str, float]] = None,
        telemetry=None,
        fault_tolerance=None,
    ):
        self.env = env
        self.fabric = fabric
        self.plan = plan
        self.telemetry = telemetry if telemetry is not None else NULL_TELEMETRY
        self.payload_bytes = compressed_nbytes(parameter_count, codec)
        #: ``FaultTolerance`` policy; ``None`` keeps the legacy
        #: all-or-nothing round (no deadline, no retries).
        self.fault_tolerance = fault_tolerance
        #: Callback ``site -> bool`` consulted by the fault-tolerant
        #: path to drop dead peers before and between attempts.
        self._liveness = None
        #: Pending abort signal of the in-flight attempt, fired by
        #: :meth:`notify_peer_down` (round restarts without waiting for
        #: the deadline when a participant dies).
        self._abort_event: Optional[Event] = None
        self._attempt_sites: frozenset[str] = frozenset()
        #: EMA of recent successful round walls, seeding the deadline.
        self._round_ema: Optional[float] = None
        stream_caps_bps = stream_caps_bps or {}
        # The serialization budget is full duplex: sending and receiving
        # each get the measured per-VM cap (~1.1 Gb/s on A10 hosts).
        for group in plan.groups:
            for site in group:
                cap = stream_caps_bps.get(site)
                if cap is not None:
                    fabric.define_channel(f"avg-out:{site}", cap)
                    fabric.define_channel(f"avg-in:{site}", cap)
        #: Each capped site's sending and receiving channel tuples.
        self._out_channels = {s: (f"avg-out:{s}",) for s in stream_caps_bps}
        self._in_channels = {s: (f"avg-in:{s}",) for s in stream_caps_bps}

    # -- helpers -----------------------------------------------------------

    def _plan_for(self, present: set) -> tuple[list, tuple]:
        """Restrict the static group plan to the present sites."""
        groups = [
            tuple(site for site in group if site in present)
            for group in self.plan.groups
        ]
        groups = [g for g in groups if g]
        hub_sites = [s for s in self.plan.hub if s in present]
        if hub_sites:
            hub = tuple(hub_sites)
        else:
            hub = max(groups, key=len)
        return groups, hub

    # -- fault-tolerance wiring --------------------------------------------

    def set_liveness(self, liveness) -> None:
        """Install the ``site -> bool`` probe used to drop dead peers."""
        self._liveness = liveness

    def notify_peer_down(self, site: str) -> None:
        """Signal that a participant of the in-flight attempt died;
        the fault-tolerant round aborts and regroups immediately
        instead of waiting out the deadline. No-op for bystanders."""
        abort = self._abort_event
        if (abort is not None and not abort.triggered
                and site in self._attempt_sites):
            abort.succeed(site)

    # -- the averaging round -------------------------------------------------

    def run_round(self, contributions: list[Contribution]):
        """Simulation process performing one full averaging round.

        Without a :attr:`fault_tolerance` policy this is the legacy
        all-or-nothing round. With one, the round runs under a
        deadline, aborts in-flight transfers on timeout or peer loss,
        re-forms groups from survivors with exponential backoff, and
        finally degrades to a partial average.
        """
        if not contributions:
            raise ValueError("averaging round needs at least one contribution")
        if self.fault_tolerance is None:
            return (yield from self._attempt_round(contributions))
        return (yield from self._run_round_resilient(contributions))

    # -- fault-tolerant round ----------------------------------------------

    def _run_round_resilient(self, contributions: list[Contribution]):
        ft = self.fault_tolerance
        tel = self.telemetry
        env = self.env
        start = env.now
        pool = list(contributions)
        dropped: list[str] = []
        retries = 0
        while True:
            if self._liveness is not None:
                alive, dead = [], []
                for c in pool:
                    (alive if self._liveness(c.site) else dead).append(c)
                pool = alive
                dropped.extend(c.site for c in dead)
            if not pool:
                # Everyone died; there is nothing left to average.
                if tel.enabled:
                    tel.counter("averaging_degraded_total",
                                "Averaging rounds degraded to a partial "
                                "average").inc()
                return AveragingResult(
                    total_samples=0,
                    wall_time_s=env.now - start, retries=retries,
                    degraded=True, dropped_peers=tuple(dropped),
                )
            sites = [c.site for c in pool]
            deadline_s = self._round_deadline_s(sites)
            self._attempt_sites = frozenset(sites)
            abort = Event(env)
            self._abort_event = abort
            attempt = env.process(self._attempt_round(pool, retries))
            timer = env.timeout(deadline_s)
            yield env.any_of([attempt, abort, timer])
            self._abort_event = None
            if attempt.triggered and attempt.ok and attempt.value is not None:
                result = attempt.value
                # The deadline EMA tracks the attempt's own duration;
                # the reported wall covers the whole round including
                # failed attempts and backoff.
                self._update_round_estimate(result.wall_time_s)
                result.wall_time_s = env.now - start
                result.retries = retries
                result.dropped_peers = tuple(dropped)
                if tel.enabled and retries:
                    tel.counter("averaging_retries_total",
                                "Full averaging-round retries").inc(retries)
                return result
            reason = "peer-loss" if abort.triggered else "deadline"
            if attempt.is_alive:
                attempt.interrupt(reason)
                try:
                    yield attempt
                except Interrupt:
                    # The attempt never got to run (interrupted before
                    # its first resume): the Interrupt passes through
                    # the unstarted generator and lands here instead.
                    pass
            retries += 1
            if retries > ft.max_round_retries:
                survivors = pool
                if self._liveness is not None:
                    survivors = [c for c in pool if self._liveness(c.site)]
                    dropped.extend(c.site for c in pool
                                   if not self._liveness(c.site))
                total = sum(c.sample_count for c in survivors)
                if tel.enabled:
                    tel.counter("averaging_retries_total",
                                "Full averaging-round retries").inc(retries)
                    tel.counter("averaging_degraded_total",
                                "Averaging rounds degraded to a partial "
                                "average").inc()
                return AveragingResult(
                    total_samples=total,
                    wall_time_s=env.now - start, retries=retries,
                    degraded=True, dropped_peers=tuple(dropped),
                )
            yield env.timeout(
                ft.retry_backoff_s * ft.backoff_factor ** (retries - 1)
            )

    def _attempt_round(self, contributions: list[Contribution],
                       attempt_index: Optional[int] = None):
        """The three-stage round body; returns an
        :class:`AveragingResult`, or ``None`` when interrupted (in which
        case all in-flight transfers are aborted on the way out).

        The plain round runs it inline; the fault-tolerant round runs
        each numbered attempt as a deadline-bounded process."""
        env = self.env
        tel = self.telemetry
        start = env.now
        present = {c.site for c in contributions}
        groups, hub = self._plan_for(present)
        attrs = {} if attempt_index is None else {"attempt": attempt_index}
        stage_times: dict[str, float] = {}
        inflight: list[Event] = []
        # The AllOf the attempt is currently blocked on, boxed so the
        # Interrupt handler can defuse it: once failing sub-events stop
        # being observed by a waiting process, the condition must not
        # surface the failure at env.step().
        gate: list[Optional[Event]] = [None]
        try:
            with tel.span("averaging_round", category="transfer",
                          track="averager", peers=len(present), **attrs):
                stage_start = env.now
                with tel.span("reduce_scatter", category="transfer",
                              track="averager"):
                    yield from self._staged(
                        self._intra_transfers(groups), inflight, gate)
                stage_times["reduce_scatter"] = env.now - stage_start
                stage_start = env.now
                if len(groups) > 1:
                    with tel.span("hub_exchange", category="transfer",
                                  track="averager"):
                        yield from self._staged(
                            self._hub_transfers(groups, hub), inflight, gate)
                stage_times["hub_exchange"] = env.now - stage_start
                stage_start = env.now
                with tel.span("all_gather", category="transfer",
                              track="averager"):
                    yield from self._staged(
                        self._intra_transfers(groups), inflight, gate)
                stage_times["all_gather"] = env.now - stage_start
        except Interrupt:
            pending = gate[0]
            if pending is not None and not pending.triggered:
                pending.defused = True
            for done in inflight:
                self.fabric.abort(done, reason="round-abort")
            return None
        total = sum(c.sample_count for c in contributions)
        wall = env.now - start
        bytes_sent = self._round_bytes(groups, hub)
        if tel.enabled:
            tel.counter("averaging_rounds_total",
                        "Moshpit averaging rounds completed").inc()
            tel.histogram("averaging_round_seconds",
                          "Wall time of each averaging round").observe(wall)
            tel.counter("averaging_bytes_total",
                        "Bytes shipped by the averager").inc(bytes_sent)
        return AveragingResult(
            total_samples=total, wall_time_s=wall,
            stage_times_s=stage_times, bytes_sent=bytes_sent,
        )

    def _staged(self, transfers: list[Event], inflight: list[Event],
                gate: list):
        """Run one stage's transfers, tracking them for abort."""
        if not transfers:
            return
        inflight.extend(transfers)
        cond = self.env.all_of(transfers)
        gate[0] = cond
        yield cond
        gate[0] = None
        inflight.clear()

    def _round_deadline_s(self, sites: list[str]) -> float:
        ft = self.fault_tolerance
        expected = self._round_ema
        if expected is None:
            expected = self._estimate_round_s(sites)
        return min(
            max(ft.min_deadline_s, ft.deadline_factor * expected),
            ft.max_deadline_s,
        )

    def _estimate_round_s(self, sites: list[str]) -> float:
        """Topology-based first guess at a round's wall time: three
        stages bounded by the worst pairwise single-stream transfer.
        (Deliberately coarse — the EMA takes over after one success,
        and the policy clamps whatever comes out.)"""
        worst = 0.0
        topology = self.fabric.topology
        for i, a in enumerate(sites):
            for b in sites[i + 1:]:
                path = topology.path(a, b)
                bps = path.single_stream_bps
                if bps <= 0:
                    continue
                worst = max(worst,
                            self.payload_bytes * 8.0 / bps + path.rtt_s)
        return 3.0 * worst if worst > 0 else 60.0

    def _update_round_estimate(self, wall_s: float) -> None:
        if wall_s <= 0:
            return
        if self._round_ema is None:
            self._round_ema = wall_s
        else:
            self._round_ema = 0.5 * self._round_ema + 0.5 * wall_s

    # -- stage transfer builders -------------------------------------------

    def _intra_transfers(self, groups: list[tuple[str, ...]]) -> list[Event]:
        """One chunk from every member of each group to every other.

        A flow crosses its source's sending channel and its
        destination's receiving channel (when the site is capped); each
        source's channel is looked up once, each group's receiving
        channels once per stage."""
        transfers = []
        append = transfers.append
        transfer = self.fabric.transfer
        out_channels = self._out_channels
        in_channels = self._in_channels
        for group in groups:
            g = len(group)
            if g < 2:
                continue
            chunk = self.payload_bytes / g
            receivers = [(dst, in_channels.get(dst, ())) for dst in group]
            for src in group:
                out = out_channels.get(src, ())
                for dst, into in receivers:
                    if src != dst:
                        append(transfer(src, dst, chunk, tag="averaging",
                                        channels=out + into))
        return transfers

    def _hub_transfers(self, groups, hub) -> list[Event]:
        """Group-aggregate exchange with the hub group.

        Hivemind opens one TCP stream per peer (Section 7), so the
        payload is chunked across ``max(|G|, |hub|)`` member pairs —
        a single on-premise node exchanging with an eight-VM cloud
        group gets eight parallel streams, which is exactly the
        multi-stream bandwidth recovery the paper observes for the
        hybrid experiments. Both directions run concurrently.
        """
        transfers = []
        transfer = self.fabric.transfer
        out_channels = self._out_channels
        in_channels = self._in_channels
        for group in groups:
            if group == hub:
                continue
            streams = min(max(len(group), len(hub)), MAX_EXCHANGE_STREAMS)
            chunk = self.payload_bytes / streams
            for k in range(streams):
                src = group[k % len(group)]
                dst = hub[k % len(hub)]
                transfers.append(transfer(
                    src, dst, chunk, tag="averaging",
                    channels=out_channels.get(src, ()) + in_channels.get(dst, ())))
                transfers.append(transfer(
                    dst, src, chunk, tag="averaging",
                    channels=out_channels.get(dst, ()) + in_channels.get(src, ())))
        return transfers

    def _round_bytes(self, groups, hub) -> float:
        total = 0.0
        for group in groups:
            g = len(group)
            if g >= 2:
                # Two intra stages, each with g(g-1) chunks of size/g.
                total += 2.0 * g * (g - 1) * self.payload_bytes / g
            if len(groups) > 1 and group != hub:
                total += 2.0 * self.payload_bytes  # gather + scatter
        return total
