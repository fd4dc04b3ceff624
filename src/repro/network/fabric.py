"""Flow-level network simulation with max-min fair bandwidth sharing.

The fabric models every in-flight transfer as a fluid flow constrained
by three kinds of resources:

* the source NIC (all flows leaving a site share its egress capacity),
* the destination NIC (ingress),
* the path capacity between the two sites,

plus a per-flow ceiling from the TCP model: ``streams × window/RTT``.
A budget several flows share, such as a VM's serialization rate
(Hivemind's ~1.1 Gb/s per VM), is a named channel
(:meth:`Fabric.define_channel`) that those flows cross as one more
resource. Rates are assigned by progressive filling (max-min fairness)
and recomputed whenever a flow starts or finishes, which is the
standard fluid approximation for TCP fair sharing.

Rebalancing is incremental: resource membership is maintained as flows
start and finish (rather than rebuilt from every active flow), and all
flow arrivals within one simulated instant are coalesced into a single
progressive-filling pass scheduled at the end of the instant via
:meth:`Environment.defer`. The filling arithmetic itself is unchanged —
the same global increment sequence is applied in the same order — so
identically-seeded runs produce byte-identical traces and results
before and after the optimisation (see ``tests/test_fairness_incremental.py``
and ``tests/test_golden_determinism.py``).

Each shared resource is one persistent :class:`_ResourceState`, created
the first time a route crosses it and kept for the fabric's lifetime.
A resolved route holds the tuple of its resources' states, and every
flow on the route carries that tuple, so admission, the fill and
completion reach a resource without a string-keyed lookup. The state
caches the resource's capacity and holds the fill's per-pass
``remaining`` and ``count``. A route is resolved from the objects that
define it (the sites, the path spec, the channel capacities). Each
site's egress and ingress states and each channel's state are also
kept by site or channel name, so a new route finds them with one
lookup each and builds no resource id for them: a new pair costs its
:meth:`Topology.path` lookup, its one ``path:`` state and the route
tuple. A channel named twice on a route is one state on it. A topology
change costs only the pairs it changed: their routes are dropped,
found through a per-pair index, and their path states' capacities
refreshed. Every other route and state stays as it was: a pair's path
depends only on its own override or default, sites are frozen (so the
per-site tables cannot go stale), and :meth:`Fabric.define_channel`
updates channel states in place.

A transfer is one object. :class:`Flow` is an :class:`Event` subclass
and :meth:`Fabric.transfer` returns the flow itself: it succeeds when
the last byte arrives, and its ``value`` is then the flow (computed,
not stored, so a finished flow holds no reference to itself).
:meth:`Fabric.abort` takes that flow; it refuses (returns ``False``) a
flow that already finished or was already aborted, a flow of another
fabric and any event that is not a flow. The fabric's timers (flow
admission, completion, the coalesced refill) are bare kernel entries
(:meth:`Environment.call_later`, :meth:`Environment.defer`): no event
and no callbacks list, but the same queue slot a one-callback timer
would take.

A fan-out costs O(1) kernel queue entries rather than two per flow.
Both rules rely on the kernel ordering its queue by ``(time, sequence)``
alone, so every flow is still admitted, filled, metered and completed
in the same order and at the same float times as with one entry each:

* **Admission.** A transfer joins the newest pending admission timer
  when its due time (``now + propagation``) equals that timer's and no
  event has been queued since the timer was (the kernel's sequence
  counter has not moved). Their timers would have fired back to back,
  so one callback admits the batch in request order; any interleaved
  event opens a new timer. A transfer with no propagation delay is
  admitted at the end of the instant by the same code, as a batch of
  one.
* **Completion.** The flows found finished at one instant are metered
  one by one (untraced, one :meth:`TrafficMeter.record` call each),
  then triggered through :meth:`Environment.succeed_all`,
  one queue entry whose callbacks run in the same order. Nothing the
  fabric keeps refers to a finished flow, so a finished stage is freed
  by reference counting rather than waiting for the cyclic collector.

When the flows found finished are the whole active set (the end of
every averaging stage), membership is reset wholesale: the active set,
the member set of each occupied state and the table of occupied states
are cleared in one step, instead of removing each flow from each of its
states. This is exact, because only occupied states have members: the
result is the state that per-flow removal reaches, and the flows are
then metered and completed in the same order as on the per-flow path.

A fabric whose simulation is over can be closed (:meth:`Fabric.close`):
it drops its route cache and resource states so that they are freed
at once, even while reference cycles elsewhere keep the fabric alive,
cuts each aborted flow's cycle with its error, and refuses any later
transfer.

A control-plane payload too small to matter to the fair share (a DHT
RPC leg) is a :class:`Message` instead (:meth:`Fabric.message`). Its
route is resolved through the same cache as a transfer's, and its
delivery time is fixed when it is sent: one-way propagation plus
``nbytes·8`` over the slowest of the route's single-stream ceiling and
its resources' capacities. It is one kernel queue entry at that time,
like a :class:`Timeout`, and never joins the active set or the fill, so
it takes no bandwidth from flows and a fault that lands while it is in
flight does not retime it. :meth:`Message.cancel` withdraws it before
delivery (a timed-out RPC); that is not an abort.

Every completed transfer and delivered message is recorded in a
:class:`TrafficMeter`, one table of bytes by (source, destination,
tag), so the cost model can later price egress per site pair, and so a
run can say which bytes were averaging, DHT or state-sync traffic. An
aborted flow meters the bytes it delivered; a cancelled message meters
nothing.
"""

from __future__ import annotations

import itertools
from functools import partial
from typing import Any, Callable, Optional

from ..simulation import Environment, Event
from ..simulation.engine import _PENDING
from ..telemetry import NULL_TELEMETRY
from .tcp import effective_ceiling_bps
from .topology import Site, Topology, classify_traffic

__all__ = ["Fabric", "Flow", "Message", "TrafficMeter", "TransferAborted"]

_EPS = 1e-9

#: Flows below this many bytes are metered (all counters still fire)
#: but get no per-flow span: small control payloads are spanned at the
#: protocol layer that sends them. Messages never open one.
TRACE_MIN_BYTES = 4096.0


class TransferAborted(Exception):
    """Raised into waiters of a transfer (its :class:`Flow`) when the
    transfer is cancelled via :meth:`Fabric.abort` (round timeout, peer
    loss). The flow is pre-defused, so only processes actively waiting
    on it observe the exception."""

    def __init__(self, flow: "Flow", reason: str = "aborted"):
        super().__init__(f"transfer {flow.flow_id} {reason} "
                         f"({flow.src.name}->{flow.dst.name})")
        #: The aborted flow; ``None`` once its fabric is closed (this
        #: error is the flow's value, so the two form a reference cycle
        #: that :meth:`Fabric.close` cuts).
        self.flow: Optional[Flow] = flow
        self.reason = reason


class Flow(Event):
    """One transfer, and the event that fires when it completes.

    :meth:`Fabric.transfer` returns the flow itself: it succeeds once
    the last byte has arrived, and its :attr:`value` is then the flow.
    The value is computed rather than stored, so a finished flow holds
    no reference to itself and is freed by reference counting. Hashable
    by identity.
    """

    __slots__ = (
        "fabric",
        "flow_id",
        "src",
        "dst",
        "total_bytes",
        "remaining_bytes",
        "ceiling_bps",
        "tag",
        "started_s",
        "states",
        "rate_bps",
        "span",
        "aborted",
        "_fill_headroom",
        "_fill_active",
    )

    #: The fabric that carries the flow; :meth:`Fabric.abort` checks it.
    fabric: Fabric
    flow_id: int
    src: Site
    dst: Site
    total_bytes: float
    remaining_bytes: float
    ceiling_bps: float
    tag: Optional[str]
    #: Sim time the transfer was requested (for telemetry durations).
    started_s: float
    #: The fabric's persistent state of every shared resource this flow
    #: occupies, taken from its route (one tuple per (src, dst, channels)).
    states: tuple[_ResourceState, ...]
    rate_bps: float
    #: Open telemetry span, when tracing is enabled.
    span: Optional[object]
    #: Set by :meth:`Fabric.abort`; admission checks it so a flow
    #: cancelled mid-propagation never starts.
    aborted: bool
    # Working state of the progressive-filling pass (_assign_rates).
    _fill_headroom: float
    _fill_active: bool

    def __init__(
        self,
        fabric: Fabric,
        flow_id: int,
        src: Site,
        dst: Site,
        total_bytes: float,
        ceiling_bps: float,
        tag: Optional[str],
        started_s: float,
        states: tuple[_ResourceState, ...],
    ):
        # Event.__init__, inlined: one call fewer per transfer.
        self.env = fabric.env
        self.callbacks = []
        self._value = _PENDING
        self._ok = None
        self.defused = False
        self.fabric = fabric
        self.flow_id = flow_id
        self.src = src
        self.dst = dst
        self.total_bytes = total_bytes
        self.remaining_bytes = total_bytes
        self.ceiling_bps = ceiling_bps
        self.tag = tag
        self.started_s = started_s
        self.states = states
        self.rate_bps = 0.0
        self.span = None
        self.aborted = False
        self._fill_headroom = 0.0
        self._fill_active = False

    @property
    def value(self) -> Any:
        """The flow once it has completed; the
        :class:`TransferAborted` error once it has been aborted."""
        if self._ok:
            return self
        return super().value

    @property
    def resources(self) -> tuple[str, ...]:
        return tuple(state.rid for state in self.states)


class Message(Event):
    """A small message, delivered after a delay fixed when it is sent.

    :meth:`Fabric.message` returns it. Like a :class:`Timeout`, it is
    triggered when created (its ``value`` is ``None``) and takes one
    kernel queue entry, at its delivery time (none on a route without
    capacity, where it is never delivered). When that entry fires,
    the fabric meters the bytes and then the waiters run. It never
    joins the active set or the max-min fill and opens no span.
    :meth:`cancel` withdraws it before delivery.
    """

    __slots__ = ("fabric", "src", "dst", "nbytes", "tag", "started_s", "cancelled")

    fabric: Fabric
    src: Site
    dst: Site
    nbytes: float
    tag: Optional[str]
    #: Sim time the message was sent (for telemetry durations).
    started_s: float
    #: Set by :meth:`cancel`; a cancelled message is never delivered.
    cancelled: bool

    def __init__(
        self,
        fabric: Fabric,
        src: Site,
        dst: Site,
        nbytes: float,
        tag: Optional[str],
        delay: Optional[float],
    ):
        # Event.__init__, inlined, with the value decided as a Timeout's.
        env = self.env = fabric.env
        self.callbacks = []
        self._value = None
        self._ok = True
        self.defused = False
        self.fabric = fabric
        self.src = src
        self.dst = dst
        self.nbytes = nbytes
        self.tag = tag
        self.started_s = env._now
        self.cancelled = False
        if delay is not None:
            env._queue_event(self, delay)

    def cancel(self) -> bool:
        """Withdraw the message before it is delivered: it is never
        metered, since none of it arrived, and its waiters never run.
        Returns ``False``, changing nothing, once it has been delivered
        or cancelled."""
        if self.callbacks is None or self.cancelled:
            return False
        self.cancelled = True
        return True

    def _run_callbacks(self) -> None:
        if self.cancelled:
            self.callbacks = None
            return
        self.fabric._meter(self.src, self.dst, self.nbytes, self.tag, self.started_s)
        super()._run_callbacks()


def sum_traffic(table: dict, key: Callable[[tuple[str, str, str]], Any]) -> dict:
    """Sum a traffic table's bytes by ``key((src, dst, tag))``, in the
    table's order: the one way every view of the metered bytes (by
    pair, source site, traffic class or tag) is derived."""
    sums: dict = {}
    for entry, nbytes in table.items():
        group = key(entry)
        sums[group] = sums.get(group, 0.0) + nbytes
    return sums


class TrafficMeter:
    """Delivered bytes in one table keyed by ``(src name, dst name,
    tag)``; an untagged transfer counts as ``"data"``, as in the
    telemetry labels. Billing and every per-pair, per-site, per-class
    or per-tag view sum it through :func:`sum_traffic`."""

    __slots__ = ("table",)

    def __init__(self):
        self.table: dict[tuple[str, str, str], float] = {}

    def record(
        self, src: Site, dst: Site, nbytes: float, tag: Optional[str] = None
    ) -> None:
        if nbytes <= 0:
            return
        key = (src.name, dst.name, tag or "data")
        table = self.table
        table[key] = table.get(key, 0.0) + nbytes

    @property
    def total_bytes(self) -> float:
        return sum(self.table.values())


def _path_rid(a: str, b: str) -> str:
    """The resource id of the path between two sites, in either order."""
    return f"path:{a}|{b}" if a <= b else f"path:{b}|{a}"


class _ResourceState:
    """One shared resource: the only object the fabric keeps for it.

    Created once per resource id and kept for the fabric's lifetime;
    every route that crosses the resource holds this same object, so a
    flow reaches it without a string-keyed lookup. ``members`` is
    maintained incrementally by :meth:`Fabric._admit_batch` /
    :meth:`Fabric._unregister_flow`; ``capacity`` is taken from the
    site, path or channel that defines the resource and refreshed when
    that path or channel changes. ``remaining`` and ``count`` are the
    working state of one progressive-filling pass. States are
    weak-referenceable, so a caller can check when one is freed.
    """

    __slots__ = ("rid", "capacity", "members", "remaining", "count",
                 "__weakref__")

    def __init__(self, capacity: float, rid: str = ""):
        self.rid = rid
        self.capacity = capacity
        self.members: set[Flow] = set()
        self.remaining = 0.0
        self.count = 0


class Fabric:
    """The shared network. Created once per simulated experiment."""

    def __init__(
        self,
        env: Environment,
        topology: Topology,
        telemetry=None,
    ):
        self.env = env
        self.topology = topology
        self.telemetry = telemetry if telemetry is not None else NULL_TELEMETRY
        #: Direct tracer reference when tracing is live — flow start /
        #: finish are the busiest instrumented call sites, so they skip
        #: the facade passthrough.
        self._tracer = self.telemetry.tracer if self.telemetry.enabled else None
        self._bytes_counter = self.telemetry.counter(
            "transfer_bytes_total",
            "Bytes delivered by the fabric, by traffic class and tag",
        )
        self._flows_counter = self.telemetry.counter(
            "transfers_total", "Completed fabric transfers"
        )
        self._flow_seconds = self.telemetry.histogram(
            "flow_duration_seconds",
            "Wall time of each fabric transfer (request to last byte)",
        )
        self.meter = TrafficMeter()
        # Per-label-set metric children and interned track names: flow
        # completion runs once per transfer, so everything resolvable
        # ahead of time is cached here, keyed by (src, dst, tag).
        self._flow_children: dict[tuple[str, str, Optional[str]], tuple] = {}
        self._flow_seconds_child = None
        self._track_names: dict[str, str] = {}
        #: The active flows in the order they were admitted (a dict used
        #: as an ordered set), so same-instant completions, the fill and
        #: progress accounting visit flows in a reproducible order rather
        #: than in memory-address order.
        self._flows: dict[Flow, None] = {}
        self._flow_ids = itertools.count()
        self._last_update = env.now
        self._generation = 0
        self._channel_caps: dict[str, float] = {}
        #: Every shared resource a route has used, one persistent state
        #: each; never dropped, so a resource is always one object.
        self._states: dict[str, _ResourceState] = {}
        #: The same states of each site's NICs and of each channel, by
        #: site or channel name, filled the first time a route crosses
        #: them: a new route looks its NICs and channels up here rather
        #: than building their resource ids. Sites are frozen and NIC
        #: capacities never change, so these tables never go stale.
        self._egress: dict[str, _ResourceState] = {}
        self._ingress: dict[str, _ResourceState] = {}
        self._channel_states: dict[str, _ResourceState] = {}
        #: The states with at least one member flow, in the order they
        #: gained their first member; maintained as flows start and
        #: finish.
        self._resources: dict[str, _ResourceState] = {}
        self._topology_version = topology._version
        #: Per-(src, dst, channels) route cache: (src_site, dst_site,
        #: path, propagation_s, states, ceiling for one stream). A
        #: topology change drops the routes over the pairs it changed.
        self._rid_cache: dict[tuple, tuple] = {}
        #: The keys of the cached routes over each site pair, under the
        #: pair's ``path:`` resource id (loopback pairs included). Built
        #: at the first topology change, so a fabric that never sees one
        #: keeps no index.
        self._pair_routes: Optional[dict[str, list[tuple]]] = None
        #: Set by :meth:`close`; route resolution refuses from then on.
        self._closed = False
        #: True while a coalesced refill is scheduled for this instant.
        self._refill_pending = False
        #: The newest pending admission timer as (due time, kernel
        #: sequence counter right after it was queued, its flows).
        self._admission: Optional[tuple[float, int, list[Flow]]] = None
        #: High-water mark of concurrent flows (reported by `repro bench`).
        self.peak_active_flows = 0
        #: Transfers cancelled via :meth:`abort` (reported by chaos runs).
        self.aborted_flows = 0
        #: The errors of the flows aborted so far, for :meth:`close`.
        self._abort_errors: list[TransferAborted] = []
        self._aborts_counter = self.telemetry.counter(
            "transfer_aborts_total", "Fabric transfers cancelled mid-flight"
        )

    def define_channel(self, name: str, capacity_bps: float) -> None:
        """Register a shared application channel (e.g. a per-VM
        serialization budget that all averaging flows of that VM share)."""
        if capacity_bps <= 0:
            raise ValueError("channel capacity must be positive")
        self._channel_caps[name] = capacity_bps
        state = self._channel_states.get(name)
        if state is not None:
            state.capacity = capacity_bps

    # -- public API -------------------------------------------------------

    def transfer(
        self,
        src: str,
        dst: str,
        nbytes: float,
        streams: int = 1,
        tag: Optional[str] = None,
        channels: tuple[str, ...] = (),
    ) -> Flow:
        """Start a transfer of ``nbytes`` from ``src`` to ``dst``.

        Returns the :class:`Flow`, an event that fires (with the flow as
        its value) once the last byte has arrived, after one-way
        propagation plus transmission time.
        """
        if nbytes < 0:
            raise ValueError(f"nbytes must be >= 0, got {nbytes}")
        # A cached route while the topology is unchanged, else the slow
        # path (catch up, resolve).
        entry = (
            self._rid_cache.get((src, dst, channels))
            if self.topology._version == self._topology_version else None
        )
        if entry is None:
            entry = self._route(src, dst, channels)
        src_site, dst_site, path, propagation, states, ceiling = entry
        if streams != 1:
            ceiling = effective_ceiling_bps(path, streams)
        env = self.env
        total = float(nbytes)
        flow = Flow(
            self, next(self._flow_ids), src_site, dst_site, total, ceiling,
            tag, env._now, states,
        )
        if self._tracer is not None and nbytes >= TRACE_MIN_BYTES:
            track = self._track_names.get(src_site.name)
            if track is None:
                track = self._track_names[src_site.name] = f"net:{src_site.name}"
            flow.span = self._tracer.begin(
                tag or "transfer", category="transfer", track=track,
                dst=dst_site.name, bytes=total,
            )
        tel = env._telemetry
        # Admit the flow via a bare timer callback: no generator, no
        # ``_Initialize`` event and no process-completion event per
        # flow, but each flow still counts as one logical process.
        if tel is not None:
            tel.processes_spawned += 1
        if propagation > 0:
            due = env._now + propagation
            admission = self._admission
            if (
                admission is not None
                and admission[0] == due
                and admission[1] == env._sequence
            ):
                # Its own timer would fire right after the batch's.
                admission[2].append(flow)
            else:
                flows = [flow]
                env.call_later(propagation, partial(self._admit_batch, flows))
                self._admission = (due, env._sequence, flows)
        else:
            env.defer(partial(self._admit_batch, [flow]))
        return flow

    def message(
        self, src: str, dst: str, nbytes: float, tag: Optional[str] = None
    ) -> Message:
        """Send a small message of ``nbytes`` from ``src`` to ``dst``.

        Returns the :class:`Message`, delivered after one-way
        propagation plus ``nbytes·8`` over the slowest of the route's
        single-stream ceiling and its resources' capacities, all read
        now: a later topology change does not retime it, and it takes
        no bandwidth from flows. For control-plane payloads (DHT RPCs)
        too small to matter to the fair share.
        """
        if nbytes < 0:
            raise ValueError(f"nbytes must be >= 0, got {nbytes}")
        src_site, dst_site, __, propagation, states, rate = self._route(src, dst, ())
        for state in states:
            if state.capacity < rate:
                rate = state.capacity
        total = float(nbytes)
        # A route without capacity delivers nothing, as a flow on it
        # stalls: the message is never queued, and only cancel ends it.
        delay = propagation + total * 8.0 / rate if rate > 0 else None
        return Message(self, src_site, dst_site, total, tag, delay)

    def _route(self, src: str, dst: str, channels: tuple[str, ...]) -> tuple:
        """The cached route of (src, dst, channels), resolved on a miss,
        after catching up with a topology change nobody reported."""
        if self.topology._version != self._topology_version:
            # A bare ``set_path``: account progress at the old rates and
            # refill, as ``on_topology_change`` would.
            self._refresh_topology_caches()
            self._advance_clock()
            self._mark_dirty()
        entry = self._rid_cache.get((src, dst, channels))
        if entry is None:
            entry = self._resolve_transfer(src, dst, channels)
        return entry

    def _resolve_transfer(
        self, src: str, dst: str, channels: tuple[str, ...]
    ) -> tuple:
        """Resolve and cache everything static about a transfer route:
        endpoint sites, path spec, one-way propagation delay, the
        persistent states of its resources and its default ceiling.
        Channel names are validated here, once per distinct (src, dst,
        channels) combination, before any state is created."""
        if self._closed:
            raise RuntimeError("transfer on a closed fabric")
        topology = self.topology
        sites = topology.sites
        src_site = sites[src]
        dst_site = sites[dst]
        path = topology.path(src, dst)
        channel_caps = self._channel_caps
        for channel in channels:
            if channel not in channel_caps:
                raise KeyError(f"undefined channel {channel!r}")
        pair = _path_rid(src, dst)
        if src == dst:
            states: list[_ResourceState] = []
        else:
            egress = self._egress.get(src)
            if egress is None:
                egress = self._egress[src] = self._new_state(
                    f"egress:{src}", src_site.nic_bps)
            ingress = self._ingress.get(dst)
            if ingress is None:
                ingress = self._ingress[dst] = self._new_state(
                    f"ingress:{dst}", dst_site.nic_bps)
            path_state = self._states.get(pair)
            if path_state is None:
                path_state = self._new_state(pair, path.capacity_bps)
            states = [egress, ingress, path_state]
        for channel in channels:
            state = self._channel_states.get(channel)
            if state is None:
                state = self._channel_states[channel] = self._new_state(
                    f"channel:{channel}", channel_caps[channel])
            # A channel named twice is one resource: the fill decrements
            # a state once per entry in ``flow.states``.
            if state not in states:
                states.append(state)
        key = (src, dst, channels)
        entry = self._rid_cache[key] = (
            src_site, dst_site, path, path.rtt_s / 2.0, tuple(states),
            path.single_stream_bps,
        )
        if self._pair_routes is not None:
            self._pair_routes.setdefault(pair, []).append(key)
        return entry

    def _new_state(self, rid: str, capacity: float) -> _ResourceState:
        """Create and register the persistent state of resource ``rid``."""
        state = self._states[rid] = _ResourceState(capacity, rid)
        return state

    def close(self) -> None:
        """Release the route cache once the simulation is over.

        Drops every cached route, the per-pair route index and the
        persistent resource states with their per-site and per-channel
        tables, so they are freed by reference counting even while
        cycles elsewhere keep the fabric itself alive. Every later
        :meth:`transfer` raises: with the cache empty it must resolve
        its route, and resolution refuses. Flows still in flight or
        waiting for admission are let go too (the active set, the
        occupied states' member sets and the pending admission batch),
        because each of them refers back to the fabric; they never
        complete. An aborted flow and its :class:`TransferAborted`
        refer to each other, so each error's ``flow`` is cleared.
        """
        self._closed = True
        self._rid_cache.clear()
        self._pair_routes = None
        self._states.clear()
        self._egress.clear()
        self._ingress.clear()
        self._channel_states.clear()
        self._admission = None
        self._flows.clear()
        for state in self._resources.values():
            state.members.clear()
        self._resources.clear()
        for error in self._abort_errors:
            error.flow = None
        self._abort_errors.clear()

    @property
    def active_flows(self) -> int:
        return len(self._flows)

    def abort(self, flow: Event, reason: str = "aborted") -> bool:
        """Cancel an in-flight transfer, given the flow :meth:`transfer`
        returned.

        Bytes already delivered are metered (they were really sent);
        the flow fails with :class:`TransferAborted` but is
        *pre-defused*, so it is only observed by processes actively
        waiting on it — crucially including an already-triggered
        ``AllOf``/``AnyOf``, whose ``_observe`` no longer defuses late
        sub-events. A flow still propagating never starts. Returns
        ``False``, changing nothing, for a flow that already finished or
        was already aborted, for a flow of another fabric and for any
        event that is not a flow.
        """
        if not isinstance(flow, Flow) or flow.fabric is not self or flow.triggered:
            return False
        self._advance_clock()
        flow.aborted = True
        if flow in self._flows:
            self._unregister_flow(flow)
            self._mark_dirty()
        delivered = flow.total_bytes - flow.remaining_bytes
        if delivered > 0:
            self.meter.record(flow.src, flow.dst, delivered, flow.tag)
        if self._tracer is not None and flow.span is not None:
            self._tracer.finish(flow.span)
        self.aborted_flows += 1
        self._aborts_counter.inc()
        tel = self.env._telemetry
        if tel is not None:
            # Close out the flow's logical process.
            tel.processes_finished += 1
        error = TransferAborted(flow, reason)
        self._abort_errors.append(error)
        flow.fail(error)
        flow.defused = True
        return True

    def on_topology_change(self) -> None:
        """React to live topology mutation (fault injection).

        Accounts flow progress at the old rates, then queues a refill;
        the rebalance notices the bumped topology version and refreshes
        the routes and path capacities of the changed pairs before
        re-running max-min filling.
        """
        self._advance_clock()
        self._mark_dirty()

    # -- flow lifecycle ---------------------------------------------------

    def _meter(
        self, src: Site, dst: Site, nbytes: float, tag: Optional[str], started_s: float
    ) -> None:
        """Record a delivered transfer or message: the traffic meter,
        and the byte, transfer and duration metrics when tracing."""
        self.meter.record(src, dst, nbytes, tag)
        if self._tracer is not None:
            # One cache lookup per delivery: (src, dst, tag) resolves the
            # traffic class and both bound counter children at once.
            child_key = (src.name, dst.name, tag)
            children = self._flow_children.get(child_key)
            if children is None:
                traffic_class = classify_traffic(src, dst)
                children = self._flow_children[child_key] = (
                    self._bytes_counter.labels(
                        link_class=traffic_class, tag=tag or "data"
                    ),
                    self._flows_counter.labels(link_class=traffic_class),
                )
            bytes_child, flows_child = children
            bytes_child.inc(nbytes)
            flows_child.inc()
            seconds_child = self._flow_seconds_child
            if seconds_child is None:
                seconds_child = self._flow_seconds_child = (
                    self._flow_seconds.labels()
                )
            seconds_child.observe(self.env._now - started_s)

    def _finish_flows(self, flows: list[Flow]) -> None:
        """Mark flows delivered and meter them, in order; the caller then
        triggers them. Untraced, that is one :meth:`TrafficMeter.record`
        call per flow, which is all :meth:`_meter` does without a
        tracer."""
        tracer = self._tracer
        if tracer is None:
            record = self.meter.record
            for flow in flows:
                flow.remaining_bytes = 0.0
                record(flow.src, flow.dst, flow.total_bytes, flow.tag)
        else:
            meter = self._meter
            for flow in flows:
                flow.remaining_bytes = 0.0
                meter(flow.src, flow.dst, flow.total_bytes, flow.tag,
                      flow.started_s)
                if flow.span is not None:
                    tracer.finish(flow.span)
        tel = self.env._telemetry
        if tel is not None:
            # Close out the flows' logical processes.
            tel.processes_finished += len(flows)

    def _admit_batch(self, flows: list[Flow]) -> None:
        """Admit flows whose propagation delay has elapsed (one timer's
        batch, or one zero-delay flow), in request order: each joins the
        active set and its resources' member sets. The clock advances
        and the fabric is marked dirty once, at the first flow
        registered: later advances at this instant would be no-ops, and
        the generation is only ever compared for equality. The
        high-water mark is checked once, after the batch, which is exact
        because admission only adds flows."""
        admission = self._admission
        if admission is not None and admission[2] is flows:
            self._admission = None
        active = self._flows
        resources = self._resources
        dirty = False
        for flow in flows:
            if flow.aborted:
                continue
            if flow.remaining_bytes <= 0:
                self._finish_flows([flow])
                flow.succeed()
                continue
            if not dirty:
                dirty = True
                self._advance_clock()
                self._mark_dirty()
            active[flow] = None
            for state in flow.states:
                members = state.members
                if not members:
                    resources[state.rid] = state
                members.add(flow)
        if len(active) > self.peak_active_flows:
            self.peak_active_flows = len(active)

    def _unregister_flow(self, flow: Flow) -> None:
        """Remove a finished flow from the active set and its resources."""
        self._flows.pop(flow, None)
        resources = self._resources
        for state in flow.states:
            members = state.members
            members.discard(flow)
            if not members:
                del resources[state.rid]

    def _mark_dirty(self) -> None:
        """Invalidate outstanding completion timers and queue a refill.

        The generation bump happens immediately — exactly when the old
        eager rebalance would have invalidated timers — while the
        progressive-filling pass is deferred to the end of the current
        instant, coalescing all same-instant arrivals and departures
        into a single pass over the final flow set.
        """
        self._generation += 1
        if not self._refill_pending:
            self._refill_pending = True
            self.env.defer(self._deferred_refill)

    def _deferred_refill(self) -> None:
        self._refill_pending = False
        self._advance_clock()
        self._rebalance()

    def _advance_clock(self) -> None:
        """Account progress of all flows since the last rate change."""
        elapsed = self.env.now - self._last_update
        if elapsed > 0:
            for flow in self._flows:
                flow.remaining_bytes -= flow.rate_bps * elapsed / 8.0
        self._last_update = self.env.now

    def _rebalance(self) -> None:
        """Recompute max-min fair rates and reschedule completion."""
        if self.topology._version != self._topology_version:
            self._refresh_topology_caches()
        self._assign_rates()
        self._generation += 1
        self._schedule_next_completion()

    def _refresh_topology_caches(self) -> None:
        """Catch up with the pairs the topology changed since this
        fabric last looked: drop the routes over each and refresh its
        path state's capacity (idle too: a flow still propagating may
        hold it)."""
        topology = self.topology
        changed = topology.changed_since(self._topology_version)
        self._topology_version = topology._version
        pair_routes = self._pair_routes
        if pair_routes is None:
            pair_routes = self._pair_routes = {}
            for key in self._rid_cache:
                pair_routes.setdefault(_path_rid(key[0], key[1]), []).append(key)
        for a, b in changed:
            pair = _path_rid(a, b)
            for key in pair_routes.pop(pair, ()):
                del self._rid_cache[key]
            state = self._states.get(pair)
            if state is not None:
                state.capacity = topology.path(a, b).capacity_bps

    def _assign_rates(self) -> None:
        """Progressive filling over the incrementally-maintained resources.

        Arithmetically identical to a from-scratch max-min computation:
        the same sequence of global fill increments is applied to each
        flow in the same order (the per-flow ceiling is folded into a
        headroom counter, which is the private single-member resource of
        the reference algorithm — ``capacity / 1`` and ``capacity -
        increment * 1`` are bitwise-exact identities). Only the data
        structures differ: membership sets are reused rather than
        rebuilt, each resource's fill state (``remaining``, ``count``)
        lives on its persistent state, reached from a flow through
        ``flow.states``, and saturation freezes flows via flags and
        unsaturated member counts instead of set discards across every
        resource.
        """
        flows = self._flows
        if not flows:
            return
        if len(flows) == 1:
            # One flow: its rate is the min of its ceiling and its
            # resources' capacities (a single fill round of the general
            # algorithm, with ``0.0 + x == x`` for the accumulation).
            (flow,) = flows
            rate = flow.ceiling_bps
            for state in flow.states:
                capacity = state.capacity
                if capacity < rate:
                    rate = capacity
            flow.rate_bps = rate
            return
        for flow in flows:
            flow.rate_bps = 0.0
            flow._fill_headroom = flow.ceiling_bps
            flow._fill_active = True
        entries = list(self._resources.values())
        for entry in entries:
            entry.remaining = entry.capacity
            entry.count = len(entry.members)
        active = list(flows)
        while active:
            increment = active[0]._fill_headroom
            for flow in active:
                headroom = flow._fill_headroom
                if headroom < increment:
                    increment = headroom
            for entry in entries:
                share = entry.remaining / entry.count
                if share < increment:
                    increment = share
            threshold = _EPS * (increment if increment > 1.0 else 1.0)
            saturated_entries = None
            for entry in entries:
                entry.remaining -= increment * entry.count
                if entry.remaining <= threshold:
                    if saturated_entries is None:
                        saturated_entries = [entry]
                    else:
                        saturated_entries.append(entry)
            newly = []
            for flow in active:
                flow.rate_bps += increment
                headroom = flow._fill_headroom - increment
                flow._fill_headroom = headroom
                if headroom <= threshold:
                    flow._fill_active = False
                    newly.append(flow)
            if saturated_entries is not None:
                for entry in saturated_entries:
                    for flow in entry.members:
                        if flow._fill_active:
                            flow._fill_active = False
                            newly.append(flow)
            if not newly:
                # Numerical safety: freeze everything to guarantee progress.
                break
            for flow in newly:
                for entry in flow.states:
                    entry.count -= 1
            active = [f for f in active if f._fill_active]
            entries = [e for e in entries if e.count > 0]

    def _schedule_next_completion(self) -> None:
        if not self._flows:
            return
        horizons = [
            flow.remaining_bytes * 8.0 / flow.rate_bps
            for flow in self._flows
            if flow.rate_bps > 0
        ]
        if not horizons:
            # Every active flow is rate-starved (a partitioned path can
            # floor rates to a crawl that underflows to zero); progress
            # resumes on the next topology change or flow departure.
            return
        horizon = min(horizons)
        # Clamp so the timer always advances the clock: at large
        # simulation times a tiny dt can round away entirely, which
        # would stall completion forever.
        horizon = max(horizon, max(abs(self.env.now), 1.0) * 1e-12, 1e-9)
        generation = self._generation

        def on_timer() -> None:
            if generation == self._generation:
                self._complete_due_flows()

        self.env.call_later(max(horizon, 0.0), on_timer)

    def _complete_due_flows(self) -> None:
        self._advance_clock()
        # A flow is done when the residue is a rounding artifact or would
        # drain within a microsecond at its current rate: ``remaining <=
        # max(_EPS * max(1.0, total), rate * 1e-6 / 8.0)``, written as two
        # comparisons of the same float expressions.
        finished = []
        for flow in self._flows:
            remaining = flow.remaining_bytes
            total = flow.total_bytes
            if (remaining <= _EPS * (total if total > 1.0 else 1.0)
                    or remaining <= flow.rate_bps * 1e-6 / 8.0):
                finished.append(flow)
        if len(finished) == len(self._flows):
            # Every active flow finished: reset membership wholesale
            # rather than discarding each flow from its states. Only
            # occupied states are in ``_resources``, so clearing theirs
            # empties every member set, as the per-flow path would.
            self._flows.clear()
            for state in self._resources.values():
                state.members.clear()
            self._resources.clear()
        else:
            for flow in finished:
                self._unregister_flow(flow)
        self._finish_flows(finished)
        self.env.succeed_all(finished)
        self._mark_dirty()
