"""End-to-end simulated Hivemind training runs.

:func:`run_hivemind` wires every substrate together: the network fabric
and topology, calibrated per-peer compute rates, matchmaking, the
Moshpit averager, data loading from the object store, the DHT +
monitor, and (optionally) a spot fleet with interruptions and a real
numpy model trained with real gradients.

All of that lives on one private run object, :class:`_Run`: it owns
the roster (who trains right now, and the one way in and out of a run)
and the epoch loop, and lands every averaging round through one method
that books it on the epoch that launched it.

The returned :class:`RunResult` carries everything the paper reports
per experiment: global/local throughput, per-epoch calculation /
matchmaking / transfer splits, the granularity metric, egress traffic
by class and by site, and the data-loading bill.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from ..cloud import InterruptionModel, SpotFleet, get_instance_type
from ..data import StoreLink, get_dataset
from ..faults import FaultInjector, FaultSchedule, FaultTolerance
from ..hardware import get_gpu, local_sps
from ..models import get_model
from ..network import Fabric, Topology, location_of
from ..simulation import Environment, Event, Interrupt, RandomStreams
from ..telemetry import resolve_telemetry
from ..training import MLP, SGD, compute_gradient, make_classification_data
from .averager import Contribution, MoshpitAverager
from .dht import DhtNetwork, DhtNode
from .matchmaking import MIN_MATCHMAKING_S, form_groups, matchmaking_delay
from .monitor import PROGRESS_KEY, TrainingMonitor

__all__ = [
    "PeerSpec",
    "NumericConfig",
    "HivemindRunConfig",
    "EpochStats",
    "RunResult",
    "run_hivemind",
]


@dataclass(frozen=True)
class PeerSpec:
    """One training participant: a network site plus its accelerator."""

    site: str
    gpu: str  # key into the GPU catalog ("t4", "a10", "rtx8000", "dgx2")

    @property
    def instance_key(self) -> Optional[str]:
        """Best-effort mapping to the instance catalog for pricing."""
        provider = self.site.split(":", 1)[0]
        mapping = {
            ("gc", "t4"): "gc-t4",
            ("aws", "t4"): "aws-t4",
            ("azure", "t4"): "azure-t4",
            ("lambda", "a10"): "lambda-a10",
            ("gc", "dgx2"): "gc-dgx2",
            ("gc", "4xt4"): "gc-4xt4",
            ("gc", "a100"): "gc-a100",
            ("onprem", "rtx8000"): "onprem-rtx8000",
            ("onprem", "dgx2"): "onprem-dgx2",
        }
        return mapping.get((provider, self.gpu))


@dataclass(frozen=True)
class NumericConfig:
    """Train a real (small) numpy model inside the simulation.

    The proxy model stands in numerically for the full-size model: the
    simulated payload still uses the real parameter count, but the
    gradients exchanged and applied are genuine.
    """

    in_features: int = 16
    hidden: tuple[int, ...] = (32,)
    num_classes: int = 4
    learning_rate: float = 0.2
    dataset_size: int = 512


@dataclass
class HivemindRunConfig:
    model: str
    peers: list[PeerSpec]
    topology: Topology
    target_batch_size: int = 32768
    epochs: int = 5
    codec: str = "fp16"
    min_matchmaking_s: float = MIN_MATCHMAKING_S
    seed: int = 0
    #: Delayed-parameter-update style overlap of averaging with the next
    #: accumulation round (ablation; the paper's measured behaviour is
    #: additive calc + comm, so the default is False).
    overlap_communication: bool = False
    account_data_loading: bool = True
    numeric: Optional[NumericConfig] = None
    interruption_model: Optional[InterruptionModel] = None
    startup_s: float = 120.0
    monitor_interval_s: Optional[float] = 25.0
    #: Deterministic chaos: a :class:`repro.faults.FaultSchedule` to
    #: inject during the run (link degradation, partitions, stragglers,
    #: crashes, zone outages). ``None`` disables injection entirely.
    fault_schedule: Optional[FaultSchedule] = None
    #: Survival policy for averaging rounds and DHT RPCs. Defaults to
    #: ``FaultTolerance()`` when a schedule is set, else legacy
    #: (no deadlines, no retries) behaviour.
    fault_tolerance: Optional[FaultTolerance] = None
    #: Probability that a preemption cascades to each other live VM in
    #: the same zone (correlated capacity crunch; 0 = independent).
    zone_correlation: float = 0.0
    #: When set, sample system metrics (egress, live peers, progress)
    #: every interval — the paper logs system metrics every second.
    metrics_interval_s: Optional[float] = None
    #: Telemetry sink (:class:`repro.telemetry.Telemetry`). ``None``
    #: falls back to the ambient sink installed by
    #: :func:`repro.telemetry.use_telemetry`, else tracing is disabled
    #: at zero cost.
    telemetry: Optional[object] = None
    #: Provisioned-but-idle spare peers the control plane may activate
    #: (migration targets / scale-up spares). Part of the topology and
    #: the averaging plan, but contribute nothing until a policy
    #: decision brings them up.
    standby_peers: tuple[PeerSpec, ...] = ()
    #: Control-plane policy (see :mod:`repro.controlplane`). ``None``
    #: — the default — preserves static behaviour byte for byte.
    policy: Optional[object] = None
    #: Location -> :class:`~repro.cloud.SpotPriceModel`. Drives both
    #: the controller's migration signal and the time-integrated VM
    #: bill; ``None`` keeps flat catalog pricing.
    price_models: Optional[dict] = None

    def __post_init__(self):
        if not self.peers:
            raise ValueError("need at least one peer")
        if self.target_batch_size < 1:
            raise ValueError("target_batch_size must be >= 1")
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if self.standby_peers:
            self.standby_peers = tuple(self.standby_peers)
            active = {peer.site for peer in self.peers}
            for peer in self.standby_peers:
                if peer.site in active:
                    raise ValueError(
                        f"standby peer {peer.site!r} duplicates an "
                        "active peer"
                    )


@dataclass(frozen=True)
class MetricSample:
    """One system-metrics snapshot (paper: logged every second)."""

    time_s: float
    live_peers: int
    epochs_done: int
    samples_applied: int
    egress_bytes_total: float
    active_flows: int


@dataclass
class EpochStats:
    index: int
    calc_s: float
    matchmaking_s: float
    transfer_s: float
    wall_s: float
    samples: int
    live_peers: int
    loss: Optional[float] = None
    #: Averaging-round retries this epoch needed (fault-tolerant runs).
    rounds_retried: int = 0
    #: True when the epoch's round fell back to a partial average.
    degraded: bool = False

    @property
    def comm_s(self) -> float:
        return self.matchmaking_s + self.transfer_s

    @property
    def granularity(self) -> float:
        return self.calc_s / self.comm_s if self.comm_s > 0 else float("inf")


@dataclass
class RunResult:
    config: HivemindRunConfig
    epochs: list[EpochStats]
    duration_s: float
    egress_bytes_by_class: dict[str, float]
    egress_bytes_by_site: dict[str, float]
    egress_bytes_by_pair: dict[tuple[str, str], float]
    averaging_bytes: float
    data_ingress_bytes_by_site: dict[str, float]
    monitor_samples: int = 0
    interruptions: int = 0
    state_syncs: int = 0
    #: High-water mark of concurrent fabric flows during the run
    #: (reported by ``repro bench`` as a fan-out size proxy).
    peak_active_flows: int = 0
    losses: list[float] = field(default_factory=list)
    metrics: list[MetricSample] = field(default_factory=list)
    #: The telemetry sink the run recorded into (``None`` when tracing
    #: was disabled); carries the tracer and the metrics registry.
    telemetry: Optional[object] = None
    #: Total averaging-round retries across all epochs.
    rounds_retried: int = 0
    #: Epochs whose averaging round degraded to a partial average.
    degraded_epochs: int = 0
    #: Fabric transfers cancelled mid-flight (round aborts, RPC
    #: timeouts).
    transfers_aborted: int = 0
    #: Injected faults by kind (empty when no schedule was configured).
    fault_counts: dict[str, int] = field(default_factory=dict)
    #: Site -> [(start_s, end_s), ...] VM uptime windows, recorded when
    #: a control-plane policy or spot price models are configured.
    #: Empty otherwise; cost accounting then assumes full-run uptime.
    uptime_intervals_by_site: dict[str, list[tuple[float, float]]] = field(
        default_factory=dict
    )
    #: Controller decision log (:class:`repro.controlplane.Decision`),
    #: in the order they were taken. Byte-identical across
    #: identically-seeded runs.
    decisions: list = field(default_factory=list)
    #: Applied control actions by kind ("migrate", "scale_up", ...).
    control_actions: dict[str, int] = field(default_factory=dict)

    @property
    def total_samples(self) -> int:
        return sum(e.samples for e in self.epochs)

    @property
    def throughput_sps(self) -> float:
        """Global throughput: applied samples over wall time."""
        if self.duration_s <= 0:
            return 0.0
        return self.total_samples / self.duration_s

    @property
    def calc_time_s(self) -> float:
        return sum(e.calc_s for e in self.epochs)

    @property
    def comm_time_s(self) -> float:
        return sum(e.comm_s for e in self.epochs)

    @property
    def granularity(self) -> float:
        """The paper's key metric: calculation over communication time."""
        if self.comm_time_s <= 0:
            return float("inf")
        return self.calc_time_s / self.comm_time_s

    @property
    def local_throughput_sps(self) -> float:
        """Normalized throughput without the averaging step."""
        calc = self.calc_time_s
        if calc <= 0:
            return 0.0
        return self.total_samples / calc

    def speedup_over(self, baseline_sps: float) -> float:
        return self.throughput_sps / baseline_sps

    def average_egress_rate_bps(self) -> float:
        """Mean per-site averaging egress rate over the whole run."""
        if self.duration_s <= 0 or not self.egress_bytes_by_site:
            return 0.0
        mean_bytes = float(
            np.mean(list(self.egress_bytes_by_site.values()))
        )
        return mean_bytes * 8.0 / self.duration_s


class _NumericState:
    """Per-peer real-model replicas plus a shared synthetic dataset."""

    def __init__(self, config: NumericConfig, sites: list[str], seed: int):
        rng = np.random.default_rng(seed)
        self.features, self.labels = make_classification_data(
            rng,
            num_samples=config.dataset_size,
            num_features=config.in_features,
            num_classes=config.num_classes,
        )
        self.replicas = {}
        self.optimizers = {}
        for site in sites:
            model = MLP(config.in_features, list(config.hidden),
                        config.num_classes, rng=np.random.default_rng(seed + 1))
            self.replicas[site] = model
            self.optimizers[site] = SGD(model.parameters(),
                                        lr=config.learning_rate)
        self.rng = rng

    def gradient_for(self, site: str, num_samples: int):
        count = max(min(num_samples, len(self.features)), 1)
        index = self.rng.integers(0, len(self.features), size=count)
        gradient, loss = compute_gradient(
            self.replicas[site], self.features[index], self.labels[index]
        )
        return gradient * count, count, loss

    def apply(self, sites: list[str], average: np.ndarray) -> None:
        for site in sites:
            self.replicas[site].load_grad_vector(average)
            self.optimizers[site].step()


class _UptimeLedger:
    """Per-site VM uptime windows for time-integrated spot billing."""

    def __init__(self, env: Environment, sites: list[str]):
        self.env = env
        self.intervals: dict[str, list[tuple[float, float]]] = {
            site: [] for site in sites
        }
        self._since: dict[str, float] = {}

    def mark_up(self, site: str) -> None:
        if site in self.intervals and site not in self._since:
            self._since[site] = self.env.now

    def mark_down(self, site: str) -> None:
        start = self._since.pop(site, None)
        if start is not None and self.env.now > start:
            self.intervals[site].append((start, self.env.now))

    def close(self) -> None:
        for site in list(self._since):
            self.mark_down(site)


class _Run:
    """One simulated training run: its roster and its epoch loop.

    The constructor wires every substrate together once. Two things
    then change while the run goes, and both live here.

    The roster says which sites train right now. A site contributes
    while its training state is current (``synced``), its VM is up, and
    the control plane keeps it active. The spot fleet's up/down events,
    the controller's activate/deactivate callbacks and the averager's
    liveness probe all go through here. A returning peer first
    downloads the model state from the nearest live peer (the paper
    observed this taking up to two hivemind epochs because averaging
    keeps the network busy).

    The epoch loop accumulates the target batch, matchmakes, launches
    an averaging round and publishes the epoch. Every round lands
    through :meth:`_land`, which books it on the epoch that launched
    it: before that epoch is published in plain runs, and at the next
    epoch's matchmaking boundary (or after the loop) with
    ``overlap_communication``.
    """

    def __init__(self, config: HivemindRunConfig):
        self.config = config
        model = get_model(config.model)
        schedule = config.fault_schedule
        if schedule is not None and schedule.empty:
            schedule = None
        ft = config.fault_tolerance or (
            FaultTolerance() if schedule is not None else None
        )
        # The injector rewrites paths in place; a private copy keeps the
        # caller's topology, and so any rerun of this config, pristine.
        topology = self.topology = (
            copy.deepcopy(config.topology) if schedule is not None
            else config.topology
        )
        tel = self.tel = resolve_telemetry(config.telemetry)
        self.tracing = tel.enabled
        env = self.env = Environment(telemetry=tel if self.tracing else None)
        fabric = self.fabric = Fabric(env, topology, telemetry=tel)
        streams = RandomStreams(config.seed)

        all_peers = list(config.peers) + list(config.standby_peers)
        sites = self.sites = [peer.site for peer in config.peers]
        all_sites = self.all_sites = [peer.site for peer in all_peers]
        self.rates = {
            peer.site: local_sps(peer.gpu, model) for peer in all_peers
        }
        plan = form_groups(topology, all_sites)
        averager = self.averager = MoshpitAverager(
            env,
            fabric,
            plan,
            parameter_count=model.parameters,
            codec=config.codec,
            stream_caps_bps={peer.site: get_gpu(peer.gpu).avg_stream_cap_bps
                             for peer in all_peers},
            telemetry=tel,
            fault_tolerance=ft,
        )

        links: dict[str, StoreLink] = {}
        if config.account_data_loading:
            dataset = get_dataset(model.dataset)
            links = {site: StoreLink(dataset) for site in all_sites}
        self.links = links

        #: Crash/zone-outage faults need force-preemptible slots even when
        #: no stochastic interruption model is configured.
        needs_fleet = config.interruption_model is not None or (
            schedule is not None
            and bool(schedule.crash_faults or schedule.zone_outages)
        )
        fleet = self.fleet = SpotFleet(
            env,
            streams.stream("interruptions"),
            slots=[
                (peer.site, get_instance_type(peer.instance_key or "gc-t4"))
                for peer in all_peers
            ],
            interruption_model=config.interruption_model,
            startup_s=config.startup_s,
            telemetry=tel,
            allow_forced=schedule is not None,
            zone_correlation=config.zone_correlation,
            zone_of=lambda s: topology.get(s).zone,
        ) if needs_fleet else None

        self.numeric = (_NumericState(config.numeric, all_sites, config.seed)
                        if config.numeric is not None else None)

        # -- DHT --------------------------------------------------------------
        dht_network = DhtNetwork(env, fabric, telemetry=tel, fault_tolerance=ft)
        self.dht_nodes = {
            site: DhtNode(dht_network, site) for site in all_sites
        }
        self.coordinator = self.dht_nodes[sites[0]]

        # -- roster -----------------------------------------------------------
        # VM uptime windows are only billed (and reported) under a control
        # plane or time-varying prices; an empty ledger records nothing.
        billed = config.policy is not None or bool(config.price_models)
        self.uptime = _UptimeLedger(env, all_sites if billed else [])
        for site in sites:
            self.uptime.mark_up(site)
        #: Fault-tolerant runs also model the DHT departure and cold
        #: rejoin of a preempted VM.
        self.chaos = ft is not None
        self.sync_bytes = model.gradient_bytes("fp16")
        self.synced: set[str] = set(sites)
        #: Sites that completed an initial DHT join (the bootstrap
        #: covers the starting roster; activated spares join lazily).
        self.joined: set[str] = set(sites)
        self._slots = (
            {slot.site: slot for slot in fleet.slots}
            if fleet is not None else {}
        )
        self.state_syncs = 0
        #: One-shot event waiters block on when no peer is live; re-armed
        #: on every wake so each all-dead episode gets a fresh signal.
        self.rejoined = Event(env)
        if fleet is not None:
            fleet.subscribe(self.on_fleet_event)
        averager.set_liveness(self.is_up)

        injector: Optional[FaultInjector] = None
        if schedule is not None:
            injector = FaultInjector(
                env, topology, fabric=fabric, schedule=schedule,
                telemetry=tel, sites=sites,
            )
            if fleet is not None:
                injector.on_crash = fleet.preempt
            injector.start()
        self.injector = injector
        self.monitor = TrainingMonitor(
            env, self.coordinator, interval_s=config.monitor_interval_s,
            telemetry=tel if self.tracing else None,
        ) if config.monitor_interval_s is not None else None

        # -- control plane ----------------------------------------------------
        controller = self.controller = (
            self._controller() if config.policy is not None else None
        )
        #: Sites the control plane keeps active: every site without a
        #: controller, else the controller's own set.
        self.active: set[str] = (
            controller.active if controller is not None else set(all_sites)
        )

        self.epochs: list[EpochStats] = []
        self.metric_samples: list[MetricSample] = []
        self.matchmaking_rng = streams.stream("matchmaking")

    def _controller(self):
        from ..controlplane import Controller

        config = self.config
        flat_prices: dict[str, float] = {}
        for peer in (*config.peers, *config.standby_peers):
            loc = location_of(peer.site)
            if loc in flat_prices or peer.instance_key is None:
                continue
            price = get_instance_type(peer.instance_key).price_per_hour(
                spot=True
            )
            if math.isfinite(price) and price > 0:
                flat_prices[loc] = price

        return Controller(
            self.env,
            config.policy,
            active_sites=self.sites,
            standby_sites=[peer.site for peer in config.standby_peers],
            pinned_sites=(self.sites[0],),
            target_batch_size=config.target_batch_size,
            price_models=config.price_models,
            flat_prices=flat_prices,
            preemption_counts=self.preemption_counts,
            activate=self.activate,
            deactivate=self.deactivate,
            telemetry=self.tel,
        )

    # -- roster ---------------------------------------------------------------

    def is_up(self, site: str) -> bool:
        """Whether the site's VM is running (always, without a fleet)."""
        slot = self._slots.get(site)
        return slot is None or slot.up

    def live_sites(self) -> list[str]:
        """Contributing sites, in roster order."""
        return [site for site in self.all_sites
                if site in self.synced and site in self.active
                and self.is_up(site)]

    def preemption_counts(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for slot in self._slots.values():
            loc = location_of(slot.site)
            counts[loc] = counts.get(loc, 0) + slot.interruptions
        return counts

    def _leave(self, site: str) -> None:
        """The site stops contributing until it syncs again."""
        self.uptime.mark_down(site)
        self.synced.discard(site)
        self.averager.notify_peer_down(site)

    def deactivate(self, site: str) -> None:
        """Controller callback: park an active site."""
        self._leave(site)
        self.dht_nodes[site].leave()

    def on_fleet_event(self, event) -> None:
        site = event.site
        if not event.up:
            self._leave(site)
            if self.chaos:
                self.dht_nodes[site].leave()
        elif self.env.now > 0 and site in self.active:
            # A rejoin, not the initial boot; sites the controller
            # deactivated stay parked.
            self.uptime.mark_up(site)
            self.env.process(self._rejoin(site))

    def activate(self, site: str) -> None:
        """Controller callback: boot a parked or spare site."""
        self.uptime.mark_up(site)
        self.env.process(self._activate(site))

    def _rejoin(self, site: str):
        if self.chaos:
            # The replacement VM rejoins the DHT cold before it can
            # participate again.
            node = self.dht_nodes[site]
            if not node.alive:
                yield from node.rejoin(self.coordinator)
        yield from self._sync_from_nearest(site)

    def _activate(self, site: str):
        yield self.env.timeout(self.config.startup_s)
        node = self.dht_nodes[site]
        if not node.alive:
            yield from node.rejoin(self.coordinator)
        elif site not in self.joined:
            # A spare's first DHT join; only activation reaches it.
            yield from node.join(self.coordinator)
            self.joined.add(site)
        yield from self._sync_from_nearest(site)
        self.controller.finish_activation(site)

    def _sync_from_nearest(self, site: str):
        """Download the model state from the nearest synced peer, then
        mark the site synced and wake anyone waiting for a live peer."""
        donors = [s for s in self.all_sites if s in self.synced and s != site]
        if donors:
            donor = min(donors, key=lambda d: self.topology.rtt_s(d, site))
            with self.tel.span("state_sync", category="sync", track=site,
                               donor=donor):
                yield self.fabric.transfer(donor, site, self.sync_bytes,
                                           tag="sync")
            self.state_syncs += 1
            self.tel.counter("state_syncs_total",
                             "Model-state downloads after rejoin").inc()
        self.synced.add(site)
        rejoined, self.rejoined = self.rejoined, Event(self.env)
        rejoined.succeed()

    # -- epoch loop -----------------------------------------------------------

    def run(self) -> RunResult:
        env = self.env
        main = env.process(self._train())
        processes = []
        if self.monitor is not None:
            processes.append(env.process(self.monitor.run()))
        if self.config.metrics_interval_s is not None:
            processes.append(env.process(self._log_metrics()))
        env.run(main)
        duration_s = env.now
        self.uptime.close()
        for process in processes:
            if process.is_alive:
                process.interrupt("run finished")
                env.run(process)
        if self.tracing:
            self.tel.sync_kernel_metrics()
        return self._result(duration_s)

    def _train(self):
        config, env, tel = self.config, self.env, self.tel
        # Bootstrap the DHT before training starts.
        with tel.span("dht_bootstrap", category="dht", track="epochs"):
            for site in self.sites[1:]:
                yield from self.dht_nodes[site].join(self.coordinator)
        epoch_seconds = tel.histogram(
            "epoch_wall_seconds", "Wall time per hivemind epoch"
        )
        live_gauge = tel.gauge("live_peers", "Contributing peers per epoch")
        samples_counter = tel.counter(
            "samples_applied_total", "Samples applied across all epochs"
        )
        in_flight = None
        for epoch in range(config.epochs):
            epoch_start = env.now
            target = (
                self.controller.current_tbs if self.controller is not None
                else config.target_batch_size
            )
            contributed = yield from self._accumulate(target)
            calc_s = env.now - epoch_start

            matchmaking_start = env.now
            delay = matchmaking_delay(
                self.matchmaking_rng, calc_s, config.min_matchmaking_s,
                telemetry=tel,
            )
            yield env.timeout(delay)

            live = [site for site, count in contributed.items() if count > 0]
            contributions = []
            loss_values = []
            for site in live:
                count = int(round(contributed[site]))
                if count <= 0:
                    continue
                weighted = None
                if self.numeric is not None:
                    weighted, count, loss = self.numeric.gradient_for(
                        site, count
                    )
                    loss_values.append(loss)
                contributions.append(
                    Contribution(site, count, weighted_sum=weighted)
                )

            self._phase_spans(epoch, live, "calc", epoch_start,
                              matchmaking_start)
            self._phase_spans(epoch, live, "matchmaking", matchmaking_start,
                              matchmaking_start + delay)
            if in_flight is not None:
                # The previous (overlapped) round lands before this
                # epoch's round starts.
                yield from self._land(*in_flight)

            stats = EpochStats(
                index=epoch,
                calc_s=calc_s,
                matchmaking_s=delay,
                transfer_s=0.0,
                wall_s=0.0,
                samples=int(sum(contributed.values())),
                live_peers=len(live),
                loss=float(np.mean(loss_values)) if loss_values else None,
            )
            in_flight = (stats, live, env.now,
                         env.process(self.averager.run_round(contributions)))
            if not config.overlap_communication:
                yield from self._land(*in_flight)
                in_flight = None
            stats.wall_s = env.now - epoch_start

            self.epochs.append(stats)
            if self.tracing:
                tel.tracer.add_span("epoch", "epoch", "epochs",
                                    epoch_start, env.now, epoch=epoch,
                                    samples=stats.samples, peers=len(live))
            epoch_seconds.observe(stats.wall_s)
            live_gauge.set(len(live))
            samples_counter.inc(stats.samples)
            env.process(self.coordinator.store(
                PROGRESS_KEY,
                {"epoch": epoch, "live_peers": len(live),
                 "total_samples": stats.samples},
                ttl_s=600.0,
            ))
            if self.controller is not None:
                self.controller.on_epoch_end(stats)
        if in_flight is not None:
            yield from self._land(*in_flight)

    def _land(self, stats: EpochStats, live: list[str], started_s: float,
              round_process):
        """Wait for an averaging round, apply its average, and book its
        transfer time, retries and surviving samples on ``stats``, the
        epoch that launched it."""
        result = yield round_process
        self._phase_spans(stats.index, live, "transfer", started_s,
                          self.env.now)
        if self.numeric is not None and result.average is not None:
            self.numeric.apply(live, result.average)
        stats.transfer_s = result.wall_time_s
        stats.rounds_retried = result.retries
        stats.degraded = result.degraded
        if result.degraded and result.dropped_peers:
            # Only the surviving contributions were applied.
            stats.samples = result.total_samples

    def _accumulate(self, target: int):
        """Advance time until the live peers accumulated ``target``
        samples; returns {site: samples} actually contributed."""
        links, injector = self.links, self.injector
        contributed: dict[str, float] = {site: 0.0 for site in self.all_sites}
        remaining = float(target)
        while remaining > 1e-9:
            live = self.live_sites()
            if not live:
                # Block until a peer finishes resyncing instead of
                # polling: every completed sync wakes this event.
                yield self.rejoined
                continue
            effective: dict[str, float] = {}
            for site in live:
                rate = self.rates[site]
                if injector is not None:
                    rate *= injector.compute_factor(site)
                link = links.get(site)
                if (link is not None
                        and link.demand_bps(rate) >= link.link_capacity_bps):
                    # Data loading caps the rate at the link's bandwidth.
                    rate = min(rate, link.link_capacity_bps / (
                        8.0 * link.dataset.bytes_per_sample
                    ))
                effective[site] = rate
            total_rate = sum(effective.values())
            if total_rate <= 0:
                yield self.env.timeout(5.0)
                continue
            dt = remaining / total_rate
            step = min(dt, 30.0)
            yield self.env.timeout(step)
            for site, rate in effective.items():
                contributed[site] += rate * step
            remaining -= total_rate * step
        for site, count in contributed.items():
            if site in links and count > 0:
                links[site].consume(count)
        return contributed

    def _phase_spans(self, epoch: int, live: list[str], phase: str,
                     start_s: float, end_s: float) -> None:
        """One retrospective span per live peer track (when tracing)."""
        if not self.tracing or end_s <= start_s:
            return
        for site in live:
            self.tel.tracer.add_span(phase, phase, site, start_s, end_s,
                                     epoch=epoch)

    def _log_metrics(self):
        try:
            while True:
                yield self.env.timeout(self.config.metrics_interval_s)
                self.metric_samples.append(MetricSample(
                    time_s=self.env.now,
                    live_peers=len(self.live_sites()),
                    epochs_done=len(self.epochs),
                    samples_applied=sum(e.samples for e in self.epochs),
                    egress_bytes_total=self.fabric.meter.total_bytes,
                    active_flows=self.fabric.active_flows,
                ))
        except Interrupt:
            return

    def _result(self, duration_s: float) -> RunResult:
        fabric, meter = self.fabric, self.fabric.meter
        controller, injector = self.controller, self.injector
        monitor, fleet = self.monitor, self.fleet
        return RunResult(
            config=self.config,
            epochs=self.epochs,
            duration_s=duration_s,
            egress_bytes_by_class=dict(meter.by_class),
            egress_bytes_by_site=dict(meter.egress_by_site),
            egress_bytes_by_pair=dict(meter.by_pair),
            averaging_bytes=meter.total_bytes,
            data_ingress_bytes_by_site={
                site: link.bill.ingress_bytes
                for site, link in self.links.items()
            },
            monitor_samples=len(monitor.samples) if monitor is not None else 0,
            interruptions=fleet.total_interruptions if fleet is not None else 0,
            peak_active_flows=fabric.peak_active_flows,
            state_syncs=self.state_syncs,
            losses=[e.loss for e in self.epochs if e.loss is not None],
            metrics=self.metric_samples,
            telemetry=self.tel if self.tracing else None,
            rounds_retried=sum(e.rounds_retried for e in self.epochs),
            degraded_epochs=sum(1 for e in self.epochs if e.degraded),
            transfers_aborted=fabric.aborted_flows,
            fault_counts=dict(injector.counts) if injector is not None else {},
            uptime_intervals_by_site={
                site: list(iv) for site, iv in self.uptime.intervals.items()
                if iv
            },
            decisions=(
                list(controller.decisions) if controller is not None else []
            ),
            control_actions=(
                dict(controller.counts) if controller is not None else {}
            ),
        )


def run_hivemind(config: HivemindRunConfig) -> RunResult:
    """Simulate a full Hivemind training run; see module docstring."""
    return _Run(config).run()
